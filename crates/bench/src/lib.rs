//! Shared plumbing for the table/figure regenerator binaries. Each one
//! reads exactly the shared flags ([`cli::CliArgs`]) listed here; any other
//! `--flag` is a one-line usage error (exit 2) before any work starts:
//!
//! | Binary    | Artifact | Shared flags it reads |
//! |-----------|----------|-----------------------|
//! | `table1`  | Table 1 — fault types and field coverage | none |
//! | `table2`  | Table 2 — relevant API calls (profiling intersection) | none |
//! | `table3`  | Table 3 — faultload details per OS edition | `--limit` |
//! | `table4`  | Table 4 — injector intrusiveness (max perf vs profile mode) | `--jobs`, `--seed` |
//! | `table5`  | Table 5 — full campaign results, 3 iterations + averages | all twelve |
//! | `figure5` | Figure 5 — Heron/Wren comparison bars | all twelve |
//! | `ablation_activation` | §2.4 activation-assurance ablation | `--limit`, `--jobs`, `--seed`, `--trace-dir` |
//! | `ablation_editions` | per-edition cost and fault-surface attribution | none |
//! | `extension_faultmix` | software vs hardware vs operator faults | `--limit`, `--jobs`, `--seed` |
//!
//! `faultbench` and `perfgate` list their flags in their module docs.
//! `--limit N` evenly samples each faultload down to N faults and `--iters
//! N` sets the `table5`/`figure5` iteration count (default 3), for fast
//! smoke passes. `table5`, `figure5` and `faultbench campaign` run their
//! iterations through one driver, [`campaign::run_iterations`].

pub mod campaign;
pub mod cli;

use depbench::{profilephase, ProfilePhaseConfig};
use simos::{Edition, Os};
use swfit_core::{Faultload, Scanner};

/// The fine-tuned faultload for an edition: scan the OS image restricted to
/// the FIT subset the profiling phase selects — the complete §2 pipeline.
pub fn tuned_faultload(edition: Edition) -> Faultload {
    let os = Os::boot(edition).expect("OS boots");
    let selected = profilephase::selected_functions(edition, &ProfilePhaseConfig::default());
    Scanner::standard().scan_functions(os.program().image(), &selected)
}

/// `YYYY-MM-DD` (UTC) without a date-time dependency: days since the
/// epoch to a civil date (Howard Hinnant's `civil_from_days`).
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock after 1970")
        .as_secs();
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuned_faultloads_exist_for_both_editions() {
        for edition in Edition::ALL {
            let fl = tuned_faultload(edition);
            assert!(fl.len() > 50, "{edition}: only {} faults", fl.len());
        }
    }

    #[test]
    fn xp_faultload_is_larger_as_in_table_3() {
        let w2k = tuned_faultload(Edition::Nimbus2000);
        let xp = tuned_faultload(Edition::NimbusXp);
        assert!(xp.len() > w2k.len(), "xp {} vs w2k {}", xp.len(), w2k.len());
    }
}
