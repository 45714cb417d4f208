//! Shared plumbing for the table/figure regenerator binaries. Each one
//! reads exactly the shared flags ([`cli::CliArgs`]) listed here; any other
//! `--flag` is a one-line usage error (exit 2) before any work starts:
//!
//! | Binary    | Artifact | Shared flags it reads |
//! |-----------|----------|-----------------------|
//! | `table1`  | Table 1 — fault types and field coverage | none |
//! | `table2`  | Table 2 — relevant API calls (profiling intersection) | none |
//! | `table3`  | Table 3 — faultload details per OS edition | `--limit`, `--store`, `--chaos-seed`, `--chaos-profile` |
//! | `table4`  | Table 4 — injector intrusiveness (max perf vs profile mode) | `--jobs`, `--seed` |
//! | `table5`  | Table 5 — full campaign results, 3 iterations + averages | all twelve |
//! | `figure5` | Figure 5 — Heron/Wren comparison bars | all twelve |
//! | `ablation_activation` | §2.4 activation-assurance ablation | `--limit`, `--jobs`, `--seed`, `--store`, `--resume`, `--chaos-seed`, `--chaos-profile`, `--trace-dir` |
//! | `ablation_editions` | per-edition cost and fault-surface attribution | `--store`, `--chaos-seed`, `--chaos-profile` |
//! | `extension_faultmix` | software vs hardware vs operator faults | `--limit`, `--jobs`, `--seed`, `--store`, `--resume`, `--chaos-seed`, `--chaos-profile` |
//!
//! `faultbench` and `perfgate` list their flags in their module docs.
//! `--limit N` evenly samples each faultload down to N faults and `--iters
//! N` sets the `table5`/`figure5` iteration count (default 3), for fast
//! smoke passes. `table5`, `figure5` and `faultbench campaign` run their
//! iterations through one driver, [`campaign::run_iterations`].

pub mod campaign;
pub mod cli;

use depbench::{profilephase, ProfilePhaseConfig};
use faultstore::{FaultStore, StoreError};
use mvm::CodeImage;
use simos::{Edition, Os};
use swfit_core::{Faultload, Scanner};

/// Scans `image` — only the named functions when `funcs` is given, the
/// whole image otherwise — serving the map from the persistent store's
/// content-addressed cache when one is open (`--store`): a second run
/// against an unchanged image reads the map from disk instead of
/// re-walking it.
///
/// # Errors
///
/// The store error when the fault-map cache cannot be read.
pub fn scan(
    store: Option<&FaultStore>,
    scanner: &Scanner,
    image: &CodeImage,
    funcs: Option<&[String]>,
) -> Result<Faultload, StoreError> {
    match (store, funcs) {
        (Some(store), Some(funcs)) => store.scan_functions(scanner, image, funcs),
        (Some(store), None) => store.scan_image(scanner, image),
        (None, Some(funcs)) => Ok(scanner.scan_functions(image, funcs)),
        (None, None) => Ok(scanner.scan_image(image)),
    }
}

/// The fine-tuned faultload for an edition: scan the OS image restricted to
/// the FIT subset the profiling phase selects — the complete §2 pipeline.
/// The scan goes through [`scan`], so `store` serves it from the cache.
pub fn tuned_faultload(edition: Edition, store: Option<&FaultStore>) -> Faultload {
    let os = Os::boot(edition).expect("OS boots");
    let selected = profilephase::selected_functions(edition, &ProfilePhaseConfig::default());
    scan(
        store,
        &Scanner::standard(),
        os.program().image(),
        Some(&selected),
    )
    .expect("fault-map cache is readable")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuned_faultloads_exist_for_both_editions() {
        for edition in Edition::ALL {
            let fl = tuned_faultload(edition, None);
            assert!(fl.len() > 50, "{edition}: only {} faults", fl.len());
        }
    }

    #[test]
    fn xp_faultload_is_larger_as_in_table_3() {
        let w2k = tuned_faultload(Edition::Nimbus2000, None);
        let xp = tuned_faultload(Edition::NimbusXp, None);
        assert!(xp.len() > w2k.len(), "xp {} vs w2k {}", xp.len(), w2k.len());
    }
}
