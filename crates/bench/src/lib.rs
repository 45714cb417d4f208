//! Shared plumbing for the table/figure regenerator binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper:
//!
//! | Binary    | Paper artifact |
//! |-----------|----------------|
//! | `table1`  | Table 1 — fault types and field coverage |
//! | `table2`  | Table 2 — relevant API calls (profiling intersection) |
//! | `table3`  | Table 3 — faultload details per OS edition |
//! | `table4`  | Table 4 — injector intrusiveness (max perf vs profile mode) |
//! | `table5`  | Table 5 — full campaign results, 3 iterations + averages |
//! | `figure5` | Figure 5 — Heron/Wren comparison bars |
//!
//! Every binary accepts the shared flags of [`cli::CliArgs`] (`--jobs`,
//! `--seed`, `--store`, `--resume`, …). For a fast, truncated pass (CI
//! smoke runs) pass `--limit N`, which evenly samples each faultload down to
//! N faults, and, for `table5`/`figure5`, `--iters N` (default 3).

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
