//! Recomputes the pinned result digests of `digests.json` for the default
//! seed and the full faultloads, and compares them with the file.
//!
//! Slow (about two and a half minutes), so ignored by default:
//!
//! ```text
//! cargo test --release --manifest-path benchmark/Cargo.toml --test digests -- --ignored
//! ```
//!
//! After a change that is meant to alter campaign results, re-pin with
//! `BENCHMARK_BLESS=1` set.

use std::path::PathBuf;

use benchmark::check::{digest, pinned};
use benchmark::workload::{setup, Workload, DEFAULT_SEED, REPLAY_ITERATIONS};

/// Iterations pinned per workload: more than a run on a fast host reaches
/// within its budget.
fn pinned_iterations(workload: Workload) -> u64 {
    match workload {
        Workload::TunedW2kWren | Workload::ShortJournaledW2kHeron => 64,
        Workload::ActivationXpHeron => 16,
        Workload::ReplayW2kHeron => REPLAY_ITERATIONS,
    }
}

fn digests(workload: Workload) -> Vec<String> {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("digests");
    let s = setup(workload, DEFAULT_SEED, None, &out, &mut Default::default()).expect("set-up");
    (0..pinned_iterations(workload))
        .map(|iteration| {
            let result = match &s.store {
                Some(st) => st.store.run_resumable(
                    &s.campaign,
                    &s.faultload,
                    iteration,
                    workload == Workload::ReplayW2kHeron,
                ),
                None => s
                    .campaign
                    .run_injection(&s.faultload, iteration)
                    .map_err(faultstore::StoreError::from),
            }
            .expect("campaign runs");
            digest(&serde_json::to_string(&result).expect("result serializes"))
        })
        .collect()
}

#[test]
#[ignore = "runs every pinned iteration; about two and a half minutes in release"]
fn pinned_digests_match_the_default_seed() {
    let computed: Vec<(Workload, Vec<String>)> =
        Workload::ALL.into_iter().map(|w| (w, digests(w))).collect();
    if std::env::var("BENCHMARK_BLESS").is_ok_and(|v| v == "1") {
        let body: Vec<String> = computed
            .iter()
            .map(|(w, ds)| {
                let quoted: Vec<String> = ds.iter().map(|d| format!("\"{d}\"")).collect();
                format!("  \"{}\": [\n    {}\n  ]", w.name(), quoted.join(",\n    "))
            })
            .collect();
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/digests.json");
        std::fs::write(path, format!("{{\n{}\n}}\n", body.join(",\n")))
            .expect("digests.json written");
        return;
    }
    for (workload, ds) in computed {
        assert_eq!(ds, pinned(workload), "{}", workload.name());
    }
}
