//! The profiling phase of §2.4 / Table 2.
//!
//! Each candidate benchmark target is exercised with the same workload that
//! the benchmark will use, while the OS traces API calls. The traces feed
//! `swfit_core::ProfileSet`, whose intersection/threshold rule yields the
//! FIT subset eligible for fault injection.

use simkit::{SimDuration, SimRng};
use simos::{Edition, Os, OsApi};
use specweb::{FileSet, FileSetConfig, RequestGenerator};
use swfit_core::{ApiTrace, ProfileSet};
use webserver::ServerKind;

use crate::interval::{run_interval, IntervalConfig};

/// RNG seed of every profiling run.
const SEED: u64 = 0xF17E;

/// Profiling-phase parameters. Each server is profiled on the default file
/// set and interval, seeded with the same fixed stream.
#[derive(Clone, Copy, Debug)]
pub struct ProfilePhaseConfig {
    /// How long each server is profiled.
    pub duration: SimDuration,
    /// Minimum average call share (percent) for a function to stay eligible.
    pub min_avg_pct: f64,
}

impl Default for ProfilePhaseConfig {
    fn default() -> Self {
        ProfilePhaseConfig {
            duration: SimDuration::from_secs(2),
            min_avg_pct: 0.05,
        }
    }
}

/// Profiles `servers` on `edition`, returning the filled profile set.
pub fn profile_servers(
    edition: Edition,
    servers: &[ServerKind],
    cfg: &ProfilePhaseConfig,
) -> ProfileSet {
    let mut set = ProfileSet::new();
    for &kind in servers {
        let mut os = Os::boot(edition).expect("OS boots");
        let fs = FileSet::populate(FileSetConfig::default(), os.devices_mut());
        let mut generator = RequestGenerator::new(fs);
        let mut server = kind.build();
        assert!(server.start(&mut os), "profiling server starts");
        os.clear_api_counts(); // exclude startup allocations, as a real
                               // profile window would
        let mut rng = SimRng::seed_from_u64(SEED);
        let interval = IntervalConfig {
            duration: cfg.duration,
            ..IntervalConfig::default()
        };
        let _ = run_interval(
            &mut os,
            server.as_mut(),
            &mut generator,
            &mut rng,
            &interval,
        );
        let mut trace = ApiTrace::new();
        for (api, count) in os.api_counts() {
            trace.record(api.symbol(), count);
        }
        set.add_trace(kind.name(), trace);
    }
    set
}

/// Convenience: the selected FIT function subset for an edition, using the
/// default four-server profile (what Table 2 reports).
pub fn selected_functions(edition: Edition, cfg: &ProfilePhaseConfig) -> Vec<String> {
    profile_servers(edition, &ServerKind::ALL, cfg).select_functions(cfg.min_avg_pct)
}

/// Maps a traced symbol back to its module name for Table 2 rendering.
pub fn module_of(symbol: &str) -> &'static str {
    OsApi::from_symbol(symbol).map_or("internal", |f| match f.module() {
        simos::Module::NtCore => "ntcore",
        simos::Module::KBase => "kbase",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ProfilePhaseConfig {
        ProfilePhaseConfig {
            duration: SimDuration::from_millis(400),
            ..ProfilePhaseConfig::default()
        }
    }

    #[test]
    fn profiles_all_four_servers() {
        let set = profile_servers(Edition::Nimbus2000, &ServerKind::ALL, &quick());
        assert_eq!(set.len(), 4);
        assert_eq!(
            set.bt_names(),
            &["heron", "wren", "sparrow", "swift"],
            "profiling order"
        );
        // Heap functions dominate, as in Table 2.
        let rows = set.rows();
        let alloc = rows
            .iter()
            .find(|r| r.func == "rtl_allocate_heap")
            .expect("alloc profiled");
        assert!(alloc.average_pct > 5.0, "{}", alloc.average_pct);
    }

    #[test]
    fn selection_is_nonempty_and_covers_most_calls() {
        let set = profile_servers(Edition::Nimbus2000, &ServerKind::ALL, &quick());
        let sel = set.select_functions(0.05);
        assert!(sel.len() >= 10, "selected {} functions", sel.len());
        let cov = set.coverage_pct(&sel);
        assert!(cov > 60.0, "coverage {cov}%");
        // Every selected function is a real OS API function.
        for f in &sel {
            assert!(OsApi::from_symbol(f).is_some(), "{f} is not an API symbol");
        }
    }

    #[test]
    fn usage_pattern_is_stable_across_servers() {
        // The paper notes the API usage pattern is very stable across all
        // four web servers — the free/alloc pair leads everywhere.
        let set = profile_servers(Edition::Nimbus2000, &ServerKind::ALL, &quick());
        let rows = set.rows();
        let free = rows.iter().find(|r| r.func == "rtl_free_heap").unwrap();
        for (i, pct) in free.per_bt_pct.iter().enumerate() {
            assert!(*pct > 2.0, "server #{i} free share {pct}");
        }
    }

    #[test]
    fn module_mapping() {
        assert_eq!(module_of("rtl_free_heap"), "ntcore");
        assert_eq!(module_of("read_file"), "kbase");
        assert_eq!(module_of("ht_install"), "internal");
    }
}
