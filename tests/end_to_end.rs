//! End-to-end pipeline: profile → select → scan → campaign → metrics.
//!
//! This is the §2 + §3 flow of the paper in one test file, at reduced scale.

use depbench::{
    profile_servers, Campaign, CampaignConfig, DependabilityMetrics, IntervalConfig,
    ProfilePhaseConfig,
};
use simkit::SimDuration;
use simos::{Edition, Os, OsApi};
use swfit_core::{FaultType, Faultload, Scanner};
use webserver::ServerKind;

fn quick_config() -> CampaignConfig {
    CampaignConfig {
        interval: IntervalConfig {
            duration: SimDuration::from_millis(400),
            ..IntervalConfig::default()
        },
        ..CampaignConfig::default()
    }
}

/// Stride-sampled fine-tuned faultload, shared by the tests below.
fn sampled_faultload(edition: Edition, stride: usize) -> Faultload {
    let cfg = ProfilePhaseConfig {
        duration: SimDuration::from_millis(300),
        ..ProfilePhaseConfig::default()
    };
    let profile = profile_servers(edition, &ServerKind::ALL, &cfg);
    let selected = profile.select_functions(cfg.min_avg_pct);
    let os = Os::boot(edition).expect("boots");
    let mut fl = Scanner::standard().scan_functions(os.program().image(), &selected);
    fl.faults = fl.faults.into_iter().step_by(stride).collect();
    fl
}

#[test]
fn profiling_selects_a_covering_intersection() {
    let cfg = ProfilePhaseConfig {
        duration: SimDuration::from_millis(300),
        ..ProfilePhaseConfig::default()
    };
    let profile = profile_servers(Edition::Nimbus2000, &ServerKind::ALL, &cfg);
    assert_eq!(profile.len(), 4);
    let selected = profile.select_functions(cfg.min_avg_pct);
    // The selection must be real API functions, used by all servers, and
    // cover the bulk of the calls (paper: 68 % on Windows; higher here
    // because our servers share one request engine).
    assert!(selected.len() >= 12, "selected {}", selected.len());
    for f in &selected {
        assert!(OsApi::from_symbol(f).is_some(), "{f}");
    }
    assert!(profile.coverage_pct(&selected) > 60.0);
}

#[test]
fn tuned_faultload_covers_most_fault_types() {
    let fl = sampled_faultload(Edition::Nimbus2000, 1);
    let counts = fl.counts_by_type();
    let present = FaultType::ALL.iter().filter(|t| counts[t] > 0).count();
    assert!(present >= 10, "only {present} fault types present");
    assert!(fl.len() > 150, "faultload suspiciously small: {}", fl.len());
    // Faults are confined to the selected FIT functions.
    for f in &fl.faults {
        assert!(
            OsApi::from_symbol(&f.func).is_some(),
            "{} is outside the API",
            f.id
        );
    }
}

#[test]
fn campaign_produces_paper_shaped_metrics() {
    let edition = Edition::Nimbus2000;
    let fl = sampled_faultload(edition, 6);
    assert!(fl.len() >= 40);
    let mut results = Vec::new();
    for kind in ServerKind::BENCHMARKED {
        let campaign = Campaign::new(edition, kind, quick_config());
        let baseline = campaign.run_profile_mode(0).expect("profile mode runs");
        let res = campaign.run_injection(&fl, 0).expect("campaign runs");
        let m = DependabilityMetrics::from_runs(&baseline, &res);
        // Sanity: the faultload bites but does not zero the service.
        assert!(m.er_pct_f > 0.0, "{kind}: no errors at all");
        assert!(m.thr_f > 0.25 * m.thr_baseline, "{kind}: service collapsed");
        assert!(
            m.thr_f < 1.15 * m.thr_baseline,
            "{kind}: faster under faults"
        );
        results.push(m);
    }
    let (heron, wren) = (&results[0], &results[1]);
    // The headline comparison of Table 5: the robust server needs no more
    // administrative interventions than the fragile one, and the fragile
    // one dies (MIS) at least as often.
    assert!(
        heron.watchdog.mis <= wren.watchdog.mis,
        "heron MIS {} vs wren {}",
        heron.watchdog.mis,
        wren.watchdog.mis
    );
    assert!(
        heron.admf() <= wren.admf(),
        "heron ADMf {} vs wren {}",
        heron.admf(),
        wren.admf()
    );
}

#[test]
fn watchdog_counters_match_slot_sums() {
    let edition = Edition::Nimbus2000;
    let fl = sampled_faultload(edition, 12);
    let campaign = Campaign::new(edition, ServerKind::Wren, quick_config());
    let res = campaign.run_injection(&fl, 0).expect("campaign runs");
    let mis: u64 = res.slots.iter().map(|s| s.watchdog.mis).sum();
    let kns: u64 = res.slots.iter().map(|s| s.watchdog.kns).sum();
    let kcp: u64 = res.slots.iter().map(|s| s.watchdog.kcp).sum();
    assert_eq!(res.watchdog.mis, mis);
    assert_eq!(res.watchdog.kns, kns);
    assert_eq!(res.watchdog.kcp, kcp);
    assert_eq!(res.slots.len(), fl.len());
}

/// Operator faults (the paper's suggested extension) run through the same
/// interval machinery: a deleted document produces client-visible errors
/// during the slot and none once the pre-fault snapshot is restored.
#[test]
fn operator_faults_compose_with_the_interval() {
    use depbench::interval::run_interval;
    use depbench::{apply_operator_fault, OperatorFault};
    use simkit::SimRng;
    use specweb::{FileSet, FileSetConfig, RequestGenerator};

    let mut os = simos::Os::boot(Edition::Nimbus2000).unwrap();
    let fs = FileSet::populate(FileSetConfig::default(), os.devices_mut());
    let victim = fs.entries()[4].native_path.clone(); // class-1: popular
    let mut generator = RequestGenerator::new(fs);
    let mut server = ServerKind::Wren.build();
    assert!(server.start(&mut os));
    let (snap, started) = (os.snapshot(), server.clone_box());
    let cfg = IntervalConfig {
        duration: SimDuration::from_millis(600),
        ..IntervalConfig::default()
    };
    let mut rng = SimRng::seed_from_u64(77);

    apply_operator_fault(&mut os, &OperatorFault::DeleteFile { path: victim });
    let faulty = run_interval(&mut os, server.as_mut(), &mut generator, &mut rng, &cfg);
    os.restore_snapshot(&snap);
    let mut server = started;
    let healed = run_interval(&mut os, server.as_mut(), &mut generator, &mut rng, &cfg);

    assert!(faulty.measures.errors() > 0, "deletion must be visible");
    assert_eq!(healed.measures.errors(), 0, "the restore must fully heal");
}

/// Hardware bit-flip faultloads run through the standard campaign unchanged.
#[test]
fn hardware_faultload_runs_through_campaign() {
    let os = Os::boot(Edition::Nimbus2000).unwrap();
    let api: Vec<String> = OsApi::TABLE2
        .iter()
        .map(|f| f.symbol().to_string())
        .collect();
    let mut hw = swfit_core::hardware::bit_flips(os.program().image(), Some(&api));
    hw.faults = hw.faults.into_iter().step_by(40).collect();
    assert!(!hw.faults.is_empty());
    let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
    let res = campaign.run_injection(&hw, 0).expect("campaign runs");
    assert_eq!(res.slots.len(), hw.faults.len());
    // Bit flips execute; the run completes with contained outcomes only.
    assert!(res.measures.ops() > 0);
}

#[test]
fn faultload_artifact_roundtrips_through_json() {
    let fl = sampled_faultload(Edition::NimbusXp, 10);
    let json = fl.to_json().expect("serializes");
    let back = Faultload::from_json(&json).expect("parses");
    assert_eq!(back, fl);
}

/// The parallel executor must be invisible in the results: the full
/// `CampaignResult` serialized as JSON is byte-identical whether the slots
/// ran on one worker or four.
#[test]
fn parallel_campaign_is_byte_identical_to_sequential() {
    let edition = Edition::Nimbus2000;
    let fl = sampled_faultload(edition, 12);
    assert!(fl.len() >= 8, "need enough slots to shard");
    let run = |parallelism: usize| {
        let cfg = CampaignConfig {
            parallelism,
            ..quick_config()
        };
        let campaign = Campaign::new(edition, ServerKind::Heron, cfg);
        let res = campaign.run_injection(&fl, 1).expect("campaign runs");
        serde_json::to_string(&res).expect("serializes")
    };
    assert_eq!(run(1), run(4));
}

/// A faultload whose fingerprint does not match the booted image must come
/// back as a typed error, not a panic.
#[test]
fn stale_faultload_fingerprint_is_a_typed_error() {
    use depbench::CampaignError;
    let mut fl = sampled_faultload(Edition::Nimbus2000, 20);
    fl.fingerprint = 0x0BAD_F00D;
    let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Heron, quick_config());
    match campaign.run_injection(&fl, 0) {
        Err(CampaignError::FingerprintMismatch { edition, .. }) => {
            assert_eq!(edition, Edition::Nimbus2000);
        }
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
}
