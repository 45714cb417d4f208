//! The faultload properties the paper claims in §4, as executable checks:
//! representativeness, repeatability, portability, scalability and
//! non-intrusiveness. Feasibility (generation takes minutes at most) is a
//! wall-clock bound, gated by `perfgate check`.

use depbench::{Campaign, CampaignConfig, IntervalConfig};
use simkit::SimDuration;
use simos::{Edition, Os, OsApi};
use swfit_core::{FaultNature, FaultType, Scanner};
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

/// §4 "Representativeness": only the 12 field-data fault types appear, no
/// extraneous-construct faults, and the type mix is dominated by the same
/// heavy hitters as Table 3 (MIFS/MIA/WLEC families).
#[test]
fn representativeness_only_field_data_types() {
    let os = Os::boot(Edition::Nimbus2000).unwrap();
    let fl = Scanner::standard().scan_functions(os.program().image(), &OsApi::symbols());
    for f in &fl.faults {
        assert_ne!(f.fault_type.nature(), FaultNature::Extraneous);
    }
    let counts = fl.counts_by_type();
    // MVAV is rare in both the paper's Table 3 and here.
    assert!(counts[&FaultType::Mvav] < counts[&FaultType::Mifs]);
    assert!(counts[&FaultType::Mvav] < counts[&FaultType::Wlec]);
}

/// §4 "Repeatability": two runs of the same experiment produce identical
/// results — bit-identical here, "statistically equal" in the paper.
#[test]
fn repeatability_same_seed_identical_results() {
    let os = Os::boot(Edition::Nimbus2000).unwrap();
    let mut fl = Scanner::standard().scan_functions(os.program().image(), &OsApi::symbols());
    fl.faults = fl.faults.into_iter().step_by(20).collect();
    let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Heron, quick_config());
    let a = campaign.run_injection(&fl, 3).expect("campaign runs");
    let b = campaign.run_injection(&fl, 3).expect("campaign runs");
    assert_eq!(a.measures.ops(), b.measures.ops());
    assert_eq!(a.measures.errors(), b.measures.errors());
    assert_eq!(a.measures.cells(), b.measures.cells());
    assert_eq!(a.watchdog, b.watchdog);
    // Different iterations (seeds) are similar but not identical.
    let c = campaign.run_injection(&fl, 4).expect("campaign runs");
    assert_ne!(a.measures.ops(), c.measures.ops());
}

/// §4 "Portability": the same methodology (same operator library, same
/// selection rules) generates a faultload for every OS edition; the
/// faultloads differ in size but exercise the same fault types.
#[test]
fn portability_same_rules_both_editions() {
    let mut per_edition = Vec::new();
    for edition in Edition::ALL {
        let os = Os::boot(edition).unwrap();
        let fl = Scanner::standard().scan_functions(os.program().image(), &OsApi::symbols());
        per_edition.push(fl);
    }
    let (w2k, xp) = (&per_edition[0], &per_edition[1]);
    assert_ne!(w2k.len(), xp.len(), "editions differ, so must faultloads");
    for t in FaultType::ALL {
        let a = w2k.count_of(t) > 0;
        let b = xp.count_of(t) > 0;
        assert_eq!(a, b, "{t} present in one edition only");
    }
}

/// §4 "Scalability": the faultload grows with the FIT, not the BT — the XP
/// edition has more OS code and therefore more faults (Table 3's 1.7x), and
/// restricting the same scan to fewer FIT functions shrinks it.
#[test]
fn scalability_faultload_tracks_fit_size() {
    let w2k = Os::boot(Edition::Nimbus2000).unwrap();
    let xp = Os::boot(Edition::NimbusXp).unwrap();
    let fl_w2k = Scanner::standard().scan_functions(w2k.program().image(), &OsApi::symbols());
    let fl_xp = Scanner::standard().scan_functions(xp.program().image(), &OsApi::symbols());
    let ratio = fl_xp.len() as f64 / fl_w2k.len() as f64;
    assert!(
        ratio > 1.1 && ratio < 2.5,
        "XP/W2k fault ratio {ratio} out of band (paper: 1.71)"
    );
    // Fewer FIT functions -> proportionally smaller faultload.
    let subset: Vec<String> = OsApi::symbols().into_iter().take(5).collect();
    let fl_small = Scanner::standard().scan_functions(w2k.program().image(), &subset);
    assert!(fl_small.len() < fl_w2k.len());
    assert!(!fl_small.is_empty());
}

/// §4 "Non-intrusiveness": the injector in profile mode degrades
/// performance by less than the paper's 2 % bound and produces zero errors.
#[test]
fn non_intrusiveness_below_two_percent() {
    for kind in ServerKind::BENCHMARKED {
        let campaign = Campaign::new(Edition::Nimbus2000, kind, quick_config());
        let max_perf = campaign.run_baseline(0).expect("baseline runs");
        let profiled = campaign.run_profile_mode(0).expect("profile mode runs");
        assert_eq!(profiled.errors(), 0, "{kind}: profile mode broke requests");
        let deg = (max_perf.thr() - profiled.thr()).abs() / max_perf.thr();
        assert!(deg < 0.02, "{kind}: profile-mode degradation {deg}");
    }
}
