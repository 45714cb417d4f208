//! Golden-fixture test pinning the on-disk JSON schema of the persisted
//! artifact types: `Faultload` (fault-map cache entries), `SlotResult`
//! (journal records), `CampaignResult` (stored runs) and `MetricsSummary`
//! (`faultbench campaign --out`).
//!
//! The store's whole value is that artifacts written by one build are
//! readable by the next of the same schema. Any rename, reorder, type
//! change or removed field in these structs changes the serialized form
//! and fails this test — forcing the author to either restore the format
//! or consciously bump `faultstore::JOURNAL_SCHEMA` and re-bless.
//!
//! To re-bless after an intentional schema change:
//!
//! ```text
//! FAULTSTORE_BLESS=1 cargo test -p faultstore --test golden_serde
//! ```

use depbench::{
    aggregate_metrics, AvailabilityMetrics, CampaignResult, DependabilityMetrics, MetricsSummary,
    QuarantinedSlot, RequestCounts, SlotActivation, SlotError, SlotResult, WatchdogCounts,
};
use serde::{Deserialize, Serialize};
use simkit::{SimDuration, SimTime};
use simos::Edition;
use specweb::IntervalMeasures;
use swfit_core::{FaultDef, FaultType, Faultload};
use webserver::ServerKind;

#[derive(Serialize, Deserialize)]
struct Golden {
    faultload: Faultload,
    slot_result: SlotResult,
    campaign_result: CampaignResult,
    metrics_summary: MetricsSummary,
}

fn measures() -> IntervalMeasures {
    let mut m = IntervalMeasures::new(2);
    m.record_op(0, 2048, false, SimDuration::from_millis(350));
    m.record_op(1, 1024, true, SimDuration::from_millis(900));
    m.record_op(1, 4096, false, SimDuration::from_millis(410));
    m.set_duration(SimDuration::from_secs(2));
    m
}

fn golden() -> Golden {
    let faultload = Faultload {
        target: "os".to_string(),
        fingerprint: 0x1234_5678_9abc_def0,
        packs: Vec::new(),
        faults: vec![FaultDef {
            id: "MIFS@rtl_alloc_heap+17".to_string(),
            fault_type: FaultType::Mifs,
            func: "rtl_alloc_heap".to_string(),
            site: 17,
            patches: vec![mvm::Patch {
                addr: 17,
                new_word: 0,
            }],
            note: "nop if-block".to_string(),
        }],
    };
    let watchdog = WatchdogCounts {
        mis: 1,
        kns: 2,
        kcp: 0,
    };
    let availability = {
        let mut a = AvailabilityMetrics::default();
        a.record_repair(SimDuration::from_millis(120));
        a.record_unrepaired(SimDuration::from_millis(80));
        a.set_observed(SimDuration::from_secs(2));
        a
    };
    let slot_result = SlotResult {
        fault_id: "MIFS@rtl_alloc_heap+17".to_string(),
        measures: measures(),
        watchdog,
        ended_dead: false,
        availability,
        activation: Some(SlotActivation {
            fault_type: "MIFS".to_string(),
            hits: 3,
            first_hit: Some(SimTime::from_micros(412_000)),
        }),
    };
    let campaign_result = CampaignResult {
        edition: Edition::Nimbus2000,
        server: ServerKind::Wren,
        measures: measures(),
        watchdog,
        availability,
        slots: vec![slot_result.clone()],
        quarantined: vec![QuarantinedSlot {
            slot: 1,
            fault_id: "WVAV@nt_open_file+4".to_string(),
            error: SlotError::Panicked {
                message: "index out of bounds".to_string(),
            },
        }],
        degraded: false,
    };
    let iteration_metrics = |spc_f: u32, thr_f: f64, errors: u64| DependabilityMetrics {
        spc_baseline: 20,
        thr_baseline: 206.0,
        rtm_baseline: 185.0,
        spc_f,
        thr_f,
        rtm_f: 221.5,
        er_pct_f: errors as f64 * 100.0 / 1000.0,
        watchdog,
        availability,
        activation: None,
        requests: RequestCounts { ops: 1000, errors },
    };
    let metrics_summary = aggregate_metrics(&[
        iteration_metrics(15, 176.9, 136),
        iteration_metrics(15, 179.8, 134),
    ])
    .expect("two iterations aggregate");
    Golden {
        faultload,
        slot_result,
        campaign_result,
        metrics_summary,
    }
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("golden.json")
}

#[test]
fn serialized_schema_matches_the_golden_fixture() {
    let json = serde_json::to_string_pretty(&golden()).expect("serializes");
    let path = fixture_path();
    if std::env::var("FAULTSTORE_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, format!("{json}\n")).unwrap();
        eprintln!("blessed {}", path.display());
        return;
    }
    let fixture = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run with FAULTSTORE_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        fixture.trim_end(),
        json,
        "persisted JSON schema changed; if intentional, bump \
         faultstore::JOURNAL_SCHEMA and re-bless with FAULTSTORE_BLESS=1"
    );
}

#[test]
fn golden_fixture_still_deserializes() {
    if std::env::var("FAULTSTORE_BLESS").as_deref() == Ok("1") {
        return; // the sibling test is writing the fixture right now
    }
    let fixture = std::fs::read_to_string(fixture_path())
        .expect("fixture exists (bless with FAULTSTORE_BLESS=1)");
    let parsed: Golden = serde_json::from_str(&fixture).expect("old artifacts stay readable");
    // Round-trip sanity: parsing then re-serializing is the identity.
    assert_eq!(
        serde_json::to_string(&parsed).unwrap(),
        serde_json::to_string(&golden()).unwrap()
    );
}
