//! The chaos suite: the faultload turned on the harness itself.
//!
//! Each scenario runs a real campaign through a store whose own I/O is
//! subjected to deterministic, seeded environment faults (`simchaos`), and
//! asserts the robustness contract from the issue:
//!
//! * transient faults (EINTR/EAGAIN/short writes) are absorbed by retry —
//!   campaign results are **byte-identical** to a fault-free run;
//! * torn writes at a crash boundary never corrupt a resume — the resumed
//!   result reproduces the seed run exactly;
//! * a hung slot is killed by the watchdog, journaled as `TimedOut`, and
//!   re-attempted by `--resume`;
//! * a persistently failing store (ENOSPC) degrades gracefully: the
//!   campaign completes, loudly, with `degraded: true` stamped on it.

use depbench::{Campaign, CampaignConfig, IntervalConfig, SlotError, SlotWatchdogConfig};
use faultstore::{ChaosConfig, ChaosFs, ChaosProfile, FaultStore, HarnessTracer, StoreError};
use simkit::SimDuration;
use simos::{Edition, Os};
use std::path::PathBuf;
use std::time::Duration;
use swfit_core::{Faultload, Scanner};
use webserver::ServerKind;

fn quick_config() -> CampaignConfig {
    CampaignConfig::builder()
        .interval(IntervalConfig {
            duration: SimDuration::from_millis(300),
            ..IntervalConfig::default()
        })
        .os_budget(150_000)
        .build()
}

fn small_faultload(n: usize) -> Faultload {
    let os = Os::boot(Edition::Nimbus2000).unwrap();
    Scanner::standard()
        .scan_functions(os.program().image(), &simos::OsApi::symbols())
        .sample(n)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("faultstore-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn chaos_store(dir: &PathBuf, seed: u64, profile: ChaosProfile) -> FaultStore {
    FaultStore::open(dir)
        .unwrap()
        .with_chaos(ChaosFs::seeded(ChaosConfig { seed, profile }))
}

#[test]
fn transient_faults_leave_campaign_results_byte_identical() {
    let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
    let fl = small_faultload(4);

    let clean_dir = tmp_dir("transient-clean");
    let clean = FaultStore::open(&clean_dir)
        .unwrap()
        .run_resumable(&campaign, &fl, 0, false)
        .unwrap();
    let clean_json = serde_json::to_string(&clean).unwrap();

    // Same campaign through a store whose every write/fsync/rename may be
    // interrupted — but only with transient faults, which retry absorbs.
    let chaos_dir = tmp_dir("transient-chaos");
    let tracer = HarnessTracer::enabled(4096);
    let store = chaos_store(&chaos_dir, 0xC0FFEE, ChaosProfile::Transient).with_tracer(tracer);
    let chaotic = store.run_resumable(&campaign, &fl, 0, false).unwrap();
    assert_eq!(
        clean_json,
        serde_json::to_string(&chaotic).unwrap(),
        "transient harness faults must not change campaign results"
    );
    assert!(
        !chaotic.degraded,
        "transient faults never degrade the store"
    );
    assert!(!store.is_degraded());

    // The scenario only proves something if faults actually fired: the
    // seeded schedule is deterministic, so this holds on every run.
    let trace = store.tracer().snapshot();
    let harness_faults = trace
        .events
        .iter()
        .filter(|e| e.kind.label() == "harness_fault")
        .count();
    let retries = trace
        .events
        .iter()
        .filter(|e| e.kind.label() == "retry")
        .count();
    assert!(
        harness_faults > 0 && retries > 0,
        "the chaos layer injected nothing ({harness_faults} faults, {retries} retries); \
         the byte-identity assertion above is vacuous"
    );

    // The journal survived the chaos too: a resume replays, executes
    // nothing, and still matches.
    let replayed = store.run_resumable(&campaign, &fl, 0, true).unwrap();
    assert_eq!(clean_json, serde_json::to_string(&replayed).unwrap());

    std::fs::remove_dir_all(&clean_dir).unwrap();
    std::fs::remove_dir_all(&chaos_dir).unwrap();
}

#[test]
fn torn_writes_then_resume_reproduce_the_seed_run_exactly() {
    let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
    let fl = small_faultload(4);

    let clean_dir = tmp_dir("torn-clean");
    let clean = FaultStore::open(&clean_dir)
        .unwrap()
        .run_resumable(&campaign, &fl, 0, false)
        .unwrap();
    let clean_json = serde_json::to_string(&clean).unwrap();

    // The torn profile adds short writes, torn renames and failed fsyncs.
    // Appends rewind to the durable prefix before every retry, so no
    // partial record is ever visible to a reader.
    let chaos_dir = tmp_dir("torn-chaos");
    let store = chaos_store(&chaos_dir, 0x70A2, ChaosProfile::Torn);
    let chaotic = store.run_resumable(&campaign, &fl, 0, false).unwrap();
    assert_eq!(clean_json, serde_json::to_string(&chaotic).unwrap());

    // Simulate the crash the torn profile is modelling: chop the journal
    // mid-record and resume through a *fresh, chaos-free* store — the
    // journal on disk must be clean enough that recovery is routine.
    let journal = store.journal_path(&campaign, 0);
    let raw = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = raw.lines().collect();
    assert_eq!(lines.len(), 1 + 4, "header plus one record per slot");
    let torn = format!("{}\n{}\n{{\"slot\":1,\"resu", lines[0], lines[1]);
    std::fs::write(&journal, torn).unwrap();
    let resumed = FaultStore::open(&chaos_dir)
        .unwrap()
        .run_resumable(&campaign, &fl, 0, true)
        .unwrap();
    assert_eq!(
        clean_json,
        serde_json::to_string(&resumed).unwrap(),
        "resume after torn writes must reproduce the seed run"
    );

    std::fs::remove_dir_all(&clean_dir).unwrap();
    std::fs::remove_dir_all(&chaos_dir).unwrap();
}

#[test]
fn hung_slot_is_watchdog_killed_journaled_and_resumed() {
    let fl = small_faultload(4);
    let dir = tmp_dir("hang");
    let store = FaultStore::open(&dir).unwrap();

    let clean_campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
    let clean_dir = tmp_dir("hang-clean");
    let clean = FaultStore::open(&clean_dir)
        .unwrap()
        .run_resumable(&clean_campaign, &fl, 0, false)
        .unwrap();
    let clean_json = serde_json::to_string(&clean).unwrap();

    // Slot 2 wedges (spins until cancelled). The adaptive watchdog learns
    // a budget from slots 0 and 1, kills slot 2 when it overruns, and the
    // campaign carries on.
    let mut hung = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config())
        .with_watchdog(SlotWatchdogConfig {
            initial: Duration::from_secs(60),
            multiplier: 4.0,
            min: Duration::from_millis(200),
            poll: Duration::from_millis(5),
        });
    hung.hang_on_fault(&fl.faults[2].id);
    let partial = store.run_resumable(&hung, &fl, 0, false).unwrap();
    assert_eq!(partial.slots.len(), 3);
    assert_eq!(partial.quarantined.len(), 1);
    assert_eq!(partial.quarantined[0].slot, 2);
    assert!(
        matches!(partial.quarantined[0].error, SlotError::TimedOut { .. }),
        "got {:?}",
        partial.quarantined[0].error
    );
    let journal_raw = std::fs::read_to_string(store.journal_path(&clean_campaign, 0)).unwrap();
    assert!(
        journal_raw.contains("TimedOut"),
        "journal records the typed timeout:\n{journal_raw}"
    );

    // Resume with a healthy (hang-free) campaign: only the timed-out slot
    // re-runs, and the assembled result matches the clean run exactly.
    let resumed = store.run_resumable(&clean_campaign, &fl, 0, true).unwrap();
    assert_eq!(clean_json, serde_json::to_string(&resumed).unwrap());

    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&clean_dir).unwrap();
}

#[test]
fn persistent_store_failure_degrades_gracefully() {
    let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
    let fl = small_faultload(3);

    let clean_dir = tmp_dir("enospc-clean");
    let mut clean = FaultStore::open(&clean_dir)
        .unwrap()
        .run_resumable(&campaign, &fl, 0, false)
        .unwrap();

    // ENOSPC on every write, persistently: the journal cannot even be
    // created. The campaign must still complete — un-journaled, stamped.
    let chaos_dir = tmp_dir("enospc-chaos");
    let store = chaos_store(&chaos_dir, 1, ChaosProfile::Enospc);
    let degraded = store.run_resumable(&campaign, &fl, 0, false).unwrap();
    assert!(degraded.degraded, "the result carries the degraded stamp");
    assert!(store.is_degraded());

    // Aside from the stamp, the measures are untouched: persistence is
    // observation, never part of the benchmark's randomness.
    clean.degraded = true;
    assert_eq!(
        serde_json::to_string(&clean).unwrap(),
        serde_json::to_string(&degraded).unwrap(),
        "degradation must not perturb the measures"
    );

    // Durable artifacts the user asked for by name still fail loudly —
    // silently dropping a `--save` would be worse than degrading.
    assert!(matches!(
        store.save_run("doomed", &degraded),
        Err(StoreError::Io(_))
    ));

    std::fs::remove_dir_all(&clean_dir).unwrap();
    std::fs::remove_dir_all(&chaos_dir).unwrap();
}
