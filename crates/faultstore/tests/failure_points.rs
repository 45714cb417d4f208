//! Every storage failure point, swept: ALICE-style crash-state
//! enumeration (Pillai et al., OSDI 2014) at the level of the store's I/O
//! calls.
//!
//! A counting pass (`ChaosFs::fail_at(u64::MAX, _)`) records how many
//! store operations a workload makes; then every operation `n` is failed
//! with every [`Fault`] in turn. The workload is a 40-record journal (one
//! group fsync at [`GROUP`] = 32, then the closing sync), a `save_run` and
//! a `load_run`, over synthetic slot outcomes, with no VM work. A second
//! sweep resumes that journal half-written: `open_journal(header, true)`
//! reads it, the 20 records it lacks are appended and synced, and the run
//! is saved and loaded. Full `run_resumable` campaigns run at the first,
//! middle and last admissible point of each fault. Each point must end one
//! of two ways:
//!
//! * calm: no store call failed, and the journal, the stored run and the
//!   loaded run are byte-equal to the calm run's;
//! * failed: a journal call failed (which degrades a campaign's store) or
//!   `save_run` returned an error, and then every acknowledged record is
//!   whole, the journal is a whole-record prefix of the calm one, no
//!   `*.tmp.*` file is left in `runs/`, no truncated run loads, and a
//!   chaos-free resume reproduces the calm bytes.
//!
//! A transient fault must always end calm: retry absorbs it. A panic fails
//! the sweep and names its point.
//!
//! Opening the journal file, and the `set_len` and seek that truncate a
//! torn tail on resume, stay outside the fault layer by design: they are
//! the recovery actions, as is the rewind between append retries. So the
//! resume path's points are its read, its appends and its syncs.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use depbench::{
    Campaign, CampaignConfig, CampaignResult, IntervalConfig, QuarantinedSlot, SlotError,
    SlotOutcome, SlotResult,
};
use faultstore::journal::GROUP;
use faultstore::{ChaosFs, Fault, FaultStore, JournalHeader, JOURNAL_SCHEMA};
use simkit::SimDuration;
use simos::{Edition, Os};
use swfit_core::{Faultload, Scanner};
use webserver::ServerKind;

/// Records each journal-only point writes: more than one group.
const RECORDS: usize = 40;
/// Records the half-written journal of the resume sweep holds.
const WRITTEN: usize = RECORDS / 2;
/// The stored run's name.
const RUN: &str = "swept";

/// A header for an `n`-slot campaign, with no campaign behind it.
fn header(n: usize) -> JournalHeader {
    JournalHeader {
        schema: JOURNAL_SCHEMA,
        edition: "nimbus-2000".to_string(),
        server: "wren".to_string(),
        iteration: 0,
        config_hash: 7,
        faultload_fingerprint: 11,
        faultload_hash: 13,
        pack_hash: None,
        fault_count: n,
    }
}

/// Slot `i`'s outcome: every fifth slot quarantined, the rest completed
/// with a few slot-specific measures.
fn outcome(i: usize) -> SlotOutcome {
    if i % 5 == 4 {
        return SlotOutcome::Quarantined(SlotError::Panicked {
            message: format!("synthetic {i}"),
        });
    }
    let mut measures = specweb::IntervalMeasures::new(2);
    for op in 0..=i % 3 {
        let rt = SimDuration::from_millis(3 + op as u64);
        measures.record_op(op % 2, 64 + i as u64, i.is_multiple_of(2), rt);
    }
    SlotOutcome::Done(SlotResult {
        fault_id: format!("MIFS@f+{i}"),
        measures,
        watchdog: Default::default(),
        ended_dead: false,
        availability: Default::default(),
        activation: None,
    })
}

/// The campaign result an `n`-slot run of [`outcome`]s assembles to.
fn result(n: usize) -> CampaignResult {
    let mut result = CampaignResult {
        edition: Edition::Nimbus2000,
        server: ServerKind::Wren,
        measures: specweb::IntervalMeasures::new(2),
        watchdog: Default::default(),
        availability: Default::default(),
        slots: Vec::new(),
        quarantined: Vec::new(),
        degraded: false,
    };
    for slot in 0..n {
        match outcome(slot) {
            SlotOutcome::Done(r) => result.slots.push(r),
            SlotOutcome::Quarantined(error) => result.quarantined.push(QuarantinedSlot {
                slot,
                fault_id: format!("MIFS@f+{slot}"),
                error,
            }),
        }
    }
    result
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap()
}

/// What one point left behind.
struct Ending {
    /// Whether any store call reported an error.
    failed: bool,
    /// Records the journal acknowledged.
    acked: usize,
    journal: Vec<u8>,
    /// The loaded run, serialized, or the load error.
    loaded: Result<String, String>,
}

/// The calm run's bytes.
struct Calm {
    journal: Vec<u8>,
    run: Vec<u8>,
    loaded: String,
}

fn read_or_empty(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_default()
}

fn run_file(dir: &Path) -> PathBuf {
    dir.join("runs").join(format!("{RUN}.json"))
}

/// The journal-only workload: `n` records, the closing sync, a save and a
/// load, through a store whose I/O runs through `chaos`. With `resume` the
/// journal in `dir` is resumed, and only the records it lacks are written;
/// the ones it replays count as acknowledged.
fn journal_workload(dir: &Path, chaos: &ChaosFs, n: usize, resume: bool) -> Ending {
    let store = FaultStore::open(dir).unwrap().with_chaos(chaos.clone());
    let (mut failed, mut acked) = (false, 0);
    match store.open_journal(&header(n), resume) {
        Ok((journal, replayed)) => {
            acked = replayed.len();
            for slot in replayed.len()..n {
                match journal.record(slot, &outcome(slot)) {
                    Ok(()) => acked += 1,
                    Err(_) => failed = true,
                }
            }
            failed |= journal.sync().is_err();
        }
        Err(_) => failed = true,
    }
    failed |= store.save_run(RUN, &result(n)).is_err();
    Ending {
        failed,
        acked,
        journal: read_or_empty(&journal_file(dir)),
        loaded: store
            .load_run(RUN)
            .map(|r| json(&r))
            .map_err(|e| e.to_string()),
    }
}

fn journal_file(dir: &Path) -> PathBuf {
    dir.join("journals").join("nimbus-2000-wren-it0.jsonl")
}

/// Leaves in `dir` the journal of a campaign cut short: the first `written`
/// of `n` records, synced, written with no fault.
fn half_written(dir: &Path, n: usize, written: usize) {
    let store = FaultStore::open(dir).unwrap();
    let (journal, _) = store.open_journal(&header(n), false).unwrap();
    for slot in 0..written {
        journal.record(slot, &outcome(slot)).unwrap();
    }
    journal.sync().unwrap();
}

/// Resumes the journal-only workload through a chaos-free store.
fn journal_resume(dir: &Path, n: usize) {
    let store = FaultStore::open(dir).unwrap();
    let (journal, replayed) = store.open_journal(&header(n), true).unwrap();
    assert!(replayed.len() <= n);
    for (slot, got) in replayed.iter().enumerate() {
        assert_eq!(json(got), json(&outcome(slot)), "replayed slot {slot}");
    }
    for slot in replayed.len()..n {
        journal.record(slot, &outcome(slot)).unwrap();
    }
    journal.sync().unwrap();
    drop(journal);
    store.save_run(RUN, &result(n)).unwrap();
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("faultstore-points-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Checks one point's ending against the contract; `resume` then runs a
/// chaos-free resume in `dir`, after which the calm bytes must be back.
fn check(dir: &Path, calm: &Calm, ending: &Ending, transient: bool, resume: impl FnOnce()) {
    if !ending.failed {
        assert_eq!(ending.journal, calm.journal, "calm point: journal bytes");
        assert_eq!(
            read_or_empty(&run_file(dir)),
            calm.run,
            "calm point: run bytes"
        );
        assert_eq!(ending.loaded.as_ref(), Ok(&calm.loaded), "calm point: load");
    } else {
        assert!(!transient, "retry must absorb a transient fault");
        // Every acknowledged record is whole, and nothing but whole
        // records follows the header.
        let journal = &ending.journal;
        assert!(
            calm.journal.starts_with(journal),
            "journal is not a calm prefix"
        );
        assert!(
            journal.is_empty() || journal.ends_with(b"\n"),
            "journal ends mid-record"
        );
        let records = journal
            .iter()
            .filter(|b| **b == b'\n')
            .count()
            .saturating_sub(1);
        assert!(
            records >= ending.acked,
            "{records} records on disk, {} acknowledged",
            ending.acked
        );
        // No truncated run loads: a stored run is whole or absent.
        let stored = std::fs::read(run_file(dir));
        if let Ok(bytes) = &stored {
            assert_eq!(bytes, &calm.run, "a partial run was stored");
        }
        match &ending.loaded {
            Ok(loaded) => assert_eq!(loaded, &calm.loaded),
            Err(e) => assert!(stored.is_err(), "a whole run failed to load: {e}"),
        }
    }
    let left: Vec<String> = std::fs::read_dir(dir.join("runs"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.contains(".tmp."))
        .collect();
    assert!(left.is_empty(), "temp files left in runs/: {left:?}");
    resume();
    assert_eq!(
        read_or_empty(&journal_file(dir)),
        calm.journal,
        "resumed journal bytes"
    );
    assert_eq!(read_or_empty(&run_file(dir)), calm.run, "resumed run bytes");
}

/// Runs `point` for `(n, fault)`, turning a panic into one that names the
/// point.
fn at_point(n: u64, fault: Fault, point: impl FnOnce()) {
    if let Err(panic) = catch_unwind(AssertUnwindSafe(point)) {
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(ToString::to_string))
            .unwrap_or_default();
        panic!("failure point ({n}, {fault:?}): {message}");
    }
}

/// Sweeps every `(n, fault)` of the `records`-record journal-only workload
/// and returns the operation count and, per fault, the points where it
/// fired. With `written`, each point resumes a journal that holds the
/// first `written` records.
fn sweep_journal(records: usize, written: Option<usize>) -> (u64, Vec<(Fault, Vec<u64>)>) {
    let dir = tmp_dir(&format!("journal-{records}-{written:?}"));
    let setup = || {
        if let Some(written) = written {
            half_written(&dir, records, written);
        }
    };
    let resume = written.is_some();
    setup();
    let counting = ChaosFs::fail_at(u64::MAX, Fault::Eintr);
    let ending = journal_workload(&dir, &counting, records, resume);
    assert!(!ending.failed && counting.injected() == 0);
    let calm = Calm {
        journal: ending.journal,
        run: std::fs::read(run_file(&dir)).unwrap(),
        loaded: ending.loaded.unwrap(),
    };
    assert_eq!(json(&result(records)), calm.loaded);
    std::fs::remove_dir_all(&dir).unwrap();
    let ops = counting.ops();

    let mut fired = Vec::new();
    for fault in Fault::ALL {
        let mut at = Vec::new();
        for n in 0..ops {
            at_point(n, fault, || {
                setup();
                let chaos = ChaosFs::fail_at(n, fault);
                let ending = journal_workload(&dir, &chaos, records, resume);
                if chaos.injected() > 0 {
                    at.push(n);
                }
                let transient = fault != Fault::Enospc;
                check(&dir, &calm, &ending, transient, || {
                    journal_resume(&dir, records)
                });
            });
            std::fs::remove_dir_all(&dir).unwrap();
        }
        fired.push((fault, at));
    }
    (ops, fired)
}

#[test]
fn every_failure_point_of_journal_save_and_load_keeps_the_contract() {
    let (ops, fired) = sweep_journal(RECORDS, None);
    // Header append and fsync, one append per record, the group fsync,
    // the closing fsync, the save's write, fsync and rename, the load.
    assert_eq!(
        ops,
        2 + RECORDS as u64 + (RECORDS / GROUP) as u64 + 1 + 3 + 1
    );
    report("(n, f)", ops, &fired);
}

/// Prints a sweep's point count and where each fault fired; a fault that
/// never fired fails the sweep, which then tested nothing.
fn report(what: &str, ops: u64, fired: &[(Fault, Vec<u64>)]) {
    let points = ops * Fault::ALL.len() as u64;
    println!(
        "swept {points} {what} points: {ops} store operations x {} faults",
        Fault::ALL.len()
    );
    for (fault, at) in fired {
        println!("  {fault:?} fired at {} points", at.len());
        assert!(
            !at.is_empty(),
            "{fault:?} never fired: the sweep tested nothing"
        );
    }
}

#[test]
fn every_failure_point_of_a_resume_keeps_the_contract() {
    let (ops, fired) = sweep_journal(RECORDS, Some(WRITTEN));
    // The read, one append per record the journal lacks, no group fsync
    // (a resumed journal counts its group afresh), the closing fsync, the
    // save's write, fsync and rename, the load.
    let appended = (RECORDS - WRITTEN) as u64;
    assert_eq!(ops, 1 + appended + appended / GROUP as u64 + 1 + 3 + 1);
    report("resume", ops, &fired);
    // Operation 0 is the read: the transient faults fire there, and retry
    // absorbs them; the faults of writes, fsyncs and renames do not.
    // (`Enospc` at 0 fires at every later write instead.)
    for (fault, at) in &fired {
        if *fault != Fault::Enospc {
            let transient = matches!(fault, Fault::Eintr | Fault::Eagain);
            assert_eq!(at.contains(&0), transient, "{fault:?} at the read");
        }
    }
}

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

/// A campaign, its save and its load under `chaos`.
fn campaign_workload(
    dir: &Path,
    chaos: &ChaosFs,
    campaign: &Campaign,
    fl: &Faultload,
) -> (Ending, CampaignResult) {
    let store = FaultStore::open(dir).unwrap().with_chaos(chaos.clone());
    let result = store.run_resumable(campaign, fl, 0, false).unwrap();
    assert_eq!(result.degraded, store.is_degraded());
    let saved = store.save_run(RUN, &result);
    let ending = Ending {
        failed: store.is_degraded() || saved.is_err(),
        acked: 0,
        journal: read_or_empty(&store.journal_path(campaign, 0)),
        loaded: store
            .load_run(RUN)
            .map(|r| json(&r))
            .map_err(|e| e.to_string()),
    };
    (ending, result)
}

/// Full campaigns at the first, middle and last admissible point of each
/// fault. A two-slot campaign makes the store calls of the two-record
/// journal-only workload, which finds the admissible points.
#[test]
fn campaigns_keep_the_contract_at_the_ends_and_middle_of_each_fault() {
    let fl = small_faultload(2);
    let campaign = Campaign::new(Edition::Nimbus2000, ServerKind::Wren, quick_config());
    let (journal_ops, fired) = sweep_journal(fl.len(), None);

    let dir = tmp_dir("campaign");
    let counting = ChaosFs::fail_at(u64::MAX, Fault::Eintr);
    let (ending, clean) = campaign_workload(&dir, &counting, &campaign, &fl);
    assert!(!ending.failed);
    assert_eq!(
        counting.ops(),
        journal_ops,
        "campaign and journal workloads differ"
    );
    let calm = Calm {
        journal: ending.journal,
        run: std::fs::read(run_file(&dir)).unwrap(),
        loaded: ending.loaded.unwrap(),
    };
    let clean_json = json(&clean);
    std::fs::remove_dir_all(&dir).unwrap();

    let mut points = 0;
    for (fault, at) in fired {
        let chosen: BTreeSet<u64> = [at[0], at[at.len() / 2], at[at.len() - 1]].into();
        for n in chosen {
            points += 1;
            at_point(n, fault, || {
                let chaos = ChaosFs::fail_at(n, fault);
                let (ending, mut result) = campaign_workload(&dir, &chaos, &campaign, &fl);
                assert!(chaos.injected() > 0, "an admissible point fired nothing");
                // Persistence is observation: the measures never move.
                result.degraded = false;
                assert_eq!(json(&result), clean_json);
                check(&dir, &calm, &ending, fault != Fault::Enospc, || {
                    let store = FaultStore::open(&dir).unwrap();
                    let resumed = store.run_resumable(&campaign, &fl, 0, true).unwrap();
                    assert_eq!(json(&resumed), clean_json, "resumed result");
                    store.save_run(RUN, &resumed).unwrap();
                });
            });
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
    println!("ran {points} full campaigns at chosen failure points");
}
