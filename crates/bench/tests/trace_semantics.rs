//! Cross-crate guarantees of the flight recorder (simtrace):
//!
//! * **determinism** — the same `(seed, iteration, slot)` produces a
//!   byte-identical event stream, run after run;
//! * **observation only** — a traced campaign's measures are bit-identical
//!   to the untraced run, and untraced results serialize without any
//!   activation key (so pre-trace artifacts and journals stay stable);
//! * **parallelism independence** — activation observations, like every
//!   other result, do not depend on the worker count;
//! * **post-mortem dumps** — a quarantined (panicked) slot leaves its
//!   recorder tail on disk as parseable JSONL, one file per iteration, and
//!   `faultbench recovery` keeps one dump directory per policy.

use depbench::campaign::DUMP_LAST;
use depbench::{Campaign, CampaignConfig, IntervalConfig, TraceConfig};
use simkit::SimDuration;
use simos::{Edition, Os, OsApi};
use swfit_core::{Faultload, Scanner};
use webserver::ServerKind;

fn faultload(edition: Edition, n: usize) -> Faultload {
    let os = Os::boot(edition).expect("edition boots");
    Scanner::standard()
        .scan_functions(os.program().image(), &OsApi::symbols())
        .sample(n)
}

fn quick_config(parallelism: usize) -> CampaignConfig {
    CampaignConfig::builder()
        .interval(IntervalConfig {
            duration: SimDuration::from_millis(300),
            ..IntervalConfig::default()
        })
        .os_budget(150_000)
        .parallelism(parallelism)
        .build()
}

fn campaign(parallelism: usize) -> Campaign {
    Campaign::new(
        Edition::Nimbus2000,
        ServerKind::Wren,
        quick_config(parallelism),
    )
}

#[test]
fn same_seed_same_slot_gives_byte_identical_traces() {
    let fl = faultload(Edition::Nimbus2000, 6);
    let c = campaign(1);
    let (first_result, first) = c.trace_slot(&fl, 0, 2).expect("slot runs");
    let (second_result, second) = c.trace_slot(&fl, 0, 2).expect("slot runs");
    assert_eq!(first.to_jsonl(), second.to_jsonl());
    assert_eq!(first.to_chrome(2), second.to_chrome(2));
    assert_eq!(first_result.activation, second_result.activation);
    assert!(!first.is_empty(), "a served slot records events");
    // A different slot records a different stream (the tracer is not
    // returning some fixed canned content).
    let (_, other) = c.trace_slot(&fl, 0, 3).expect("slot runs");
    assert_ne!(first.to_jsonl(), other.to_jsonl());
}

#[test]
fn tracing_is_observation_only_and_untraced_bytes_carry_no_activation() {
    let fl = faultload(Edition::Nimbus2000, 5);
    let untraced = campaign(1).run_injection(&fl, 0).expect("untraced run");
    let traced = campaign(1)
        .with_trace(TraceConfig::default())
        .run_injection(&fl, 0)
        .expect("traced run");

    // Untraced results serialize with no activation key anywhere: an
    // absent observation is absent from journals and stored runs.
    let untraced_json = serde_json::to_string(&untraced).expect("serializes");
    assert!(
        !untraced_json.contains("activation"),
        "untraced result leaked an activation key: {untraced_json}"
    );
    assert!(untraced.activation_summary().is_none());

    // Traced slots all carry an observation…
    assert!(traced.slots.iter().all(|s| s.activation.is_some()));
    let summary = traced.activation_summary().expect("traced summary");
    assert_eq!(summary.tracked, traced.slots.len() as u64);
    assert_eq!(
        summary.per_type.iter().map(|t| t.tracked).sum::<u64>(),
        summary.tracked
    );

    // …and stripping the observations yields the untraced bytes exactly:
    // the recorder watched the run without perturbing it.
    let mut stripped = traced.clone();
    for slot in &mut stripped.slots {
        slot.activation = None;
    }
    assert_eq!(
        serde_json::to_string(&stripped).expect("serializes"),
        untraced_json,
        "tracing changed campaign results"
    );

    // The config hash ignores tracing entirely (it lives outside the
    // config), so traced and untraced journals interoperate.
    assert_eq!(
        quick_config(1).stable_hash(),
        quick_config(4).stable_hash() // parallelism is zeroed too
    );
}

#[test]
fn activation_does_not_depend_on_parallelism() {
    let fl = faultload(Edition::Nimbus2000, 6);
    let sequential = campaign(1)
        .with_trace(TraceConfig::default())
        .run_injection(&fl, 0)
        .expect("sequential run");
    let parallel = campaign(3)
        .with_trace(TraceConfig::default())
        .run_injection(&fl, 0)
        .expect("parallel run");
    assert_eq!(
        serde_json::to_string(&sequential).expect("serializes"),
        serde_json::to_string(&parallel).expect("serializes"),
        "traced results must stay bit-identical across worker counts"
    );
}

#[test]
fn quarantined_slot_dumps_its_recorder_tail() {
    // CI points TRACE_DUMP_DIR somewhere uploadable and keeps the dump as
    // a build artifact; by default the dump lands in (and leaves) tmp.
    let keep = std::env::var_os("TRACE_DUMP_DIR").is_some();
    let dump_dir = std::env::var_os("TRACE_DUMP_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| {
            std::env::temp_dir().join(format!("faultbench-trace-dump-{}", std::process::id()))
        });
    let _ = std::fs::remove_dir_all(&dump_dir);

    let fl = faultload(Edition::Nimbus2000, 5);
    let victim = 3;
    let mut c = campaign(1).with_trace(TraceConfig {
        dump_dir: Some(dump_dir.clone()),
        ..TraceConfig::default()
    });
    c.panic_on_fault(&fl.faults[victim].id);
    // The victim panics in both iterations; each iteration keeps its own
    // dump instead of overwriting the other's.
    for iteration in [0, 1] {
        let result = c
            .run_injection(&fl, iteration)
            .expect("campaign survives the panic");
        assert_eq!(result.quarantined.len(), 1);
        assert_eq!(result.quarantined[0].slot, victim);

        let path = dump_dir.join(format!(
            "nimbus-2000-wren-it{iteration}-slot{victim:04}.quarantine.jsonl"
        ));
        let dump = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("dump {} missing: {e}", path.display()));
        let lines: Vec<&str> = dump.lines().collect();
        // Header + at most `DUMP_LAST` tail events.
        assert!(lines.len() >= 2, "dump has a header and events:\n{dump}");
        assert!(
            lines.len() <= DUMP_LAST + 1,
            "tail respects DUMP_LAST:\n{dump}"
        );
        assert!(
            lines[0].starts_with(&format!("{{\"iteration\":{iteration},\"slot\":{victim},")),
            "header names the iteration and slot: {}",
            lines[0]
        );
        assert!(
            lines[0].contains(&format!("\"fault_id\":\"{}\"", fl.faults[victim].id)),
            "header names the fault: {}",
            lines[0]
        );
        // Every event line is a JSON object with the stable envelope fields.
        for line in &lines[1..] {
            assert!(
                line.starts_with('{') && line.contains("\"seq\":") && line.contains("\"kind\":"),
                "malformed event line: {line}"
            );
        }
        // The slot panicked right after its warm-up, so the tail holds the
        // latest warm-up traffic (API enter/exit events); the phase marker
        // itself scrolled out of the tail long ago.
        assert!(
            dump.contains("ApiEnter") || dump.contains("ApiExit"),
            "expected API traffic in the tail:\n{dump}"
        );
        // No silent gaps: the header's dropped count is exactly the first
        // retained event's sequence number.
        let dropped: u64 = lines[0]
            .split("\"dropped\":")
            .nth(1)
            .and_then(|s| s.split(&[',', '}'][..]).next())
            .and_then(|s| s.parse().ok())
            .expect("header carries dropped");
        assert!(
            lines[1].contains(&format!("\"seq\":{dropped},")),
            "first tail event should have seq {dropped}: {}",
            lines[1]
        );
    }

    // Healthy slots leave no dumps behind.
    let dumps = std::fs::read_dir(&dump_dir)
        .expect("dump dir exists")
        .count();
    assert_eq!(
        dumps, 2,
        "only the quarantined slot dumps, once per iteration"
    );
    if !keep {
        let _ = std::fs::remove_dir_all(&dump_dir);
    }
}

#[test]
fn recovery_dumps_each_policy_into_its_own_directory() {
    let dir = std::env::temp_dir().join(format!("faultbench-recovery-dump-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // A 1 ms wall-clock budget times out every slot of every policy, and
    // every policy runs iteration 0: shared dump names would leave 3 files.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_faultbench"))
        .args(["recovery", "nimbus-2000", "wren", "--limit", "3"])
        .args(["--slot-budget-ms", "1", "--trace-dir"])
        .arg(&dir)
        .output()
        .expect("faultbench runs");
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr.matches("warning: 3 slot(s) quarantined").count(),
        4,
        "one quarantine notice per policy:\n{stderr}"
    );
    for policy in depbench::RecoveryPolicy::NAMES {
        let mut dumps: Vec<String> = std::fs::read_dir(dir.join(policy))
            .unwrap_or_else(|e| panic!("no dump directory for `{policy}`: {e}"))
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        dumps.sort();
        assert_eq!(
            dumps,
            (0..3)
                .map(|slot| format!("nimbus-2000-wren-it0-slot{slot:04}.quarantine.jsonl"))
                .collect::<Vec<_>>(),
            "{policy}"
        );
    }
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        4,
        "one directory per policy"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
