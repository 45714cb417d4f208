//! Usage errors through the real binaries: a flag given without its value
//! or a flag the command never reads is rejected with a one-line error
//! before any work starts, never silently dropped, a malformed `perfgate`
//! flag is a usage error, not a panic, a pathologically nested pack or
//! faultload file is a one-line error, not a stack overflow, and so are a
//! faultload with no fingerprint, an out-of-range `trace --slot`, a store
//! `table5`/`figure5` cannot open or resume, an unstorable `--save` name
//! (refused before the campaign runs), and a `perfgate record` that would
//! overwrite today's baseline.

use std::path::Path;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    // The workspace root, so `packs/…` paths resolve as they do for a user.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    Command::new(bin)
        .args(args)
        .current_dir(root)
        .output()
        .expect("binary runs")
}

#[test]
fn faultbench_flags_without_a_value_are_usage_errors() {
    let store = std::env::temp_dir().join(format!("faultbench-usage-{}", std::process::id()));
    let store = store.to_str().unwrap();
    for (args, flag) in [
        (&["scan", "nimbus-2000", "--limit"][..], "--limit"),
        (
            &[
                "pack",
                "validate",
                "packs/odc-classic.json",
                "--min-precision",
            ],
            "--min-precision",
        ),
        (
            &[
                "campaign",
                "nimbus-2000",
                "wren",
                "--store",
                store,
                "--save",
            ],
            "--save",
        ),
    ] {
        let out = run(env!("CARGO_BIN_EXE_faultbench"), args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} exited 0");
        assert_eq!(
            stderr,
            format!("faultbench: {flag} needs a value\n"),
            "{args:?}"
        );
    }
    let _ = std::fs::remove_dir_all(store);
}

#[test]
fn every_command_rejects_the_flags_it_never_reads() {
    let base = std::env::temp_dir().join(format!("unread-flags-{}", std::process::id()));
    let (dir, file) = (base.join("store"), base.join("out.json"));
    let (dir, file) = (dir.to_str().unwrap(), file.to_str().unwrap());
    // (binary, arguments, the unread flag). Each row would otherwise run
    // cheaply, so a command that ignored the flag fails fast, not slowly.
    let rows: [(&str, &[&str], &str); 21] = [
        (env!("CARGO_BIN_EXE_table1"), &["--jobs", "2"], "--jobs"),
        (env!("CARGO_BIN_EXE_table2"), &["--store", dir], "--store"),
        (
            env!("CARGO_BIN_EXE_table3"),
            // it scans, and scans are not stored
            &["--limit", "5", "--store", dir],
            "--store",
        ),
        (
            env!("CARGO_BIN_EXE_table4"),
            &["--jbos", "2"], // a typo
            "--jbos",
        ),
        (
            env!("CARGO_BIN_EXE_table5"),
            &["--job", "2", "--limit", "2", "--iters", "1"], // a typo
            "--job",
        ),
        (
            env!("CARGO_BIN_EXE_table5"),
            // storage faults are injected by tests, not by users
            &["--chaos-seed", "1", "--limit", "2", "--iters", "1"],
            "--chaos-seed",
        ),
        (
            env!("CARGO_BIN_EXE_figure5"),
            &["--limit", "2", "--iters", "1", "--save", "r"],
            "--save",
        ),
        (
            env!("CARGO_BIN_EXE_ablation_editions"),
            &["--limit", "5"],
            "--limit",
        ),
        (
            env!("CARGO_BIN_EXE_ablation_activation"),
            // its faultloads would share one journal, so it never journals
            &["--limit", "2", "--resume"],
            "--resume",
        ),
        (
            env!("CARGO_BIN_EXE_extension_faultmix"),
            &["--limit", "2", "--resume"],
            "--resume",
        ),
        (
            env!("CARGO_BIN_EXE_faultbench"),
            &["profile", "nimbus-2000", "--store", dir],
            "--store",
        ),
        (
            env!("CARGO_BIN_EXE_faultbench"),
            &["scan", "nimbus-2000", "--iters", "3", "--out", file],
            "--iters",
        ),
        (
            env!("CARGO_BIN_EXE_faultbench"),
            &["scan", "nimbus-2000", "--store", dir, "--out", file],
            "--store",
        ),
        (
            env!("CARGO_BIN_EXE_faultbench"),
            // recovery never journals, so it cannot resume
            &[
                "recovery",
                "nimbus-2000",
                "wren",
                "--limit",
                "2",
                "--resume",
            ],
            "--resume",
        ),
        (
            env!("CARGO_BIN_EXE_faultbench"),
            &[
                "campaign",
                "nimbus-2000",
                "wren",
                "--limit",
                "2",
                "--store",
                dir,
                "--chaos-profile",
                "torn",
            ],
            "--chaos-profile",
        ),
        (
            env!("CARGO_BIN_EXE_faultbench"),
            // trace_slot runs unwatched
            &[
                "trace",
                "nimbus-2000",
                "heron",
                "--slot",
                "0",
                "--limit",
                "2",
                "--out",
                dir,
                "--slot-budget-ms",
                "5",
            ],
            "--slot-budget-ms",
        ),
        (
            env!("CARGO_BIN_EXE_faultbench"),
            &["diff", "a", "b", "--store", dir, "--seed", "1"],
            "--seed",
        ),
        (
            env!("CARGO_BIN_EXE_faultbench"),
            &["accuracy", "nimbus-2000", "--limit", "3"],
            "--limit",
        ),
        (
            env!("CARGO_BIN_EXE_faultbench"),
            &["operators", "show", "MFC", "--jobs", "2"],
            "--jobs",
        ),
        (
            env!("CARGO_BIN_EXE_faultbench"),
            &["pack", "validate", "packs/odc-classic.json", "--bogus"],
            "--bogus",
        ),
        (
            env!("CARGO_BIN_EXE_perfgate"),
            &["record", "--rounds", "1", "--out", file, "--baseline", "x"],
            "--baseline",
        ),
    ];
    for (bin, args, flag) in rows {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        // Exit 2 from the regenerators and perfgate, 1 from faultbench.
        let code = if bin.ends_with("faultbench") { 1 } else { 2 };
        assert_eq!(out.status.code(), Some(code), "{bin} {args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{bin} {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{bin} {args:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(base);
}

#[test]
fn perfgate_rejects_a_malformed_flag_without_panicking() {
    let out = run(env!("CARGO_BIN_EXE_perfgate"), &["check", "--rounds", "x"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
}

/// A second `perfgate record` on one day without `--out` would overwrite
/// that day's baseline: it is refused before anything is measured, and the
/// file keeps its bytes.
#[test]
fn perfgate_record_never_overwrites_todays_baseline() {
    let cwd = std::env::temp_dir().join(format!("perfgate-today-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).unwrap();
    let baseline = cwd.join(format!("BENCH_{}.json", bench::today_utc()));
    std::fs::write(&baseline, "recorded earlier today").unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perfgate"))
        .args(["record", "--rounds", "1"])
        .current_dir(&cwd)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let kept = std::fs::read_to_string(&baseline).unwrap();
    let _ = std::fs::remove_dir_all(&cwd);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("already exists"), "{stderr}");
    assert!(out.stdout.is_empty(), "measured before refusing");
    assert_eq!(kept, "recorded earlier today");
}

/// Writes `json` to a scratch file, runs `faultbench` with `args` and the
/// file's path in place of `FILE`, and checks the result is a one-line
/// error with exit 1, never a stack overflow; returns stderr.
fn one_line_error(name: &str, json: &str, args: &[&str]) -> String {
    let path = std::env::temp_dir().join(format!("{name}-{}.json", std::process::id()));
    std::fs::write(&path, json).unwrap();
    let args: Vec<&str> = args
        .iter()
        .map(|&a| {
            if a == "FILE" {
                path.to_str().unwrap()
            } else {
                a
            }
        })
        .collect();
    let out = run(env!("CARGO_BIN_EXE_faultbench"), &args);
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.len() < 1024, "{} bytes", stderr.len());
    assert!(!stderr.contains("overflowed"), "{stderr}");
    stderr
}

fn nest(depth: usize) -> String {
    "[".repeat(depth) + &"]".repeat(depth)
}

#[test]
fn a_deeply_nested_pack_is_a_one_line_error() {
    let json = format!(
        r#"{{"name":"deep","version":"1","operators":{}}}"#,
        nest(100_000)
    );
    one_line_error("deep-pack", &json, &["pack", "validate", "FILE"]);
}

/// A faultload skips keys it does not know, so nesting under one is read
/// by the recursive skip and hits the nesting limit.
#[test]
fn deep_nesting_under_an_unknown_faultload_key_hits_the_recursion_limit() {
    let json = format!(r#"{{"extra":{}}}"#, nest(100_000));
    let args = [
        "campaign",
        "nimbus-2000",
        "wren",
        "--faultload",
        "FILE",
        "--limit",
        "2",
    ];
    let stderr = one_line_error("deep-faultload", &json, &args);
    assert!(
        stderr.contains("recursion limit exceeded at byte 136"),
        "{stderr}"
    );
}

/// A faultload is valid only for the image it was scanned from, so one
/// without an image fingerprint is refused when it is read.
#[test]
fn a_faultload_without_a_fingerprint_is_a_one_line_error() {
    let args = [
        "campaign",
        "nimbus-2000",
        "wren",
        "--faultload",
        "FILE",
        "--limit",
        "2",
    ];
    let stderr = one_line_error(
        "no-fingerprint",
        r#"{"target":"nimbus-2000","faults":[]}"#,
        &args,
    );
    assert_eq!(
        stderr,
        "faultbench: missing field `fingerprint` in Faultload\n"
    );
}

#[test]
fn an_out_of_range_trace_slot_is_a_one_line_error() {
    let args = [
        "trace",
        "nimbus-2000",
        "heron",
        "--slot",
        "999",
        "--limit",
        "5",
    ];
    let out = run(env!("CARGO_BIN_EXE_faultbench"), &args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(
        stderr,
        "faultbench: slot 999 is out of range: the faultload has 5 faults\n"
    );
}

/// Asserts `out` is one stderr line starting `{bin}: ` and containing
/// `want`, with exit 1: a runtime error, not a panic.
fn assert_one_line_error(out: &Output, bin: &str, want: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with(&format!("{bin}: ")), "{stderr}");
    assert!(stderr.contains(want), "{stderr}");
}

#[test]
fn table5_and_figure5_report_store_errors_in_one_line() {
    // A store under a file cannot be created.
    let out = run(
        env!("CARGO_BIN_EXE_table5"),
        &["--store", "/dev/null/x", "--limit", "2", "--iters", "1"],
    );
    assert_one_line_error(&out, "table5", "store I/O error");

    // A journal of another schema refuses `--resume`. figure5's first
    // campaign is nimbus-2000 / heron, iteration 0.
    let store = std::env::temp_dir().join(format!("figure5-schema1-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let dir = store.to_str().unwrap();
    let made = run(
        env!("CARGO_BIN_EXE_faultbench"),
        &[
            "campaign",
            "nimbus-2000",
            "heron",
            "--limit",
            "2",
            "--store",
            dir,
        ],
    );
    assert!(made.status.success(), "{made:?}");
    let journal = store.join("journals/nimbus-2000-heron-it0.jsonl");
    let text = std::fs::read_to_string(&journal).unwrap();
    assert!(text.starts_with("{\"schema\":2,"), "{text}");
    std::fs::write(&journal, text.replacen("\"schema\":2,", "\"schema\":1,", 1)).unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_figure5"),
        &["--store", dir, "--resume", "--limit", "2", "--iters", "1"],
    );
    assert_one_line_error(&out, "figure5", "journal written with schema 1");
    std::fs::remove_dir_all(&store).unwrap();
}

#[test]
fn an_unstorable_save_name_is_refused_before_the_campaign_runs() {
    let store = std::env::temp_dir().join(format!("bad-save-name-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let args = [
        "campaign",
        "nimbus-2000",
        "wren",
        "--limit",
        "2",
        "--store",
        store.to_str().unwrap(),
        "--save",
        "bad/name",
    ];
    let out = run(env!("CARGO_BIN_EXE_faultbench"), &args);
    assert_one_line_error(&out, "faultbench", "run name `bad/name` is not storable");
    assert!(out.stdout.is_empty(), "the campaign started");
    let journals = std::fs::read_dir(store.join("journals")).unwrap().count();
    assert_eq!(journals, 0, "a refused command left a journal behind");
    std::fs::remove_dir_all(&store).unwrap();
}

#[test]
fn recovery_warns_of_quarantined_slots_without_a_resume_hint() {
    // `recovery` never journals, so the quarantine warning must not point
    // at `--resume`, a flag it rejects.
    let out = run(
        env!("CARGO_BIN_EXE_faultbench"),
        &[
            "recovery",
            "nimbus-2000",
            "wren",
            "--limit",
            "3",
            "--slot-budget-ms",
            "1",
        ],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("slot(s) quarantined"), "{stderr}");
    assert!(!stderr.contains("--resume"), "{stderr}");
}
