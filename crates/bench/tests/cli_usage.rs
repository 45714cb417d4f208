//! Usage errors through the real binaries: a flag given without its value
//! or a flag the command never reads is rejected with a one-line error
//! before any work starts, never silently dropped, a malformed `perfgate`
//! flag is a usage error, not a panic, a pathologically nested pack or
//! faultload file is a one-line error, not a stack overflow, and so are a
//! faultload with no fingerprint and an out-of-range `trace --slot`.

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
    let rows: [(&str, &[&str], &str); 17] = [
        (env!("CARGO_BIN_EXE_table1"), &["--jobs", "2"], "--jobs"),
        (env!("CARGO_BIN_EXE_table2"), &["--store", dir], "--store"),
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
            &["--limit", "2", "--store", dir, "--resume"],
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
            // recovery never journals, so it cannot resume
            &[
                "recovery",
                "nimbus-2000",
                "wren",
                "--limit",
                "2",
                "--store",
                dir,
                "--resume",
            ],
            "--resume",
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
