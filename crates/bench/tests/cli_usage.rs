//! Usage errors through the real binaries: a flag given without its value
//! is rejected with a one-line error before any work starts, never silently
//! dropped, a malformed `perfgate` flag is a usage error, not a panic, and a
//! pathologically nested pack file is a one-line error, not a stack
//! overflow.

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
fn perfgate_rejects_a_malformed_flag_without_panicking() {
    let out = run(env!("CARGO_BIN_EXE_perfgate"), &["check", "--rounds", "x"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
}

#[test]
fn a_deeply_nested_pack_is_a_one_line_error() {
    let depth = 100_000;
    let path = std::env::temp_dir().join(format!("deep-pack-{}.json", std::process::id()));
    let json = format!(
        r#"{{"name":"deep","version":"1","operators":{}{}}}"#,
        "[".repeat(depth),
        "]".repeat(depth)
    );
    std::fs::write(&path, json).unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_faultbench"),
        &["pack", "validate", path.to_str().unwrap()],
    );
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.len() < 1024, "{} bytes", stderr.len());
    assert!(stderr.contains("recursion limit exceeded"), "{stderr}");
}
