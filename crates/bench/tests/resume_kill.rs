//! End-to-end crash-safety test: SIGKILL a `faultbench campaign` mid-flight,
//! resume it, and assert the final stored result is byte-identical to an
//! uninterrupted run.
//!
//! This is the store's headline guarantee exercised through the real binary
//! and a real kill — not a simulated truncation. It works because every
//! slot's randomness derives from `(seed, iteration, slot)` and the journal
//! writes each completed slot in order before the campaign moves on
//! (fsyncing them once per 32 records), so "replay the journaled prefix and
//! execute the rest" reproduces the uninterrupted run exactly.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const EDITION: &str = "nimbus-2000";
const SERVER: &str = "wren";
const LIMIT: &str = "60";
const RUN_NAME: &str = "crashsafety";

fn faultbench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_faultbench"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("faultbench-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn campaign_cmd(store: &Path, resume: bool) -> Command {
    let mut cmd = faultbench();
    cmd.args([
        "campaign", EDITION, SERVER, "--limit", LIMIT, "--save", RUN_NAME, "--store",
    ])
    .arg(store)
    .stdout(Stdio::null())
    .stderr(Stdio::null());
    if resume {
        cmd.arg("--resume");
    }
    cmd
}

/// Lines in the journal of iteration `it` (numbered from 0).
fn journal_lines(store: &Path, it: u64) -> usize {
    let path = store
        .join("journals")
        .join(format!("{EDITION}-{SERVER}-it{it}.jsonl"));
    std::fs::read_to_string(path).map_or(0, |s| s.lines().count())
}

fn run_path(store: &Path, name: &str) -> PathBuf {
    store.join("runs").join(format!("{name}.json"))
}

fn stored_run(store: &Path, name: &str) -> Vec<u8> {
    std::fs::read(run_path(store, name)).expect("stored run exists")
}

/// Polls until iteration `it`'s journal holds its header and at least 3
/// slot records, then SIGKILLs `child`.
fn kill_mid_iteration(child: &mut std::process::Child, store: &Path, it: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while journal_lines(store, it) < 4 {
        if let Some(status) = child.try_wait().expect("child polls") {
            panic!("campaign finished before it could be killed ({status}); raise LIMIT");
        }
        assert!(Instant::now() < deadline, "campaign never reached slot 3");
        std::thread::sleep(Duration::from_millis(2));
    }
    child.kill().expect("SIGKILL delivered");
    let _ = child.wait();
}

#[test]
fn sigkilled_campaign_resumes_byte_identical() {
    let limit: usize = LIMIT.parse().unwrap();

    // Uninterrupted reference run.
    let baseline_store = tmpdir("baseline");
    let status = campaign_cmd(&baseline_store, false)
        .status()
        .expect("faultbench runs");
    assert!(status.success(), "uninterrupted campaign failed");
    let expected = stored_run(&baseline_store, RUN_NAME);

    // Same campaign, SIGKILLed once a few slots are durably journaled.
    let killed_store = tmpdir("killed");
    let mut child = campaign_cmd(&killed_store, false)
        .spawn()
        .expect("faultbench spawns");
    kill_mid_iteration(&mut child, &killed_store, 0);
    let at_kill = journal_lines(&killed_store, 0);
    assert!(
        at_kill < 1 + limit,
        "kill landed after all {limit} slots completed; raise LIMIT"
    );
    assert!(
        !run_path(&killed_store, RUN_NAME).exists(),
        "killed run must not have stored a result"
    );

    // Resume: replays the journaled prefix, executes the rest.
    let status = campaign_cmd(&killed_store, true)
        .status()
        .expect("faultbench runs");
    assert!(status.success(), "resumed campaign failed");
    assert_eq!(
        journal_lines(&killed_store, 0),
        1 + limit,
        "resumed journal holds every slot"
    );
    assert!(
        expected == stored_run(&killed_store, RUN_NAME),
        "resumed result differs from the uninterrupted run"
    );

    std::fs::remove_dir_all(&baseline_store).unwrap();
    std::fs::remove_dir_all(&killed_store).unwrap();
}

#[test]
fn sigkilled_second_iteration_resumes_every_run_byte_identical() {
    let limit: usize = LIMIT.parse().unwrap();
    let names = [format!("{RUN_NAME}-it1"), format!("{RUN_NAME}-it2")];

    // Uninterrupted two-iteration reference: one stored run per iteration.
    let reference_store = tmpdir("iters-ref");
    let status = campaign_cmd(&reference_store, false)
        .args(["--iters", "2"])
        .status()
        .expect("faultbench runs");
    assert!(status.success(), "uninterrupted campaign failed");
    let expected: Vec<Vec<u8>> = names
        .iter()
        .map(|n| stored_run(&reference_store, n))
        .collect();

    // Same campaign, SIGKILLed a few slots into iteration 2, after
    // iteration 1 was journaled in full and stored.
    let killed_store = tmpdir("iters-killed");
    let mut child = campaign_cmd(&killed_store, false)
        .args(["--iters", "2"])
        .spawn()
        .expect("faultbench spawns");
    kill_mid_iteration(&mut child, &killed_store, 1);
    assert_eq!(journal_lines(&killed_store, 0), 1 + limit);
    assert!(
        journal_lines(&killed_store, 1) < 1 + limit,
        "kill landed after all {limit} slots of iteration 2 completed; raise LIMIT"
    );
    assert!(
        !run_path(&killed_store, &names[1]).exists(),
        "the killed iteration must not have stored a result"
    );

    // Resume: iteration 1 replays from its complete journal, iteration 2
    // from its prefix; both stored runs equal the uninterrupted ones.
    let status = campaign_cmd(&killed_store, true)
        .args(["--iters", "2"])
        .status()
        .expect("faultbench runs");
    assert!(status.success(), "resumed campaign failed");
    for (name, want) in names.iter().zip(&expected) {
        assert!(
            *want == stored_run(&killed_store, name),
            "run `{name}` differs after resume"
        );
    }

    std::fs::remove_dir_all(&reference_store).unwrap();
    std::fs::remove_dir_all(&killed_store).unwrap();
}

#[test]
fn resume_against_a_changed_config_is_refused() {
    let store = tmpdir("stale");
    // Interrupt-free first run writes a complete journal under seed A...
    let status = campaign_cmd(&store, false).status().expect("runs");
    assert!(status.success());
    // ...then a resume under a different seed must refuse the journal.
    let out = campaign_cmd(&store, true)
        .args(["--seed", "424242"])
        .stderr(Stdio::piped())
        .output()
        .expect("runs");
    assert!(!out.status.success(), "stale resume must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("stale campaign journal"),
        "unexpected error output: {stderr}"
    );
    std::fs::remove_dir_all(&store).unwrap();
}
