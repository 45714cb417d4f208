//! Degenerate campaigns are results, not crashes: a campaign over a 0-fault
//! faultload and one whose every slot is quarantined both save, load,
//! `diff` and `--resume` through the real binary, and their tables read
//! `n/a` where a metric has no completed slot behind it.
//!
//! Both used to exit 1 with `store artifact does not parse: JSON cannot
//! represent non-finite floats`: the empty response-time accumulator held
//! its min/max at ±∞, and a write failure was reported as a parse error.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use swfit_core::Faultload;

fn faultbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_faultbench"))
        .args(args)
        .output()
        .expect("faultbench runs")
}

fn ok(args: &[&str]) -> String {
    let out = faultbench(args);
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "faultbench-degenerate-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `campaign` (which must pass `--save NAME`) into `store`, then
/// resumes it, and checks that both runs exit 0, read `n/a` for the
/// measured metrics, store the same bytes and `diff` cleanly.
fn saves_loads_diffs_and_resumes(store: &Path, campaign: &[&str], name: &str) -> String {
    let store_arg = store.to_str().unwrap();
    let mut args = campaign.to_vec();
    args.extend(["--store", store_arg, "--save", name]);
    let table = ok(&args);
    let row = table
        .lines()
        .find(|l| l.starts_with("iteration 1"))
        .unwrap_or_else(|| panic!("no iteration row:\n{table}"));
    assert_eq!(
        row.split_whitespace().skip(2).take(4).collect::<Vec<_>>(),
        ["n/a"; 4],
        "SPC, THR, RTM and ER% over no completed slot:\n{table}"
    );
    let run = store.join("runs").join(format!("{name}.json"));
    let saved = std::fs::read(&run).unwrap();

    args.push("--resume");
    assert_eq!(ok(&args), table);
    assert_eq!(
        std::fs::read(&run).unwrap(),
        saved,
        "resume stores the same run"
    );

    let diff = ok(&["diff", name, name, "--store", store_arg]);
    let spc = diff.lines().find(|l| l.starts_with("SPCf")).unwrap();
    assert_eq!(spc.split_whitespace().nth(1), Some("n/a"), "{diff}");
    String::from_utf8(saved).unwrap()
}

#[test]
fn all_quarantined_campaign_is_a_result() {
    let dir = tmpdir("quarantined");
    let saved = saves_loads_diffs_and_resumes(
        &dir.join("store"),
        &[
            "campaign",
            "nimbus-2000",
            "wren",
            "--limit",
            "3",
            "--iters",
            "1",
            "--slot-budget-ms",
            "1",
        ],
        "q",
    );
    let run: depbench::CampaignResult = serde_json::from_str(&saved).unwrap();
    assert!(run.slots.is_empty(), "every slot overran a 1 ms budget");
    assert_eq!(run.quarantined.len(), 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn zero_fault_campaign_is_a_result() {
    let dir = tmpdir("empty");
    let scanned = dir.join("scan.json");
    ok(&[
        "scan",
        "nimbus-2000",
        "--limit",
        "1",
        "--out",
        scanned.to_str().unwrap(),
    ]);
    let mut faultload = Faultload::from_json(&std::fs::read_to_string(&scanned).unwrap()).unwrap();
    faultload.faults.clear();
    let empty = dir.join("empty.json");
    std::fs::write(&empty, faultload.to_json().unwrap()).unwrap();

    let saved = saves_loads_diffs_and_resumes(
        &dir.join("store"),
        &[
            "campaign",
            "nimbus-2000",
            "wren",
            "--faultload",
            empty.to_str().unwrap(),
        ],
        "e",
    );
    let run: depbench::CampaignResult = serde_json::from_str(&saved).unwrap();
    assert!(run.slots.is_empty() && run.quarantined.is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}
