//! Every workload through the library entry points, shrunk to one
//! iteration over an evenly sampled faultload.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use benchmark::{run, trace, Report, RunOptions, Workload, DEFAULT_SEED};

const SAMPLE: usize = 16;

fn options(tag: &str) -> RunOptions {
    RunOptions {
        seed: DEFAULT_SEED,
        budget: Duration::ZERO,
        sample: Some(SAMPLE),
        out: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}")),
    }
}

#[derive(serde::Deserialize)]
struct Declared {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

#[derive(serde::Deserialize)]
struct Metric {
    name: String,
    unit: String,
}

fn declared() -> Declared {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn assert_reports(report: &Report, metrics: &[Metric]) {
    let name = report.workload.name();
    assert!(report.correct(), "{name}: {:?}", report.problems);
    assert_eq!(report.failed, 0, "{name}");
    for metric in metrics {
        let line = report
            .line(&metric.name)
            .unwrap_or_else(|| panic!("{name} did not report {}", metric.name));
        assert_eq!(line.unit, metric.unit, "{name}: unit of {}", metric.name);
    }
    let summary = report.summary_json();
    assert!(summary.starts_with("{\"correct\":true,"), "{summary}");
}

#[test]
fn every_workload_reports_every_metric_and_checks_its_outputs() {
    let started = Instant::now();
    let declared = declared();
    for workload in Workload::ALL {
        let opts = options(workload.name());
        let measured = run(workload, &opts, Instant::now(), &[]).expect("run completes");
        assert_reports(&measured, &declared.end_to_end);
        assert!(measured.attempted >= 1);

        // `trace` fails a slot whose recomposed result differs from the
        // campaign's (activation records included), and on the replay
        // workload compares every replay and loaded run with the journal.
        let traced = trace(workload, &opts).expect("trace completes");
        assert_reports(&traced, &declared.per_layer);
        assert!(traced.attempted >= 1);
        let spans = opts.out.join(format!("{}.spans.json", workload.name()));
        assert!(spans.exists(), "{} written", spans.display());
        std::fs::remove_dir_all(&opts.out).expect("scratch output removable");
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "smoke run took {:?}",
        started.elapsed()
    );
}

#[test]
fn workload_names_round_trip() {
    for workload in Workload::ALL {
        assert_eq!(Workload::from_name(workload.name()), Some(workload));
    }
    assert_eq!(Workload::from_name("nope"), None);
}
