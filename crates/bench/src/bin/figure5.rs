//! Regenerates **Figure 5** — the side-by-side comparison of Heron and Wren
//! under the faultload, as ASCII bars plus a CSV block for external
//! plotting. The figure shows, per OS edition: SPC (baseline vs faulty),
//! THR (baseline vs faulty), RTM, ER% and ADMf.

use std::process::ExitCode;

use bench::campaign::{print_activations, run_iterations};
use bench::cli::{exit_code, CliArgs, SHARED_FLAGS};
use bench::tuned_faultload;
use depbench::report::{bar, f};
use depbench::{Campaign, DependabilityMetrics, MetricsSummary};
use simos::Edition;
use webserver::ServerKind;

struct Series {
    edition: Edition,
    kind: ServerKind,
    summary: MetricsSummary,
}

fn main() -> ExitCode {
    let cli = CliArgs::parse(SHARED_FLAGS);
    exit_code("figure5", run(&cli))
}

fn run(cli: &CliArgs) -> Result<(), String> {
    let store = cli.open_store()?;
    let mut series: Vec<Series> = Vec::new();
    for edition in Edition::ALL {
        let faultload = tuned_faultload(edition).sample(cli.limit.unwrap_or(usize::MAX));
        for kind in ServerKind::BENCHMARKED {
            let campaign = cli.instrument(Campaign::new(edition, kind, cli.config()));
            let summary = run_iterations(cli, store.as_ref(), &campaign, &faultload, 3, None)?.1;
            series.push(Series {
                edition,
                kind,
                summary,
            });
        }
    }

    println!(
        "Figure 5 — Comparison of the behavior of Heron and Wren in presence of software faults\n"
    );
    type Metric = fn(&DependabilityMetrics) -> f64;
    // (title, faulty value, fault-free baseline value if the panel has one)
    let panels: [(&str, Metric, Option<Metric>); 5] = [
        (
            "SPC (baseline vs faulty)",
            |m| f64::from(m.spc_f),
            Some(|m| f64::from(m.spc_baseline)),
        ),
        (
            "THR ops/s (baseline vs faulty)",
            |m| m.thr_f,
            Some(|m| m.thr_baseline),
        ),
        (
            "RTM ms (baseline vs faulty)",
            |m| m.rtm_f,
            Some(|m| m.rtm_baseline),
        ),
        ("ER%f", |m| m.er_pct_f, None),
        ("ADMf (MIS+KNS+KCP)", |m| m.admf() as f64, None),
    ];
    for (title, value, baseline) in panels {
        println!("--- {title} ---");
        let max = series
            .iter()
            .map(|s| value(&s.summary.mean).max(baseline.map_or(0.0, |b| b(&s.summary.mean))))
            .fold(0.0_f64, f64::max)
            .max(1e-9);
        for s in &series {
            let label = format!("{}/{}", s.edition, s.kind);
            if let Some(b) = baseline {
                let b = b(&s.summary.mean);
                let cell = format!("{:<10} {}", f(b, 1), bar(b, max, 30));
                println!("{label:12} {cell:22} | {:10} (no faults)", "");
            }
            let v = value(&s.summary.mean);
            println!("{label:12} {:<10} {}", f(v, 1), bar(v, max, 30));
        }
        println!();
    }

    println!("CSV:");
    println!(
        "edition,server,spc_base,spc_f,thr_base,thr_f,rtm_base,rtm_f,er_pct_f,mis,kns,kcp,admf"
    );
    for s in &series {
        let m = &s.summary.mean;
        println!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{}",
            s.edition,
            s.kind,
            m.spc_baseline,
            m.spc_f,
            f(m.thr_baseline, 2),
            f(m.thr_f, 2),
            f(m.rtm_baseline, 2),
            f(m.rtm_f, 2),
            f(m.er_pct_f, 2),
            m.watchdog.mis,
            m.watchdog.kns,
            m.watchdog.kcp,
            m.admf()
        );
    }
    for s in &series {
        print_activations(&format!("{}/{} ", s.edition, s.kind), &s.summary);
    }
    Ok(())
}
