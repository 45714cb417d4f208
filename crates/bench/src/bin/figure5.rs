//! Regenerates **Figure 5** — the side-by-side comparison of Heron and Wren
//! under the faultload, as ASCII bars plus a CSV block for external
//! plotting. The figure shows, per OS edition: SPC (baseline vs faulty),
//! THR (baseline vs faulty), RTM, ER% and ADMf.

use bench::cli::CliArgs;
use bench::tuned_faultload;
use depbench::report::{bar, f};
use depbench::{Campaign, DependabilityMetrics};
use simos::Edition;
use webserver::ServerKind;

struct Series {
    edition: Edition,
    kind: ServerKind,
    m: DependabilityMetrics,
}

fn main() {
    let cli = CliArgs::parse();
    let store = cli.open_store().expect("store opens");
    let cfg = cli.config();
    let iterations = cli.iters.unwrap_or(3);
    let mut series: Vec<Series> = Vec::new();

    for edition in Edition::ALL {
        let faultload =
            tuned_faultload(edition, store.as_ref()).sample(cli.limit.unwrap_or(usize::MAX));
        for kind in ServerKind::BENCHMARKED {
            let campaign = Campaign::new(edition, kind, cfg.clone());
            let baseline = campaign.run_profile_mode(0).expect("profile mode runs");
            let runs: Vec<DependabilityMetrics> = (0..iterations)
                .map(|it| {
                    let r = cli
                        .run_injection(store.as_ref(), &campaign, &faultload, it)
                        .expect("injection campaign runs");
                    DependabilityMetrics::from_runs(&baseline, &r)
                })
                .collect();
            let m = depbench::metrics::aggregate_metrics(&runs)
                .expect("at least one iteration ran")
                .mean;
            series.push(Series { edition, kind, m });
        }
    }

    println!(
        "Figure 5 — Comparison of the behavior of Heron and Wren in presence of software faults\n"
    );
    type Metric = Box<dyn Fn(&DependabilityMetrics) -> f64>;
    let panels: [(&str, Metric, bool); 5] = [
        (
            "SPC (baseline vs faulty)",
            Box::new(|m| f64::from(m.spc_f)),
            true,
        ),
        (
            "THR ops/s (baseline vs faulty)",
            Box::new(|m| m.thr_f),
            true,
        ),
        ("RTM ms (baseline vs faulty)", Box::new(|m| m.rtm_f), true),
        ("ER%f", Box::new(|m| m.er_pct_f), false),
        ("ADMf (MIS+KNS+KCP)", Box::new(|m| m.admf() as f64), false),
    ];
    for (title, value, with_baseline) in &panels {
        println!("--- {title} ---");
        let max = series
            .iter()
            .map(|s| {
                value(&s.m).max(if *with_baseline {
                    baseline_of(title, &s.m)
                } else {
                    0.0
                })
            })
            .fold(0.0_f64, f64::max)
            .max(1e-9);
        for s in &series {
            if *with_baseline {
                let b = baseline_of(title, &s.m);
                println!(
                    "{:12} {:22} | {:10} (no faults)",
                    format!("{}/{}", s.edition, s.kind),
                    format!("{:<10} {}", f(b, 1), bar(b, max, 30)),
                    ""
                );
            }
            let v = value(&s.m);
            println!(
                "{:12} {:<10} {}",
                format!("{}/{}", s.edition, s.kind),
                f(v, 1),
                bar(v, max, 30)
            );
        }
        println!();
    }

    println!("CSV:");
    println!(
        "edition,server,spc_base,spc_f,thr_base,thr_f,rtm_base,rtm_f,er_pct_f,mis,kns,kcp,admf"
    );
    for s in &series {
        println!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{}",
            s.edition,
            s.kind,
            s.m.spc_baseline,
            s.m.spc_f,
            f(s.m.thr_baseline, 2),
            f(s.m.thr_f, 2),
            f(s.m.rtm_baseline, 2),
            f(s.m.rtm_f, 2),
            f(s.m.er_pct_f, 2),
            s.m.watchdog.mis,
            s.m.watchdog.kns,
            s.m.watchdog.kcp,
            s.m.admf()
        );
    }
}

fn baseline_of(title: &str, m: &DependabilityMetrics) -> f64 {
    if title.starts_with("SPC") {
        f64::from(m.spc_baseline)
    } else if title.starts_with("THR") {
        m.thr_baseline
    } else {
        m.rtm_baseline
    }
}
