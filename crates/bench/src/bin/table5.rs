//! Regenerates **Table 5** — the full experimental results: three campaign
//! iterations per (OS, server) pair plus their averages, reporting
//! SPC/THR/RTM/ER% and the watchdog counters MIS/KCP/KNS.
//!
//! This is the headline experiment. The full run takes a few minutes in
//! release mode; `--limit N --iters M` gives a truncated smoke pass (N
//! faults per faultload, M iterations instead of 3), and `--trace` adds
//! activation tables.

use bench::campaign::{print_activations, run_iterations};
use bench::cli::{CliArgs, SHARED_FLAGS};
use bench::tuned_faultload;
use depbench::report::{f, or_na, pm, TextTable};
use depbench::Campaign;
use simos::Edition;
use webserver::ServerKind;

fn main() {
    let cli = CliArgs::parse(SHARED_FLAGS);
    let store = cli.open_store().expect("store opens");

    for edition in Edition::ALL {
        let faultload =
            tuned_faultload(edition, store.as_ref()).sample(cli.limit.unwrap_or(usize::MAX));
        println!(
            "=== {} ({}) — faultload: {} faults ===\n",
            edition,
            edition.paper_analogue(),
            faultload.len()
        );
        for kind in ServerKind::BENCHMARKED {
            let campaign = cli.instrument(Campaign::new(edition, kind, cli.config()));
            let (baseline, summary) =
                run_iterations(&cli, store.as_ref(), &campaign, &faultload, 3, None)
                    .expect("injection campaign runs");
            let mut table = TextTable::new([
                "Run", "SPC", "THR", "RTM", "ER%", "MIS", "KCP", "KNS", "ADMf",
            ]);
            table.row([
                "Baseline Perf.".to_string(),
                baseline.spc().to_string(),
                f(baseline.thr(), 1),
                f(baseline.rtm(), 1),
                f(baseline.er_pct(), 1),
                "0".into(),
                "0".into(),
                "0".into(),
                "0".into(),
            ]);
            for (it, m) in summary.per_iteration.iter().enumerate() {
                let na = |cell| or_na(m.measured(), cell);
                table.row([
                    format!("Iteration {}", it + 1),
                    na(m.spc_f.to_string()),
                    na(f(m.thr_f, 1)),
                    na(f(m.rtm_f, 1)),
                    na(f(m.er_pct_f, 1)),
                    m.watchdog.mis.to_string(),
                    m.watchdog.kcp.to_string(),
                    m.watchdog.kns.to_string(),
                    m.admf().to_string(),
                ]);
            }
            let (avg, ci) = (&summary.mean, &summary.ci95);
            let na = |cell| or_na(avg.measured(), cell);
            table.row([
                "Average (all iter)".to_string(),
                na(pm(f64::from(avg.spc_f), 0, ci.spc_f.as_ref())),
                na(pm(avg.thr_f, 1, ci.thr_f.as_ref())),
                na(pm(avg.rtm_f, 1, ci.rtm_f.as_ref())),
                na(pm(avg.er_pct_f, 1, ci.er_pct_f.as_ref())),
                avg.watchdog.mis.to_string(),
                avg.watchdog.kcp.to_string(),
                avg.watchdog.kns.to_string(),
                avg.admf().to_string(),
            ]);
            println!(
                "B.T. = {} ({} analogue)\n{}",
                kind,
                kind.paper_analogue(),
                table.render()
            );
            print_activations("", &summary);
        }
    }
    println!("Shape checks (paper Table 5): the Heron/Apache column should show");
    println!("higher SPCf and THRf, lower ER%f, lower MIS and lower ADMf than");
    println!("Wren/Abyss, with the same ordering on both OS editions.");
}
