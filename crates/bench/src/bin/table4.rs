//! Regenerates **Table 4** — injector intrusiveness: maximum performance vs
//! injector-in-profile-mode performance for every (OS, server) pair, with
//! the per-metric degradation percentages.

use bench::cli::CliArgs;
use depbench::report::{f, TextTable};
use depbench::Campaign;
use simos::Edition;
use webserver::ServerKind;

fn main() {
    let cfg = CliArgs::parse("--jobs --seed").config();
    let mut table = TextTable::new([
        "OS / server",
        "SPC",
        "THR",
        "RTM",
        "SPC(p)",
        "THR(p)",
        "RTM(p)",
        "dTHR%",
        "dRTM%",
    ]);
    let mut worst: f64 = 0.0;
    for edition in Edition::ALL {
        for kind in ServerKind::BENCHMARKED {
            let c = Campaign::new(edition, kind, cfg.clone());
            let max_perf = c.run_baseline(0).expect("baseline runs");
            let profiled = c.run_profile_mode(0).expect("profile mode runs");
            let d_thr = (max_perf.thr() - profiled.thr()) * 100.0 / max_perf.thr();
            let d_rtm = (profiled.rtm() - max_perf.rtm()) * 100.0 / max_perf.rtm();
            worst = worst.max(d_thr.abs()).max(d_rtm.abs());
            table.row([
                format!("{edition}/{kind}"),
                max_perf.spc().to_string(),
                f(max_perf.thr(), 1),
                f(max_perf.rtm(), 1),
                profiled.spc().to_string(),
                f(profiled.thr(), 1),
                f(profiled.rtm(), 1),
                f(d_thr, 2),
                f(d_rtm, 2),
            ]);
        }
    }
    println!("Table 4 — Performance degradation and intrusion evaluation");
    println!("(columns marked (p) ran with the injector in profile mode)\n");
    print!("{}", table.render());
    println!("\nWorst-case degradation: {} % (paper: < 2 %)", f(worst, 2));
}
