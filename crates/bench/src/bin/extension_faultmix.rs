//! Extension experiment: comparing fault models.
//!
//! The paper closes with: *"a full dependability benchmark for web-servers
//! can be defined by adding more fault models (hardware faults, operator
//! faults, etc.)"*. This binary runs the same benchmark slot structure
//! under three faultloads and reports the §3.2 metrics side by side:
//!
//! * **software** — the G-SWFIT faultload (the paper's contribution),
//! * **hardware** — transient single-bit flips in the same FIT code,
//! * **operator** — administrator mistakes on the served document tree.

use bench::cli::CliArgs;
use depbench::report::{f, TextTable};
use depbench::{generate_operator_faults, Campaign};
use simkit::SimRng;
use simos::{DeviceStore, Edition, Os, OsApi};
use specweb::FileSet;
use swfit_core::{hardware, Scanner};
use webserver::ServerKind;

fn main() {
    let edition = Edition::Nimbus2000;
    let kind = ServerKind::Wren; // the fragile target shows models clearest

    // Several faultloads run at iteration 0 of one (edition, server) pair,
    // so they would share one journal path: this short regenerator does not
    // journal, and reads no store flags.
    let cli = CliArgs::parse("--limit --jobs --seed");
    let cfg = cli.config();
    let n = cli.limit.unwrap_or(100);
    let api = OsApi::symbols();

    let os = Os::boot(edition).expect("boots");
    let sw = Scanner::standard()
        .scan_functions(os.program().image(), &api)
        .sample(n);
    let hw = hardware::bit_flips(os.program().image(), Some(&api)).sample(n);
    // Operator faults operate on the document tree, not the code image.
    let fileset = FileSet::populate(cfg.fileset, &mut DeviceStore::new());
    let ops = generate_operator_faults(&fileset, &mut SimRng::seed_from_u64(cfg.seed), n);

    let campaign = Campaign::new(edition, kind, cfg);
    let baseline = campaign.run_profile_mode(0).expect("profile mode runs");

    let mut table = TextTable::new([
        "Fault model",
        "Faults",
        "SPCf",
        "THRf",
        "ER%f",
        "MIS",
        "KNS",
        "KCP",
        "ADMf",
    ]);
    table.row([
        "baseline (none)".into(),
        "0".into(),
        baseline.spc().to_string(),
        f(baseline.thr(), 1),
        f(baseline.er_pct(), 1),
        "0".into(),
        "0".into(),
        "0".into(),
        "0".to_string(),
    ]);

    let models = [
        (
            "software (G-SWFIT)",
            sw.len(),
            campaign.run_injection(&sw, 0),
        ),
        (
            "hardware (bit flips)",
            hw.len(),
            campaign.run_injection(&hw, 0),
        ),
        (
            "operator (admin)",
            ops.len(),
            campaign.run_operator_faults(&ops, 0),
        ),
    ];
    for (name, faults, res) in models {
        let res = res.expect("fault campaign runs");
        table.row([
            name.to_string(),
            faults.to_string(),
            res.spc_f().to_string(),
            f(res.measures.thr(), 1),
            f(res.measures.er_pct(), 1),
            res.watchdog.mis.to_string(),
            res.watchdog.kns.to_string(),
            res.watchdog.kcp.to_string(),
            res.watchdog.admf().to_string(),
        ]);
    }

    println!("Extension — fault-model comparison ({edition}, {kind})\n");
    print!("{}", table.render());
}
