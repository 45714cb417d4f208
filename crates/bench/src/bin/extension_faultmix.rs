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
use depbench::interval::run_interval;
use depbench::report::{f, TextTable};
use depbench::{
    apply_operator_fault, generate_operator_faults, undo_operator_fault, Campaign, CampaignConfig,
    OperatorFault,
};
use simkit::SimRng;
use simos::{Edition, Os, OsApi};
use specweb::{FileSet, RequestGenerator};
use swfit_core::{HardwareFaultload, Scanner};
use webserver::ServerKind;

fn main() {
    let edition = Edition::Nimbus2000;
    let kind = ServerKind::Wren; // the fragile target shows models clearest
    let cli = CliArgs::parse("--limit --jobs --seed --store --resume --chaos-seed --chaos-profile");
    let store = cli.open_store().expect("store opens");
    let cfg = cli.config();
    let n = cli.limit.unwrap_or(100);
    let api = OsApi::symbols();

    let os = Os::boot(edition).expect("boots");
    let sw = Scanner::standard()
        .scan_functions(os.program().image(), &api)
        .sample(n);
    let hw = HardwareFaultload::generate(os.program().image(), Some(&api), 1)
        .as_faultload()
        .sample(n);

    let campaign = Campaign::new(edition, kind, cfg.clone());
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

    for (name, fl) in [("software (G-SWFIT)", &sw), ("hardware (bit flips)", &hw)] {
        let res = cli
            .run_injection(store.as_ref(), &campaign, fl, 0)
            .expect("injection campaign runs");
        table.row([
            name.to_string(),
            fl.len().to_string(),
            res.spc_f().to_string(),
            f(res.measures.thr(), 1),
            f(res.measures.er_pct(), 1),
            res.watchdog.mis.to_string(),
            res.watchdog.kns.to_string(),
            res.watchdog.kcp.to_string(),
            res.watchdog.admf().to_string(),
        ]);
    }

    // Operator faults operate on the document tree, not the code image.
    let (ops_measures, ops_count) = run_operator_campaign(edition, kind, &cfg, n);
    table.row([
        "operator (admin)".to_string(),
        ops_count.to_string(),
        ops_measures.0.to_string(),
        f(ops_measures.1, 1),
        f(ops_measures.2, 1),
        "0".into(),
        "0".into(),
        "0".into(),
        "0".to_string(),
    ]);

    println!("Extension — fault-model comparison ({edition}, {kind})\n");
    print!("{}", table.render());
    println!("\nReading: software faults produce crashes/hangs (MIS/KNS) that the");
    println!("other models cannot; operator faults only corrupt content (ER%).");
}

/// Slot campaign over operator faults: apply → exercise → undo.
fn run_operator_campaign(
    edition: Edition,
    kind: ServerKind,
    cfg: &CampaignConfig,
    n: usize,
) -> ((u32, f64, f64), usize) {
    let mut os = Os::boot_with_budget(edition, cfg.os_budget).expect("boots");
    let fileset = FileSet::populate(cfg.fileset, os.devices_mut());
    let mut generator = RequestGenerator::new(fileset.clone());
    let mut rng = SimRng::seed_from_u64(cfg.seed);
    let faults: Vec<OperatorFault> = generate_operator_faults(&fileset, &mut rng, n);
    let mut server = kind.build();
    let mut total: Option<specweb::IntervalMeasures> = None;
    let mut spc_sum: u64 = 0;
    for fault in &faults {
        os.reset_state().expect("resets");
        assert!(server.start(&mut os));
        let undo = apply_operator_fault(&mut os, fault);
        let out = run_interval(
            &mut os,
            server.as_mut(),
            &mut generator,
            &mut rng,
            &cfg.interval,
        );
        undo_operator_fault(&mut os, undo);
        spc_sum += u64::from(out.measures.spc());
        match &mut total {
            Some(t) => t.merge(&out.measures),
            None => total = Some(out.measures),
        }
    }
    let total = total.expect("slots ran");
    let spc = (spc_sum as f64 / faults.len() as f64).round() as u32;
    ((spc, total.thr(), total.er_pct()), faults.len())
}
