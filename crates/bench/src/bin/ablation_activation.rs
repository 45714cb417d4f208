//! Ablation: does the §2.4 fine-tuning actually buy activation assurance?
//!
//! The paper justifies the profiling phase by the need for an *acceleration
//! factor*: faults must sit in code the workload actually executes. This
//! ablation runs three same-size faultloads through identical campaigns and
//! reports how many slots showed any effect (errors or interventions):
//!
//! * **profiled** — faults in the API subset the §2.4 intersection selects,
//! * **complement** — faults everywhere *except* that subset (internal
//!   helpers, startup-only services, dead code),
//! * **cold** — faults only in functions the workload never reaches during
//!   a slot (the registry/configuration services, touched at process start
//!   before injection, plus audit/statistics helpers).
//!
//! The activation gradient profiled > complement > cold is the §2.4 claim
//! made measurable. (On a real OS the complement is mostly cold, making the
//! tuned-vs-untuned contrast much starker than here, where the OS is small
//! and its helpers are hot.)
//!
//! Activation is measured by the campaign's flight recorder (simtrace): a
//! watchpoint on each slot's mutated instruction counts whether the site
//! actually executed — the same implementation `faultbench campaign
//! --trace` uses, not a bespoke one. The *affected* columns (slots with
//! visible errors or interventions) are reported alongside: a fault can
//! activate without visible effect, never the reverse.

use bench::cli::CliArgs;
use depbench::report::{f, pm, TextTable};
use depbench::{Campaign, TraceConfig};
use simos::{Edition, Os, OsApi};
use simstats::{bootstrap_ratio_ci, BOOTSTRAP_RESAMPLES, BOOTSTRAP_SEED};
use swfit_core::Scanner;
use webserver::ServerKind;

fn main() {
    let cli = CliArgs::parse(
        "--limit --jobs --seed --store --resume --chaos-seed --chaos-profile --trace-dir",
    );
    let store = cli.open_store().expect("store opens");
    let edition = Edition::Nimbus2000;
    let os = Os::boot(edition).expect("boots");
    let api: Vec<String> = OsApi::TABLE2
        .iter()
        .map(|f| f.symbol().to_string())
        .collect();
    let cold: Vec<String> = [
        "nt_set_value_key",
        "nt_query_value_key",
        "nt_delete_value_key",
        "nt_enumerate_value_key",
        "reg_hash",
        "reg_find",
        "audit_snapshot",
        "quick_stats",
    ]
    .iter()
    .map(ToString::to_string)
    .collect();

    let whole = bench::scan(
        store.as_ref(),
        &Scanner::standard(),
        os.program().image(),
        None,
    )
    .expect("fault-map cache is readable");
    let n = cli.limit.unwrap_or(100);

    let profiled = whole.restrict_to_functions(&api).sample(n);
    let complement = {
        let mut fl = whole.clone();
        fl.faults.retain(|f| !api.contains(&f.func));
        fl.sample(n)
    };
    let cold_fl = whole.restrict_to_functions(&cold).sample(n);

    let cfg = cli.config();
    // This binary *is* the activation study: the flight recorder is always
    // on (a `--trace-dir` still routes quarantine dumps if given).
    let campaign = Campaign::new(edition, ServerKind::Wren, cfg).with_trace(TraceConfig {
        dump_dir: cli.trace_dir.clone(),
        ..TraceConfig::default()
    });
    let mut table = TextTable::new([
        "Faultload",
        "Faults",
        "Activated",
        "Act %",
        "Affected",
        "Aff %",
        "ER%f",
        "ADMf",
    ]);
    let mut affected_rates = Vec::new();
    let mut activation_rates = Vec::new();
    for (name, fl) in [
        ("profiled (selected FIT)", &profiled),
        ("complement (rest of OS)", &complement),
        ("cold (startup/diagnostic)", &cold_fl),
    ] {
        let res = cli
            .run_injection(store.as_ref(), &campaign, fl, 0)
            .expect("injection campaign runs");
        // A resumed journal from a pre-trace run can carry untraced slots;
        // their activation is simply untracked then, not an error.
        let act = res.activation_summary().unwrap_or_default();
        let affected = res.affected_slots();
        let affected_rate = affected as f64 * 100.0 / fl.len().max(1) as f64;
        affected_rates.push(affected_rate);
        activation_rates.push(act.rate_pct());
        // ER%f with a seeded-bootstrap 95 % half-width over the per-slot
        // (errors, ops) pairs — the three faultloads' error rates are only
        // comparable with their dispersion on the table.
        let er_pairs: Vec<(f64, f64)> = res
            .slots
            .iter()
            .map(|s| (s.measures.errors() as f64, s.measures.ops() as f64))
            .collect();
        let er_ci = bootstrap_ratio_ci(&er_pairs, 100.0, BOOTSTRAP_SEED, BOOTSTRAP_RESAMPLES);
        table.row([
            name.to_string(),
            fl.len().to_string(),
            act.activated.to_string(),
            f(act.rate_pct(), 1),
            affected.to_string(),
            f(affected_rate, 1),
            pm(res.measures.er_pct(), 1, er_ci.as_ref()),
            res.watchdog.admf().to_string(),
        ]);
    }
    println!("Ablation — activation assurance of the §2.4 fine-tuning ({edition}, wren)\n");
    print!("{}", table.render());
    if activation_rates[2] > 0.0 {
        println!(
            "\nactivation gradient (site hit): profiled {} %  >  cold {} %  ({}x)",
            f(activation_rates[0], 1),
            f(activation_rates[2], 1),
            f(activation_rates[0] / activation_rates[2], 1)
        );
    } else {
        println!(
            "\nactivation gradient (site hit): profiled {} %  vs cold 0 % — faults \
             outside workload-reached code never activate, which is the §2.4 point",
            f(activation_rates[0], 1)
        );
    }
    println!(
        "visible effects: profiled {} %  vs cold {} % affected slots",
        f(affected_rates[0], 1),
        f(affected_rates[2], 1)
    );
}
