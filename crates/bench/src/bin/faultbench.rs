//! `faultbench` — command-line front end to the whole benchmark.
//!
//! ```text
//! faultbench scan <edition> [--all] [--faultload FILE] [--pack FILE]…
//!            [--limit N] [--out FILE]
//! faultbench profile <edition>                     run the profiling phase
//! faultbench campaign <edition> <server> [--faultload FILE] [--pack FILE]…
//!            [--iters N] [--jobs N] [--seed N] [--limit N] [--out FILE]
//!            [--store DIR] [--resume] [--save NAME] [--trace]
//!            [--trace-dir D] [--slot-budget-ms N]
//! faultbench recovery <edition> <server> [--faultload FILE] [--pack FILE]…
//!            [--limit N] [--jobs N] [--seed N] [--trace] [--trace-dir D]
//!            [--slot-budget-ms N]                 compare recovery policies
//! faultbench trace <edition> <server> --slot K [--faultload FILE]
//!            [--pack FILE]… [--limit N] [--iteration N] [--seed N]
//!            [--out DIR]                           replay one slot with the
//!                                                  flight recorder on
//! faultbench diff <runA> <runB> --store DIR        compare two stored runs
//! faultbench accuracy <edition> [--pack FILE]…     score the scanner
//! faultbench operators list [--pack FILE]…         the loaded operator library
//! faultbench operators show <ID> [--pack FILE]…    one operator's definition
//! faultbench pack validate <FILE> [--min-precision P]
//!                                                  lint + dry-run a pack file
//! ```
//!
//! Each subcommand reads exactly the flags its line lists; any other
//! `--flag`, or a flag without its value, is a one-line usage error, exit
//! status 1, before any work starts. The shared flags (`--jobs` …
//! `--slot-budget-ms`) mean what `bench::cli` documents. Editions:
//! `nimbus-2000`, `nimbus-xp`. Servers: `heron`, `wren`.
//!
//! `--pack FILE` (repeatable) loads a fault-model pack on top of the bundled
//! `odc-classic` pack: its operators scan after the classic twelve, and the
//! resulting faultloads (and, for `campaign`, the journal identity) carry
//! the extra packs' provenance. `pack validate` lints a pack standalone: it
//! parses with unknown-field rejection, compiles, dry-runs a scan of both OS
//! editions, and scores each operator's precision against the compiler's
//! ground truth — `--min-precision P` turns the worst scored precision into
//! an exit code, for CI floors.
//!
//! `scan`, `campaign`, `recovery` and `trace` share one faultload source:
//! `--faultload FILE` when given, otherwise a fresh scan of the edition's
//! API functions (`scan --all`: the whole image); `--limit N` then samples
//! it evenly down to at most N faults. Only `campaign` and `diff` read
//! `--store`: it holds campaign journals and named runs.
//!
//! `campaign` runs its iterations (default 1) through
//! `bench::campaign::run_iterations`, the driver `table5` and `figure5` use:
//! a fixed `--iters N`, journaled with `--store` so that `--resume`
//! completes a crashed run byte-identically; a `--save` name is checked
//! before any work starts. Multi-iteration tables close
//! with an `average` row carrying `± half-width` cells, `--out` saves the
//! full `MetricsSummary` (mean, CIs, per-iteration metrics), and `--save
//! NAME` stores each iteration's result for `diff`. With `--trace`, `campaign` and `recovery`
//! add fault-activation tables (did the mutated instruction actually
//! execute?), per iteration or per policy.
//!
//! `recovery` runs the same injection campaign once per watchdog recovery
//! policy (`fixed`, `backoff`, `reboot`, `failover`) and tabulates the
//! dependability trade-off: administrative interventions (ADMf),
//! availability %, mean time to repair, and the SPECWeb measures; with
//! `--trace-dir D`, each policy's quarantined slots dump into `D/<policy>/`.
//! `trace` replays a single slot deterministically (same `(seed,
//! iteration, slot)` stream as the campaign) and exports the full event
//! stream twice: as JSONL and as a Chrome `trace_event` file loadable in
//! `about:tracing` / Perfetto.

use std::collections::BTreeMap;
use std::process::ExitCode;

use bench::campaign::{print_activation, print_activations, run_iterations, warn_quarantined};
use bench::cli::{check_flags, exit_code, value_of, values_of, CliArgs, SHARED_FLAGS};
use depbench::report::{f, or_na, pct, pm, TextTable};
use depbench::{Campaign, CampaignConfig, RecoveryPolicy};
use faultstore::{diff_runs, StoreError};
use simos::{Edition, Os, OsApi};
use swfit_core::pack::{self, FaultPack, PackRef};
use swfit_core::{accuracy, Faultload, Scanner};
use webserver::ServerKind;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("scan") => cmd_scan(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("campaign") => cmd_campaign(&args[1..]),
        Some("recovery") => cmd_recovery(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("accuracy") => cmd_accuracy(&args[1..]),
        Some("operators") => cmd_operators(&args[1..]),
        Some("pack") => cmd_pack(&args[1..]),
        _ => {
            eprintln!(
                "usage: faultbench <scan|profile|campaign|recovery|trace|diff|accuracy|operators|pack> …\n\
                 see the module docs (`faultbench.rs`) for details"
            );
            return ExitCode::FAILURE;
        }
    };
    exit_code("faultbench", result)
}

fn parse_edition(s: Option<&String>) -> Result<Edition, String> {
    match s.map(String::as_str) {
        Some("nimbus-2000") | Some("w2k") => Ok(Edition::Nimbus2000),
        Some("nimbus-xp") | Some("xp") => Ok(Edition::NimbusXp),
        other => Err(format!(
            "expected edition `nimbus-2000` or `nimbus-xp`, got {other:?}"
        )),
    }
}

fn parse_server(s: Option<&String>) -> Result<ServerKind, String> {
    match s.map(String::as_str) {
        Some("heron") => Ok(ServerKind::Heron),
        Some("wren") => Ok(ServerKind::Wren),
        other => Err(format!("expected server `heron` or `wren`, got {other:?}")),
    }
}

/// The fault-model packs in scan order: the bundled `odc-classic` pack plus
/// every `--pack FILE` given on the command line.
fn load_packs(args: &[String]) -> Result<Vec<FaultPack>, String> {
    let mut packs = vec![pack::classic().clone()];
    for path in values_of(args, "--pack")? {
        packs.push(FaultPack::load(path).map_err(|e| e.to_string())?);
    }
    Ok(packs)
}

/// Builds the scan library from [`load_packs`].
fn build_scanner(args: &[String]) -> Result<Scanner, String> {
    let mut builder = Scanner::builder();
    for p in load_packs(args)? {
        builder = builder.pack(p);
    }
    builder.build().map_err(|e| e.to_string())
}

/// The id prefix of a fault id (`MVI@func+3` → `MVI`).
fn operator_of(fault_id: &str) -> &str {
    fault_id.split('@').next().unwrap_or("")
}

/// MTTR rendered in milliseconds, or `-` when no repair ever completed
/// (an MTTR of 0 would wrongly read as "instant recovery").
fn mttr_ms(a: &depbench::AvailabilityMetrics) -> String {
    if a.repairs == 0 {
        "-".to_string()
    } else {
        f(a.mttr().as_millis_f64(), 1)
    }
}

/// The faultload every subcommand that injects or reports faults works on:
/// read from `--faultload FILE` when given, otherwise scanned from the
/// booted edition — its API functions, or the whole image when
/// `whole_image` — with the `--pack` library. Then sampled down to
/// `--limit`.
fn load_faultload(
    args: &[String],
    cli: &CliArgs,
    edition: Edition,
    whole_image: bool,
) -> Result<Faultload, String> {
    let faultload = match value_of(args, "--faultload")? {
        Some(path) => {
            let json = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            Faultload::from_json(&json).map_err(|e| e.to_string())?
        }
        None => {
            let os = Os::boot(edition)?;
            let scanner = build_scanner(args)?;
            if whole_image {
                scanner.scan_image(os.program().image())
            } else {
                scanner.scan_functions(os.program().image(), &OsApi::symbols())
            }
        }
    };
    // An unset --limit keeps every fault (`usize::MAX` is no cap).
    Ok(faultload.sample(cli.limit.unwrap_or(usize::MAX)))
}

fn cmd_scan(args: &[String]) -> Result<(), String> {
    let edition = parse_edition(args.first())?;
    let cli = CliArgs::from_slice(args, "--all --faultload --pack --limit --out")?;
    let out = value_of(args, "--out")?;
    let whole_image = args.iter().any(|a| a == "--all");
    let faultload = load_faultload(args, &cli, edition, whole_image)?;
    eprintln!("{}: {} faults", edition, faultload.len());
    for (t, n) in faultload.counts_by_type() {
        eprintln!("  {t:5} {n}");
    }
    eprintln!("per function:");
    for (func, n) in faultload.per_function_counts() {
        eprintln!("  {func:28} {n}");
    }
    let json = faultload.to_json().map_err(|e| e.to_string())?;
    match out {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| e.to_string())?;
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    let edition = parse_edition(args.first())?;
    check_flags(args, "")?;
    let cfg = depbench::ProfilePhaseConfig::default();
    let set = depbench::profile_servers(edition, &ServerKind::ALL, &cfg);
    let selected = set.select_functions(cfg.min_avg_pct);
    let mut table = TextTable::new(["function", "average %", "selected"]);
    for row in set.rows() {
        table.row([
            row.func.clone(),
            f(row.average_pct, 2),
            if selected.contains(&row.func) {
                "*"
            } else {
                ""
            }
            .to_string(),
        ]);
    }
    print!("{}", table.render());
    println!(
        "selected {} functions, {:.1} % call coverage",
        selected.len(),
        set.coverage_pct(&selected)
    );
    Ok(())
}

fn cmd_campaign(args: &[String]) -> Result<(), String> {
    let edition = parse_edition(args.first())?;
    let server = parse_server(args.get(1))?;
    let reads = format!("{SHARED_FLAGS} --faultload --pack --out --save");
    let cli = CliArgs::from_slice(args, &reads)?;
    let (save, out) = (value_of(args, "--save")?, value_of(args, "--out")?);
    let store = cli.open_store()?;
    if let Some(name) = save {
        let store = store
            .as_ref()
            .ok_or("--save needs --store DIR (runs are stored in the store)")?;
        // Refuse an unstorable name before the campaign runs, not after.
        store.run_path(name).map_err(|e| e.to_string())?;
    }
    let faultload = load_faultload(args, &cli, edition, false)?;
    // The report's heading, on stdout with the tables below it: stderr
    // stays for notices and errors, so a refused resume is one line there.
    println!(
        "campaign: {edition} / {server}, {} faults, {} iteration(s), {} job(s){}",
        faultload.len(),
        cli.iters.unwrap_or(1),
        cli.jobs.unwrap_or(1),
        if cli.trace {
            ", flight recorder on"
        } else {
            ""
        }
    );
    // Campaign identity must track the pack set: packs beyond the bundled
    // odc-classic are recorded in the config, so journals key on them.
    let classic_ref = pack::classic().pack_ref();
    let extra_packs: Vec<PackRef> = faultload
        .packs
        .iter()
        .filter(|p| **p != classic_ref)
        .cloned()
        .collect();
    let cfg = cli
        .configure(CampaignConfig::builder())
        .packs(extra_packs)
        .build();
    let campaign = cli.instrument(Campaign::new(edition, server, cfg));
    let (baseline, summary) = run_iterations(
        &cli,
        store.as_ref(),
        &campaign,
        &faultload,
        1,
        save.map(String::as_str),
    )?;

    let mut table = TextTable::new([
        "run", "SPC", "THR", "RTM", "ER%", "MIS", "KNS", "KCP", "ADMf", "Avail%", "MTTR",
    ]);
    table.row([
        "baseline".to_string(),
        baseline.spc().to_string(),
        f(baseline.thr(), 1),
        f(baseline.rtm(), 1),
        f(baseline.er_pct(), 1),
        "0".into(),
        "0".into(),
        "0".into(),
        "0".to_string(),
        pct(1.0),
        "-".to_string(),
    ]);
    for (it, m) in summary.per_iteration.iter().enumerate() {
        let na = |cell| or_na(m.measured(), cell);
        table.row([
            format!("iteration {}", it + 1),
            na(m.spc_f.to_string()),
            na(f(m.thr_f, 1)),
            na(f(m.rtm_f, 1)),
            na(f(m.er_pct_f, 1)),
            m.watchdog.mis.to_string(),
            m.watchdog.kns.to_string(),
            m.watchdog.kcp.to_string(),
            m.admf().to_string(),
            na(pct(m.availability.availability())),
            mttr_ms(&m.availability),
        ]);
    }
    if summary.iterations() >= 2 {
        let m = &summary.mean;
        let ci = &summary.ci95;
        let na = |cell| or_na(m.measured(), cell);
        table.row([
            "average".to_string(),
            na(pm(f64::from(m.spc_f), 0, ci.spc_f.as_ref())),
            na(pm(m.thr_f, 1, ci.thr_f.as_ref())),
            na(pm(m.rtm_f, 1, ci.rtm_f.as_ref())),
            na(pm(m.er_pct_f, 1, ci.er_pct_f.as_ref())),
            m.watchdog.mis.to_string(),
            m.watchdog.kns.to_string(),
            m.watchdog.kcp.to_string(),
            m.admf().to_string(),
            na(pm(
                m.availability.availability_pct(),
                2,
                ci.availability_pct.as_ref(),
            )),
            mttr_ms(&m.availability),
        ]);
    }
    print!("{}", table.render());
    print_activations("", &summary);
    if let Some(path) = out {
        let json = serde_json::to_string_pretty(&summary).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| e.to_string())?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

/// Runs the same faultload once per recovery policy and tabulates the
/// dependability trade-off each policy buys.
fn cmd_recovery(args: &[String]) -> Result<(), String> {
    let edition = parse_edition(args.first())?;
    let server = parse_server(args.get(1))?;
    let cli = CliArgs::from_slice(
        args,
        "--faultload --pack --limit --jobs --seed --trace --trace-dir --slot-budget-ms",
    )?;
    let faultload = load_faultload(args, &cli, edition, false)?;
    eprintln!(
        "recovery comparison: {edition} / {server}, {} faults per policy, {} job(s)",
        faultload.len(),
        cli.jobs.unwrap_or(1)
    );
    let mut table = TextTable::new([
        "policy", "ADMf", "Avail%", "MTTR", "outages", "repairs", "SPCf", "THRf", "ER%f",
    ]);
    let mut activations = Vec::new();
    for name in RecoveryPolicy::NAMES {
        let policy = RecoveryPolicy::by_name(name).expect("NAMES entries all resolve");
        let cfg = cli
            .configure(CampaignConfig::builder())
            .recovery(policy)
            .build();
        // Every policy runs iteration 0, so each dumps into its own
        // directory: `--trace-dir D` holds `D/<policy>/`.
        let policy_cli = CliArgs {
            trace_dir: cli.trace_dir.as_ref().map(|dir| dir.join(name)),
            ..cli.clone()
        };
        let campaign = policy_cli.instrument(Campaign::new(edition, server, cfg));
        let res = campaign
            .run_injection(&faultload, 0)
            .map_err(|e| e.to_string())?;
        warn_quarantined(&res, "");
        let a = &res.availability;
        table.row([
            name.to_string(),
            res.watchdog.admf().to_string(),
            pct(a.availability()),
            mttr_ms(a),
            a.outages.to_string(),
            a.repairs.to_string(),
            res.spc_f().to_string(),
            f(res.measures.thr(), 1),
            f(res.measures.er_pct(), 1),
        ]);
        activations.extend(res.activation_summary().map(|act| (name, act)));
    }
    print!("{}", table.render());
    for (name, act) in &activations {
        print_activation(&format!("{name} policy"), act);
    }
    Ok(())
}

/// Replays one campaign slot with the flight recorder on and exports the
/// full event stream as JSONL and as a Chrome `trace_event` file.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let edition = parse_edition(args.first())?;
    let server = parse_server(args.get(1))?;
    let cli = CliArgs::from_slice(
        args,
        "--slot --iteration --out --faultload --pack --limit --seed",
    )?;
    let slot: usize = value_of(args, "--slot")?
        .ok_or("trace needs --slot K (which faultload slot to replay)")?
        .parse()
        .map_err(|_| "--slot needs an unsigned integer".to_string())?;
    let iteration: u64 = value_of(args, "--iteration")?
        .map(|v| v.parse().map_err(|_| format!("bad iteration `{v}`")))
        .transpose()?
        .unwrap_or(0);
    let dir = value_of(args, "--out")?.map_or_else(|| ".".into(), std::path::PathBuf::from);
    let faultload = load_faultload(args, &cli, edition, false)?;
    let campaign = Campaign::new(edition, server, cli.config());
    let (result, trace) = campaign
        .trace_slot(&faultload, iteration, slot)
        .map_err(|e| e.to_string())?;

    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let stem = format!("{}-{}-slot{:04}", edition.name(), server.name(), slot);
    let jsonl_path = dir.join(format!("{stem}.jsonl"));
    std::fs::write(&jsonl_path, trace.to_jsonl()).map_err(|e| e.to_string())?;
    let chrome_path = dir.join(format!("{stem}.trace.json"));
    std::fs::write(&chrome_path, trace.to_chrome(slot as u64)).map_err(|e| e.to_string())?;

    eprintln!(
        "slot {slot}: fault {} — {} events retained ({} dropped by the ring)",
        result.fault_id,
        trace.len(),
        trace.dropped
    );
    match &result.activation {
        Some(act) if act.activated() => eprintln!(
            "activation: site executed {} time(s), first at {} µs (virtual)",
            act.hits,
            act.first_hit.map_or(0, simkit::SimTime::as_micros)
        ),
        _ => eprintln!("activation: mutation site never executed during the measured interval"),
    }
    eprintln!(
        "wrote {} and {} (load the latter in about:tracing / Perfetto)",
        jsonl_path.display(),
        chrome_path.display()
    );
    Ok(())
}

fn cmd_diff(args: &[String]) -> Result<(), String> {
    let (Some(name_a), Some(name_b)) = (args.first(), args.get(1)) else {
        return Err("usage: faultbench diff <runA> <runB> --store DIR".into());
    };
    let cli = CliArgs::from_slice(args, "--store")?;
    let store = cli
        .open_store()?
        .ok_or("diff needs --store DIR (the runs live in the store)")?;
    let load = |name: &String| -> Result<depbench::CampaignResult, String> {
        store.load_run(name).map_err(|e| match e {
            StoreError::MissingRun { name } => {
                let available = match store.list_runs() {
                    Ok(runs) if runs.is_empty() => "none stored yet".to_string(),
                    Ok(runs) => runs.join(", "),
                    Err(_) => "could not list runs".to_string(),
                };
                format!("no stored run named `{name}` (available: {available})")
            }
            other => other.to_string(),
        })
    };
    let a = load(name_a)?;
    let b = load(name_b)?;
    print!("{}", diff_runs(name_a, &a, name_b, &b));
    Ok(())
}

fn cmd_accuracy(args: &[String]) -> Result<(), String> {
    let edition = parse_edition(args.first())?;
    check_flags(args, "--pack")?;
    let os = Os::boot(edition)?;
    let fl = build_scanner(args)?.scan_image(os.program().image());
    let report = accuracy::measure(&fl, os.program().constructs());
    let mut table = TextTable::new([
        "type",
        "expected",
        "found",
        "matched",
        "precision",
        "recall",
    ]);
    for (t, pr) in &report.per_type {
        table.row([
            t.acronym().to_string(),
            pr.expected.to_string(),
            pr.found.to_string(),
            pr.matched.to_string(),
            f(pr.precision() * 100.0, 1),
            f(pr.recall() * 100.0, 1),
        ]);
    }
    print!("{}", table.render());
    println!(
        "overall: precision {:.1} %, recall {:.1} %",
        report.overall_precision() * 100.0,
        report.overall_recall() * 100.0
    );
    // Operator granularity, covering user-pack operators whose ids are not
    // fault-type acronyms.
    let per_op = accuracy::measure_per_operator(&fl, os.program().constructs());
    let mut table = TextTable::new(["operator", "type", "found", "matched", "precision"]);
    for (id, acc) in &per_op {
        table.row([
            id.clone(),
            acc.fault_type.acronym().to_string(),
            acc.found.to_string(),
            acc.matched.to_string(),
            acc.precision().map_or("-".into(), |p| f(p * 100.0, 1)),
        ]);
    }
    println!("\nper operator (`-` = no single-construct ground truth):");
    print!("{}", table.render());
    Ok(())
}

fn cmd_operators(args: &[String]) -> Result<(), String> {
    check_flags(args, "--pack")?;
    match args.first().map(String::as_str) {
        Some("list") => operators_list(&args[1..]),
        Some("show") => operators_show(&args[1..]),
        _ => Err("usage: faultbench operators <list|show <ID>> [--pack FILE]…".into()),
    }
}

/// Tabulates the loaded operator library with per-edition fault-site
/// counts — the quickest way to see what a `--pack` actually contributes.
fn operators_list(args: &[String]) -> Result<(), String> {
    let packs = load_packs(args)?;
    let mut builder = Scanner::builder();
    for p in &packs {
        builder = builder.pack(p.clone());
    }
    let scanner = builder.build().map_err(|e| e.to_string())?;
    let mut per_edition: Vec<BTreeMap<String, usize>> = Vec::new();
    for edition in Edition::ALL {
        let os = Os::boot(edition)?;
        let fl = scanner.scan_image(os.program().image());
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for fault in &fl.faults {
            *counts
                .entry(operator_of(&fault.id).to_string())
                .or_default() += 1;
        }
        per_edition.push(counts);
    }
    let mut table = TextTable::new(["operator", "type", "pack", "nimbus-2000", "nimbus-xp"]);
    for p in &packs {
        for op in &p.operators {
            let count = |counts: &BTreeMap<String, usize>| {
                counts.get(&op.id).copied().unwrap_or(0).to_string()
            };
            table.row([
                op.id.clone(),
                op.fault_type.acronym().to_string(),
                format!("{}@{}", p.name, p.version),
                count(&per_edition[0]),
                count(&per_edition[1]),
            ]);
        }
    }
    print!("{}", table.render());
    println!(
        "{} operator(s) from {} pack(s)",
        scanner.operator_count(),
        packs.len()
    );
    Ok(())
}

/// Prints one operator's full declarative definition.
fn operators_show(args: &[String]) -> Result<(), String> {
    let id = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("usage: faultbench operators show <ID> [--pack FILE]…")?;
    let packs = load_packs(args)?;
    for p in &packs {
        if let Some(op) = p.operators.iter().find(|o| o.id == *id) {
            println!(
                "{} — {} ({})",
                op.id,
                op.fault_type.acronym(),
                op.fault_type.description()
            );
            println!("pack: {}", p.pack_ref());
            if !op.description.is_empty() {
                println!("{}", op.description);
            }
            let json = serde_json::to_string_pretty(op).map_err(|e| e.to_string())?;
            println!("{json}");
            return Ok(());
        }
    }
    let known: Vec<&str> = packs
        .iter()
        .flat_map(|p| p.operators.iter().map(|o| o.id.as_str()))
        .collect();
    Err(format!(
        "no operator `{id}` in the loaded packs (known: {})",
        known.join(", ")
    ))
}

fn cmd_pack(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("validate") => pack_validate(&args[1..]),
        _ => Err("usage: faultbench pack validate <FILE> [--min-precision P]".into()),
    }
}

/// Lints a pack file: parse (unknown fields rejected), validate/compile,
/// then dry-run a scan of both OS editions and score each operator's
/// precision against the compiler's ground truth. `--min-precision P`
/// makes the worst scored precision an exit code, for CI floors.
fn pack_validate(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("usage: faultbench pack validate <FILE> [--min-precision P]")?;
    check_flags(args, "--min-precision")?;
    let floor: Option<f64> = value_of(args, "--min-precision")?
        .map(|v| {
            v.parse::<f64>()
                .ok()
                .filter(|p| p.is_finite() && (0.0..=100.0).contains(p))
                .ok_or_else(|| format!("--min-precision needs a percentage 0-100, got `{v}`"))
        })
        .transpose()?;
    let loaded = FaultPack::load(path).map_err(|e| e.to_string())?;
    let compiled = loaded.compile().map_err(|e| e.to_string())?;
    println!(
        "{path}: valid — {} ({} operator(s))",
        loaded.pack_ref(),
        compiled.len()
    );
    let scanner = Scanner::builder()
        .pack(loaded.clone())
        .build()
        .map_err(|e| e.to_string())?;
    // The worst precision among scored operators, across both editions.
    let mut worst: Option<(f64, String, Edition)> = None;
    for edition in Edition::ALL {
        let os = Os::boot(edition)?;
        let fl = scanner.scan_image(os.program().image());
        let per_op = accuracy::measure_per_operator(&fl, os.program().constructs());
        println!("\ndry run on {edition}: {} fault site(s)", fl.len());
        let mut table = TextTable::new(["operator", "type", "found", "matched", "precision"]);
        for op in &loaded.operators {
            let acc = per_op.get(&op.id).copied();
            let (found, matched) = acc.map_or((0, 0), |a| (a.found, a.matched));
            let precision = match acc {
                Some(a) => a.precision(),
                // Nothing found: scored types read as vacuous 100 %.
                None => accuracy::has_ground_truth(op.fault_type).then_some(1.0),
            };
            if let Some(p) = precision {
                let pct = p * 100.0;
                if worst.as_ref().is_none_or(|(w, _, _)| pct < *w) {
                    worst = Some((pct, op.id.clone(), edition));
                }
            }
            table.row([
                op.id.clone(),
                op.fault_type.acronym().to_string(),
                found.to_string(),
                matched.to_string(),
                precision.map_or("-".into(), |p| format!("{} %", f(p * 100.0, 1))),
            ]);
        }
        print!("{}", table.render());
    }
    match (floor, &worst) {
        (Some(floor), Some((pct, id, edition))) if *pct < floor => Err(format!(
            "operator `{id}` scores {} % precision on {edition}, below the --min-precision floor of {floor} %",
            f(*pct, 1)
        )),
        (Some(floor), Some((pct, id, _))) => {
            println!(
                "precision floor met: worst scored operator `{id}` at {} % (floor {floor} %)",
                f(*pct, 1)
            );
            Ok(())
        }
        (Some(_), None) => {
            println!("no scored operators (all windowed types); floor not applicable");
            Ok(())
        }
        (None, _) => Ok(()),
    }
}
