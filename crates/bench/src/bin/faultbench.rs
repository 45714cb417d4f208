//! `faultbench` — command-line front end to the whole benchmark.
//!
//! ```text
//! faultbench scan <edition> [--all] [--limit N] [--out FILE] [--store DIR]
//! faultbench profile <edition>                     run the profiling phase
//! faultbench campaign <edition> <server> [--faultload FILE] [--iters N]
//!            [--ci-target P] [--jobs N] [--seed N] [--limit N] [--out FILE]
//!            [--store DIR] [--resume] [--save NAME] [--trace] [--trace-dir D]
//!            [--chaos-seed N] [--chaos-profile P] [--slot-budget-ms N]
//! faultbench recovery <edition> <server> [--limit N] [--jobs N] [--seed N]
//!                                                  compare recovery policies
//! faultbench trace <edition> <server> --slot K [--faultload FILE] [--limit N]
//!            [--iteration N] [--seed N] [--out DIR] replay one slot with the
//!                                                  flight recorder on
//! faultbench diff <runA> <runB> --store DIR        compare two stored runs
//! faultbench accuracy <edition>                    score the scanner
//! faultbench operators list                        the loaded operator library
//! faultbench operators show <ID>                   one operator's definition
//! faultbench pack validate <FILE> [--min-precision P]
//!                                                  lint + dry-run a pack file
//! ```
//!
//! Every scanning subcommand (`scan`, `campaign`, `recovery`, `trace`,
//! `accuracy`, `operators`) additionally accepts `--pack FILE`, repeatable:
//! each named fault-model pack is loaded on top of the bundled `odc-classic`
//! pack, its operators scan after the classic twelve, and the resulting
//! faultloads (and, for `campaign`, the journal identity) carry the extra
//! packs' provenance. `pack validate` lints a pack standalone: it parses
//! with unknown-field rejection, compiles, dry-runs a scan of both OS
//! editions, and scores each operator's precision against the compiler's
//! ground truth — `--min-precision P` turns the worst scored precision into
//! an exit code, for CI floors.
//!
//! `campaign --iters N` runs up to N iterations (the historical
//! `--iterations` spelling still works); with `--ci-target P` the campaign
//! additionally stops early once every tier-1 metric's 95 % confidence
//! half-width falls below P (percent of the mean for SPCf/THRf/RTMf,
//! percentage points for ER%f). Multi-iteration tables close with an
//! `average` row carrying `± half-width` cells, and `--out` saves the full
//! `MetricsSummary` (mean, CIs, per-iteration metrics). With `--store`, the
//! stop decision is journaled durably the moment it is taken, so a crashed
//! run resumed with `--resume` replays the same stopped-at iteration count
//! byte-identically instead of re-deriving it.
//!
//! `campaign --trace` runs every slot with the per-slot flight recorder on:
//! results additionally report fault-activation rates (did the mutated
//! instruction actually execute?), overall and per fault type. `--trace-dir`
//! also dumps quarantined slots' last recorded events as JSONL. `trace`
//! replays a single slot deterministically (same `(seed, iteration, slot)`
//! stream as the campaign) and exports the full event stream twice: as
//! JSONL and as a Chrome `trace_event` file loadable in `about:tracing` /
//! Perfetto.
//!
//! `recovery` runs the same injection campaign once per watchdog recovery
//! policy (`fixed`, `backoff`, `reboot`, `failover`) and tabulates the
//! dependability trade-off: administrative interventions (ADMf),
//! availability %, mean time to repair, and the SPECWeb measures.
//!
//! `campaign --chaos-seed N` turns the faultload on the harness itself:
//! the store's own I/O (cache writes, journal appends, run saves) runs
//! through a deterministic, seeded environment-fault layer.
//! `--chaos-profile` picks the fault family — `transient` (EINTR/EAGAIN/
//! short writes; every fault survivable by retry, results byte-identical
//! to a fault-free run), `torn` (adds torn renames and failed fsyncs),
//! `enospc` (persistent disk-full: the store degrades gracefully and the
//! result is stamped `degraded: true`), or `off`. `--slot-budget-ms N`
//! arms a per-slot watchdog: a slot that overruns its wall-clock budget is
//! killed, quarantined as timed out, and re-attempted by `--resume`.
//!
//! Editions: `nimbus-2000`, `nimbus-xp`. Servers: `heron`, `wren`.
//!
//! With `--store DIR`, scans are served from the store's content-addressed
//! fault-map cache and campaigns are journaled crash-safely: a run killed
//! mid-campaign resumes with `--resume`, replaying the completed slots and
//! producing a byte-identical result. `--save NAME` stores the campaign
//! result for later `diff`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use bench::cli::CliArgs;
use depbench::report::{f, pct, TextTable};
use depbench::{Campaign, CampaignConfig, DependabilityMetrics, RecoveryPolicy};
use faultstore::{diff_runs, StoreError};
use simos::{Edition, Os};
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
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("faultbench: {e}");
            ExitCode::FAILURE
        }
    }
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

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
}

/// Collects every occurrence of a repeatable value flag (e.g. `--pack`).
fn flag_values<'a>(args: &'a [String], name: &str) -> Result<Vec<&'a String>, String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == name {
            match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                Some(v) => out.push(v),
                None => return Err(format!("{name} needs a value")),
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    Ok(out)
}

/// The fault-model packs in scan order: the bundled `odc-classic` pack plus
/// every `--pack FILE` given on the command line.
fn load_packs(args: &[String]) -> Result<Vec<FaultPack>, String> {
    let mut packs = vec![pack::classic().clone()];
    for path in flag_values(args, "--pack")? {
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

/// Parses `--limit N` — truncate the faultload to its first N faults,
/// sampled evenly across the image (for quick runs and CI).
fn parse_limit(args: &[String]) -> Result<Option<usize>, String> {
    flag_value(args, "--limit")
        .map(|v| {
            v.parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| format!("--limit needs a positive integer, got `{v}`"))
        })
        .transpose()
}

/// Evenly samples a faultload down to at most `n` faults.
fn sample(mut fl: Faultload, n: usize) -> Faultload {
    let stride = (fl.len() / n).max(1);
    fl.faults = fl.faults.into_iter().step_by(stride).take(n).collect();
    fl
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

/// Loads the campaign faultload: from `--faultload FILE` when given,
/// otherwise by scanning the booted edition's API functions (served from
/// the store's fault-map cache when one is open). Honours `--limit` and
/// `--pack`.
fn load_faultload(
    args: &[String],
    edition: Edition,
    store: Option<&faultstore::FaultStore>,
) -> Result<Faultload, String> {
    let faultload = match flag_value(args, "--faultload") {
        Some(path) => {
            let json = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
            Faultload::from_json(&json).map_err(|e| e.to_string())?
        }
        None => {
            let os = Os::boot(edition)?;
            let scanner = build_scanner(args)?;
            let api: Vec<String> = simos::OsApi::ALL
                .iter()
                .map(|f| f.symbol().to_string())
                .collect();
            match store {
                Some(s) => s
                    .scan_functions(&scanner, os.program().image(), &api)
                    .map_err(|e| e.to_string())?,
                None => scanner.scan_functions(os.program().image(), &api),
            }
        }
    };
    Ok(match parse_limit(args)? {
        Some(n) => sample(faultload, n),
        None => faultload,
    })
}

/// Renders one iteration's activation summary: an overall line plus the
/// per-fault-type rate table.
fn print_activation(label: &str, act: &depbench::ActivationSummary) {
    println!(
        "fault activation ({label}): {}/{} slots hit their mutation site ({} %)",
        act.activated,
        act.tracked,
        f(act.rate_pct(), 1)
    );
    let mut table = TextTable::new(["type", "tracked", "activated", "rate %"]);
    for row in &act.per_type {
        table.row([
            row.fault_type.clone(),
            row.tracked.to_string(),
            row.activated.to_string(),
            f(row.rate_pct(), 1),
        ]);
    }
    print!("{}", table.render());
}

fn cmd_scan(args: &[String]) -> Result<(), String> {
    let edition = parse_edition(args.first())?;
    let cli = CliArgs::from_slice(args)?;
    let store = cli.open_store()?;
    let os = Os::boot(edition)?;
    let scanner = build_scanner(args)?;
    let whole_image = args.iter().any(|a| a == "--all");
    let faultload = match (&store, whole_image) {
        (Some(s), true) => s
            .scan_image(&scanner, os.program().image())
            .map_err(|e| e.to_string())?,
        (None, true) => scanner.scan_image(os.program().image()),
        (store, false) => {
            let api: Vec<String> = simos::OsApi::ALL
                .iter()
                .map(|f| f.symbol().to_string())
                .collect();
            match store {
                Some(s) => s
                    .scan_functions(&scanner, os.program().image(), &api)
                    .map_err(|e| e.to_string())?,
                None => scanner.scan_functions(os.program().image(), &api),
            }
        }
    };
    let faultload = match parse_limit(args)? {
        Some(n) => sample(faultload, n),
        None => faultload,
    };
    eprintln!("{}: {} faults", edition, faultload.len());
    for (t, n) in faultload.counts_by_type() {
        eprintln!("  {t:5} {n}");
    }
    eprintln!("per function:");
    for (func, n) in faultload.per_function_counts() {
        eprintln!("  {func:28} {n}");
    }
    let json = faultload.to_json().map_err(|e| e.to_string())?;
    match flag_value(args, "--out") {
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
    let cli = CliArgs::from_slice(args)?;
    let store = cli.open_store()?;
    if store.is_none() && flag_value(args, "--save").is_some() {
        return Err("--save needs --store DIR (runs are stored in the store)".into());
    }
    let legacy_iterations: Option<u64> = flag_value(args, "--iterations")
        .map(|v| v.parse().map_err(|_| format!("bad iteration count `{v}`")))
        .transpose()?;
    if legacy_iterations == Some(0) {
        return Err(
            "campaign needs at least one iteration; --iterations 0 has nothing to run".into(),
        );
    }
    let conv = cli.convergence();
    // Iteration budget: the convergence rule's cap when --ci-target is on,
    // otherwise the fixed count from --iters / --iterations (default 1).
    let max_iterations = match &conv {
        Some(c) => c.max_iters,
        None => cli.iters.or(legacy_iterations).unwrap_or(1),
    };
    let faultload = load_faultload(args, edition, store.as_ref())?;
    eprintln!(
        "campaign: {edition} / {server}, {} faults, up to {max_iterations} iteration(s), {} job(s){}",
        faultload.len(),
        cli.jobs.unwrap_or(1),
        if cli.trace {
            ", flight recorder on"
        } else {
            ""
        }
    );
    // Campaign identity must track the pack set: packs beyond the bundled
    // odc-classic are recorded in the config, so journals and stop records
    // key on them — while campaigns under the default library hash exactly
    // as they always have (the field is additive).
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

    // A resumed campaign replays a journaled stop decision instead of
    // re-deriving it; a fresh one must not inherit a stale decision.
    let mut stop: Option<faultstore::StopRecord> = None;
    if let (Some(s), Some(c)) = (&store, &conv) {
        if cli.resume {
            stop = s
                .load_stop(&campaign, &faultload, c)
                .map_err(|e| e.to_string())?;
            if let Some(r) = &stop {
                eprintln!(
                    "replaying journaled stop decision: {} iteration(s), converged={}",
                    r.stopped_at, r.converged
                );
            }
        } else {
            s.clear_stop(&campaign).map_err(|e| e.to_string())?;
        }
    }
    let iteration_bound = stop.as_ref().map_or(max_iterations, |r| r.stopped_at);

    let baseline = campaign.run_profile_mode(0).map_err(|e| e.to_string())?;
    let mut metrics_out: Vec<DependabilityMetrics> = Vec::new();
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
    let mut it: u64 = 0;
    while it < iteration_bound {
        let res = cli.run_injection(store.as_ref(), &campaign, &faultload, it)?;
        if let (Some(s), Some(name)) = (&store, flag_value(args, "--save")) {
            let run_name = if max_iterations == 1 {
                name.clone()
            } else {
                format!("{name}-it{}", it + 1)
            };
            let path = s.save_run(&run_name, &res).map_err(|e| e.to_string())?;
            eprintln!("saved run `{run_name}` -> {}", path.display());
        }
        if !res.quarantined.is_empty() {
            let slots: Vec<String> = res
                .quarantined
                .iter()
                .map(|q| format!("#{} ({})", q.slot, q.fault_id))
                .collect();
            eprintln!(
                "warning: {} slot(s) quarantined (panicked or timed out): {}; \
                 re-run with --store DIR --resume to re-attempt only those slots",
                res.quarantined.len(),
                slots.join(", ")
            );
        }
        if res.degraded {
            eprintln!(
                "note: iteration {} ran degraded — the store hit a persistent \
                 environment fault and fell back to less durable operation; the \
                 stored result carries `degraded: true`",
                it + 1
            );
        }
        let m = DependabilityMetrics::from_runs(&baseline, &res);
        table.row([
            format!("iteration {}", it + 1),
            m.spc_f.to_string(),
            f(m.thr_f, 1),
            f(m.rtm_f, 1),
            f(m.er_pct_f, 1),
            m.watchdog.mis.to_string(),
            m.watchdog.kns.to_string(),
            m.watchdog.kcp.to_string(),
            m.admf().to_string(),
            pct(m.availability.availability()),
            mttr_ms(&m.availability),
        ]);
        metrics_out.push(m);
        it += 1;

        // The convergence check — skipped entirely when a journaled stop
        // decision is being replayed (its iteration count is final).
        if stop.is_none() {
            if let Some(c) = &conv {
                let summary = depbench::aggregate_metrics(&metrics_out)
                    .ok_or("campaign produced no iterations to aggregate")?;
                let converged = summary.converged(c);
                if converged || it >= c.max_iters {
                    // Journal the decision durably *before* reporting it:
                    // a crash from here on must not change how many
                    // iterations a resumed run claims.
                    if let Some(s) = &store {
                        s.record_stop(&campaign, &faultload, c, it, converged)
                            .map_err(|e| e.to_string())?;
                    }
                    if std::env::var_os("FAULTBENCH_CRASH_AFTER_STOP").is_some() {
                        // Test hook: die the instant the stop decision is
                        // durable, before any summary output.
                        std::process::abort();
                    }
                    if converged {
                        eprintln!(
                            "converged after {it} iteration(s): every tier-1 CI half-width is within {} %",
                            c.target_halfwidth_pct
                        );
                    } else {
                        eprintln!(
                            "stopping at the iteration cap ({}) without convergence; \
                             raise --iters or loosen --ci-target",
                            c.max_iters
                        );
                    }
                    break;
                }
            }
        }
    }
    let summary = depbench::aggregate_metrics(&metrics_out)
        .ok_or("campaign produced no iterations to aggregate")?;
    if summary.iterations() >= 2 {
        use depbench::report::pm;
        let m = &summary.mean;
        let ci = &summary.ci95;
        table.row([
            "average".to_string(),
            pm(f64::from(m.spc_f), 0, ci.spc_f.as_ref()),
            pm(m.thr_f, 1, ci.thr_f.as_ref()),
            pm(m.rtm_f, 1, ci.rtm_f.as_ref()),
            pm(m.er_pct_f, 1, ci.er_pct_f.as_ref()),
            m.watchdog.mis.to_string(),
            m.watchdog.kns.to_string(),
            m.watchdog.kcp.to_string(),
            m.admf().to_string(),
            pm(
                m.availability.availability_pct(),
                2,
                ci.availability_pct.as_ref(),
            ),
            mttr_ms(&m.availability),
        ]);
    }
    print!("{}", table.render());
    for (it, m) in summary.per_iteration.iter().enumerate() {
        if let Some(act) = &m.activation {
            print_activation(&format!("iteration {}", it + 1), act);
        }
    }
    if let Some(path) = flag_value(args, "--out") {
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
    let cli = CliArgs::from_slice(args)?;
    let store = cli.open_store()?;
    let faultload = load_faultload(args, edition, store.as_ref())?;
    eprintln!(
        "recovery comparison: {edition} / {server}, {} faults per policy, {} job(s)",
        faultload.len(),
        cli.jobs.unwrap_or(1)
    );
    let mut table = TextTable::new([
        "policy", "ADMf", "Avail%", "MTTR", "outages", "repairs", "SPCf", "THRf", "ER%f",
    ]);
    for name in RecoveryPolicy::NAMES {
        let policy = RecoveryPolicy::by_name(name).expect("NAMES entries all resolve");
        let cfg = cli
            .configure(CampaignConfig::builder())
            .recovery(policy)
            .build();
        let campaign = cli.instrument(Campaign::new(edition, server, cfg));
        let res = campaign
            .run_injection(&faultload, 0)
            .map_err(|e| e.to_string())?;
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
    }
    print!("{}", table.render());
    Ok(())
}

/// Replays one campaign slot with the flight recorder on and exports the
/// full event stream as JSONL and as a Chrome `trace_event` file.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let edition = parse_edition(args.first())?;
    let server = parse_server(args.get(1))?;
    let cli = CliArgs::from_slice(args)?;
    let store = cli.open_store()?;
    let slot: usize = flag_value(args, "--slot")
        .ok_or("trace needs --slot K (which faultload slot to replay)")?
        .parse()
        .map_err(|_| "--slot needs an unsigned integer".to_string())?;
    let iteration: u64 = flag_value(args, "--iteration")
        .map(|v| v.parse().map_err(|_| format!("bad iteration `{v}`")))
        .transpose()?
        .unwrap_or(0);
    let faultload = load_faultload(args, edition, store.as_ref())?;
    if slot >= faultload.len() {
        return Err(format!(
            "--slot {slot} is out of range: the faultload has {} faults",
            faultload.len()
        ));
    }
    let campaign = cli.instrument(Campaign::new(edition, server, cli.config()));
    let (result, trace) = campaign
        .trace_slot(&faultload, iteration, slot)
        .map_err(|e| e.to_string())?;

    let dir = flag_value(args, "--out")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."));
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
    let cli = CliArgs::from_slice(args)?;
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
    let floor: Option<f64> = flag_value(args, "--min-precision")
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
