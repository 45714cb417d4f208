//! The traced run: per-layer numbers measured from outside the program.
//!
//! The program has no spans of its own yet, so this run recomposes each
//! campaign slot sequentially from the layers' public calls — the same
//! sequence `Campaign::run_injection` runs on a worker — and times every
//! call: `Os::restore_snapshot`, `WebServer::clone_box`, `run_interval`
//! through a forwarding server that times `serve`/`start`/`failover`,
//! `Injector::inject`/`restore` and, on journaled workloads,
//! `Journal::record`. Every recomposed `SlotResult` must equal the
//! campaign's byte for byte, which is what makes the per-layer numbers
//! describe the campaign. A second, untimed pass turns on
//! `Os::enable_cost_profiling` to count instructions, so counting stays
//! out of the timings.
//!
//! The numbers describe the recomposed *sequential* slot: contention
//! between the campaign's workers and the executor's hand-off are visible
//! only as `executor.speedup`.

use std::time::{Duration, Instant};

use depbench::interval::{run_interval, IntervalOutcome};
use depbench::{
    aggregate_metrics, Campaign, CampaignResult, DependabilityMetrics, IntervalConfig,
    SlotActivation, SlotOutcome, SlotResult,
};
use faultstore::{Journal, JournalHeader};
use simkit::{SimDuration, SimRng, SimTime};
use simos::{Os, OsSnapshot};
use simtrace::{EventKind, Tracer};
use specweb::{FileSet, RequestGenerator};
use swfit_core::{FaultDef, Injector};
use webserver::{Request, ServeResult, ServerState, ServerStats, WebServer};

use crate::check::{invariants, same_slot};
use crate::run::RunOptions;
use crate::spans::{Calls, SlotKey, Spans};
use crate::workload::{
    journal_replays, replay_run_name, setup, Setup, Workload, REPLAY_ITERATIONS,
};
use crate::{Report, Value, PER_LAYER};

/// Rounds of the replay workload's read path (each round opens, assembles
/// and loads every journaled iteration once).
const REPLAY_ROUNDS: usize = 25;

/// The span that is benchmark glue rather than a layer of the program:
/// its self time (cloning the generator, deriving the slot's stream,
/// assembling the result) counts as unexplained.
const GLUE: &str = "slot";

/// A worker's benchmark stack, rebuilt here from public calls exactly as
/// `Campaign` builds its private one.
struct Stack {
    os: Os,
    server: Box<dyn WebServer>,
    generator: RequestGenerator,
    injector: Injector,
    checkpoint_os: OsSnapshot,
    checkpoint_server: Box<dyn WebServer>,
}

/// Deterministic work one recomposed slot did.
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    requests: u64,
    restarts: u64,
    api_calls: u64,
    device_io_ops: u64,
    events: u64,
    dropped: u64,
}

/// A server that forwards every call to the real one and times the calls
/// the interval loop makes into the server layer.
struct TimedServer<'a> {
    inner: &'a mut dyn WebServer,
    origin: Instant,
    serve: Calls,
    start: Calls,
    failover: Calls,
}

impl TimedServer<'_> {
    fn timed<R>(
        &mut self,
        pick: fn(&mut Self) -> &mut Calls,
        f: impl FnOnce(&mut dyn WebServer) -> R,
    ) -> R {
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f(&mut *self.inner);
        let end = self.origin.elapsed().as_nanos() as u64;
        pick(self).add(start, end);
        out
    }
}

impl WebServer for TimedServer<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn state(&self) -> ServerState {
        self.inner.state()
    }
    fn start(&mut self, os: &mut Os) -> bool {
        self.timed(|t| &mut t.start, |s| s.start(os))
    }
    fn serve(&mut self, os: &mut Os, req: &Request) -> ServeResult {
        self.timed(|t| &mut t.serve, |s| s.serve(os, req))
    }
    fn prestart_spare(&mut self, os: &mut Os) -> bool {
        self.inner.prestart_spare(os)
    }
    fn failover(&mut self, os: &mut Os) -> bool {
        self.timed(|t| &mut t.failover, |s| s.failover(os))
    }
    fn stats(&self) -> ServerStats {
        self.inner.stats()
    }
    fn clone_box(&self) -> Box<dyn WebServer> {
        self.inner.clone_box()
    }
}

/// One recomposed iteration.
struct Pass {
    iteration: u64,
    /// Wall time of the same iteration run by the workload's `Campaign`
    /// on its `JOBS` workers.
    parallel_wall: Duration,
    /// Wall time of the same iteration run by a one-worker `Campaign`.
    sequential_wall: Duration,
    results: Vec<SlotResult>,
    counters: Vec<Counters>,
    reference: CampaignResult,
    /// Journal bytes the recomposed slots appended (journaled workloads).
    journal_bytes: u64,
}

/// Sets `workload` up and measures its layers.
///
/// # Errors
///
/// Returns a description when a layer fails outright; output checks that
/// fail are reported in the [`Report`] instead.
pub fn trace(workload: Workload, opts: &RunOptions) -> Result<Report, String> {
    let mut spans = Spans::new();
    let mut setup = setup(workload, opts.seed, opts.sample, &opts.out, &mut spans)?;
    journal_replays(&mut setup, &mut spans)?;
    let campaign = &setup.campaign;
    let mut report = Report::new(workload, opts.seed, &PER_LAYER);

    let max_perf = spans
        .time("depbench.max_perf", None, |_| campaign.run_baseline(0))
        .map_err(|e| e.to_string())?;
    let intrusiveness = 100.0 * (max_perf.thr() - setup.baseline.thr()) / max_perf.thr();

    let mut sequential = Campaign::new(
        campaign.edition(),
        campaign.server(),
        depbench::CampaignConfig {
            parallelism: 1,
            ..campaign.config().clone()
        },
    );
    if let Some(tc) = campaign.trace_config() {
        sequential = sequential.with_trace(tc.clone());
    }

    // The replay workload recomposes the iterations it journaled.
    let last = if workload == Workload::ReplayW2kHeron {
        REPLAY_ITERATIONS
    } else {
        u64::MAX
    };
    let phase = Instant::now();
    let mut passes = Vec::new();
    for iteration in 0..last {
        if iteration > 0 && phase.elapsed() >= opts.budget {
            break;
        }
        passes.push(trace_pass(&setup, &sequential, &mut spans, iteration)?);
    }

    let (counted, instructions) = recompose_counting(&setup)?;
    for pass in &passes {
        check_pass(&setup, pass, &mut report);
    }
    let first = &passes[0];
    if counted.len() != first.results.len()
        || counted
            .iter()
            .zip(&first.results)
            .any(|(a, b)| !same_slot(a, b))
    {
        report
            .problems
            .push("the instruction-counting pass changed slot results".to_string());
    }

    let per_iteration: Vec<DependabilityMetrics> = passes
        .iter()
        .map(|p| DependabilityMetrics::from_runs(&setup.baseline, &p.reference))
        .collect();
    spans.time("simstats.aggregate", None, |_| {
        aggregate_metrics(&per_iteration)
    });

    if workload == Workload::ReplayW2kHeron {
        replay_pass(&setup, &mut spans, &mut report)?;
    }
    let path = opts.out.join(format!("{}.spans.json", workload.name()));
    spans.write_json(&path)?;

    layer_metrics(
        &setup,
        &spans,
        &passes,
        instructions,
        intrusiveness,
        &mut report,
    );
    Ok(report)
}

/// One iteration: the campaign's own runs of it (the workload's parallel
/// one as the reference result, and a sequential one for coverage), then
/// the timed recomposition.
fn trace_pass(
    setup: &Setup,
    sequential: &Campaign,
    spans: &mut Spans,
    iteration: u64,
) -> Result<Pass, String> {
    let (reference, parallel_wall) = if setup.workload == Workload::ReplayW2kHeron {
        // `journal_replays` ran this iteration on `JOBS` workers already.
        let wall = spans
            .named("faultstore.journal")
            .nth(iteration as usize)
            .map(|s| Duration::from_nanos(s.busy_ns))
            .expect("every replayed iteration was journaled");
        let result = serde_json::from_str(&setup.journaled[iteration as usize])
            .map_err(|e| e.to_string())?;
        (result, wall)
    } else {
        timed(spans, "campaign.parallel", |_| {
            execute(setup, &setup.campaign, iteration)
        })?
    };
    let (_, sequential_wall) = timed(spans, "campaign.sequential", |_| {
        execute(setup, sequential, iteration)
    })?;
    let journal = match &setup.store {
        Some(s) => {
            let path = s.dir().join(format!("trace-it{iteration}.jsonl"));
            let header = JournalHeader::describe(&setup.campaign, &setup.faultload, iteration);
            let journal = Journal::create(&path, &header).map_err(|e| e.to_string())?;
            let header_len = serde_json::to_string(&header)
                .map_err(|e| e.to_string())?
                .len()
                + 1;
            Some((journal, path, header_len as u64))
        }
        None => None,
    };
    let (results, counters) = spans.time("trace.pass", None, |spans| {
        recompose(setup, iteration, spans, journal.as_ref().map(|(j, _, _)| j))
    })?;
    let journal_bytes = match &journal {
        Some((_, path, header_len)) => {
            std::fs::metadata(path).map_err(|e| e.to_string())?.len() - header_len
        }
        None => 0,
    };
    Ok(Pass {
        iteration,
        parallel_wall,
        sequential_wall,
        results,
        counters,
        reference,
        journal_bytes,
    })
}

/// Runs `campaign` over `iteration` the way the workload does: through
/// the journaling store when it has one.
fn execute(setup: &Setup, campaign: &Campaign, iteration: u64) -> Result<CampaignResult, String> {
    match &setup.store {
        Some(s) => s
            .store
            .run_resumable(campaign, &setup.faultload, iteration, false)
            .map_err(|e| e.to_string()),
        None => campaign
            .run_injection(&setup.faultload, iteration)
            .map_err(|e| e.to_string()),
    }
}

/// [`Spans::time`] for a fallible call, also returning its wall time.
fn timed<R>(
    spans: &mut Spans,
    name: &'static str,
    f: impl FnOnce(&mut Spans) -> Result<R, String>,
) -> Result<(R, Duration), String> {
    let start = Instant::now();
    let out = spans.time(name, None, f)?;
    Ok((out, start.elapsed()))
}

/// Boots the probe OS `Campaign::run_injection` checks the faultload
/// against, then builds one worker stack.
fn probe_and_stack(setup: &Setup, spans: &mut Spans) -> Result<Stack, String> {
    let campaign = &setup.campaign;
    let config = campaign.config();
    let matches = spans.time("depbench.probe", None, |_| {
        let mut os = Os::boot_with_budget(campaign.edition(), config.os_budget)?;
        FileSet::populate(config.fileset, os.devices_mut());
        Ok::<_, String>(setup.faultload.matches_image(os.program().image()))
    })?;
    if !matches {
        return Err("the faultload does not match the booted image".to_string());
    }
    spans.time("depbench.stack", None, |_| {
        let mut os = Os::boot_with_budget(campaign.edition(), config.os_budget)?;
        let fs = FileSet::populate(config.fileset, os.devices_mut());
        let mut server = campaign.server().build();
        if !server.start(&mut os) {
            return Err("fault-free server start failed".to_string());
        }
        Ok(Stack {
            checkpoint_os: os.snapshot(),
            checkpoint_server: server.clone_box(),
            os,
            server,
            generator: RequestGenerator::new(fs),
            injector: Injector::new(),
        })
    })
}

/// Recomposes every slot of `iteration`, timing each layer call.
fn recompose(
    setup: &Setup,
    iteration: u64,
    spans: &mut Spans,
    journal: Option<&Journal>,
) -> Result<(Vec<SlotResult>, Vec<Counters>), String> {
    let mut stack = probe_and_stack(setup, spans)?;
    let mut results = Vec::with_capacity(setup.faultload.len());
    let mut counters = Vec::with_capacity(setup.faultload.len());
    for (slot, fault) in setup.faultload.faults.iter().enumerate() {
        let key = SlotKey { iteration, slot };
        let (result, count) = spans.time("slot", Some(key), |spans| {
            let out = recompose_slot(setup, &mut stack, fault, key, spans)?;
            if let Some(journal) = journal {
                spans
                    .time("faultstore.append", Some(key), |_| {
                        journal.record(slot, &SlotOutcome::Done(out.0.clone()))
                    })
                    .map_err(|e| e.to_string())?;
            }
            Ok::<_, String>(out)
        })?;
        results.push(result);
        counters.push(count);
    }
    Ok((results, counters))
}

/// The untimed counting pass over iteration 0: returns its slot results
/// and the instructions the slots executed, per slot. Profiling is kept
/// out of the timed passes.
fn recompose_counting(setup: &Setup) -> Result<(Vec<SlotResult>, f64), String> {
    let spans = &mut Spans::new();
    let mut stack = probe_and_stack(setup, spans)?;
    stack.os.enable_cost_profiling();
    let executed = |os: &Os| -> u64 { os.function_costs().iter().map(|(_, n)| n).sum() };
    let before = executed(&stack.os);
    let mut results = Vec::with_capacity(setup.faultload.len());
    for (slot, fault) in setup.faultload.faults.iter().enumerate() {
        let key = SlotKey { iteration: 0, slot };
        results.push(recompose_slot(setup, &mut stack, fault, key, spans)?.0);
    }
    let per_slot = (executed(&stack.os) - before) as f64 / results.len().max(1) as f64;
    Ok((results, per_slot))
}

/// One slot, exactly as `Campaign` runs it: rest-interval restore,
/// warm-up, inject, measured interval, revert.
fn recompose_slot(
    setup: &Setup,
    stack: &mut Stack,
    fault: &FaultDef,
    key: SlotKey,
    spans: &mut Spans,
) -> Result<(SlotResult, Counters), String> {
    let config = setup.campaign.config();
    let tracer = match setup.campaign.trace_config() {
        Some(tc) => Tracer::enabled(tc.capacity),
        None => Tracer::disabled(),
    };
    stack.os.set_tracer(tracer.clone());
    spans.time("simos.restore", Some(key), |_| {
        stack.os.restore_snapshot(&stack.checkpoint_os);
    });
    stack.server = spans.time("webserver.clone", Some(key), |_| {
        stack.checkpoint_server.clone_box()
    });
    let mut generator = stack.generator.clone();
    let mut rng = SimRng::derive(config.seed, &[key.iteration, key.slot as u64]);
    let api_calls = stack.os.calls_total();
    let io_ops = stack.os.devices().io_ops();

    tracer.rebase(SimDuration::ZERO);
    tracer.set_now(SimTime::ZERO);
    tracer.emit(EventKind::Phase { name: "warmup" });
    let warmup = IntervalConfig {
        duration: config.warmup,
        ..config.interval
    };
    let (_, warm_calls) = timed_interval(
        "depbench.warmup",
        key,
        spans,
        stack,
        &mut generator,
        &mut rng,
        &warmup,
    );
    tracer.rebase(config.warmup);
    tracer.set_now(SimTime::ZERO);
    tracer.emit(EventKind::Phase { name: "measure" });
    if tracer.is_enabled() {
        tracer.emit(EventKind::InjectApply {
            fault_id: fault.id.clone(),
            site: fault.site,
        });
    }
    spans
        .time("swfit.inject", Some(key), |_| {
            stack.injector.inject(stack.os.image_mut(), fault)
        })
        .map_err(|e| e.to_string())?;
    if tracer.is_enabled() {
        stack.os.arm_activation_watch(fault.site);
    }
    let (out, calls) = timed_interval(
        "depbench.interval",
        key,
        spans,
        stack,
        &mut generator,
        &mut rng,
        &config.interval,
    );
    let activation = tracer.is_enabled().then(|| {
        let (hits, first_hit) = stack.os.activation().expect("activation watch armed above");
        SlotActivation {
            fault_type: fault.fault_type.acronym().to_string(),
            hits,
            first_hit,
        }
    });
    stack.os.clear_activation_watch();
    spans.time("swfit.restore", Some(key), |_| {
        stack.injector.restore(stack.os.image_mut());
    });
    if tracer.is_enabled() {
        tracer.emit(EventKind::InjectUndo {
            fault_id: fault.id.clone(),
        });
    }
    let capacity = setup
        .campaign
        .trace_config()
        .map_or(0, |tc| tc.capacity as u64);
    let counters = Counters {
        requests: warm_calls.0 + calls.0,
        restarts: warm_calls.1 + calls.1,
        api_calls: stack.os.calls_total() - api_calls,
        device_io_ops: stack.os.devices().io_ops() - io_ops,
        events: tracer.emitted(),
        // The ring keeps the newest `capacity` events and drops the rest.
        dropped: tracer.emitted().saturating_sub(capacity),
    };
    let result = SlotResult {
        fault_id: fault.id.clone(),
        watchdog: out.watchdog,
        ended_dead: out.end_state != ServerState::Running,
        availability: out.availability,
        measures: out.measures,
        activation,
    };
    Ok((result, counters))
}

/// Runs one interval through a [`TimedServer`], folding its server calls
/// into child spans. Returns the outcome, the requests served and the
/// server (re)starts and failovers the watchdog made.
fn timed_interval(
    name: &'static str,
    key: SlotKey,
    spans: &mut Spans,
    stack: &mut Stack,
    generator: &mut RequestGenerator,
    rng: &mut SimRng,
    cfg: &IntervalConfig,
) -> (IntervalOutcome, (u64, u64)) {
    spans.time(name, Some(key), |spans| {
        let mut timed = TimedServer {
            inner: stack.server.as_mut(),
            origin: spans.origin(),
            serve: Calls::default(),
            start: Calls::default(),
            failover: Calls::default(),
        };
        let out = run_interval(&mut stack.os, &mut timed, generator, rng, cfg);
        spans.fold("webserver.serve", Some(key), &timed.serve);
        spans.fold("webserver.start", Some(key), &timed.start);
        spans.fold("webserver.failover", Some(key), &timed.failover);
        (
            out,
            (timed.serve.count, timed.start.count + timed.failover.count),
        )
    })
}

/// Byte-compares a pass's recomposed slots with the campaign's, and checks
/// the campaign result's invariants.
fn check_pass(setup: &Setup, pass: &Pass, report: &mut Report) {
    let it = pass.iteration;
    report.attempted += pass.results.len() as u64;
    for problem in invariants(
        &pass.reference,
        &setup.faultload,
        &setup.baseline,
        setup.workload.traced(),
    ) {
        report.problems.push(format!("iteration {it}: {problem}"));
    }
    let mut failed = 0;
    for (slot, recomposed) in pass.results.iter().enumerate() {
        let matches = pass
            .reference
            .slots
            .iter()
            .find(|s| s.fault_id == recomposed.fault_id)
            .is_some_and(|s| same_slot(s, recomposed));
        if !matches {
            failed += 1;
            report.problems.push(format!(
                "iteration {it} slot {slot}: recomposed result differs from the campaign's"
            ));
        }
    }
    report.failed += failed;
}

/// The replay workload's read path, timed call by call: `open_resume` of
/// each journal, assembly of the replayed result, and `load_run`.
fn replay_pass(setup: &Setup, spans: &mut Spans, report: &mut Report) -> Result<(), String> {
    let store = &setup
        .store
        .as_ref()
        .expect("replay workload has a store")
        .store;
    let campaign = &setup.campaign;
    for _ in 0..REPLAY_ROUNDS {
        for iteration in 0..REPLAY_ITERATIONS {
            let path = store.journal_path(campaign, iteration);
            let header = JournalHeader::describe(campaign, &setup.faultload, iteration);
            let (journal, completed) = spans
                .time("faultstore.open_resume", None, |_| {
                    Journal::open_resume(&path, &header)
                })
                .map_err(|e| e.to_string())?;
            drop(journal);
            let result = spans
                .time("depbench.assemble", None, |_| {
                    campaign.run_injection_observed(
                        &setup.faultload,
                        iteration,
                        completed,
                        &|_, _| {},
                    )
                })
                .map_err(|e| e.to_string())?;
            let loaded = spans
                .time("faultstore.load", None, |_| {
                    store.load_run(&replay_run_name(iteration))
                })
                .map_err(|e| e.to_string())?;
            let want = &setup.journaled[iteration as usize];
            for (what, got) in [("replayed", &result), ("loaded", &loaded)] {
                if serde_json::to_string(got).map_err(|e| e.to_string())? != *want {
                    report.problems.push(format!(
                        "iteration {iteration}: {what} result differs from the journaled one"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Turns the recorded spans and counters into the reported metrics.
fn layer_metrics(
    setup: &Setup,
    spans: &Spans,
    passes: &[Pass],
    instructions: f64,
    intrusiveness: f64,
    report: &mut Report,
) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let slots = passes.iter().map(|p| p.results.len()).sum::<usize>().max(1) as f64;
    let per_slot_us =
        |names: &[&str]| names.iter().map(|n| spans.busy_ns(n)).sum::<u64>() as f64 / 1e3 / slots;

    report.push("minic.compile_ms", ms(spans.busy_ns("minic.compile")), "ms");
    report.push("simos.boot_ms", ms(spans.busy_ns("simos.boot")), "ms");
    report.push(
        "specweb.populate_ms",
        ms(spans.busy_ns("specweb.populate")),
        "ms",
    );
    report.push("scanner.scan_ms", ms(spans.busy_ns("scanner.scan")), "ms");
    report.push_exact(
        "scanner.faults",
        Value::Num(setup.faultload.len() as f64),
        "count",
    );
    report.push(
        "depbench.baseline_ms",
        ms(spans.busy_ns("depbench.baseline")),
        "ms",
    );
    report.push_exact("depbench.intrusiveness_pct", Value::Num(intrusiveness), "%");
    report.push(
        "swfit.inject_us",
        per_slot_us(&["swfit.inject", "swfit.restore"]),
        "us",
    );

    let mut slot_ms: Vec<f64> = spans.named("slot").map(|s| ms(s.busy_ns)).collect();
    slot_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite durations"));
    let rank =
        |p: f64| slot_ms[((p * slot_ms.len() as f64).ceil() as usize).clamp(1, slot_ms.len()) - 1];
    report.push("slot.ms_p50", rank(0.50), "ms");
    report.push("slot.ms_p95", rank(0.95), "ms");

    report.push(
        "depbench.warmup_ms",
        per_slot_us(&["depbench.warmup"]) / 1e3,
        "ms",
    );
    report.push(
        "depbench.interval_ms",
        per_slot_us(&["depbench.interval"]) / 1e3,
        "ms",
    );
    let intervals = ["depbench.warmup", "depbench.interval"];
    let self_ns = spans.self_ns();
    let (mut interval_self, mut interval_busy) = (0u64, 0u64);
    for (span, own) in spans.all().iter().zip(&self_ns) {
        if intervals.contains(&span.name) {
            interval_self += own;
            interval_busy += span.busy_ns;
        }
    }
    report.push(
        "depbench.interval_self_pct",
        100.0 * interval_self as f64 / interval_busy.max(1) as f64,
        "%",
    );
    let serve_calls = spans.calls("webserver.serve").max(1);
    report.push(
        "webserver.serve_us",
        spans.busy_ns("webserver.serve") as f64 / 1e3 / serve_calls as f64,
        "us",
    );
    report.push("simos.restore_us", per_slot_us(&["simos.restore"]), "us");
    report.push(
        "webserver.clone_us",
        per_slot_us(&["webserver.clone"]),
        "us",
    );
    let parallel: f64 = passes.iter().map(|p| p.parallel_wall.as_secs_f64()).sum();
    report.push(
        "executor.speedup",
        spans.busy_ns("slot") as f64 / 1e9 / parallel,
        "x",
    );

    // Exact counters come from iteration 0 alone, so they repeat for a
    // seed however many iterations the budget allowed.
    let first = &passes[0].counters;
    let mean = |f: fn(&Counters) -> u64| {
        first.iter().map(f).sum::<u64>() as f64 / first.len().max(1) as f64
    };
    report.push_exact(
        "simtrace.events_per_slot",
        Value::Num(mean(|c| c.events)),
        "count",
    );
    report.push_exact(
        "simtrace.dropped",
        Value::Num(first.iter().map(|c| c.dropped).sum::<u64>() as f64),
        "count",
    );
    report.push(
        "simstats.aggregate_us",
        spans.busy_ns("simstats.aggregate") as f64 / 1e3,
        "us",
    );
    report.push_exact(
        "webserver.requests",
        Value::Num(mean(|c| c.requests)),
        "count",
    );
    let restarts = first.iter().map(|c| c.restarts).sum::<u64>();
    report.push_exact("webserver.restarts", Value::Num(restarts as f64), "count");
    report.push_exact(
        "simos.api_calls",
        Value::Num(mean(|c| c.api_calls)),
        "count",
    );
    report.push_exact(
        "simos.device_io_ops",
        Value::Num(mean(|c| c.device_io_ops)),
        "count",
    );
    report.push_exact("mvm.instructions", Value::Num(instructions), "count");
    let serve_ns_per_slot = spans.busy_ns("webserver.serve") as f64 / slots;
    report.push(
        "mvm.ns_per_instr",
        serve_ns_per_slot / instructions.max(1.0),
        "ns",
    );
    report.push(
        "mvm.ns_per_instr.base_serve_ns_per_slot",
        serve_ns_per_slot,
        "ns",
    );

    // Validity: the recomposed spans against the campaign's own sequential
    // wall time, and how much of the traced wall no layer explains.
    let all = spans.all();
    let is_pass = |i: usize| all[i].name == "trace.pass";
    let mut in_pass = vec![false; all.len()];
    let (mut recomposed, mut explained) = (0u64, 0u64);
    for (i, span) in all.iter().enumerate() {
        // Parents precede their children, so one forward sweep suffices.
        in_pass[i] = span.parent.is_some_and(|p| is_pass(p) || in_pass[p]);
        if span.parent.is_some_and(is_pass) {
            recomposed += span.busy_ns;
        }
        if in_pass[i] && span.name != GLUE {
            explained += self_ns[i];
        }
    }
    let traced_wall = spans.busy_ns("trace.pass");
    let sequential: f64 = passes.iter().map(|p| p.sequential_wall.as_secs_f64()).sum();
    report.push(
        "trace.coverage_pct",
        100.0 * recomposed as f64 / 1e9 / sequential,
        "%",
    );
    report.push(
        "trace.unexplained_pct",
        100.0 - 100.0 * explained as f64 / traced_wall.max(1) as f64,
        "%",
    );
    report.push("trace.slots", slots, "count");

    // Layers only some workloads exercise: reported, but not headline.
    let restart_calls = spans.calls("webserver.start") + spans.calls("webserver.failover");
    if restart_calls > 0 {
        let busy = spans.busy_ns("webserver.start") + spans.busy_ns("webserver.failover");
        report.push(
            "webserver.restart_us",
            busy as f64 / 1e3 / restart_calls as f64,
            "us",
        );
    }
    if setup.workload.tuned() {
        report.push("profilephase.ms", ms(spans.busy_ns("profilephase")), "ms");
    }
    if setup.workload.journaled() {
        report.push(
            "faultstore.append_us",
            per_slot_us(&["faultstore.append"]),
            "us",
        );
        report.push_exact(
            "faultstore.bytes_per_slot",
            Value::Num(passes[0].journal_bytes as f64 / setup.faultload.len() as f64),
            "B",
        );
    }
    if setup.workload == Workload::ReplayW2kHeron {
        let opens = spans.calls("faultstore.open_resume").max(1) as f64;
        report.push(
            "faultstore.replay_us_per_slot",
            spans.busy_ns("faultstore.open_resume") as f64
                / 1e3
                / opens
                / setup.faultload.len() as f64,
            "us",
        );
        report.push(
            "depbench.assemble_ms",
            ms(spans.busy_ns("depbench.assemble")) / opens,
            "ms",
        );
        report.push(
            "faultstore.load_ms",
            ms(spans.busy_ns("faultstore.load")) / opens,
            "ms",
        );
    }
    for (check, ok) in [
        (
            "trace.coverage_pct in [90, 110]",
            report
                .value("trace.coverage_pct")
                .is_some_and(|v| (90.0..=110.0).contains(&v)),
        ),
        (
            "trace.unexplained_pct <= 10",
            report
                .value("trace.unexplained_pct")
                .is_some_and(|v| v <= 10.0),
        ),
        ("depbench.intrusiveness_pct < 2", intrusiveness < 2.0),
    ] {
        if !ok {
            eprintln!(
                "benchmark: {}: validity check failed: {check}",
                setup.workload.name()
            );
        }
    }
}
