//! The end-to-end run: tracing off, one workload, measured for a fixed
//! wall-clock budget.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use depbench::CampaignResult;

use crate::check::{digest, invariants, pinned, same_slot};
use crate::measure::{calibration_ms, peak_rss_mb, process_cpu, quartiles};
use crate::spans::Spans;
use crate::workload::{
    journal_replays, replay_run_name, setup, Setup, Workload, DEFAULT_SEED, REPLAY_ITERATIONS,
};
use crate::{Report, Value, END_TO_END};

/// How many times each campaign iteration runs, round-robin over the
/// budget. Host noise on a shared machine comes in episodes of a few
/// seconds and only ever adds time; an iteration's work is deterministic,
/// so the fastest of its spaced repeats is its cost with the least noise.
const ROUNDS: f64 = 5.0;

/// Slots of the first iteration re-executed on a fresh stack and compared
/// byte for byte with the campaign's result.
const CROSS_CHECKED_SLOTS: usize = 4;

/// How a run is driven.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Campaign seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Wall-clock budget of the measured phase.
    pub budget: Duration,
    /// Keep at most this many faults, evenly spaced (`None`: all).
    pub sample: Option<usize>,
    /// Directory for scratch stores and span files.
    pub out: PathBuf,
}

/// One timed campaign call: an iteration run (or, for the replay
/// workload, a replay of a journaled iteration).
struct Call {
    iteration: u64,
    wall: Duration,
    cpu: Duration,
    digest: String,
    problems: Vec<String>,
    quarantined: u64,
}

/// Sets `workload` up and measures it with tracing off.
///
/// `process_start` is when the process began, so the reported set-up time
/// covers everything before the first injection slot; `probe_setup_s`
/// holds set-up times measured by other, equally cold processes of the
/// same run, folded into the reported median.
///
/// # Errors
///
/// Returns a description when a layer fails outright (the OS does not
/// boot, the store cannot be written); output checks that fail are
/// reported in the [`Report`] instead.
pub fn run(
    workload: Workload,
    opts: &RunOptions,
    process_start: Instant,
    probe_setup_s: &[f64],
) -> Result<Report, String> {
    let calib_start = calibration_ms();
    let mut setup = setup(
        workload,
        opts.seed,
        opts.sample,
        &opts.out,
        &mut Spans::new(),
    )?;
    let own_setup_s = process_start.elapsed().as_secs_f64();
    journal_replays(&mut setup, &mut Spans::new())?;
    let (mut calls, first) = measure(&setup, opts)?;
    let calib_end = calibration_ms();
    cross_check(&setup, &first, &mut calls)?;
    let pinned = if opts.seed == DEFAULT_SEED && opts.sample.is_none() {
        pinned(workload)
    } else {
        Vec::new()
    };

    let mut report = Report::new(workload, opts.seed, &END_TO_END);
    let slots = setup.faultload.len() as u64;
    let (mut rates, mut cpus, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    let iterations = calls.iter().map(|c| c.iteration).max().unwrap_or(0) + 1;
    for iteration in 0..iterations {
        let repeats: Vec<&Call> = calls.iter().filter(|c| c.iteration == iteration).collect();
        let Some(digest) = repeats.first().map(|c| c.digest.clone()) else {
            continue;
        };
        let mut problems: Vec<String> = repeats.iter().flat_map(|c| c.problems.clone()).collect();
        if repeats.iter().any(|c| c.digest != digest) {
            problems.push("repeats of the iteration gave different results".to_string());
        }
        if let Some(want) = pinned
            .get(iteration as usize)
            .filter(|want| **want != digest)
        {
            problems.push(format!("result digest {digest} != pinned {want}"));
        }
        for call in &repeats {
            report.attempted += slots;
            report.failed += if problems.is_empty() {
                call.quarantined
            } else {
                slots
            };
        }
        let fastest =
            |f: fn(&Call) -> Duration| repeats.iter().map(|c| f(c)).min().expect("non-empty");
        rates.push(slots as f64 / fastest(|c| c.wall).as_secs_f64());
        cpus.push(fastest(|c| c.cpu).as_secs_f64() * 1e3 / slots as f64);
        report.problems.extend(
            problems
                .into_iter()
                .map(|p| format!("iteration {iteration}: {p}")),
        );
        digests.push((iteration, digest));
    }

    let (q1, slots_per_s, q3) = quartiles(&rates);
    report.push("slots_per_s", slots_per_s, "slots/s");
    report.push("slots_per_s.q1", q1, "slots/s");
    report.push("slots_per_s.q3", q3, "slots/s");
    report.push("cpu_ms_per_slot", quartiles(&cpus).1, "ms");
    let mut setups = probe_setup_s.to_vec();
    setups.push(own_setup_s);
    let (q1, setup_s, q3) = quartiles(&setups);
    report.push("setup_s", setup_s, "s");
    report.push("setup_s.q1", q1, "s");
    report.push("setup_s.q3", q3, "s");
    report.push("setup_s.samples", setups.len() as f64, "count");
    report.push("peak_rss_mb", peak_rss_mb()?, "MB");
    report.push_exact(
        "slot_fail_pct",
        Value::Num(100.0 * report.failed as f64 / report.attempted.max(1) as f64),
        "%",
    );
    report.push_exact("faults", Value::Num(slots as f64), "count");
    report.push("iterations", rates.len() as f64, "count");
    report.push("calls", calls.len() as f64, "count");
    report.push("host.calib_ms.start", calib_start, "ms");
    report.push("host.calib_ms.end", calib_end, "ms");
    for (iteration, digest) in digests {
        report.push_exact(
            format!("digest.it{iteration}"),
            Value::Text(digest),
            "fnv1a",
        );
    }
    Ok(report)
}

/// The measured phase: campaign calls round-robin over a set of
/// iterations, until the budget is spent. The first call's duration sizes
/// the set so each iteration runs about [`ROUNDS`] times. Each call is
/// timed on its own, so the output checks between calls stay out of the
/// numbers. Also returns the first result, of iteration 0, for
/// [`cross_check`].
fn measure(setup: &Setup, opts: &RunOptions) -> Result<(Vec<Call>, CampaignResult), String> {
    let campaign = &setup.campaign;
    let faultload = &setup.faultload;
    let replay = setup.workload == Workload::ReplayW2kHeron;
    let mut distinct = if replay { REPLAY_ITERATIONS } else { 0 };
    let phase = Instant::now();
    let mut calls = Vec::new();
    let mut first = None;
    for call in 0u64.. {
        if call > 0 && phase.elapsed() >= opts.budget {
            break;
        }
        let iteration = call % distinct.max(1);
        let (wall_start, cpu_start) = (Instant::now(), process_cpu());
        let (result, loaded) = match &setup.store {
            Some(s) if replay => {
                let result = s.store.run_resumable(campaign, faultload, iteration, true);
                let loaded = s.store.load_run(&replay_run_name(iteration));
                (result, Some(loaded))
            }
            Some(s) => (
                s.store.run_resumable(campaign, faultload, iteration, false),
                None,
            ),
            None => (
                campaign
                    .run_injection(faultload, iteration)
                    .map_err(faultstore::StoreError::from),
                None,
            ),
        };
        let (wall, cpu) = (wall_start.elapsed(), process_cpu() - cpu_start);
        if distinct == 0 {
            distinct = (opts.budget.as_secs_f64() / (ROUNDS * wall.as_secs_f64())).max(1.0) as u64;
        }
        let result = result.map_err(|e| e.to_string())?;

        let json = serde_json::to_string(&result).map_err(|e| e.to_string())?;
        let mut problems = invariants(&result, faultload, &setup.baseline, setup.workload.traced());
        if result.degraded {
            problems.push("the store degraded to un-journaled operation".to_string());
        }
        if let Some(loaded) = loaded {
            let journaled = &setup.journaled[iteration as usize];
            if json != *journaled {
                problems.push("replayed result differs from the journaled one".to_string());
            }
            let loaded = serde_json::to_string(&loaded.map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
            if loaded != *journaled {
                problems.push("loaded run differs from the journaled result".to_string());
            }
        }
        calls.push(Call {
            iteration,
            wall,
            cpu,
            digest: digest(&json),
            problems,
            quarantined: result.quarantined.len() as u64,
        });
        if first.is_none() {
            first = Some(result);
        }
    }
    Ok((calls, first.expect("at least one iteration ran")))
}

/// Re-executes a few evenly spaced slots of iteration 0 one at a time, on
/// a fresh stack (`Campaign::trace_slot`), and compares each with the
/// campaign's result byte for byte: a check that holds for any seed.
fn cross_check(setup: &Setup, first: &CampaignResult, calls: &mut [Call]) -> Result<(), String> {
    let n = setup.faultload.len();
    let stride = n.div_ceil(CROSS_CHECKED_SLOTS).max(1);
    for slot in (0..n).step_by(stride) {
        let (mut alone, _) = setup
            .campaign
            .trace_slot(&setup.faultload, 0, slot)
            .map_err(|e| e.to_string())?;
        if !setup.workload.traced() {
            alone.activation = None;
        }
        let in_campaign = first.slots.iter().find(|s| s.fault_id == alone.fault_id);
        if !in_campaign.is_some_and(|s| same_slot(s, &alone)) {
            calls[0].problems.push(format!(
                "slot {slot} re-executed alone differs from the campaign's result"
            ));
        }
    }
    Ok(())
}
