//! The one campaign driver: the iteration loop behind `faultbench
//! campaign`, `table5` and `figure5` (the paper's Table 5 / Fig. 5
//! experiment), which keep only their rendering, plus the one renderer of a
//! traced campaign's fault-activation tables.

use depbench::report::{f, TextTable};
use depbench::{aggregate_metrics, Campaign, DependabilityMetrics, MetricsSummary};
use faultstore::FaultStore;
use specweb::IntervalMeasures;
use swfit_core::Faultload;

use crate::cli::CliArgs;

/// Runs `campaign`'s iterations over `faultload` and returns the
/// profile-mode baseline they are measured against plus their summary:
/// `--iters` iterations (`default_iters` when unset) or, with
/// `--ci-target`, until every tier-1 metric's 95 % CI converges (capped by
/// `--iters`). With `store`, iterations are journaled (honouring
/// `--resume`) and so is the stop decision, the moment it is taken: a
/// resumed run replays the same iteration count instead of re-deriving it.
/// With `save`, each iteration is stored as run `save` (one iteration) or
/// `save-itN`. Quarantined slots and degraded iterations are reported on
/// stderr as they happen. Setting `FAULTBENCH_CRASH_AFTER_STOP` aborts the
/// process the instant a stop decision is durable (a crash-safety test hook).
///
/// # Errors
///
/// The campaign or store error, stringified for CLI reporting.
pub fn run_iterations(
    cli: &CliArgs,
    store: Option<&FaultStore>,
    campaign: &Campaign,
    faultload: &Faultload,
    default_iters: u64,
    save: Option<&str>,
) -> Result<(IntervalMeasures, MetricsSummary), String> {
    let conv = cli.convergence();
    let max_iterations = cli.max_iterations(default_iters);

    // A resumed campaign replays a journaled stop decision instead of
    // re-deriving it; a fresh one must not inherit a stale decision.
    let mut stop: Option<faultstore::StopRecord> = None;
    if let (Some(s), Some(c)) = (store, &conv) {
        if cli.resume {
            stop = s
                .load_stop(campaign, faultload, c)
                .map_err(|e| e.to_string())?;
            if let Some(r) = &stop {
                eprintln!(
                    "replaying journaled stop decision: {} iteration(s), converged={}",
                    r.stopped_at, r.converged
                );
            }
        } else {
            s.clear_stop(campaign).map_err(|e| e.to_string())?;
        }
    }
    let iteration_bound = stop.as_ref().map_or(max_iterations, |r| r.stopped_at);

    let baseline = campaign.run_profile_mode(0).map_err(|e| e.to_string())?;
    let mut runs: Vec<DependabilityMetrics> = Vec::new();
    // `it` counts iterations from 1; the campaign numbers them from 0.
    for it in 1..=iteration_bound {
        let res = cli.run_injection(store, campaign, faultload, it - 1)?;
        if let (Some(s), Some(name)) = (store, save) {
            let run_name = if max_iterations == 1 {
                name.to_string()
            } else {
                format!("{name}-it{it}")
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
                "note: iteration {it} ran degraded — the store hit a persistent \
                 environment fault and fell back to less durable operation; the \
                 stored result carries `degraded: true`"
            );
        }
        runs.push(DependabilityMetrics::from_runs(&baseline, &res));

        // The convergence check — skipped entirely when a journaled stop
        // decision is being replayed (its iteration count is final).
        if let (None, Some(c)) = (&stop, &conv) {
            let summary =
                aggregate_metrics(&runs).ok_or("campaign produced no iterations to aggregate")?;
            let converged = summary.converged(c);
            if converged || it >= c.max_iters {
                // Journal the decision durably *before* reporting it: a
                // crash from here on must not change how many iterations a
                // resumed run claims.
                if let Some(s) = store {
                    s.record_stop(campaign, faultload, c, it, converged)
                        .map_err(|e| e.to_string())?;
                }
                if std::env::var_os("FAULTBENCH_CRASH_AFTER_STOP").is_some() {
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
    let summary = aggregate_metrics(&runs).ok_or("campaign produced no iterations to aggregate")?;
    Ok((baseline, summary))
}

/// Prints a traced campaign's activation tables, one per iteration,
/// labelled `{scope}iteration N`; nothing for an untraced one.
pub fn print_activations(scope: &str, summary: &MetricsSummary) {
    for (it, m) in summary.per_iteration.iter().enumerate() {
        if let Some(act) = &m.activation {
            print_activation(&format!("{scope}iteration {}", it + 1), act);
        }
    }
}

/// Renders one activation summary: an overall line plus the per-fault-type
/// rate table.
pub fn print_activation(label: &str, act: &depbench::ActivationSummary) {
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
