//! The one campaign driver: the iteration loop behind `faultbench
//! campaign`, `table5` and `figure5` (the paper's Table 5 / Fig. 5
//! experiment), which keep only their rendering, plus the one renderer of a
//! traced campaign's fault-activation tables.

use depbench::report::{f, TextTable};
use depbench::{aggregate_metrics, Campaign, CampaignResult, DependabilityMetrics, MetricsSummary};
use faultstore::FaultStore;
use specweb::IntervalMeasures;
use swfit_core::Faultload;

use crate::cli::CliArgs;

/// Runs `campaign`'s iterations over `faultload` and returns the
/// profile-mode baseline they are measured against plus their summary:
/// `--iters` iterations (`default_iters` when unset). With `store`,
/// iterations are journaled (honouring `--resume`). With `save`, each
/// iteration is stored as run `save` (one iteration) or `save-itN`.
/// Quarantined slots and degraded iterations are reported on stderr as
/// they happen.
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
    let iterations = cli.iters.unwrap_or(default_iters);
    let mut baseline: Option<IntervalMeasures> = None;
    let mut runs: Vec<DependabilityMetrics> = Vec::new();
    // `it` counts iterations from 1; the campaign numbers them from 0.
    for it in 1..=iterations {
        let res = cli.run_injection(store, campaign, faultload, it - 1)?;
        // Taken once the first iteration's journal has been accepted, so a
        // refused `--resume` fails before any baseline work.
        if baseline.is_none() {
            baseline = Some(campaign.run_profile_mode(0).map_err(|e| e.to_string())?);
        }
        let base = baseline.as_ref().expect("taken above");
        if let (Some(s), Some(name)) = (store, save) {
            let run_name = if iterations == 1 {
                name.to_string()
            } else {
                format!("{name}-it{it}")
            };
            let path = s.save_run(&run_name, &res).map_err(|e| e.to_string())?;
            eprintln!("saved run `{run_name}` -> {}", path.display());
        }
        warn_quarantined(&res);
        if res.degraded {
            eprintln!(
                "note: iteration {it} ran degraded — the store hit a persistent \
                 environment fault and fell back to less durable operation; the \
                 stored result carries `degraded: true`"
            );
        }
        runs.push(DependabilityMetrics::from_runs(base, &res));
    }
    let summary = aggregate_metrics(&runs).ok_or("campaign produced no iterations to aggregate")?;
    Ok((baseline.expect("an iteration ran"), summary))
}

/// Warns on stderr about `res`'s quarantined slots, if it has any.
pub fn warn_quarantined(res: &CampaignResult) {
    if res.quarantined.is_empty() {
        return;
    }
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
