//! The dependability metrics of §3.2, with statistical treatment.
//!
//! The benchmark reports performance degradation (SPCf, THRf, RTMf — the
//! SPECWeb measures *in the presence of the faultload*), the error rate
//! ER%f, and the need for administrator intervention ADMf = MIS + KNS +
//! KCP. Cross-iteration aggregation ([`aggregate_metrics`]) additionally
//! reports 95 % confidence intervals ([`MetricsSummary`]) and feeds the
//! convergence-based early-stop rule ([`ConvergenceConfig`]).

use serde::{Deserialize, Serialize};
use simstats::{bootstrap_ratio_ci, t_interval, Ci, BOOTSTRAP_RESAMPLES, BOOTSTRAP_SEED};
use specweb::IntervalMeasures;

use crate::campaign::{ActivationSummary, CampaignResult};
use crate::interval::WatchdogCounts;
use crate::recovery::AvailabilityMetrics;

pub use simstats::ConvergenceConfig;

/// Per-metric bootstrap seed tags (offsets on [`BOOTSTRAP_SEED`]), so each
/// ratio metric draws an independent, reproducible resample stream.
const ER_SEED_TAG: u64 = 1;
const AVAIL_SEED_TAG: u64 = 2;
const ACT_SEED_TAG: u64 = 3;

/// The request volume behind a run's ER%f — what lets aggregation weight
/// an iteration by how much traffic it actually measured.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestCounts {
    /// Operations attempted during the measured intervals.
    pub ops: u64,
    /// Operations that failed.
    pub errors: u64,
}

/// The paper's metric set for one campaign run, alongside its baseline.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DependabilityMetrics {
    /// SPC without faults (baseline / profile mode).
    pub spc_baseline: u32,
    /// THR without faults.
    pub thr_baseline: f64,
    /// RTM without faults (ms).
    pub rtm_baseline: f64,
    /// SPCf — SPC in the presence of the faultload.
    pub spc_f: u32,
    /// THRf — throughput in the presence of the faultload (ops/s).
    pub thr_f: f64,
    /// RTMf — response time in the presence of the faultload (ms).
    pub rtm_f: f64,
    /// ER%f — error rate in the presence of the faultload (percent).
    pub er_pct_f: f64,
    /// Watchdog interventions (MIS / KNS / KCP).
    pub watchdog: WatchdogCounts,
    /// Downtime/repair timeline aggregated over the campaign's slots
    /// (availability %, MTTR, time-to-first-repair, longest outage).
    #[serde(default)]
    pub availability: AvailabilityMetrics,
    /// Fault-activation rates (overall and per fault type). `Some` only
    /// when the campaign ran traced; omitted from JSON otherwise, so
    /// untraced metric sets stay byte-identical to pre-trace ones.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub activation: Option<ActivationSummary>,
    /// The request counts behind `er_pct_f`. `Some` on metric sets built
    /// by this version; omitted from JSON when absent, so artifacts
    /// written before the statistics engine still load (and aggregation
    /// then falls back to the old unweighted ER%f mean).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub requests: Option<RequestCounts>,
}

impl DependabilityMetrics {
    /// Builds the metric set from a baseline interval and a campaign result.
    pub fn from_runs(baseline: &IntervalMeasures, campaign: &CampaignResult) -> Self {
        DependabilityMetrics {
            spc_baseline: baseline.spc(),
            thr_baseline: baseline.thr(),
            rtm_baseline: baseline.rtm(),
            spc_f: campaign.spc_f(),
            thr_f: campaign.measures.thr(),
            rtm_f: campaign.measures.rtm(),
            er_pct_f: campaign.measures.er_pct(),
            watchdog: campaign.watchdog,
            availability: campaign.availability,
            activation: campaign.activation_summary(),
            requests: Some(RequestCounts {
                ops: campaign.measures.ops(),
                errors: campaign.measures.errors(),
            }),
        }
    }

    /// Whether any slot completed. The observed time sums the completed
    /// slots' measurement intervals, so it is zero exactly when none did (a
    /// 0-fault or an all-quarantined campaign). SPCf, THRf, RTMf, ER%f and
    /// availability over no slot have no value, and tables render them as
    /// `n/a` ([`crate::report::or_na`]).
    pub fn measured(&self) -> bool {
        !self.availability.observed.is_zero()
    }

    /// ADMf — administrative interventions needed (MIS + KNS + KCP).
    pub fn admf(&self) -> u64 {
        self.watchdog.admf()
    }

    /// THR retention under faults, in `[0, 1]` — the paper's "performance
    /// relative to its normal condition".
    pub fn thr_retention(&self) -> f64 {
        if self.thr_baseline <= 0.0 {
            0.0
        } else {
            self.thr_f / self.thr_baseline
        }
    }
}

/// 95 % confidence intervals over a summary's iterations, one per tier-1
/// metric. Every field is `None` when the interval cannot be computed
/// (fewer than 2 iterations, or missing counts on legacy artifacts).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsCi {
    /// Student-t interval over per-iteration SPCf.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub spc_f: Option<Ci>,
    /// Student-t interval over per-iteration THRf.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub thr_f: Option<Ci>,
    /// Student-t interval over per-iteration RTMf.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub rtm_f: Option<Ci>,
    /// Bootstrap interval over per-iteration `(errors, ops)` pairs.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub er_pct_f: Option<Ci>,
    /// Bootstrap interval over per-iteration `(uptime, observed)` pairs,
    /// in percent.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub availability_pct: Option<Ci>,
    /// Bootstrap interval over per-iteration `(activated, tracked)` pairs,
    /// in percent. Traced campaigns only.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub activation_rate_pct: Option<Ci>,
}

impl MetricsCi {
    /// Whether no interval could be computed (single iteration) — the
    /// serialization gate that keeps single-run summaries free of a noise
    /// block.
    pub fn is_empty(&self) -> bool {
        self == &MetricsCi::default()
    }
}

/// Cross-iteration aggregate: the paper's "Average (all iter)" row plus
/// the dispersion behind it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MetricsSummary {
    /// Pointwise aggregate. Count-backed metrics (ER%f, availability,
    /// activation, request counts) merge their underlying counts, so every
    /// iteration is weighted by its observed volume; the rest are plain
    /// means.
    pub mean: DependabilityMetrics,
    /// 95 % confidence intervals (empty, and omitted from JSON, for a
    /// single iteration).
    #[serde(default, skip_serializing_if = "MetricsCi::is_empty")]
    pub ci95: MetricsCi,
    /// The per-iteration metric sets the aggregate was built from.
    pub per_iteration: Vec<DependabilityMetrics>,
}

impl MetricsSummary {
    /// Iterations aggregated.
    pub fn iterations(&self) -> u64 {
        self.per_iteration.len() as u64
    }

    /// The early-stop decision: enough iterations ran and every tier-1
    /// metric's CI half-width is below the target — relative for the
    /// magnitude metrics (SPCf, THRf, RTMf), absolute percentage points
    /// for ER%f.
    pub fn converged(&self, conv: &ConvergenceConfig) -> bool {
        self.iterations() >= conv.min_iters
            && conv.relative_ok(self.ci95.spc_f.as_ref())
            && conv.relative_ok(self.ci95.thr_f.as_ref())
            && conv.relative_ok(self.ci95.rtm_f.as_ref())
            && conv.absolute_ok(self.ci95.er_pct_f.as_ref())
    }
}

/// Aggregates metric sets across iterations (the paper's "Average (all
/// iter)" rows) with 95 % confidence intervals. `None` on an empty slice —
/// a zero-iteration run has nothing to aggregate and callers must say so
/// instead of panicking.
pub fn aggregate_metrics(runs: &[DependabilityMetrics]) -> Option<MetricsSummary> {
    if runs.is_empty() {
        return None;
    }
    let n = runs.len() as f64;
    let mean_u32 = |f: fn(&DependabilityMetrics) -> u32| -> u32 {
        (runs.iter().map(|r| f(r) as f64).sum::<f64>() / n).round() as u32
    };
    let mean_f =
        |f: fn(&DependabilityMetrics) -> f64| -> f64 { runs.iter().map(f).sum::<f64>() / n };
    let avg_w = |f: fn(&WatchdogCounts) -> u64| -> u64 {
        (runs.iter().map(|r| f(&r.watchdog) as f64).sum::<f64>() / n).round() as u64
    };

    // ER%f weights each iteration by its request volume: merge the counts
    // and recompute, exactly as one long run would. Metric sets from before
    // the counts existed fall back to the historical unweighted mean.
    let requests: Option<RequestCounts> =
        runs.iter()
            .map(|r| r.requests)
            .try_fold(RequestCounts::default(), |acc, r| {
                r.map(|r| RequestCounts {
                    ops: acc.ops + r.ops,
                    errors: acc.errors + r.errors,
                })
            });
    let er_pct_f = match requests {
        Some(c) if c.ops > 0 => c.errors as f64 * 100.0 / c.ops as f64,
        _ => mean_f(|r| r.er_pct_f),
    };

    let availability = {
        // Availability is a ratio of integer time totals, so "averaging"
        // is summing the timelines: the merged metrics weight every
        // iteration by its observed time.
        let mut merged = AvailabilityMetrics::default();
        for r in runs {
            merged.merge(r.availability);
        }
        merged
    };
    let activation = {
        // Activation rates are ratios of slot counts; like availability,
        // "averaging" sums the counts.
        let mut merged: Option<ActivationSummary> = None;
        for summary in runs.iter().filter_map(|r| r.activation.as_ref()) {
            merged
                .get_or_insert_with(ActivationSummary::default)
                .merge(summary);
        }
        merged
    };

    let mean = DependabilityMetrics {
        spc_baseline: mean_u32(|r| r.spc_baseline),
        thr_baseline: mean_f(|r| r.thr_baseline),
        rtm_baseline: mean_f(|r| r.rtm_baseline),
        spc_f: mean_u32(|r| r.spc_f),
        thr_f: mean_f(|r| r.thr_f),
        rtm_f: mean_f(|r| r.rtm_f),
        er_pct_f,
        watchdog: WatchdogCounts {
            mis: avg_w(|w| w.mis),
            kns: avg_w(|w| w.kns),
            kcp: avg_w(|w| w.kcp),
        },
        availability,
        activation,
        requests,
    };

    let samples =
        |f: fn(&DependabilityMetrics) -> f64| -> Vec<f64> { runs.iter().map(f).collect() };
    let er_pairs: Option<Vec<(f64, f64)>> = runs
        .iter()
        .map(|r| r.requests.map(|c| (c.errors as f64, c.ops as f64)))
        .collect();
    let avail_pairs: Vec<(f64, f64)> = runs
        .iter()
        .map(|r| {
            let observed = r.availability.observed.as_micros() as f64;
            let downtime = r.availability.downtime.as_micros() as f64;
            ((observed - downtime).max(0.0), observed)
        })
        .collect();
    let act_pairs: Option<Vec<(f64, f64)>> = runs
        .iter()
        .map(|r| {
            r.activation
                .as_ref()
                .map(|a| (a.activated as f64, a.tracked as f64))
        })
        .collect();
    let boot = |pairs: &[(f64, f64)], tag: u64| {
        bootstrap_ratio_ci(
            pairs,
            100.0,
            BOOTSTRAP_SEED.wrapping_add(tag),
            BOOTSTRAP_RESAMPLES,
        )
    };
    let ci95 = MetricsCi {
        spc_f: t_interval(&samples(|r| f64::from(r.spc_f))),
        thr_f: t_interval(&samples(|r| r.thr_f)),
        rtm_f: t_interval(&samples(|r| r.rtm_f)),
        er_pct_f: er_pairs.as_deref().and_then(|p| boot(p, ER_SEED_TAG)),
        availability_pct: boot(&avail_pairs, AVAIL_SEED_TAG),
        activation_rate_pct: act_pairs.as_deref().and_then(|p| boot(p, ACT_SEED_TAG)),
    };

    Some(MetricsSummary {
        mean,
        ci95,
        per_iteration: runs.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(spc_f: u32, mis: u64) -> DependabilityMetrics {
        DependabilityMetrics {
            spc_baseline: 36,
            thr_baseline: 100.0,
            rtm_baseline: 350.0,
            spc_f,
            thr_f: 90.0,
            rtm_f: 365.0,
            er_pct_f: 8.0,
            watchdog: WatchdogCounts {
                mis,
                kns: 10,
                kcp: 1,
            },
            availability: AvailabilityMetrics::default(),
            activation: None,
            requests: Some(RequestCounts {
                ops: 1000,
                errors: 80,
            }),
        }
    }

    #[test]
    fn admf_and_retention() {
        let m = metrics(12, 60);
        assert_eq!(m.admf(), 71);
        assert!((m.thr_retention() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn zero_baseline_is_safe() {
        let mut m = metrics(0, 0);
        m.spc_baseline = 0;
        m.thr_baseline = 0.0;
        assert_eq!(m.thr_retention(), 0.0);
    }

    #[test]
    fn aggregation_matches_paper_style() {
        let runs = vec![metrics(13, 64), metrics(12, 58), metrics(14, 58)];
        let avg = aggregate_metrics(&runs).unwrap().mean;
        assert_eq!(avg.spc_f, 13);
        assert_eq!(avg.watchdog.mis, 60);
        assert_eq!(avg.watchdog.kns, 10);
        assert!((avg.er_pct_f - 8.0).abs() < 1e-12);
        assert_eq!(
            avg.requests,
            Some(RequestCounts {
                ops: 3000,
                errors: 240,
            })
        );
    }

    #[test]
    fn aggregating_empty_is_none_not_a_panic() {
        assert!(aggregate_metrics(&[]).is_none());
    }

    #[test]
    fn single_run_summary_has_no_intervals() {
        let summary = aggregate_metrics(&[metrics(12, 60)]).unwrap();
        assert!(summary.ci95.is_empty());
        assert_eq!(summary.iterations(), 1);
        // And the empty block stays out of the serialized form (additive
        // serialization discipline).
        let json = serde_json::to_string(&summary).unwrap();
        assert!(!json.contains("ci95"), "empty ci95 must be omitted: {json}");
        assert!((summary.mean.er_pct_f - 8.0).abs() < 1e-12);
    }

    #[test]
    fn er_pct_is_weighted_by_request_volume() {
        // Regression for the unweighted-mean bug: a tiny iteration with a
        // catastrophic error rate must not count as much as a huge clean
        // one. 10 000 ops at 1 % plus 10 ops at 100 %:
        //   unweighted mean   → (1 + 100) / 2 = 50.5 %
        //   volume-weighted   → 110 / 10 010  ≈ 1.0989 %
        let mut big = metrics(12, 0);
        big.er_pct_f = 1.0;
        big.requests = Some(RequestCounts {
            ops: 10_000,
            errors: 100,
        });
        let mut tiny = metrics(12, 0);
        tiny.er_pct_f = 100.0;
        tiny.requests = Some(RequestCounts {
            ops: 10,
            errors: 10,
        });
        let unweighted = (big.er_pct_f + tiny.er_pct_f) / 2.0;
        let avg = aggregate_metrics(&[big, tiny]).unwrap().mean;
        let weighted = 110.0 * 100.0 / 10_010.0;
        assert!((avg.er_pct_f - weighted).abs() < 1e-9, "{}", avg.er_pct_f);
        assert!(
            (avg.er_pct_f - unweighted).abs() > 40.0,
            "the two answers must visibly differ for this regression to bite"
        );
    }

    #[test]
    fn legacy_runs_without_counts_fall_back_to_unweighted_mean() {
        let mut a = metrics(12, 0);
        a.requests = None;
        a.er_pct_f = 2.0;
        let mut b = metrics(12, 0);
        b.er_pct_f = 4.0;
        let summary = aggregate_metrics(&[a, b]).unwrap();
        assert!((summary.mean.er_pct_f - 3.0).abs() < 1e-12);
        assert_eq!(summary.mean.requests, None);
        // No counts → no bootstrap interval for ER%f.
        assert!(summary.ci95.er_pct_f.is_none());
        // But the t intervals over plain samples still exist.
        assert!(summary.ci95.thr_f.is_some());
    }

    #[test]
    fn intervals_are_deterministic() {
        let runs = vec![metrics(13, 64), metrics(12, 58), metrics(14, 58)];
        let a = aggregate_metrics(&runs).unwrap();
        let b = aggregate_metrics(&runs).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        let spc = a.ci95.spc_f.unwrap();
        assert!((spc.mean - 13.0).abs() < 1e-12);
        assert!(spc.half_width > 0.0);
    }

    #[test]
    fn convergence_stops_low_variance_and_keeps_high_variance_running() {
        let conv = ConvergenceConfig {
            target_halfwidth_pct: 10.0,
            min_iters: 2,
            max_iters: 8,
        };
        // Identical iterations: every half-width is zero → converged.
        let calm = vec![metrics(12, 60); 3];
        let summary = aggregate_metrics(&calm).unwrap();
        assert!(summary.converged(&conv));
        // Wildly different throughput: the THRf interval stays wide.
        let mut noisy = vec![metrics(12, 60), metrics(12, 60)];
        noisy[1].thr_f = 30.0;
        let summary = aggregate_metrics(&noisy).unwrap();
        assert!(!summary.converged(&conv));
        // And a single iteration can never converge, however calm.
        let one = aggregate_metrics(&calm[..1]).unwrap();
        assert!(!one.converged(&conv));
    }

    #[test]
    fn pre_stats_artifacts_still_deserialize() {
        // A metric set serialized before `requests` existed must parse,
        // defaulting the counts away.
        let old = r#"{
            "spc_baseline": 36, "thr_baseline": 100.0, "rtm_baseline": 350.0,
            "spc_f": 12, "thr_f": 90.0, "rtm_f": 365.0, "er_pct_f": 8.0,
            "watchdog": {"mis": 60, "kns": 10, "kcp": 1}
        }"#;
        let m: DependabilityMetrics = serde_json::from_str(old).expect("pre-stats metrics parse");
        assert_eq!(m.requests, None);
        assert!(m.activation.is_none());
    }
}
