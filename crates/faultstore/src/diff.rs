//! Cross-run comparison: two stored [`CampaignResult`]s rendered as a delta
//! table over the paper's §3.2 metric set, with a statistical verdict per
//! metric.
//!
//! This is the benchmarking loop the store exists for: run a campaign
//! against a baseline edition, store it; patch the OS (or swap the server),
//! run again, store that; then diff the two runs to see what the change
//! bought — without re-running either campaign.
//!
//! Each run's slots are independent observations of the same
//! edition/server under one fault each, so the diff computes a 95 %
//! confidence interval per metric *within* each run (Student-t over
//! per-slot values for the magnitude metrics and intervention counts,
//! seeded bootstrap for the ratio metrics) and classifies every delta:
//! **CONFIRMED** when the two intervals do not overlap, **WITHIN-NOISE**
//! when they do — or when no interval exists (single-slot runs). A delta
//! against a zero (or near-zero) baseline has no meaningful percentage;
//! the `delta %` cell reads `n/a` and the verdict stays WITHIN-NOISE.

use depbench::report::{f, or_na, pm, TextTable};
use depbench::{CampaignResult, SlotResult};
use simstats::{bootstrap_ratio_ci, t_interval, Ci, BOOTSTRAP_RESAMPLES, BOOTSTRAP_SEED};

/// Below this magnitude a baseline is treated as zero: a percent delta
/// against it would be meaningless (or a division blow-up).
const NEAR_ZERO: f64 = 1e-9;

/// Per-metric bootstrap seed tags for the within-run intervals, disjoint
/// from the cross-iteration tags used by `depbench::aggregate_metrics`.
const DIFF_ER_SEED_TAG: u64 = 11;
const DIFF_AVAIL_SEED_TAG: u64 = 12;
const DIFF_ACT_SEED_TAG: u64 = 13;

/// Within-run 95 % confidence intervals over a campaign's slots, one per
/// diffable metric. `None` when the run has fewer than two slots (or, for
/// ratio metrics, no usable denominators).
#[derive(Clone, Copy, Debug, Default)]
struct RunCis {
    spc: Option<Ci>,
    thr: Option<Ci>,
    rtm: Option<Ci>,
    er: Option<Ci>,
    avail: Option<Ci>,
    act: Option<Ci>,
    mis: Option<Ci>,
    kns: Option<Ci>,
    kcp: Option<Ci>,
    admf: Option<Ci>,
}

fn run_cis(r: &CampaignResult) -> RunCis {
    let slots = &r.slots;
    let n = slots.len() as f64;
    let t_over = |field: fn(&SlotResult) -> f64| -> Option<Ci> {
        let samples: Vec<f64> = slots.iter().map(field).collect();
        t_interval(&samples)
    };
    // A campaign-total count is `n ×` the per-slot mean, so its interval is
    // the per-slot t interval scaled by the slot count.
    let total = |field: fn(&SlotResult) -> f64| -> Option<Ci> {
        t_over(field).map(|ci| Ci {
            mean: ci.mean * n,
            half_width: ci.half_width * n,
        })
    };
    let boot = |pairs: &[(f64, f64)], tag: u64| {
        bootstrap_ratio_ci(
            pairs,
            100.0,
            BOOTSTRAP_SEED.wrapping_add(tag),
            BOOTSTRAP_RESAMPLES,
        )
    };
    let er_pairs: Vec<(f64, f64)> = slots
        .iter()
        .map(|s| (s.measures.errors() as f64, s.measures.ops() as f64))
        .collect();
    let avail_pairs: Vec<(f64, f64)> = slots
        .iter()
        .map(|s| {
            let observed = s.availability.observed.as_micros() as f64;
            let downtime = s.availability.downtime.as_micros() as f64;
            ((observed - downtime).max(0.0), observed)
        })
        .collect();
    let act_pairs: Vec<(f64, f64)> = slots
        .iter()
        .filter_map(|s| s.activation.as_ref())
        .map(|a| (if a.activated() { 1.0 } else { 0.0 }, 1.0))
        .collect();
    RunCis {
        spc: t_over(|s| s.measures.spc_unrounded()),
        thr: t_over(|s| s.measures.thr()),
        rtm: t_over(|s| s.measures.rtm()),
        er: boot(&er_pairs, DIFF_ER_SEED_TAG),
        avail: boot(&avail_pairs, DIFF_AVAIL_SEED_TAG),
        act: boot(&act_pairs, DIFF_ACT_SEED_TAG),
        mis: total(|s| s.watchdog.mis as f64),
        kns: total(|s| s.watchdog.kns as f64),
        kcp: total(|s| s.watchdog.kcp as f64),
        admf: total(|s| s.watchdog.admf() as f64),
    }
}

/// The `delta %` cell: signed percentage of the baseline, or `n/a` when
/// the baseline is (near-)zero.
fn delta_pct(va: f64, vb: f64) -> String {
    if va.abs() < NEAR_ZERO {
        "n/a".to_string()
    } else {
        format!("{:+.1}%", (vb - va) / va * 100.0)
    }
}

/// The statistical verdict for one metric row: CONFIRMED only when both
/// runs carry an interval, the intervals do not overlap, and the baseline
/// is far enough from zero for the comparison to mean anything.
fn verdict(va: f64, ci_a: Option<&Ci>, ci_b: Option<&Ci>) -> String {
    match (ci_a, ci_b) {
        (Some(a), Some(b)) if !a.overlaps(b) && va.abs() >= NEAR_ZERO => "CONFIRMED".to_string(),
        _ => "WITHIN-NOISE".to_string(),
    }
}

/// Renders a metric-by-metric comparison of two campaign results.
///
/// Columns are `metric | <name_a> | <name_b> | delta (B-A) | delta % |
/// verdict` where delta is `B − A` (positive = B larger). Metric cells
/// carry `± half-width` when the run has enough slots for an interval.
/// Rows cover the paper's faultload measures (SPCf, THRf, RTMf, ER%f), the
/// watchdog intervention counts (MIS, KNS, KCP, ADMf), the availability
/// timeline (availability %, MTTR, longest outage) and the slot summary
/// (including quarantined slots); structural rows carry no verdict.
pub fn diff_table(name_a: &str, a: &CampaignResult, name_b: &str, b: &CampaignResult) -> TextTable {
    let cis_a = run_cis(a);
    let cis_b = run_cis(b);
    let mut table = TextTable::new([
        "metric",
        name_a,
        name_b,
        "delta (B-A)",
        "delta %",
        "verdict",
    ]);
    table.row([
        "target".to_string(),
        format!("{}/{}", a.edition.name(), a.server.name()),
        format!("{}/{}", b.edition.name(), b.server.name()),
        String::new(),
        String::new(),
        String::new(),
    ]);

    // A run with no completed slot has no value for a measured metric: its
    // cells, and the deltas against it, read `n/a`.
    let (ma, mb) = (!a.slots.is_empty(), !b.slots.is_empty());
    // One measured-metric row: ± cells, signed delta, percent delta and a
    // CONFIRMED / WITHIN-NOISE verdict from the two intervals.
    let judged = |table: &mut TextTable,
                  metric: &str,
                  va: f64,
                  vb: f64,
                  digits: usize,
                  ci_a: Option<&Ci>,
                  ci_b: Option<&Ci>| {
        table.row([
            metric.to_string(),
            or_na(ma, pm(va, digits, ci_a)),
            or_na(mb, pm(vb, digits, ci_b)),
            or_na(ma && mb, format!("{:+.digits$}", vb - va)),
            or_na(ma && mb, delta_pct(va, vb)),
            verdict(va, ci_a, ci_b),
        ]);
    };
    judged(
        &mut table,
        "SPCf",
        f64::from(a.spc_f()),
        f64::from(b.spc_f()),
        0,
        cis_a.spc.as_ref(),
        cis_b.spc.as_ref(),
    );
    judged(
        &mut table,
        "THRf (ops/s)",
        a.measures.thr(),
        b.measures.thr(),
        2,
        cis_a.thr.as_ref(),
        cis_b.thr.as_ref(),
    );
    judged(
        &mut table,
        "RTMf (ms)",
        a.measures.rtm(),
        b.measures.rtm(),
        2,
        cis_a.rtm.as_ref(),
        cis_b.rtm.as_ref(),
    );
    judged(
        &mut table,
        "ER%f",
        a.measures.er_pct(),
        b.measures.er_pct(),
        2,
        cis_a.er.as_ref(),
        cis_b.er.as_ref(),
    );

    let judged_count = |table: &mut TextTable,
                        metric: &str,
                        va: u64,
                        vb: u64,
                        ci_a: Option<&Ci>,
                        ci_b: Option<&Ci>| {
        table.row([
            metric.to_string(),
            pm(va as f64, 0, ci_a),
            pm(vb as f64, 0, ci_b),
            format!("{:+}", vb as i64 - va as i64),
            delta_pct(va as f64, vb as f64),
            verdict(va as f64, ci_a, ci_b),
        ]);
    };
    judged_count(
        &mut table,
        "MIS",
        a.watchdog.mis,
        b.watchdog.mis,
        cis_a.mis.as_ref(),
        cis_b.mis.as_ref(),
    );
    judged_count(
        &mut table,
        "KNS",
        a.watchdog.kns,
        b.watchdog.kns,
        cis_a.kns.as_ref(),
        cis_b.kns.as_ref(),
    );
    judged_count(
        &mut table,
        "KCP",
        a.watchdog.kcp,
        b.watchdog.kcp,
        cis_a.kcp.as_ref(),
        cis_b.kcp.as_ref(),
    );
    judged_count(
        &mut table,
        "ADMf",
        a.watchdog.admf(),
        b.watchdog.admf(),
        cis_a.admf.as_ref(),
        cis_b.admf.as_ref(),
    );

    let (aa, ab) = (&a.availability, &b.availability);
    table.row([
        "availability %".to_string(),
        or_na(ma, pm(aa.availability_pct(), 2, cis_a.avail.as_ref())),
        or_na(mb, pm(ab.availability_pct(), 2, cis_b.avail.as_ref())),
        or_na(
            ma && mb,
            format!("{:+.2}pp", ab.availability_pct() - aa.availability_pct()),
        ),
        or_na(
            ma && mb,
            delta_pct(aa.availability_pct(), ab.availability_pct()),
        ),
        verdict(
            aa.availability_pct(),
            cis_a.avail.as_ref(),
            cis_b.avail.as_ref(),
        ),
    ]);

    // Structural / timeline rows: plain delta, no statistical verdict (no
    // per-slot dispersion behind them worth judging).
    let plain = |table: &mut TextTable, metric: &str, va: f64, vb: f64, digits: usize| {
        table.row([
            metric.to_string(),
            f(va, digits),
            f(vb, digits),
            format!("{:+.digits$}", vb - va),
            String::new(),
            String::new(),
        ]);
    };
    let plain_count = |table: &mut TextTable, metric: &str, va: u64, vb: u64| {
        table.row([
            metric.to_string(),
            va.to_string(),
            vb.to_string(),
            format!("{:+}", vb as i64 - va as i64),
            String::new(),
            String::new(),
        ]);
    };
    let ms = |d: simkit::SimDuration| d.as_millis_f64();
    plain(&mut table, "MTTR (ms)", ms(aa.mttr()), ms(ab.mttr()), 1);
    plain(
        &mut table,
        "longest outage (ms)",
        ms(aa.longest_outage),
        ms(ab.longest_outage),
        1,
    );
    plain_count(&mut table, "outages", aa.outages, ab.outages);
    plain_count(&mut table, "repairs", aa.repairs, ab.repairs);

    plain_count(
        &mut table,
        "slots",
        a.slots.len() as u64,
        b.slots.len() as u64,
    );
    plain_count(
        &mut table,
        "affected slots",
        a.affected_slots() as u64,
        b.affected_slots() as u64,
    );
    plain_count(
        &mut table,
        "quarantined slots",
        a.quarantined.len() as u64,
        b.quarantined.len() as u64,
    );

    // Activation rows appear only when at least one run was traced.
    let (act_a, act_b) = (a.activation_summary(), b.activation_summary());
    if act_a.is_some() || act_b.is_some() {
        let activated =
            |s: &Option<depbench::ActivationSummary>| s.as_ref().map_or(0, |s| s.activated);
        let rate = |s: &Option<depbench::ActivationSummary>| {
            s.as_ref()
                .map_or(0.0, depbench::ActivationSummary::rate_pct)
        };
        plain_count(
            &mut table,
            "activated slots",
            activated(&act_a),
            activated(&act_b),
        );
        judged(
            &mut table,
            "activation rate %",
            rate(&act_a),
            rate(&act_b),
            1,
            cis_a.act.as_ref(),
            cis_b.act.as_ref(),
        );
    }
    table
}

/// [`diff_table`] rendered to a printable string, with a one-line title.
pub fn diff_runs(name_a: &str, a: &CampaignResult, name_b: &str, b: &CampaignResult) -> String {
    format!(
        "campaign diff: {name_a} vs {name_b}\n{}",
        diff_table(name_a, a, name_b, b).render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use depbench::{SlotResult, WatchdogCounts};
    use simos::Edition;
    use specweb::IntervalMeasures;
    use webserver::ServerKind;

    fn slot_measures(ok: u64, err: u64) -> IntervalMeasures {
        let mut measures = IntervalMeasures::new(4);
        for i in 0..ok {
            measures.record_op(
                (i % 4) as usize,
                2048,
                false,
                simkit::SimDuration::from_millis(350),
            );
        }
        for i in 0..err {
            measures.record_op(
                (i % 4) as usize,
                0,
                true,
                simkit::SimDuration::from_millis(900),
            );
        }
        measures.set_duration(simkit::SimDuration::from_secs(10));
        measures
    }

    fn run(ok: u64, err: u64, mis: u64) -> CampaignResult {
        let measures = slot_measures(ok, err);
        let mut availability = depbench::AvailabilityMetrics::default();
        availability.record_repair(simkit::SimDuration::from_millis(100 * mis));
        availability.set_observed(simkit::SimDuration::from_secs(10));
        CampaignResult {
            edition: Edition::Nimbus2000,
            server: ServerKind::Wren,
            measures: measures.clone(),
            watchdog: WatchdogCounts {
                mis,
                kns: 2,
                kcp: 1,
            },
            availability,
            slots: vec![SlotResult {
                fault_id: "f0".to_string(),
                measures,
                watchdog: WatchdogCounts {
                    mis,
                    kns: 2,
                    kcp: 1,
                },
                ended_dead: false,
                availability: depbench::AvailabilityMetrics::default(),
                activation: None,
            }],
            quarantined: Vec::new(),
            degraded: false,
        }
    }

    /// A three-slot run whose slots serve `base_ok`, `base_ok + step`,
    /// `base_ok + 2·step` operations — enough slots for t intervals, with
    /// a controllable spread.
    fn multi_run(base_ok: u64, step: u64) -> CampaignResult {
        let slots: Vec<SlotResult> = (0..3)
            .map(|i| SlotResult {
                fault_id: format!("f{i}"),
                measures: slot_measures(base_ok + i * step, 0),
                watchdog: WatchdogCounts::default(),
                ended_dead: false,
                availability: depbench::AvailabilityMetrics::default(),
                activation: None,
            })
            .collect();
        let mut merged = IntervalMeasures::new(4);
        for s in &slots {
            merged.merge(&s.measures);
        }
        CampaignResult {
            edition: Edition::Nimbus2000,
            server: ServerKind::Wren,
            measures: merged,
            watchdog: WatchdogCounts::default(),
            availability: depbench::AvailabilityMetrics::default(),
            slots,
            quarantined: Vec::new(),
            degraded: false,
        }
    }

    #[test]
    fn diff_covers_every_paper_metric() {
        let a = run(100, 0, 0);
        let b = run(80, 20, 5);
        let text = diff_runs("baseline", &a, "patched", &b);
        for metric in [
            "SPCf",
            "THRf",
            "RTMf",
            "ER%f",
            "MIS",
            "KNS",
            "KCP",
            "ADMf",
            "availability",
            "MTTR",
            "longest outage",
            "slots",
            "quarantined",
            "verdict",
        ] {
            assert!(
                text.contains(metric),
                "diff table missing {metric}:\n{text}"
            );
        }
        assert!(text.contains("baseline"));
        assert!(text.contains("patched"));
    }

    #[test]
    fn deltas_are_signed() {
        let a = run(100, 0, 0);
        let b = run(80, 20, 5);
        let text = diff_table("a", &a, "b", &b).render();
        // MIS went 0 -> 5: the delta column shows +5.
        assert!(text.contains("+5"), "expected signed +5 delta:\n{text}");
        let back = diff_table("b", &b, "a", &a).render();
        assert!(back.contains("-5"), "expected signed -5 delta:\n{back}");
    }

    #[test]
    fn activation_rows_appear_only_for_traced_runs() {
        let a = run(100, 0, 0);
        let untraced = diff_table("x", &a, "y", &a).render();
        assert!(
            !untraced.contains("activation"),
            "untraced diff must not grow rows:\n{untraced}"
        );
        let mut b = run(100, 0, 0);
        b.slots[0].activation = Some(depbench::SlotActivation {
            fault_type: "MIFS".to_string(),
            hits: 3,
            first_hit: Some(simkit::SimTime::from_micros(500)),
        });
        let traced = diff_table("x", &a, "y", &b).render();
        assert!(traced.contains("activated slots"), "{traced}");
        assert!(traced.contains("activation rate %"), "{traced}");
    }

    #[test]
    fn identical_runs_diff_to_zero() {
        let a = run(100, 0, 3);
        let text = diff_table("x", &a, "y", &a).render();
        assert!(
            text.contains("+0"),
            "identical runs show zero deltas:\n{text}"
        );
        assert!(!text.contains("+3"), "no nonzero count delta:\n{text}");
    }

    #[test]
    fn single_slot_runs_are_never_confirmed() {
        // One slot carries no dispersion information: whatever the deltas,
        // every verdict stays WITHIN-NOISE.
        let a = run(100, 0, 0);
        let b = run(50, 50, 9);
        let text = diff_table("a", &a, "b", &b).render();
        assert!(!text.contains("CONFIRMED"), "{text}");
        assert!(text.contains("WITHIN-NOISE"), "{text}");
    }

    #[test]
    fn separated_intervals_are_confirmed_and_tight_overlap_is_noise() {
        // A serves ~10 ops/s per slot, B ~5 ops/s, each with a spread far
        // smaller than the gap: THRf must be CONFIRMED.
        let a = multi_run(100, 1);
        let b = multi_run(50, 1);
        let text = diff_table("a", &a, "b", &b).render();
        let thr_row = text
            .lines()
            .find(|l| l.starts_with("THRf"))
            .expect("THRf row");
        assert!(thr_row.contains("CONFIRMED"), "{text}");
        assert!(thr_row.contains('\u{b1}'), "THRf cells carry ±:\n{text}");

        // Same means, spread wider than the gap: WITHIN-NOISE.
        let c = multi_run(100, 40);
        let d = multi_run(110, 40);
        let text = diff_table("c", &c, "d", &d).render();
        let thr_row = text
            .lines()
            .find(|l| l.starts_with("THRf"))
            .expect("THRf row");
        assert!(thr_row.contains("WITHIN-NOISE"), "{text}");
    }

    #[test]
    fn zero_baseline_percent_delta_is_na_and_within_noise() {
        // Baseline ER%f is exactly zero; the patched run fails hard. No
        // percent delta can be formed and the verdict must not claim a
        // confirmed regression off a zero denominator.
        let a = multi_run(100, 1);
        let mut b = multi_run(100, 1);
        for slot in &mut b.slots {
            slot.measures = slot_measures(50, 50);
        }
        let mut merged = IntervalMeasures::new(4);
        for s in &b.slots {
            merged.merge(&s.measures);
        }
        b.measures = merged;
        let text = diff_table("a", &a, "b", &b).render();
        let er_row = text
            .lines()
            .find(|l| l.starts_with("ER%f"))
            .expect("ER%f row");
        assert!(er_row.contains("n/a"), "zero baseline delta%:\n{text}");
        assert!(er_row.contains("WITHIN-NOISE"), "{text}");
        assert!(!er_row.contains("CONFIRMED"), "{text}");
    }
}
