//! Pluggable watchdog recovery policies and availability accounting.
//!
//! The paper's benchmark counts administrator interventions (ADMf) but says
//! nothing about *how long* each one kept the service down — yet recovery
//! behavior is exactly what a dependability benchmark should compare. This
//! module supplies both halves:
//!
//! * [`RecoveryPolicy`] — how the watchdog schedules repair attempts after
//!   it classifies a failure. [`RecoveryPolicy::FixedDelay`] reproduces the
//!   original hardwired behavior bit-for-bit and stays the default, so
//!   existing campaigns (and their journals) are unaffected; the other
//!   policies trade repair latency against repair cost.
//! * [`AvailabilityMetrics`] — the downtime timeline the interval loop
//!   records while the watchdog works: availability %, MTTR, longest
//!   outage and time-to-first-repair, mergeable across slots and
//!   iterations.
//!
//! # Determinism
//!
//! Policies are part of [`crate::CampaignConfig::stable_hash`], so stored
//! runs and journals measured under different policies never mix. The only
//! randomness a policy may consume is backoff jitter, drawn from the
//! *slot's* derived [`SimRng`] — the same stream the workload uses — so a
//! campaign stays bit-identical across parallelism settings and resumes.
//! [`RecoveryPolicy::FixedDelay`] (and a zero-jitter backoff) draw nothing,
//! which keeps default-policy results byte-identical to the pre-policy
//! implementation.

use serde::{Deserialize, Serialize};
use simkit::{SimDuration, SimRng};

/// How the watchdog classified a server failure at detection time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureClass {
    /// The process died (counted as MIS).
    Crash,
    /// The process stopped answering and was killed (counted as KNS).
    Hang,
}

/// The watchdog's repair-scheduling policy.
///
/// Serialized into campaign configs (and therefore into
/// [`crate::CampaignConfig::stable_hash`]); the default [`FixedDelay`]
/// variant is *omitted* from the JSON so default-policy configs hash — and
/// journal — exactly as they did before policies existed.
///
/// [`FixedDelay`]: RecoveryPolicy::FixedDelay
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryPolicy {
    /// Restart after the class delay (`CRASH_REPAIR_DELAY` /
    /// `HANG_KILL_DELAY`), retrying at the same cadence. The original
    /// behavior and the default.
    #[default]
    FixedDelay,
    /// Attempt `k` waits `min(base * factor^k, cap)` plus a uniform jitter
    /// in `[0, jitter)` drawn from the slot RNG (no draw when `jitter` is
    /// zero). A small `base` repairs one-shot failures much faster than
    /// [`RecoveryPolicy::FixedDelay`]; the growing delay stops a poisoned
    /// OS from soaking up restart attempts.
    ExponentialBackoff {
        /// First-attempt delay.
        base: SimDuration,
        /// Per-failure delay multiplier.
        factor: u32,
        /// Upper bound on the computed delay (before jitter).
        cap: SimDuration,
        /// Uniform jitter bound added to every attempt; zero disables it.
        jitter: SimDuration,
    },
    /// Restart at the class delay; after `after_failures` failed restarts,
    /// reboot the OS (resetting kernel state mid-interval at `reboot_cost`)
    /// before the next attempt — clearing the state corruption that made
    /// the restarts fail.
    RebootEscalation {
        /// Failed restart attempts tolerated before escalating.
        after_failures: u64,
        /// Downtime charged for each OS reboot attempt.
        reboot_cost: SimDuration,
    },
    /// A pre-started warm spare the watchdog swaps in after `warm_spare`
    /// (the swap-in delay, typically far below a full restart). If the
    /// failover itself fails, later attempts fall back to full restarts at
    /// the class delay.
    StandbyFailover {
        /// Delay to swap the warm spare in.
        warm_spare: SimDuration,
    },
}

impl RecoveryPolicy {
    /// Short names accepted by [`RecoveryPolicy::by_name`], comparison
    /// order for `faultbench recovery`.
    pub const NAMES: [&'static str; 4] = ["fixed", "backoff", "reboot", "failover"];

    /// True for the default policy (the `skip_serializing_if` predicate
    /// that keeps default configs byte-identical to pre-policy JSON).
    pub fn is_fixed_delay(&self) -> bool {
        matches!(self, RecoveryPolicy::FixedDelay)
    }

    /// The standard exponential backoff: 50 ms base, doubling, capped at
    /// 1.6 s, with 10 ms of jitter.
    pub fn backoff() -> RecoveryPolicy {
        RecoveryPolicy::ExponentialBackoff {
            base: SimDuration::from_millis(50),
            factor: 2,
            cap: SimDuration::from_millis(1600),
            jitter: SimDuration::from_millis(10),
        }
    }

    /// The standard reboot escalation: reboot after 3 failed restarts, at
    /// 1.5 s per reboot.
    pub fn reboot_escalation() -> RecoveryPolicy {
        RecoveryPolicy::RebootEscalation {
            after_failures: 3,
            reboot_cost: SimDuration::from_millis(1500),
        }
    }

    /// The standard standby failover: 50 ms warm-spare swap-in.
    pub fn standby_failover() -> RecoveryPolicy {
        RecoveryPolicy::StandbyFailover {
            warm_spare: SimDuration::from_millis(50),
        }
    }

    /// Looks a policy up by its short CLI name.
    pub fn by_name(name: &str) -> Option<RecoveryPolicy> {
        match name {
            "fixed" => Some(RecoveryPolicy::FixedDelay),
            "backoff" => Some(RecoveryPolicy::backoff()),
            "reboot" => Some(RecoveryPolicy::reboot_escalation()),
            "failover" => Some(RecoveryPolicy::standby_failover()),
            _ => None,
        }
    }

    /// The policy's short name (CLI and report labels).
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryPolicy::FixedDelay => "fixed",
            RecoveryPolicy::ExponentialBackoff { .. } => "backoff",
            RecoveryPolicy::RebootEscalation { .. } => "reboot",
            RecoveryPolicy::StandbyFailover { .. } => "failover",
        }
    }
}

/// What the next repair attempt should do, beyond restarting the process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RepairAction {
    /// Plain process restart.
    Restart,
    /// Reboot the OS (clearing kernel state), then restart.
    RebootThenRestart,
    /// Swap the pre-started warm spare in.
    Failover,
}

/// Per-outage repair bookkeeping: the failure class fixed at detection time
/// and the count of failed attempts, from which the policy derives each
/// attempt's delay and action.
#[derive(Clone, Copy, Debug)]
pub struct RepairPlan {
    policy: RecoveryPolicy,
    class: FailureClass,
    failures: u64,
}

impl RepairPlan {
    /// A fresh plan for a failure classified as `class`.
    pub fn new(policy: RecoveryPolicy, class: FailureClass) -> RepairPlan {
        RepairPlan {
            policy,
            class,
            failures: 0,
        }
    }

    /// The failure class this outage was detected as.
    pub fn class(&self) -> FailureClass {
        self.class
    }

    /// Failed repair attempts so far.
    pub fn failures(&self) -> u64 {
        self.failures
    }

    /// Records a failed repair attempt (the OS refused the restart).
    pub fn record_failure(&mut self) {
        self.failures += 1;
    }

    /// What the next attempt should do.
    pub fn next_action(&self) -> RepairAction {
        match self.policy {
            RecoveryPolicy::FixedDelay | RecoveryPolicy::ExponentialBackoff { .. } => {
                RepairAction::Restart
            }
            RecoveryPolicy::RebootEscalation { after_failures, .. } => {
                if self.failures >= after_failures {
                    RepairAction::RebootThenRestart
                } else {
                    RepairAction::Restart
                }
            }
            RecoveryPolicy::StandbyFailover { .. } => {
                if self.failures == 0 {
                    RepairAction::Failover
                } else {
                    RepairAction::Restart
                }
            }
        }
    }

    /// Delay before the next repair attempt. `fallback` is the class-based
    /// fixed delay (`CRASH_REPAIR_DELAY` / `HANG_KILL_DELAY`) the caller
    /// picked for the failure class; policies that keep the original
    /// cadence return it unchanged — and only backoff jitter ever touches
    /// `rng`, so the default policy's random stream is untouched.
    pub fn next_delay(&self, fallback: SimDuration, rng: &mut SimRng) -> SimDuration {
        match self.policy {
            RecoveryPolicy::FixedDelay => fallback,
            RecoveryPolicy::ExponentialBackoff {
                base,
                factor,
                cap,
                jitter,
            } => {
                let mut delay = base.min(cap);
                for _ in 0..self.failures {
                    // Capping every step keeps the multiplication from
                    // overflowing no matter how many attempts failed.
                    delay = (delay * u64::from(factor.max(1))).min(cap);
                }
                if jitter > SimDuration::ZERO {
                    delay += SimDuration::from_micros(rng.range(0, jitter.as_micros()));
                }
                delay
            }
            RecoveryPolicy::RebootEscalation {
                after_failures,
                reboot_cost,
            } => {
                if self.failures >= after_failures {
                    reboot_cost
                } else {
                    fallback
                }
            }
            RecoveryPolicy::StandbyFailover { warm_spare } => {
                if self.failures == 0 {
                    warm_spare
                } else {
                    fallback
                }
            }
        }
    }
}

/// Downtime accounting over one or more measurement intervals.
///
/// All fields are raw totals (microsecond durations and counts), so merging
/// slots — or whole iterations — is exact addition and the derived ratios
/// ([`availability`](AvailabilityMetrics::availability),
/// [`mttr`](AvailabilityMetrics::mttr)) come out time-weighted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AvailabilityMetrics {
    /// Total observed time (the summed interval durations).
    pub observed: SimDuration,
    /// Total downtime: outage windows from watchdog detection to successful
    /// repair, including a still-open window cut off at interval end.
    pub downtime: SimDuration,
    /// Outage windows opened (repaired or not).
    pub outages: u64,
    /// Outage windows closed by a successful repair.
    pub repairs: u64,
    /// Downtime of the repaired windows only (the MTTR numerator).
    pub repaired_downtime: SimDuration,
    /// The single longest outage window.
    pub longest_outage: SimDuration,
    /// Summed time-to-first-repair: each interval's first outage-to-repair
    /// span (intervals that never repaired contribute nothing).
    pub ttfr_total: SimDuration,
    /// Number of intervals contributing to [`ttfr_total`].
    ///
    /// [`ttfr_total`]: AvailabilityMetrics::ttfr_total
    pub ttfr_count: u64,
}

impl AvailabilityMetrics {
    /// Records an outage window closed by a successful repair.
    pub fn record_repair(&mut self, outage: SimDuration) {
        self.outages += 1;
        self.repairs += 1;
        self.downtime += outage;
        self.repaired_downtime += outage;
        self.longest_outage = self.longest_outage.max(outage);
        if self.repairs == 1 {
            self.ttfr_total += outage;
            self.ttfr_count = 1;
        }
    }

    /// Records an outage window still open when the interval ended.
    pub fn record_unrepaired(&mut self, outage: SimDuration) {
        self.outages += 1;
        self.downtime += outage;
        self.longest_outage = self.longest_outage.max(outage);
    }

    /// Sets the observed window (call once per interval, with its duration).
    pub fn set_observed(&mut self, observed: SimDuration) {
        self.observed = observed;
    }

    /// Fraction of observed time the service was up, in `[0, 1]`.
    /// A zero observation window counts as fully available.
    pub fn availability(&self) -> f64 {
        if self.observed.is_zero() {
            return 1.0;
        }
        let frac = 1.0 - self.downtime.as_micros() as f64 / self.observed.as_micros() as f64;
        frac.clamp(0.0, 1.0)
    }

    /// Availability as a percentage, in `[0, 100]`.
    pub fn availability_pct(&self) -> f64 {
        self.availability() * 100.0
    }

    /// Mean time to repair: average length of the repaired outage windows.
    pub fn mttr(&self) -> SimDuration {
        if self.repairs == 0 {
            SimDuration::ZERO
        } else {
            self.repaired_downtime / self.repairs
        }
    }

    /// Mean time-to-first-repair across the merged intervals.
    pub fn ttfr(&self) -> SimDuration {
        if self.ttfr_count == 0 {
            SimDuration::ZERO
        } else {
            self.ttfr_total / self.ttfr_count
        }
    }

    /// Accumulates another interval's (or slot's, or iteration's) totals.
    pub fn merge(&mut self, other: AvailabilityMetrics) {
        self.observed += other.observed;
        self.downtime += other.downtime;
        self.outages += other.outages;
        self.repairs += other.repairs;
        self.repaired_downtime += other.repaired_downtime;
        self.longest_outage = self.longest_outage.max(other.longest_outage);
        self.ttfr_total += other.ttfr_total;
        self.ttfr_count += other.ttfr_count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_fixed_delay_and_omitted_from_json() {
        assert_eq!(RecoveryPolicy::default(), RecoveryPolicy::FixedDelay);
        assert!(RecoveryPolicy::FixedDelay.is_fixed_delay());
        assert!(!RecoveryPolicy::backoff().is_fixed_delay());
    }

    #[test]
    fn names_round_trip() {
        for name in RecoveryPolicy::NAMES {
            let policy = RecoveryPolicy::by_name(name).unwrap();
            assert_eq!(policy.name(), name);
        }
        assert_eq!(RecoveryPolicy::by_name("nope"), None);
    }

    #[test]
    fn policies_serde_round_trip() {
        for name in RecoveryPolicy::NAMES {
            let policy = RecoveryPolicy::by_name(name).unwrap();
            let json = serde_json::to_string(&policy).unwrap();
            let back: RecoveryPolicy = serde_json::from_str(&json).unwrap();
            assert_eq!(policy, back, "{name} did not round-trip: {json}");
        }
    }

    #[test]
    fn fixed_delay_returns_fallback_without_touching_rng() {
        let mut rng = SimRng::seed_from_u64(1);
        let before = rng.clone().next_u64();
        let plan = RepairPlan::new(RecoveryPolicy::FixedDelay, FailureClass::Crash);
        let fallback = SimDuration::from_millis(400);
        assert_eq!(plan.next_delay(fallback, &mut rng), fallback);
        assert_eq!(rng.next_u64(), before, "fixed delay must not draw");
    }

    #[test]
    fn backoff_grows_and_caps() {
        let policy = RecoveryPolicy::ExponentialBackoff {
            base: SimDuration::from_millis(50),
            factor: 2,
            cap: SimDuration::from_millis(300),
            jitter: SimDuration::ZERO,
        };
        let mut rng = SimRng::seed_from_u64(2);
        let mut plan = RepairPlan::new(policy, FailureClass::Crash);
        let fallback = SimDuration::from_millis(400);
        let mut delays = Vec::new();
        for _ in 0..5 {
            delays.push(plan.next_delay(fallback, &mut rng).as_micros());
            plan.record_failure();
        }
        assert_eq!(delays, vec![50_000, 100_000, 200_000, 300_000, 300_000]);
    }

    #[test]
    fn backoff_jitter_is_deterministic_per_seed() {
        let policy = RecoveryPolicy::backoff();
        let draw = |seed| {
            let mut rng = SimRng::seed_from_u64(seed);
            RepairPlan::new(policy, FailureClass::Hang)
                .next_delay(SimDuration::from_millis(400), &mut rng)
        };
        assert_eq!(draw(7), draw(7), "same seed, same jitter");
        let base = SimDuration::from_millis(50);
        let d = draw(7);
        assert!(d >= base && d < base + SimDuration::from_millis(10), "{d}");
    }

    #[test]
    fn reboot_escalates_after_threshold() {
        let policy = RecoveryPolicy::RebootEscalation {
            after_failures: 2,
            reboot_cost: SimDuration::from_millis(1500),
        };
        let mut rng = SimRng::seed_from_u64(3);
        let mut plan = RepairPlan::new(policy, FailureClass::Crash);
        let fallback = SimDuration::from_millis(400);
        assert_eq!(plan.next_action(), RepairAction::Restart);
        assert_eq!(plan.next_delay(fallback, &mut rng), fallback);
        plan.record_failure();
        assert_eq!(plan.next_action(), RepairAction::Restart);
        plan.record_failure();
        assert_eq!(plan.next_action(), RepairAction::RebootThenRestart);
        assert_eq!(
            plan.next_delay(fallback, &mut rng),
            SimDuration::from_millis(1500)
        );
    }

    #[test]
    fn failover_only_on_first_attempt() {
        let mut plan = RepairPlan::new(RecoveryPolicy::standby_failover(), FailureClass::Crash);
        let mut rng = SimRng::seed_from_u64(4);
        let fallback = SimDuration::from_millis(400);
        assert_eq!(plan.next_action(), RepairAction::Failover);
        assert_eq!(
            plan.next_delay(fallback, &mut rng),
            SimDuration::from_millis(50)
        );
        plan.record_failure();
        assert_eq!(plan.next_action(), RepairAction::Restart);
        assert_eq!(plan.next_delay(fallback, &mut rng), fallback);
    }

    #[test]
    fn availability_accounting_merges_exactly() {
        let mut a = AvailabilityMetrics::default();
        a.record_repair(SimDuration::from_millis(100));
        a.record_repair(SimDuration::from_millis(300));
        a.record_unrepaired(SimDuration::from_millis(50));
        a.set_observed(SimDuration::from_secs(2));
        assert_eq!(a.outages, 3);
        assert_eq!(a.repairs, 2);
        assert_eq!(a.downtime, SimDuration::from_millis(450));
        assert_eq!(a.mttr(), SimDuration::from_millis(200));
        assert_eq!(a.longest_outage, SimDuration::from_millis(300));
        assert_eq!(a.ttfr(), SimDuration::from_millis(100));
        assert!((a.availability() - (1.0 - 0.45 / 2.0)).abs() < 1e-12);

        let mut b = AvailabilityMetrics::default();
        b.set_observed(SimDuration::from_secs(2));
        let mut merged = a;
        merged.merge(b);
        b.merge(a);
        assert_eq!(merged, b, "merge is commutative on totals");
        assert_eq!(merged.observed, SimDuration::from_secs(4));
        assert!((merged.availability() - (1.0 - 0.45 / 4.0)).abs() < 1e-12);
    }

    #[test]
    fn zero_observation_is_fully_available() {
        let a = AvailabilityMetrics::default();
        assert_eq!(a.availability(), 1.0);
        assert_eq!(a.availability_pct(), 100.0);
        assert_eq!(a.mttr(), SimDuration::ZERO);
        assert_eq!(a.ttfr(), SimDuration::ZERO);
    }
}
