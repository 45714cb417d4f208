//! The measurement interval: clients, server machine and watchdog on
//! simulated time.
//!
//! The model matches the paper's setup (Fig. 3): one server machine hosting
//! the SUB (OS + web server + injector), one client machine running the
//! SPECWeb-like load over N connections. The server machine serializes
//! request processing (one CPU); responses stream back to each client at the
//! connection bandwidth; clients issue the next operation after a short
//! think time. The watchdog (part of the injector in the paper) monitors
//! the server and performs administrative repairs, counting MIS/KNS/KCP.

use serde::{Deserialize, Serialize};
use simkit::{EventQueue, SimDuration, SimRng, SimTime};
use simos::Os;
use simtrace::EventKind;
use specweb::{IntervalMeasures, RequestGenerator};
use webserver::{ServerState, WebServer};

use crate::recovery::{
    AvailabilityMetrics, FailureClass, RecoveryPolicy, RepairAction, RepairPlan,
};

/// Simultaneous client connections.
pub(crate) const CONNS: usize = 40;
/// Nanoseconds of simulated time per server cost unit.
const NS_PER_UNIT: u64 = 450;
/// Per-connection streaming bandwidth, cells per second.
const CONN_CELLS_PER_SEC: u64 = 25_000;
/// Client think time between operations.
const THINK: SimDuration = SimDuration::from_millis(25);
/// Client-side latency charged to an operation that hits a dead server.
const DEAD_OP_LATENCY: SimDuration = SimDuration::from_millis(250);
/// Extra client delay after a failed operation (teardown + reconnect).
const ERROR_BACKOFF: SimDuration = SimDuration::from_millis(500);
/// Watchdog delay to detect a dead process and restart it.
const CRASH_REPAIR_DELAY: SimDuration = SimDuration::from_millis(400);
/// Watchdog delay to decide the server is not answering (KNS kill).
const HANG_KILL_DELAY: SimDuration = SimDuration::from_millis(400);
/// Self-restarts without a single successful operation in between that
/// classify the process as a CPU hog (KCP kill).
const KCP_RESTART_STORM: u64 = 10;

/// Interval parameters. The client load and the watchdog's delays are the
/// fixed constants above, as in the paper, where only the target, the OS
/// and the faultload vary.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct IntervalConfig {
    /// Interval length (one benchmark slot).
    pub duration: SimDuration,
    /// Extra busy time charged at interval start (injector bookkeeping in
    /// profile mode; zero otherwise).
    pub injector_busy: SimDuration,
    /// Watchdog recovery policy. The default, [`RecoveryPolicy::FixedDelay`],
    /// restarts on the watchdog's class delays.
    pub recovery: RecoveryPolicy,
}

impl Default for IntervalConfig {
    fn default() -> Self {
        IntervalConfig {
            duration: SimDuration::from_secs(2),
            injector_busy: SimDuration::ZERO,
            recovery: RecoveryPolicy::FixedDelay,
        }
    }
}

/// Administrative interventions the watchdog performed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WatchdogCounts {
    /// Server died and did not self-restart (admin restarted it).
    pub mis: u64,
    /// Server killed because it stopped answering requests.
    pub kns: u64,
    /// Server killed because it was hogging the CPU without serving.
    pub kcp: u64,
}

impl WatchdogCounts {
    /// ADMf: total administrative interventions (paper §3.2).
    pub fn admf(&self) -> u64 {
        self.mis + self.kns + self.kcp
    }

    /// Accumulates another interval's counts.
    pub fn merge(&mut self, other: WatchdogCounts) {
        self.mis += other.mis;
        self.kns += other.kns;
        self.kcp += other.kcp;
    }
}

/// Outcome of one interval run.
#[derive(Clone, Debug)]
pub struct IntervalOutcome {
    /// Client-side measures.
    pub measures: IntervalMeasures,
    /// Watchdog interventions.
    pub watchdog: WatchdogCounts,
    /// Downtime accounting over the interval.
    pub availability: AvailabilityMetrics,
    /// Server state when the interval ended.
    pub end_state: ServerState,
}

#[derive(Clone, Copy, Debug)]
enum Event {
    /// Connection `i` issues its next operation.
    Issue(usize),
}

/// Trace label for a repair action.
fn action_name(action: RepairAction) -> &'static str {
    match action {
        RepairAction::Restart => "restart",
        RepairAction::RebootThenRestart => "reboot+restart",
        RepairAction::Failover => "failover",
    }
}

/// Trace label for a failure class.
fn class_name(class: FailureClass) -> &'static str {
    match class {
        FailureClass::Crash => "crash",
        FailureClass::Hang => "hang",
    }
}

/// One open outage: the repair plan, when the outage was detected, and when
/// the next repair attempt is due.
struct RepairJob {
    plan: RepairPlan,
    outage_start: SimTime,
    due: SimTime,
}

/// Runs one measurement interval.
///
/// The server must have been started; a dead server is repaired by the
/// watchdog according to the configured policy (and the repair is counted).
pub fn run_interval(
    os: &mut Os,
    server: &mut dyn WebServer,
    generator: &mut RequestGenerator,
    rng: &mut SimRng,
    cfg: &IntervalConfig,
) -> IntervalOutcome {
    let mut measures = IntervalMeasures::new(CONNS);
    let mut watchdog = WatchdogCounts::default();
    let mut avail = AvailabilityMetrics::default();
    let mut queue: EventQueue<Event> = EventQueue::new();
    let end = SimTime::ZERO + cfg.duration;

    // The server machine's CPU availability; injector bookkeeping occupies
    // it first (profile-mode overhead measurement).
    let mut server_free = SimTime::ZERO + cfg.injector_busy;

    // Watchdog state.
    let mut repair: Option<RepairJob> = None;
    let mut storm_base = server.stats().self_restarts;
    // The class-based fixed delay every policy can fall back to.
    let class_delay = |class: FailureClass| match class {
        FailureClass::Crash => CRASH_REPAIR_DELAY,
        FailureClass::Hang => HANG_KILL_DELAY,
    };
    if matches!(cfg.recovery, RecoveryPolicy::StandbyFailover { .. }) {
        // The watchdog keeps a warm spare ready from the start.
        server.prestart_spare(os);
    }

    // Stagger connection starts across the first few milliseconds.
    for conn in 0..CONNS {
        queue.schedule(
            SimTime::ZERO + SimDuration::from_micros(200 * conn as u64),
            Event::Issue(conn),
        );
    }

    while let Some(ts) = queue.peek_time() {
        if ts >= end {
            break;
        }
        let (now, Event::Issue(conn)) = queue.pop().expect("peeked");
        // Events emitted anywhere below (OS calls, request lifecycle,
        // watchdog actions) are stamped with this dispatch's virtual time.
        os.tracer().set_now(now);

        // Watchdog repair path.
        if server.state() != ServerState::Running {
            let job = repair.get_or_insert_with(|| {
                // Classify the failure once, at detection time; the outage
                // window opens here — the watchdog cannot see downtime
                // before it looks.
                let class = match server.state() {
                    ServerState::Crashed => {
                        watchdog.mis += 1;
                        FailureClass::Crash
                    }
                    ServerState::Hung => {
                        watchdog.kns += 1;
                        FailureClass::Hang
                    }
                    ServerState::Running => unreachable!(),
                };
                let plan = RepairPlan::new(cfg.recovery, class);
                RepairJob {
                    outage_start: now,
                    due: now + plan.next_delay(class_delay(class), rng),
                    plan,
                }
            });
            if now >= job.due {
                // Kill (if hung) and bring a process back, the way the
                // policy prescribes for this attempt.
                let action = job.plan.next_action();
                let revived = match action {
                    RepairAction::Restart => server.start(os),
                    RepairAction::RebootThenRestart => {
                        // Reboot the OS mid-interval: kernel-state corruption
                        // is cleared (the injected code patch survives), then
                        // restart on the fresh state. A reboot failure just
                        // means the restart below fails too.
                        let _ = os.reboot();
                        server.start(os)
                    }
                    RepairAction::Failover => server.failover(os),
                };
                if os.tracer().is_enabled() {
                    os.tracer().emit(EventKind::Watchdog {
                        action: action_name(action),
                        class: class_name(job.plan.class()),
                        ok: revived,
                    });
                }
                if revived {
                    avail.record_repair(now.since(job.outage_start));
                    repair = None;
                    storm_base = server.stats().self_restarts;
                } else {
                    // Recovery failed (OS still poisoned); retry later.
                    job.plan.record_failure();
                    job.due = now + job.plan.next_delay(class_delay(job.plan.class()), rng);
                }
            }
            // Either way this operation fails at the client.
            measures.record_op(conn, 0, true, DEAD_OP_LATENCY);
            queue.schedule(now + DEAD_OP_LATENCY + THINK, Event::Issue(conn));
            continue;
        }

        // Dispatch to the server machine.
        let req = generator.next_request(rng);
        let start = now.max(server_free);
        let result = server.serve(os, &req);
        let service = SimDuration::from_micros(result.cost * NS_PER_UNIT / 1000);
        server_free = start + service;
        let cells = match result.outcome {
            webserver::Outcome::Ok { bytes, .. } => bytes,
            webserver::Outcome::Error => 0,
        };
        let transfer = SimDuration::from_micros(cells * 1_000_000 / CONN_CELLS_PER_SEC);
        let complete = server_free + transfer;
        let rt = complete.since(now);
        let error = !result.is_correct_for(&req);
        let backoff = if error {
            ERROR_BACKOFF
        } else {
            SimDuration::ZERO
        };
        // The client perceives the backoff as part of the failed operation.
        measures.record_op(conn, cells, error, rt + backoff);
        queue.schedule(complete + THINK + backoff, Event::Issue(conn));
        if !error {
            // Service is being provided: the restart-storm window resets.
            storm_base = server.stats().self_restarts;
        }

        // Post-dispatch watchdog checks.
        if server.state() == ServerState::Running
            && server.stats().self_restarts.saturating_sub(storm_base) >= KCP_RESTART_STORM
        {
            // Restart storm: the process burns CPU re-forking workers
            // without providing service. Kill and restart it.
            watchdog.kcp += 1;
            if os.tracer().is_enabled() {
                os.tracer().emit(EventKind::Kill {
                    reason: "restart storm",
                });
            }
            storm_base = server.stats().self_restarts;
            if !server.start(os) {
                // The kill's own restart failed: the outage opens when the
                // in-flight response drains, and the policy schedules the
                // next attempt from there.
                let plan = RepairPlan::new(cfg.recovery, FailureClass::Crash);
                repair = Some(RepairJob {
                    outage_start: complete,
                    due: complete + plan.next_delay(class_delay(FailureClass::Crash), rng),
                    plan,
                });
            }
        }
    }

    // A window still open at interval end is unrepaired downtime (clipped to
    // the interval; a KCP outage opening after the last event may start past
    // `end` and then contributes nothing).
    if let Some(job) = repair {
        if job.outage_start < end {
            avail.record_unrepaired(end.since(job.outage_start));
        }
    }
    avail.set_observed(cfg.duration);
    measures.set_duration(cfg.duration);
    IntervalOutcome {
        measures,
        watchdog,
        availability: avail,
        end_state: server.state(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::Edition;
    use specweb::{FileSet, FileSetConfig};
    use webserver::{Heron, Wren};

    fn setup(edition: Edition) -> (Os, RequestGenerator) {
        let mut os = Os::boot(edition).unwrap();
        let fs = FileSet::populate(FileSetConfig::default(), os.devices_mut());
        (os, RequestGenerator::new(fs))
    }

    fn quick_cfg() -> IntervalConfig {
        IntervalConfig {
            duration: SimDuration::from_millis(500),
            ..IntervalConfig::default()
        }
    }

    #[test]
    fn healthy_interval_produces_throughput_and_no_errors() {
        let (mut os, mut generator) = setup(Edition::Nimbus2000);
        let mut server = Heron::new();
        assert!(server.start(&mut os));
        let mut rng = SimRng::seed_from_u64(42);
        let out = run_interval(&mut os, &mut server, &mut generator, &mut rng, &quick_cfg());
        assert_eq!(out.watchdog, WatchdogCounts::default());
        assert_eq!(out.end_state, ServerState::Running);
        assert!(out.measures.ops() > 20, "ops = {}", out.measures.ops());
        assert_eq!(out.measures.errors(), 0);
        assert!(out.measures.thr() > 40.0, "thr = {}", out.measures.thr());
        assert!(out.measures.spc() > 0, "spc = {}", out.measures.spc());
        assert!(out.measures.rtm() > 10.0, "rtm = {}", out.measures.rtm());
    }

    #[test]
    fn interval_is_deterministic() {
        let run = || {
            let (mut os, mut generator) = setup(Edition::Nimbus2000);
            let mut server = Wren::new();
            assert!(server.start(&mut os));
            let mut rng = SimRng::seed_from_u64(7);
            let out = run_interval(&mut os, &mut server, &mut generator, &mut rng, &quick_cfg());
            (
                out.measures.ops(),
                out.measures.errors(),
                out.measures.cells(),
                out.measures.spc(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crashed_server_is_repaired_and_counted() {
        let (mut os, mut generator) = setup(Edition::Nimbus2000);
        let mut server = Wren::new();
        assert!(server.start(&mut os));
        // Corrupt the heap so the first request's master-phase alloc traps,
        // then let reset-free corruption persist: the watchdog must restart.
        os.poke(
            os.program().global_addr("heap_free_head").unwrap(),
            -123_456,
        )
        .unwrap();
        let mut rng = SimRng::seed_from_u64(3);
        let out = run_interval(&mut os, &mut server, &mut generator, &mut rng, &quick_cfg());
        assert!(out.watchdog.mis >= 1, "{:?}", out.watchdog);
        assert!(out.measures.errors() > 0);
    }

    #[test]
    fn hung_server_is_killed_and_counted_kns() {
        let (os_big, _) = setup(Edition::Nimbus2000);
        drop(os_big);
        let mut os = Os::boot_with_budget(Edition::Nimbus2000, 60_000).unwrap();
        let fs = FileSet::populate(FileSetConfig::default(), os.devices_mut());
        let mut generator = RequestGenerator::new(fs);
        let mut server = Wren::new();
        assert!(server.start(&mut os));
        // Wedge Wren's lock (foreign owner): first enter spins -> hang.
        os.poke(simos::source::CS_REGION + 16, 3).unwrap();
        os.poke(simos::source::CS_REGION + 17, 99).unwrap();
        let mut rng = SimRng::seed_from_u64(5);
        let out = run_interval(&mut os, &mut server, &mut generator, &mut rng, &quick_cfg());
        assert!(out.watchdog.kns >= 1, "{:?}", out.watchdog);
    }

    #[test]
    fn injector_busy_time_degrades_throughput_slightly() {
        let thr = |busy: SimDuration| {
            let (mut os, mut generator) = setup(Edition::Nimbus2000);
            let mut server = Heron::new();
            assert!(server.start(&mut os));
            let mut rng = SimRng::seed_from_u64(11);
            let cfg = IntervalConfig {
                injector_busy: busy,
                ..quick_cfg()
            };
            run_interval(&mut os, &mut server, &mut generator, &mut rng, &cfg)
                .measures
                .thr()
        };
        let clean = thr(SimDuration::ZERO);
        let profiled = thr(SimDuration::from_millis(5));
        assert!(profiled <= clean);
        let degradation = (clean - profiled) / clean;
        assert!(degradation < 0.05, "degradation {degradation}");
    }

    /// A server that self-restarts uselessly (no service) on every request,
    /// up to a configured number of restarts — the KCP "restart storm"
    /// pattern, with an exact restart budget so tests can sit right on the
    /// storm threshold.
    #[derive(Clone)]
    struct StormServer {
        state: ServerState,
        stats: webserver::ServerStats,
        restart_budget: u64,
    }

    impl StormServer {
        fn new(restart_budget: u64) -> StormServer {
            StormServer {
                state: ServerState::Crashed,
                stats: webserver::ServerStats::default(),
                restart_budget,
            }
        }
    }

    impl WebServer for StormServer {
        fn name(&self) -> &'static str {
            "storm"
        }
        fn state(&self) -> ServerState {
            self.state
        }
        fn start(&mut self, _os: &mut Os) -> bool {
            self.stats.process_starts += 1;
            self.state = ServerState::Running;
            true
        }
        fn serve(&mut self, _os: &mut Os, _req: &webserver::Request) -> webserver::ServeResult {
            self.stats.requests += 1;
            self.stats.errors += 1;
            if self.stats.self_restarts < self.restart_budget {
                // Fork a worker, watch it die, fork again: busy, useless.
                self.stats.self_restarts += 1;
            }
            webserver::ServeResult {
                outcome: webserver::Outcome::Error,
                cost: 50,
            }
        }
        fn stats(&self) -> webserver::ServerStats {
            self.stats
        }
        fn clone_box(&self) -> Box<dyn WebServer> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn restart_storm_kill_fires_exactly_at_the_threshold() {
        let run = |restart_budget: u64| {
            let (mut os, mut generator) = setup(Edition::Nimbus2000);
            let mut server = StormServer::new(restart_budget);
            assert!(server.start(&mut os));
            let mut rng = SimRng::seed_from_u64(13);
            let cfg = quick_cfg();
            assert_eq!(KCP_RESTART_STORM, 10, "test assumes default storm");
            run_interval(&mut os, &mut server, &mut generator, &mut rng, &cfg)
        };
        // One restart short of the storm threshold: no kill, ever.
        let below = run(9);
        assert_eq!(below.watchdog.kcp, 0, "{:?}", below.watchdog);
        // Exactly at the threshold: the kill fires (once — the budget is
        // spent, so the storm cannot re-accumulate after the restart).
        let at = run(10);
        assert_eq!(at.watchdog.kcp, 1, "{:?}", at.watchdog);
    }

    #[test]
    fn availability_invariants_hold_under_every_policy() {
        let policies = [
            RecoveryPolicy::FixedDelay,
            RecoveryPolicy::backoff(),
            RecoveryPolicy::reboot_escalation(),
            RecoveryPolicy::standby_failover(),
        ];
        for policy in policies {
            let (mut os, mut generator) = setup(Edition::Nimbus2000);
            let mut server = Wren::new();
            assert!(server.start(&mut os));
            // Persistent heap poison: every fresh start keeps failing, so
            // the interval accumulates real downtime under each policy.
            os.poke(
                os.program().global_addr("heap_free_head").unwrap(),
                -123_456,
            )
            .unwrap();
            let mut rng = SimRng::seed_from_u64(3);
            let cfg = IntervalConfig {
                recovery: policy,
                ..quick_cfg()
            };
            let out = run_interval(&mut os, &mut server, &mut generator, &mut rng, &cfg);
            let a = &out.availability;
            let name = policy.name();
            assert_eq!(a.observed, cfg.duration, "{name}: observed window");
            assert!(
                a.downtime <= cfg.duration,
                "{name}: downtime {} > interval {}",
                a.downtime,
                cfg.duration
            );
            let frac = a.availability();
            assert!((0.0..=1.0).contains(&frac), "{name}: availability {frac}");
            assert!(
                a.longest_outage <= a.downtime,
                "{name}: longest outage exceeds total downtime"
            );
            assert!(
                a.repaired_downtime <= a.downtime,
                "{name}: repaired downtime exceeds total"
            );
            assert!(a.repairs <= a.outages, "{name}: more repairs than outages");
            assert!(
                a.outages >= 1,
                "{name}: poisoned interval must record an outage"
            );
        }
    }

    #[test]
    fn warm_spare_failover_beats_fixed_delay_on_a_poisoned_heap() {
        let run = |policy: RecoveryPolicy| {
            let (mut os, mut generator) = setup(Edition::Nimbus2000);
            let mut server = Wren::new();
            assert!(server.start(&mut os));
            if matches!(policy, RecoveryPolicy::StandbyFailover { .. }) {
                // In a campaign the warmup interval arms the spare while the
                // OS is still healthy; stand in for it here.
                assert!(server.prestart_spare(&mut os));
            }
            os.poke(
                os.program().global_addr("heap_free_head").unwrap(),
                -123_456,
            )
            .unwrap();
            let mut rng = SimRng::seed_from_u64(3);
            let cfg = IntervalConfig {
                recovery: policy,
                ..quick_cfg()
            };
            run_interval(&mut os, &mut server, &mut generator, &mut rng, &cfg).availability
        };
        let fixed = run(RecoveryPolicy::FixedDelay);
        let failover = run(RecoveryPolicy::standby_failover());
        // A fresh start() needs heap allocations, which the poisoned heap
        // denies — fixed-delay restarts keep failing. The warm spare was
        // allocated while the OS was healthy, so failing over succeeds.
        assert_eq!(fixed.repairs, 0, "fixed-delay cannot repair: {fixed:?}");
        assert!(failover.repairs >= 1, "failover repaired: {failover:?}");
        assert!(
            failover.availability() > fixed.availability(),
            "failover {} <= fixed {}",
            failover.availability(),
            fixed.availability()
        );
    }

    #[test]
    fn watchdog_admf_sums() {
        let w = WatchdogCounts {
            mis: 3,
            kns: 2,
            kcp: 1,
        };
        assert_eq!(w.admf(), 6);
        let mut a = WatchdogCounts::default();
        a.merge(w);
        a.merge(w);
        assert_eq!(a.admf(), 12);
    }
}
