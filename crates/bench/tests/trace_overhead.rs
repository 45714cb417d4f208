//! Overhead budget of the flight recorder, enforced:
//!
//! * **enabled** — a fully traced campaign stays within 35 % of the
//!   untraced wall clock, and a raw emit stays within a fixed per-event
//!   budget. Two bounds because they catch different regressions: the
//!   ratio catches emitting *more* (new call sites flooding the hot
//!   path), the per-event bound catches emitting *slower* (an
//!   allocation or formatting sneaking into `emit`). The ratio budget
//!   is 35 %, not 5 %: the untraced campaign is ~6x faster than when
//!   the recorder was built (pre-decoded dispatch, snapshot-restore
//!   resets), while a traced slot still pays ~10.5 k mutexed ring
//!   pushes (~0.3 ms) plus the armed activation watchpoint's
//!   per-instruction compare (~0.3 ms) against a ~2.7 ms slot — a
//!   measured ~1.2x that only a redesign of the recorder could shrink;
//! * **disabled** — the disabled tracer is one predictable branch per
//!   would-be event: tens of millions of emits in well under a second,
//!   and nothing recorded.

use std::time::{Duration, Instant};

use depbench::{Campaign, CampaignConfig, IntervalConfig, TraceConfig};
use simkit::SimDuration;
use simos::{Edition, Os, OsApi};
use simtrace::{EventKind, Tracer};
use swfit_core::{Faultload, Scanner};
use webserver::ServerKind;

fn faultload(n: usize) -> Faultload {
    let os = Os::boot(Edition::Nimbus2000).expect("edition boots");
    Scanner::standard()
        .scan_functions(os.program().image(), &OsApi::symbols())
        .sample(n)
}

fn campaign() -> Campaign {
    let cfg = CampaignConfig::builder()
        .interval(IntervalConfig {
            duration: SimDuration::from_millis(300),
            ..IntervalConfig::default()
        })
        .os_budget(150_000)
        .build();
    Campaign::new(Edition::Nimbus2000, ServerKind::Wren, cfg)
}

/// Smallest of `n` timings — the standard way to measure cost under
/// scheduler noise: noise only ever adds time, so the minimum is the
/// closest observable to the true cost.
fn min_of<F: FnMut()>(n: usize, mut work: F) -> Duration {
    (0..n)
        .map(|_| {
            let start = Instant::now();
            work();
            start.elapsed()
        })
        .min()
        .expect("n > 0")
}

/// One timed run (the paired-round ratio test times halves individually).
fn time_one<F: FnOnce()>(work: F) -> Duration {
    let start = Instant::now();
    work();
    start.elapsed()
}

#[test]
fn enabled_tracing_stays_within_the_overhead_budget() {
    let fl = faultload(4);
    let untraced = campaign();
    let traced = campaign().with_trace(TraceConfig::default());
    // Warm both paths once (image compilation caches, allocator warm-up).
    untraced.run_injection(&fl, 0).expect("runs");
    traced.run_injection(&fl, 0).expect("runs");

    // Paired rounds, minimum per-round ratio: a background-load burst
    // must hit *every* round's traced half (and spare its untraced half)
    // to produce a false failure, where a min-of-N over separated blocks
    // is sunk by one burst landing inside the traced block.
    let rounds = 7;
    let ratio = (0..rounds)
        .map(|_| {
            let base = time_one(|| {
                untraced.run_injection(&fl, 0).expect("runs");
            });
            let with_trace = time_one(|| {
                traced.run_injection(&fl, 0).expect("runs");
            });
            with_trace.as_secs_f64() / base.as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    assert!(
        ratio <= 1.35,
        "traced campaign exceeded the 35 % overhead budget ({ratio:.3}x in the cleanest of {rounds} paired rounds)"
    );
}

#[test]
fn enabled_emit_stays_within_the_per_event_budget() {
    let tracer = Tracer::enabled(4096);
    let emits: u64 = 2_000_000;
    let elapsed = min_of(3, || {
        for seq in 0..emits {
            tracer.emit(EventKind::RequestStart { seq });
        }
    });
    // ~30 ns measured (one uncontended mutex lock plus a ring write);
    // 150 ns leaves room for scheduler noise while still tripping on a
    // real regression — an allocation or string formatting per event.
    let per_event = elapsed.as_secs_f64() * 1e9 / emits as f64;
    assert!(
        per_event <= 150.0,
        "enabled emit path regressed: {per_event:.1} ns/event for {emits} emits"
    );
}

#[test]
fn disabled_tracer_is_a_branch_and_records_nothing() {
    let tracer = Tracer::disabled();
    let emits: u64 = 20_000_000;
    let elapsed = min_of(3, || {
        for seq in 0..emits {
            tracer.emit(EventKind::RequestStart { seq });
        }
    });
    // 20 M no-op emits in under a second is a budget of 50 ns each — a
    // single branch costs well under 1 ns, so only a real regression (a
    // lock, an allocation) can trip this.
    assert!(
        elapsed < Duration::from_secs(1),
        "disabled emit path is no longer trivial: {elapsed:?} for {emits} emits"
    );
    assert_eq!(tracer.emitted(), 0);
    assert!(tracer.snapshot().is_empty());
}
