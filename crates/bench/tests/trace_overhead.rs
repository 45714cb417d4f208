//! The flight recorder's cost, checked exactly:
//!
//! * **enabled** — once its ring is full, an emit allocates nothing: it
//!   overwrites the oldest event in place. An allocation or string
//!   formatting sneaking into `emit` fails this on any host;
//! * **disabled** — the disabled tracer is one branch per would-be event:
//!   it allocates nothing and records nothing.
//!
//! That tracing only observes (a traced campaign's results, activation
//! stripped, equal the untraced bytes) is checked in `trace_semantics.rs`.
//! The wall-clock budgets — a traced campaign within 1.35× the untraced
//! one, 150 ns per enabled emit, 20 M disabled emits in under a second —
//! are gated by `perfgate check`, which times on a calibrated host.

#[path = "../../faultstore/tests/counting/mod.rs"]
mod counting;

use simtrace::{EventKind, Tracer};

const CAPACITY: usize = 4096;

#[test]
fn enabled_emit_allocates_nothing_once_the_ring_is_full() {
    let tracer = Tracer::enabled(CAPACITY);
    for seq in 0..CAPACITY as u64 {
        tracer.emit(EventKind::RequestStart { seq });
    }
    let emits = 100_000;
    let ((), held) = counting::peak_of(|| {
        for seq in 0..emits {
            tracer.emit(EventKind::RequestStart { seq });
        }
    });
    assert_eq!(
        held, 0,
        "{emits} emits into a full ring allocated {held} bytes"
    );
    assert_eq!(tracer.emitted(), CAPACITY as u64 + emits);
    let trace = tracer.snapshot();
    assert_eq!(trace.len(), CAPACITY);
    assert_eq!(trace.dropped, emits);
}

#[test]
fn disabled_tracer_is_a_branch_and_records_nothing() {
    let tracer = Tracer::disabled();
    assert!(!tracer.is_enabled());
    let emits: u64 = 1_000_000;
    let ((), held) = counting::peak_of(|| {
        for seq in 0..emits {
            tracer.emit(EventKind::RequestStart { seq });
        }
    });
    assert_eq!(held, 0, "{emits} disabled emits allocated {held} bytes");
    assert_eq!(tracer.emitted(), 0);
    assert!(tracer.snapshot().is_empty());
}
