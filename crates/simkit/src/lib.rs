//! `simkit` — a small, deterministic discrete-event simulation kernel.
//!
//! Every experiment in this repository runs on *simulated* time so that the
//! full dependability-benchmark campaign of the paper (which took ~24 wall
//! clock hours on the authors' testbed) is bit-reproducible and completes in
//! seconds. The kernel provides:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulated time,
//! * [`EventQueue`] — a stable priority queue of timestamped events,
//! * [`SimRng`] — a seeded random-number source, the *only* entropy input,
//! * [`OnlineStats`] — streaming mean/variance/min/max with an exact merge,
//!   the moments behind the SPECWeb-like client's response times and the
//!   `simstats` confidence intervals,
//! * [`hash`] — stable FNV-1a hashing for persistent-store cache keys.
//!
//! # Example
//!
//! ```
//! use simkit::{EventQueue, SimDuration, SimTime};
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(5), "hello");
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(1), "world");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "world");
//! assert_eq!(t, SimTime::from_micros(1_000));
//! ```

pub mod event;
pub mod hash;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use rng::SimRng;
pub use stats::OnlineStats;
pub use time::{SimDuration, SimTime};
