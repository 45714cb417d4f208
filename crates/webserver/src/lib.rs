//! `webserver` — the benchmark targets (BTs).
//!
//! The paper compares two real web servers, Apache and Abyss, running over a
//! faulty OS; Sambar and Savant additionally participate in the profiling
//! phase. This crate provides their simulated counterparts, all speaking the
//! same `simos` API but differing in exactly the robustness mechanisms the
//! paper credits for the observed gap:
//!
//! * [`Heron`] (≈ Apache) — a master/worker architecture. Every OS status is
//!   checked; failed requests release their resources; a crashed worker is
//!   restarted by the master (the *built-in self-restart* the paper
//!   highlights); only a master-level failure kills the process.
//! * [`SingleProcess`] — one process and no containment: any trap kills
//!   it, any hang wedges it, and nothing restarts it. It runs with one of
//!   three constant profiles:
//!   - Wren (≈ Abyss), benchmarked: statuses go unchecked and error paths
//!     leak handles and buffers;
//!   - Sparrow (≈ Sambar) and Swift (≈ Savant), profiling only: different
//!     API usage mixes, used to compute the Table 2 intersection.
//!
//! Both server types share one process lifecycle — start-up, warm spare,
//! failover and request bookkeeping — and serve every request through one
//! OS-call sequence ([`driver`]); only the per-server [`driver::Style`]
//! differs.
//!
//! Faults are **never** injected into these servers (they are the BT, not
//! the FIT); their code is ordinary Rust calling into the OS.
//!
//! # Example
//!
//! ```
//! use simos::{Edition, Os};
//! use webserver::{checksum_of, Heron, Method, Request, WebServer};
//!
//! let mut os = Os::boot(Edition::Nimbus2000)?;
//! let content = vec![7i64; 64];
//! os.devices_mut().add_file_cells("/web/hello", content.clone());
//! let mut server = Heron::new();
//! assert!(server.start(&mut os));
//! let req = Request {
//!     method: Method::GetStatic,
//!     path: "C:\\web\\hello".into(),
//!     expected_len: 64,
//!     expected_sum: checksum_of(&content),
//!     post_len: 0,
//! };
//! let response = server.serve(&mut os, &req);
//! assert!(response.is_correct_for(&req));
//! # Ok::<(), String>(())
//! ```

pub mod driver;
pub mod heron;
mod process;
pub mod request;
pub mod server;
pub mod wren;

pub use heron::Heron;
pub use request::{checksum_of, Method, Outcome, Request, ServeResult};
pub use server::{ServerKind, ServerState, ServerStats, WebServer};
pub use wren::SingleProcess;
