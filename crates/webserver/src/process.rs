//! The process lifecycle every server shares: start-up, the warm spare,
//! failover and the per-request bookkeeping. Servers differ in how they
//! serve and contain failures, never in how a process comes up.

use simos::Os;

use crate::driver::{self, Buffers, StepFailure};
use crate::server::{ServerState, ServerStats};

/// One server process: its state, buffers, warm spare, request counter and
/// counters.
#[derive(Clone, Debug)]
pub(crate) struct Process {
    /// Critical-section address the process locks around each request.
    cs: i64,
    pub(crate) state: ServerState,
    bufs: Option<Buffers>,
    /// Warm-spare buffers armed by [`Process::prestart_spare`]: allocated
    /// while the OS was healthy, so a failover can skip the allocation path
    /// a poisoned heap would refuse.
    spare: Option<Buffers>,
    seq: u64,
    pub(crate) stats: ServerStats,
}

impl Process {
    /// A stopped process locking the critical section at `cs`.
    pub(crate) fn new(cs: i64) -> Process {
        Process {
            cs,
            state: ServerState::Crashed,
            bufs: None,
            spare: None,
            seq: 0,
            stats: ServerStats::default(),
        }
    }

    /// Allocates the buffer set and loads the configuration: everything a
    /// process start pays for. `None` when either step failed.
    fn launch(&self, os: &mut Os) -> Option<Buffers> {
        let bufs = driver::allocate_buffers(os, self.cs)?;
        driver::startup_config(os, &bufs).ok().map(|_| bufs)
    }

    /// A full process start. A failed start leaves the process
    /// [`ServerState::Crashed`], whatever state it was in before.
    pub(crate) fn start(&mut self, os: &mut Os) -> bool {
        self.stats.process_starts += 1;
        self.bufs = self.launch(os);
        self.state = match self.bufs {
            Some(_) => ServerState::Running,
            None => ServerState::Crashed,
        };
        self.bufs.is_some()
    }

    /// Arms a *pre-started* spare: buffers allocated and config loaded now,
    /// while the OS is presumed healthy, so the later failover touches
    /// nothing a poisoned kernel could refuse. A half-started spare is no
    /// spare.
    pub(crate) fn prestart_spare(&mut self, os: &mut Os) -> bool {
        if self.spare.is_none() {
            self.spare = self.launch(os);
        }
        self.spare.is_some()
    }

    /// Swaps the warm spare in — a pure swap, its start-up was paid at
    /// prestart time — and re-arms a new one while the OS is answering
    /// again (best effort). Returns `false`, touching nothing, when no
    /// spare is armed.
    pub(crate) fn swap_in_spare(&mut self, os: &mut Os) -> bool {
        let Some(bufs) = self.spare.take() else {
            return false;
        };
        self.stats.process_starts += 1;
        self.bufs = Some(bufs);
        self.state = ServerState::Running;
        self.prestart_spare(os);
        true
    }

    /// Counts one accepted request; returns the buffers to serve it with
    /// and its sequence number.
    pub(crate) fn accept(&mut self) -> (Buffers, u64) {
        assert_eq!(self.state, ServerState::Running, "serve() on a dead server");
        let bufs = self.bufs.expect("running server has buffers");
        self.seq += 1;
        self.stats.requests += 1;
        (bufs, self.seq)
    }

    /// An escaped failure ends the process: a crash kills it, a hang wedges
    /// it.
    pub(crate) fn fail(&mut self, failure: StepFailure) {
        self.state = match failure {
            StepFailure::Crash => ServerState::Crashed,
            StepFailure::Hang => ServerState::Hung,
        };
    }
}
