//! The benchmark-target abstraction.

use serde::{Deserialize, Serialize};
use simos::Os;

use crate::request::{Request, ServeResult};

/// Process state as the watchdog sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServerState {
    /// Accepting and serving requests.
    Running,
    /// The process died (trap escaped containment).
    Crashed,
    /// The process is alive but will never answer again (stuck in the OS).
    Hung,
}

/// Cumulative per-process counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Requests accepted.
    pub requests: u64,
    /// Requests answered with an error (or bogus content).
    pub errors: u64,
    /// Worker restarts performed internally (self-healing).
    pub self_restarts: u64,
    /// Full process starts (initial + after kills).
    pub process_starts: u64,
}

/// A web server under benchmark.
///
/// Servers are Rust code (the BT is never mutated); every interaction with
/// the outside world flows through the `simos` API.
pub trait WebServer {
    /// Server name (used in reports and profiles).
    fn name(&self) -> &'static str;

    /// Current process state.
    fn state(&self) -> ServerState;

    /// (Re)starts the process: allocates fresh buffers from the OS heap and
    /// resets internal state. Returns `false` when startup failed (e.g. the
    /// heap is corrupted) — the process is then [`ServerState::Crashed`].
    fn start(&mut self, os: &mut Os) -> bool;

    /// Serves one request. Must only be called when
    /// [`state`](WebServer::state) is [`ServerState::Running`].
    fn serve(&mut self, os: &mut Os, req: &Request) -> ServeResult;

    /// Pre-starts a warm spare process so a later
    /// [`failover`](WebServer::failover) can swap it in instead of running a
    /// full startup. The spare's resources are allocated *now*, while the OS
    /// is still healthy — which is exactly why failing over can succeed when
    /// a fresh [`start`](WebServer::start) on poisoned state cannot.
    ///
    /// Returns whether a spare is armed. The default implementation supports
    /// no spare and returns `false`.
    fn prestart_spare(&mut self, os: &mut Os) -> bool {
        let _ = os;
        false
    }

    /// Swaps the warm spare in after a failure, falling back to a full
    /// [`start`](WebServer::start) when no spare is armed (the default).
    /// Returns whether the server is running afterwards.
    fn failover(&mut self, os: &mut Os) -> bool {
        self.start(os)
    }

    /// Cumulative counters.
    fn stats(&self) -> ServerStats;

    /// An independent copy of the whole process state (buffer addresses,
    /// caches, counters). Campaign slots checkpoint a started server with
    /// this and reinstate the copy at slot reset, instead of paying a full
    /// [`start`](WebServer::start) — valid because server state only points
    /// into OS memory, which is snapshot-restored in the same step.
    fn clone_box(&self) -> Box<dyn WebServer>;
}

/// The four server models, for configuration and reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ServerKind {
    /// Heron (≈ Apache): robust, self-restarting.
    Heron,
    /// Wren (≈ Abyss): optimistic, fragile.
    Wren,
    /// Sparrow (≈ Sambar): profiling-only.
    Sparrow,
    /// Swift (≈ Savant): profiling-only.
    Swift,
}

impl ServerKind {
    /// All four kinds (profiling order, as in Table 2).
    pub const ALL: [ServerKind; 4] = [
        ServerKind::Heron,
        ServerKind::Wren,
        ServerKind::Sparrow,
        ServerKind::Swift,
    ];

    /// The two benchmarked kinds (Table 5).
    pub const BENCHMARKED: [ServerKind; 2] = [ServerKind::Heron, ServerKind::Wren];

    /// Instantiates a server of this kind.
    pub fn build(self) -> Box<dyn WebServer> {
        match self {
            ServerKind::Heron => Box::new(crate::Heron::new()),
            ServerKind::Wren => Box::new(crate::SingleProcess::wren()),
            ServerKind::Sparrow => Box::new(crate::SingleProcess::sparrow()),
            ServerKind::Swift => Box::new(crate::SingleProcess::swift()),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ServerKind::Heron => "heron",
            ServerKind::Wren => "wren",
            ServerKind::Sparrow => "sparrow",
            ServerKind::Swift => "swift",
        }
    }

    /// The real server this model stands in for.
    pub fn paper_analogue(self) -> &'static str {
        match self {
            ServerKind::Heron => "Apache",
            ServerKind::Wren => "Abyss",
            ServerKind::Sparrow => "Sambar",
            ServerKind::Swift => "Savant",
        }
    }
}

impl std::fmt::Display for ServerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_complete() {
        assert_eq!(ServerKind::ALL.len(), 4);
        assert_eq!(ServerKind::BENCHMARKED.len(), 2);
        for k in ServerKind::ALL {
            let s = k.build();
            assert_eq!(s.name(), k.name());
            assert!(!k.paper_analogue().is_empty());
        }
    }
}
