//! Behavioural tests for the robustness mechanisms that differentiate the
//! benchmark targets — the machinery the paper credits for Apache's win.

use simos::{Edition, Os, OsApi};
use swfit_core::{FaultType, Injector, Scanner};
use webserver::{
    checksum_of, Heron, Method, Outcome, Request, ServerKind, ServerState, SingleProcess, WebServer,
};

const FILE: &str = "/web/dir0/class1_0";
const DOS: &str = "C:\\web\\dir0\\class1_0";

fn booted() -> (Os, Vec<i64>) {
    let mut os = Os::boot(Edition::Nimbus2000).unwrap();
    let content: Vec<i64> = (0..800).map(|i| (i * 11 + 3) % 251).collect();
    os.devices_mut().add_file_cells(FILE, content.clone());
    (os, content)
}

fn get_req(content: &[i64]) -> Request {
    Request {
        method: Method::GetStatic,
        path: DOS.into(),
        expected_len: content.len() as u64,
        expected_sum: checksum_of(content),
        post_len: 0,
    }
}

/// Heron's path-normalization fallback masks a broken OS path converter.
#[test]
fn heron_path_fallback_masks_converter_fault() {
    let (mut os, content) = booted();
    let fl = Scanner::standard().scan_image(os.program().image());
    // An MIA fault in the path converter that makes `return E_INVALID`
    // unconditional: find one whose injection breaks conversion.
    let candidates: Vec<_> = fl
        .faults
        .iter()
        .filter(|f| f.func == "rtl_dos_path_to_native")
        .collect();
    assert!(!candidates.is_empty());
    let mut injector = Injector::new();
    let req = get_req(&content);
    let mut masked = 0;
    let mut total = 0;
    for fault in candidates {
        injector.inject(os.image_mut(), fault).unwrap();
        let mut heron = Heron::new();
        let mut wren = SingleProcess::wren();
        if heron.start(&mut os) && wren.start(&mut os) {
            let rh = heron.serve(&mut os, &req);
            let rw = wren.serve(&mut os, &req);
            total += 1;
            if rh.is_correct_for(&req) && !rw.is_correct_for(&req) {
                masked += 1;
            }
        }
        injector.restore(os.image_mut());
        os.reset_state().unwrap();
    }
    assert!(total > 0);
    assert!(
        masked > 0,
        "Heron should mask at least one converter fault that breaks Wren ({total} tested)"
    );
}

/// Heron's content cache serves known-good data when reads go wrong.
#[test]
fn heron_cache_masks_wrong_content() {
    let (mut os, content) = booted();
    let mut heron = Heron::new();
    assert!(heron.start(&mut os));
    let req = get_req(&content);
    // Warm the cache with a healthy serve.
    assert!(heron.serve(&mut os, &req).is_correct_for(&req));
    // Now corrupt the stored file (simulating a read-path data fault).
    os.devices_mut()
        .add_file_cells(FILE, vec![0; content.len()]);
    let r = heron.serve(&mut os, &req);
    // Heron detects the checksum/length disagreement with its cache and
    // serves the cached copy — the client still sees correct content.
    assert!(
        r.is_correct_for(&req),
        "cache fallback should mask the corruption"
    );
    // Wren, by contrast, serves the corrupted bytes.
    let mut wren = SingleProcess::wren();
    assert!(wren.start(&mut os));
    let rw = wren.serve(&mut os, &req);
    assert!(matches!(rw.outcome, Outcome::Ok { .. }));
    assert!(!rw.is_correct_for(&req));
}

/// The master gives up after too many worker crashes in one process life.
#[test]
fn heron_worker_crash_limit_exhausts() {
    let (mut os, content) = booted();
    let mut heron = Heron::new();
    assert!(heron.start(&mut os));
    let req = get_req(&content);
    heron.serve(&mut os, &req); // healthy first
                                // A crash fault the *worker* keeps hitting: corrupt the heap free head
                                // before every request (the conn alloc is master-phase, so use a value
                                // that only breaks the *dynamic* allocation deeper in the sequence).
    let mut crashes = 0;
    for _ in 0..64 {
        if heron.state() != ServerState::Running {
            break;
        }
        os.poke(
            os.program().global_addr("heap_free_head").unwrap(),
            -424_242,
        )
        .unwrap();
        let r = heron.serve(&mut os, &req);
        if r.outcome == Outcome::Error {
            crashes += 1;
        }
    }
    assert!(crashes > 0);
    // Either the master died at the crash limit (MIS path) or the heap
    // corruption was absorbed each time; with this fault it must die.
    assert_eq!(heron.state(), ServerState::Crashed);
}

/// Startup loads configuration through the registry services.
#[test]
fn startup_config_uses_registry() {
    let (mut os, _) = booted();
    os.clear_api_counts();
    let mut heron = Heron::new();
    assert!(heron.start(&mut os));
    let counts = os.api_counts();
    assert!(counts[&OsApi::NtSetValueKey] >= 4);
    assert!(counts[&OsApi::NtQueryValueKey] >= 4);
    assert!(counts[&OsApi::NtEnumerateValueKey] >= 1);
}

/// A wedged registry (hang during config load) fails startup cleanly.
#[test]
fn startup_survives_registry_faults_as_clean_failure() {
    let mut os = Os::boot_with_budget(Edition::Nimbus2000, 60_000).unwrap();
    os.devices_mut().add_file_cells(FILE, vec![1, 2, 3]);
    let fl = Scanner::standard().scan_image(os.program().image());
    let mut injector = Injector::new();
    // Try every WLEC fault in the registry write path: some make the inner
    // find-loop spin; startup must report failure, not panic.
    for fault in fl
        .faults
        .iter()
        .filter(|f| f.func == "nt_set_value_key" && f.fault_type == FaultType::Wlec)
    {
        injector.inject(os.image_mut(), fault).unwrap();
        let mut wren = SingleProcess::wren();
        let _started = wren.start(&mut os); // must not panic either way
        injector.restore(os.image_mut());
        os.reset_state().unwrap();
    }
}

/// A failed start leaves the process `Crashed`, whatever state it was in
/// before: a hung server whose restart dies loading its configuration is
/// dead, not still hung.
#[test]
fn failed_start_after_a_hang_leaves_every_server_crashed() {
    let mut os = Os::boot_with_budget(Edition::Nimbus2000, 60_000).unwrap();
    let content = vec![1, 2, 3];
    os.devices_mut().add_file_cells(FILE, content.clone());
    let req = get_req(&content);
    let fl = Scanner::standard().scan_image(os.program().image());
    let mut injector = Injector::new();
    // A fault in the registry's key hash that fails the start-up config
    // load (every config call hashes its key).
    let broken_registry = fl
        .faults
        .iter()
        .filter(|f| f.func == "reg_hash")
        .find(|fault| {
            injector.inject(os.image_mut(), fault).unwrap();
            let started = ServerKind::Heron.build().start(&mut os);
            injector.restore(os.image_mut());
            os.reset_state().unwrap();
            !started
        })
        .expect("a registry fault that fails start-up");
    for kind in ServerKind::ALL {
        let mut server = kind.build();
        assert!(server.start(&mut os), "{kind}");
        // Wedge every server's critical section with a foreign owner: the
        // next request spins in the master's enter.
        for cs in (0..4).map(|i| simos::source::CS_REGION + 16 * i) {
            os.poke(cs, 1).unwrap();
            os.poke(cs + 1, 99).unwrap();
        }
        assert_eq!(server.serve(&mut os, &req).outcome, Outcome::Error);
        assert_eq!(server.state(), ServerState::Hung, "{kind}");
        injector.inject(os.image_mut(), broken_registry).unwrap();
        assert!(!server.start(&mut os), "{kind}");
        assert_eq!(server.state(), ServerState::Crashed, "{kind}");
        injector.restore(os.image_mut());
        os.reset_state().unwrap();
    }
}

/// Self-restart keeps Heron alive through isolated worker crashes while the
/// same fault kills Wren outright.
#[test]
fn transient_worker_crash_vs_single_process() {
    let (mut os, content) = booted();
    let req = get_req(&content);
    let mut heron = Heron::new();
    assert!(heron.start(&mut os));
    heron.serve(&mut os, &req);
    // One-shot corruption: Wren dies, Heron worker-restarts (when the trap
    // lands in the worker phase) or dies (master phase) — but it never
    // panics, and after an OS reset it always comes back.
    os.poke(os.program().global_addr("heap_free_head").unwrap(), -1)
        .unwrap();
    let _ = heron.serve(&mut os, &req);
    os.reset_state().unwrap();
    assert!(heron.start(&mut os));
    assert_eq!(heron.state(), ServerState::Running);

    let mut wren = SingleProcess::wren();
    assert!(wren.start(&mut os));
    os.poke(os.program().global_addr("heap_free_head").unwrap(), -1)
        .unwrap();
    let r = wren.serve(&mut os, &req);
    assert_eq!(r.outcome, Outcome::Error);
    assert_eq!(wren.state(), ServerState::Crashed);
    assert_eq!(wren.stats().self_restarts, 0);
}
