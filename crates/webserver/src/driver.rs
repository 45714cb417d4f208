//! The shared request-serving sequence over the SimOS API.
//!
//! All servers serve a request through the same *sequence* of OS services —
//! lock, allocate, convert the path, open, read/write, close, free — because
//! that is what the paper's Table 2 profile shows: four very different web
//! servers with a strikingly similar API usage pattern. What differs per
//! server is the [`Style`]: whether statuses are checked, whether resources
//! are released on error paths, how often auxiliary services (unicode
//! conversion, long-path lookup, virtual-memory management) are used.

use simos::{Os, OsApi, OsCallError};
use simtrace::EventKind;

use crate::request::{Method, Outcome, Request};

/// Which part of the server hit a failure — decides process fate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Connection management done by the master/main loop.
    Master,
    /// Request processing done by a worker.
    Worker,
}

/// An uncontained OS failure during serving.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepFailure {
    /// The OS call crashed (trap).
    Crash,
    /// The OS call never returned (hang).
    Hang,
}

/// A serve attempt that died inside an OS call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DriverError {
    /// What happened.
    pub failure: StepFailure,
    /// Where it happened.
    pub phase: Phase,
    /// Cost consumed up to the failure.
    pub cost: u64,
}

/// Per-server behavioural knobs.
#[derive(Clone, Copy, Debug)]
pub struct Style {
    /// Check OS statuses and respond with a clean error (true = Heron-like).
    pub check_status: bool,
    /// Release handles/buffers on error paths (false leaks, Wren-like).
    pub release_on_error: bool,
    /// Wrap paths in unicode string structures.
    pub use_unicode: bool,
    /// Per-request header buffers to allocate and string-process.
    pub header_allocs: u64,
    /// Call `GetLongPathName` every `n` requests (0 = never).
    pub long_path_every: u64,
    /// Touch the VM protection table every `n` requests (0 = never).
    pub vm_calls_every: u64,
    /// On open failure, normalize the path in server code and retry once
    /// (defensive fallback; the robust servers do this).
    pub path_fallback: bool,
    /// After serving, convert the response header through the multibyte
    /// converter (Swift's distinguishing usage pattern).
    pub multibyte_headers: bool,
    /// Read chunk size in cells.
    pub chunk: i64,
    /// Fixed per-request server-side cost units (parsing, socket work).
    pub overhead: u64,
}

/// Fixed buffer set a server process owns (allocated from the OS heap at
/// process start, so heap faults hit server memory — as in reality).
#[derive(Clone, Copy, Debug)]
pub struct Buffers {
    /// DOS-path buffer.
    pub path_buf: i64,
    /// Converted native-path buffer.
    pub native_buf: i64,
    /// I/O data buffer.
    pub data_buf: i64,
    /// Auxiliary buffer (long paths, dynamic content).
    pub aux_buf: i64,
    /// String-structure cells.
    pub str_struct: i64,
    /// Emergency connection slot used when per-request allocation fails.
    pub spare_conn: i64,
    /// Critical-section structure address.
    pub cs: i64,
}

/// Outcome of one `serve` pass before the server's own bookkeeping.
pub type DriveOutcome = Result<(Outcome, u64), DriverError>;

fn classify(e: &OsCallError) -> StepFailure {
    if e.is_hang() {
        StepFailure::Hang
    } else {
        StepFailure::Crash
    }
}

/// Calls one OS function, accumulating cost; uncontained failures become
/// `DriverError`.
fn call(
    os: &mut Os,
    api: OsApi,
    args: &[i64],
    phase: Phase,
    cost: &mut u64,
) -> Result<i64, DriverError> {
    match os.call(api, args) {
        Ok(r) => {
            *cost += r.cost;
            Ok(r.value)
        }
        Err(e) => Err(DriverError {
            failure: classify(&e),
            phase,
            cost: *cost,
        }),
    }
}

/// Allocates the server's buffer set (process start). `None` when the heap
/// refused a buffer or an allocation died: the start failed.
pub fn allocate_buffers(os: &mut Os, cs: i64) -> Option<Buffers> {
    // Path, native path, data, auxiliary, string structure, spare connection.
    let sizes = [300, 300, 2100, 600, 8, 24];
    let mut held = [0; 6];
    for (buf, size) in held.iter_mut().zip(sizes) {
        *buf = os.call(OsApi::RtlAllocateHeap, &[size]).ok()?.value;
    }
    let [path_buf, native_buf, data_buf, aux_buf, str_struct, spare_conn] = held;
    held.iter().all(|&b| b > 0).then_some(Buffers {
        path_buf,
        native_buf,
        data_buf,
        aux_buf,
        str_struct,
        spare_conn,
        cs,
    })
}

/// Startup configuration load: real servers read their port, document root
/// and worker settings from the configuration store at process start. This
/// is deliberately a *startup-only* API usage — the profiling phase
/// therefore excludes the registry services from the Table 2 selection,
/// exactly as the paper's negligible-share rule intends.
pub fn startup_config(os: &mut Os, bufs: &Buffers) -> Result<u64, DriverError> {
    let mut cost = 0u64;
    let m = Phase::Master;
    for (key, value) in [
        ("config/listen_port", 8080),
        ("config/document_root", 1),
        ("config/worker_count", 4),
        ("config/keep_alive", 1),
    ] {
        if os.poke_cstr(bufs.path_buf, key).is_err() {
            break;
        }
        call(
            os,
            OsApi::NtSetValueKey,
            &[bufs.path_buf, value],
            m,
            &mut cost,
        )?;
        let got = call(os, OsApi::NtQueryValueKey, &[bufs.path_buf], m, &mut cost)?;
        if got != value {
            // Config store misbehaving: fall back to defaults, keep going.
            break;
        }
    }
    // Enumerate once (config dump to the log).
    call(os, OsApi::NtEnumerateValueKey, &[0], m, &mut cost)?;
    Ok(cost)
}

/// Serves one request through the canonical OS sequence.
///
/// The sequence mirrors what the paper's Table 2 profile implies real web
/// servers do per request: lock, connection bookkeeping, *header string
/// processing* (several small heap allocations and string initializations —
/// this is why `RtlAllocateHeap`/`RtlFreeHeap` dominate real traces), path
/// conversion, open, read/write (static GETs through the `kbase` wrapper,
/// dynamic GETs through the `ntcore` layer directly, as mixed-layer usage
/// in real applications), transform, teardown.
///
/// `seq` is the server's request counter (drives the every-N auxiliary
/// calls). The returned cost covers all OS work plus `style.overhead`.
pub fn serve_once(
    os: &mut Os,
    bufs: &Buffers,
    style: &Style,
    req: &Request,
    seq: u64,
) -> DriveOutcome {
    let traced = os.tracer().is_enabled();
    if traced {
        os.tracer().emit(EventKind::RequestStart { seq });
    }
    let mut result = serve_once_steps(os, bufs, style, req, seq);
    if traced {
        match &result {
            Ok((outcome, cost)) => os.tracer().emit(EventKind::RequestDone {
                seq,
                ok: matches!(outcome, Outcome::Ok { .. }),
                cost: *cost,
            }),
            Err(e) => os.tracer().emit(EventKind::RequestFailed {
                seq,
                phase: match e.phase {
                    Phase::Master => "master",
                    Phase::Worker => "worker",
                },
                failure: match e.failure {
                    StepFailure::Crash => "crash",
                    StepFailure::Hang => "hang",
                },
            }),
        }
    }
    if style.multibyte_headers {
        if let Ok((_, cost)) = &mut result {
            // A post-response step outside the request's recorded fate: a
            // failed conversion is ignored, whatever it was.
            if let Ok(r) = os.call(
                OsApi::RtlUnicodeToMultibyte,
                &[bufs.aux_buf, bufs.path_buf, 32],
            ) {
                *cost += r.cost;
            }
        }
    }
    result
}

/// The OS-call sequence behind [`serve_once`] (split out so the wrapper can
/// record the request's fate exactly once, whichever early return fires).
#[allow(clippy::too_many_lines)] // the sequence mirrors a real request path
fn serve_once_steps(
    os: &mut Os,
    bufs: &Buffers,
    style: &Style,
    req: &Request,
    seq: u64,
) -> DriveOutcome {
    let mut cost = style.overhead;
    let check = style.check_status;
    let mut degraded = false; // a status error was observed

    // ---- master: connection bookkeeping -------------------------------
    call(
        os,
        OsApi::RtlEnterCriticalSection,
        &[bufs.cs],
        Phase::Master,
        &mut cost,
    )?;
    let mut conn = call(os, OsApi::RtlAllocateHeap, &[24], Phase::Master, &mut cost)?;
    let mut conn_owned = conn > 0;
    if check && conn <= 0 {
        // Robust path: fall back to the emergency connection slot that was
        // reserved at startup (the request is still served).
        conn = bufs.spare_conn;
        conn_owned = false;
    }
    // The connection record is real state: request metadata lives in it.
    if conn > 0 {
        let _ = os.poke(conn, seq as i64);
        let _ = os.poke(conn + 1, req.path.len() as i64);
        let _ = os.poke(conn + 2, matches!(req.method, Method::Post) as i64);
    }

    // ---- worker: header processing -------------------------------------
    let w = Phase::Worker;
    if os.poke_cstr(bufs.path_buf, &req.path).is_err() {
        return Ok((Outcome::Error, cost));
    }
    // Request headers: per-header buffers + string structures (the heap and
    // string traffic that dominates Table 2).
    let mut hdr_bufs: Vec<i64> = Vec::with_capacity(3);
    for hdr in 0..style.header_allocs {
        let b = call(os, OsApi::RtlAllocateHeap, &[32], w, &mut cost)?;
        if b > 0 {
            let _ = os.poke_cstr(b, header_text(hdr));
            call(
                os,
                OsApi::RtlInitAnsiString,
                &[bufs.str_struct, b],
                w,
                &mut cost,
            )?;
            hdr_bufs.push(b);
        }
    }
    if style.use_unicode {
        // Wrap the path in a unicode string backed by a heap buffer; the
        // teardown releases it through RtlFreeUnicodeString.
        let ubuf = call(os, OsApi::RtlAllocateHeap, &[64], w, &mut cost)?;
        if ubuf > 0 {
            let _ = os.poke_cstr(ubuf, req.path.get(..20).unwrap_or(&req.path));
            // Auxiliary service: a failure here never fails the request.
            let _ = call(
                os,
                OsApi::RtlInitUnicodeString,
                &[bufs.str_struct, ubuf],
                w,
                &mut cost,
            )?;
        }
    }

    // ---- worker: path handling ------------------------------------------
    let rc = call(
        os,
        OsApi::RtlDosPathToNative,
        &[bufs.path_buf, bufs.native_buf],
        w,
        &mut cost,
    )?;
    if rc < 0 {
        degraded = true;
    }
    if style.long_path_every > 0 && seq.is_multiple_of(style.long_path_every) {
        call(
            os,
            OsApi::GetLongPathName,
            &[bufs.native_buf, bufs.aux_buf],
            w,
            &mut cost,
        )?;
    }

    // ---- worker: open (POST creates) ------------------------------------
    let open_api = if req.method == Method::Post {
        OsApi::NtCreateFile
    } else {
        OsApi::NtOpenFile
    };
    let mut h = call(os, open_api, &[bufs.native_buf], w, &mut cost)?;
    if style.path_fallback && check && (h <= 0 || degraded) {
        // Defensive fallback: the open failed, or the converter reported an
        // error (its output buffer cannot be trusted even if something
        // opened). The server normalizes the path itself and retries once.
        if h > 0 {
            call(os, OsApi::CloseHandle, &[h], w, &mut cost)?;
        }
        let fixed = normalize_dos_path(&req.path);
        if os.poke_cstr(bufs.aux_buf, &fixed).is_ok() {
            cost += 80; // the server-side normalization work
            h = call(os, open_api, &[bufs.aux_buf], w, &mut cost)?;
            if h > 0 {
                degraded = false;
            }
        }
    }
    if check && (h <= 0 || degraded) {
        // Robust path: release everything and answer with a clean error.
        if h > 0 {
            call(os, OsApi::CloseHandle, &[h], w, &mut cost)?;
        }
        teardown(os, bufs, style, conn, conn_owned, &hdr_bufs, &mut cost)?;
        return Ok((Outcome::Error, cost));
    }

    let mut total: u64 = 0;
    let mut sum: i64 = 0;
    let mut io_failed = false;

    match req.method {
        Method::GetStatic | Method::GetDynamic => {
            // Dynamic handlers rewind explicitly before reading (CGI-style)
            // and read through the ntcore layer directly; static GETs use
            // the kbase wrapper — mixed-layer usage, as in real traces.
            let read_api = if req.method == Method::GetDynamic {
                call(os, OsApi::SetFilePointer, &[h, 0], w, &mut cost)?;
                OsApi::NtReadFile
            } else {
                OsApi::ReadFile
            };
            let mut rounds = 0;
            loop {
                rounds += 1;
                if rounds > 256 {
                    io_failed = true;
                    break;
                }
                let n = call(os, read_api, &[h, bufs.data_buf, style.chunk], w, &mut cost)?;
                if n < 0 {
                    io_failed = true;
                    break;
                }
                if n == 0 {
                    break;
                }
                // The server "sends" the chunk: checksum what is actually in
                // the buffer (wrong data ⇒ wrong checksum ⇒ client error).
                match os.peek_cells(bufs.data_buf, n as usize) {
                    Ok(cells) => sum = crate::request::checksum_extend(sum, cells),
                    Err(_) => {
                        io_failed = true;
                        break;
                    }
                }
                total += n as u64;
                cost += n as u64 / 4; // network send cost
            }
            if req.method == Method::GetDynamic {
                // Dynamic content: transform a header chunk and embed it.
                let tmp = call(os, OsApi::RtlAllocateHeap, &[128], w, &mut cost)?;
                let src = if tmp > 0 { bufs.data_buf } else { 0 };
                // A failed transform degrades the page (no ad rotation) but
                // the base content is already read — never fail the request.
                let _ = call(
                    os,
                    OsApi::RtlUnicodeToMultibyte,
                    &[bufs.aux_buf, src, 64],
                    w,
                    &mut cost,
                )?;
                if tmp > 0 || !check {
                    // Teardown failures never fail an already-built response.
                    let _ = call(os, OsApi::RtlFreeHeap, &[tmp], w, &mut cost)?;
                }
            }
        }
        Method::Post => {
            // Persist the body (append at the current position).
            let n = req.post_len.min(2000) as i64;
            for i in 0..n {
                let _ = os.poke(bufs.data_buf + i, (i * 7 + 1) & 0xFF);
            }
            let wrote = call(os, OsApi::NtWriteFile, &[h, bufs.data_buf, n], w, &mut cost)?;
            if wrote != n {
                io_failed = true;
            }
            total = 1; // acknowledgement payload
        }
    }

    // Periodic cache management touches the VM protection table.
    if style.vm_calls_every > 0 && seq.is_multiple_of(style.vm_calls_every) {
        call(
            os,
            OsApi::NtProtectVirtualMemory,
            &[bufs.data_buf, style.chunk, 4],
            w,
            &mut cost,
        )?;
        call(
            os,
            OsApi::NtQueryVirtualMemory,
            &[bufs.data_buf],
            w,
            &mut cost,
        )?;
    }

    // ---- teardown -------------------------------------------------------
    let failed = io_failed || degraded;
    if !failed || style.release_on_error {
        // Orderly teardown (robust servers do this even on failures);
        // teardown status errors are logged, never surfaced to the client.
        // POST handles close through the ntcore layer (mixed-layer usage).
        let close_api = if req.method == Method::Post {
            OsApi::NtClose
        } else {
            OsApi::CloseHandle
        };
        let _ = call(os, close_api, &[h], w, &mut cost)?;
        teardown(os, bufs, style, conn, conn_owned, &hdr_bufs, &mut cost)?;
    } else {
        // Sloppy path: abandon handle, headers and connection record — the
        // leaks that snowball under a persistent OS fault.
        call(
            os,
            OsApi::RtlLeaveCriticalSection,
            &[bufs.cs],
            Phase::Master,
            &mut cost,
        )?;
    }

    if check && failed {
        return Ok((Outcome::Error, cost));
    }
    Ok((
        Outcome::Ok {
            bytes: total,
            checksum: sum,
        },
        cost,
    ))
}

/// Orderly per-request teardown: header buffers, the unicode string (which
/// owns a heap buffer), the connection record and finally the lock.
fn teardown(
    os: &mut Os,
    bufs: &Buffers,
    style: &Style,
    conn: i64,
    conn_owned: bool,
    hdr_bufs: &[i64],
    cost: &mut u64,
) -> Result<(), DriverError> {
    // Free in reverse allocation-size order (64, 32…, 24): the LIFO free
    // list then hands the next request exact-fit blocks in O(1), keeping the
    // allocator in steady state instead of fragmenting.
    if style.use_unicode {
        // Releases the heap buffer installed by RtlInitUnicodeString.
        let _ = call(
            os,
            OsApi::RtlFreeUnicodeString,
            &[bufs.str_struct],
            Phase::Worker,
            cost,
        )?;
    }
    for &b in hdr_bufs.iter().rev() {
        let _ = call(os, OsApi::RtlFreeHeap, &[b], Phase::Worker, cost)?;
    }
    if conn_owned {
        let _ = call(os, OsApi::RtlFreeHeap, &[conn], Phase::Master, cost)?;
    }
    call(
        os,
        OsApi::RtlLeaveCriticalSection,
        &[bufs.cs],
        Phase::Master,
        cost,
    )?;
    Ok(())
}

/// Canned header strings (contents only matter as string-processing load).
fn header_text(i: u64) -> &'static str {
    match i % 4 {
        0 => "Accept: text/html",
        1 => "Connection: keep-alive",
        2 => "User-Agent: specweb",
        _ => "Host: sub.example",
    }
}

/// Server-side DOS→native path normalization (the fallback's own logic,
/// deliberately independent from the OS implementation).
pub fn normalize_dos_path(path: &str) -> String {
    let mut p = path.replace('\\', "/");
    if p.len() >= 2 && p.as_bytes()[1] == b':' {
        p = p[2..].to_string();
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::checksum_of;
    use simos::{Edition, Os};

    fn booted_with_file() -> (Os, Vec<i64>) {
        let mut os = Os::boot(Edition::Nimbus2000).unwrap();
        let content: Vec<i64> = (0..900).map(|i| (i * 13 + 7) % 256).collect();
        os.devices_mut()
            .add_file_cells("/web/dir0/class1_3", content.clone());
        (os, content)
    }

    fn style(check: bool) -> Style {
        Style {
            check_status: check,
            release_on_error: check,
            use_unicode: true,
            header_allocs: 3,
            long_path_every: 8,
            vm_calls_every: 16,
            path_fallback: false,
            multibyte_headers: false,
            chunk: 2048,
            overhead: 50,
        }
    }

    fn get_req(content: &[i64]) -> Request {
        Request {
            method: Method::GetStatic,
            path: "C:\\web\\dir0\\class1_3".into(),
            expected_len: content.len() as u64,
            expected_sum: checksum_of(content),
            post_len: 0,
        }
    }

    #[test]
    fn serves_correct_static_content() {
        let (mut os, content) = booted_with_file();
        let bufs = allocate_buffers(&mut os, simos::source::CS_REGION).unwrap();
        let req = get_req(&content);
        let (outcome, cost) = serve_once(&mut os, &bufs, &style(true), &req, 1).unwrap();
        match outcome {
            Outcome::Ok { bytes, checksum } => {
                assert_eq!(bytes, 900);
                assert_eq!(checksum, checksum_of(&content));
            }
            Outcome::Error => panic!("should serve"),
        }
        assert!(cost > 900, "cost {cost} should reflect the payload");
        // The lock is released.
        assert_eq!(os.peek(simos::source::CS_REGION).unwrap(), 0);
    }

    #[test]
    fn missing_file_clean_error_when_checking() {
        let (mut os, _) = booted_with_file();
        let bufs = allocate_buffers(&mut os, simos::source::CS_REGION).unwrap();
        let req = Request {
            method: Method::GetStatic,
            path: "C:\\nope".into(),
            expected_len: 1,
            expected_sum: 1,
            post_len: 0,
        };
        let (outcome, _) = serve_once(&mut os, &bufs, &style(true), &req, 1).unwrap();
        assert_eq!(outcome, Outcome::Error);
        // No handle leak: the open failed, nothing was installed.
        assert_eq!(os.peek(simos::source::CS_REGION).unwrap(), 0);
    }

    #[test]
    fn unchecked_style_returns_bogus_success() {
        let (mut os, _) = booted_with_file();
        let bufs = allocate_buffers(&mut os, simos::source::CS_REGION).unwrap();
        let req = Request {
            method: Method::GetStatic,
            path: "C:\\nope".into(),
            expected_len: 5,
            expected_sum: 42,
            post_len: 0,
        };
        // Wren-style: no checks — it "serves" an empty payload.
        let (outcome, _) = serve_once(&mut os, &bufs, &style(false), &req, 1).unwrap();
        match outcome {
            Outcome::Ok { bytes, .. } => assert_eq!(bytes, 0),
            Outcome::Error => panic!("unchecked style should not notice"),
        }
    }

    #[test]
    fn post_creates_and_writes() {
        let (mut os, _) = booted_with_file();
        let bufs = allocate_buffers(&mut os, simos::source::CS_REGION).unwrap();
        let req = Request {
            method: Method::Post,
            path: "C:\\web\\posted.dat".into(),
            expected_len: 0,
            expected_sum: 0,
            post_len: 64,
        };
        let (outcome, _) = serve_once(&mut os, &bufs, &style(true), &req, 1).unwrap();
        assert!(matches!(outcome, Outcome::Ok { .. }));
        assert_eq!(os.devices().file_size("/web/posted.dat"), Some(64));
    }

    #[test]
    fn dynamic_get_transforms() {
        let (mut os, content) = booted_with_file();
        let bufs = allocate_buffers(&mut os, simos::source::CS_REGION).unwrap();
        let mut req = get_req(&content);
        req.method = Method::GetDynamic;
        let (outcome, _) = serve_once(&mut os, &bufs, &style(true), &req, 1).unwrap();
        assert!(matches!(outcome, Outcome::Ok { .. }));
    }

    #[test]
    fn repeated_serving_is_leak_free_when_releasing() {
        let (mut os, content) = booted_with_file();
        let bufs = allocate_buffers(&mut os, simos::source::CS_REGION).unwrap();
        let req = get_req(&content);
        for seq in 0..200 {
            let (outcome, _) = serve_once(&mut os, &bufs, &style(true), &req, seq).unwrap();
            assert!(matches!(outcome, Outcome::Ok { .. }), "request {seq}");
        }
        // Handle table: nothing left open.
        let mut os2 = os;
        os2.poke_cstr(209_000, "/web/dir0/class1_3").unwrap();
        let h = os2.call(OsApi::NtOpenFile, &[209_000]).unwrap().value;
        assert_eq!(h, 1, "first handle slot should be free again");
    }

    #[test]
    fn hang_in_os_is_reported_with_phase() {
        let mut os = Os::boot_with_budget(Edition::Nimbus2000, 50_000).unwrap();
        let content: Vec<i64> = vec![1, 2, 3];
        os.devices_mut().add_file_cells("/web/f", content.clone());
        let bufs = allocate_buffers(&mut os, simos::source::CS_REGION).unwrap();
        // Corrupt the lock so the master-phase enter spins forever.
        os.poke(simos::source::CS_REGION, 1).unwrap();
        os.poke(simos::source::CS_REGION + 1, 99).unwrap();
        let req = get_req(&content);
        let err = serve_once(&mut os, &bufs, &style(true), &req, 1).unwrap_err();
        assert_eq!(err.failure, StepFailure::Hang);
        assert_eq!(err.phase, Phase::Master);
    }
}
