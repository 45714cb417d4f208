//! Exact work counters of a fixed request stream: the instructions the VM
//! executes (the sum of the cost profile), the OS API calls per function
//! and the device I/O operations. They are what every campaign slot costs
//! before any wall clock is read, so a change to the interpreter, the OS
//! source or a server that moves one of them changes the work itself, not
//! just its speed. Heron's and Wren's pinned values were taken before the
//! interpreter's bookkeeping moved from every instruction to every
//! straight-line run; Sparrow's and Swift's before the three single-process
//! servers became one type with three profiles.

use simkit::SimRng;
use simos::{Edition, Os};
use specweb::{FileSet, FileSetConfig, RequestGenerator};
use webserver::ServerKind;

/// Requests served after start-up, from one seeded generator.
const REQUESTS: usize = 120;
const SEED: u64 = 20_040_628;

/// What serving the stream cost.
#[derive(Debug, PartialEq)]
struct Work {
    instructions: u64,
    api_calls: Vec<(&'static str, u64)>,
    io_ops: u64,
}

/// Boots `edition`, installs the corpus, starts `kind`, then serves the
/// stream with cost profiling on and the API counts cleared, so start-up
/// is not counted.
fn serve_stream(edition: Edition, kind: ServerKind) -> Work {
    let mut os = Os::boot(edition).expect("boots");
    let fs = FileSet::populate(FileSetConfig::default(), os.devices_mut());
    let mut generator = RequestGenerator::new(fs);
    let mut server = kind.build();
    assert!(server.start(&mut os), "{kind:?} starts on {edition:?}");
    os.enable_cost_profiling();
    os.clear_api_counts();
    let io_before = os.devices().io_ops();
    let mut rng = SimRng::seed_from_u64(SEED);
    for _ in 0..REQUESTS {
        let req = generator.next_request(&mut rng);
        let served = server.serve(&mut os, &req);
        assert!(served.is_correct_for(&req), "{kind:?} on {edition:?}");
    }
    Work {
        instructions: os.function_costs().iter().map(|(_, n)| n).sum(),
        api_calls: os
            .api_counts()
            .into_iter()
            .map(|(api, n)| (api.symbol(), n))
            .collect(),
        io_ops: os.devices().io_ops() - io_before,
    }
}

/// `calls` in the order `Os::api_counts` lists them.
fn in_api_order(mut calls: Vec<(&'static str, u64)>) -> Vec<(&'static str, u64)> {
    calls.sort_by_key(|&(symbol, _)| simos::OsApi::from_symbol(symbol).expect("an OS API"));
    calls
}

/// The API calls Heron and Wren make for the stream; they differ only in
/// the functions listed per server.
fn api_calls(specific: [(&'static str, u64); 5]) -> Vec<(&'static str, u64)> {
    let mut calls = vec![
        ("nt_close", 2),
        ("nt_create_file", 2),
        ("nt_open_file", 118),
        ("nt_write_file", 2),
        ("rtl_allocate_heap", 630),
        ("rtl_dos_path_to_native", 120),
        ("rtl_enter_critical_section", 120),
        ("rtl_free_heap", 510),
        ("rtl_free_unicode_string", 120),
        ("rtl_init_ansi_string", 360),
        ("rtl_init_unicode_string", 120),
        ("rtl_leave_critical_section", 120),
        ("rtl_unicode_to_multibyte", 30),
        ("close_handle", 118),
        ("set_file_pointer", 30),
    ];
    calls.extend(specific);
    in_api_order(calls)
}

#[test]
fn serving_a_fixed_stream_does_pinned_work() {
    let wren = api_calls([
        ("nt_protect_virtual_memory", 5),
        ("nt_query_virtual_memory", 5),
        ("nt_read_file", 149),
        ("get_long_path_name", 20),
        ("read_file", 409),
    ]);
    let heron = api_calls([
        ("nt_protect_virtual_memory", 7),
        ("nt_query_virtual_memory", 7),
        ("nt_read_file", 95),
        ("get_long_path_name", 15),
        ("read_file", 267),
    ]);
    // The profiling-only servers: Sparrow wraps no path in unicode and
    // reads in small chunks; Swift converts every response header.
    let sparrow = in_api_order(vec![
        ("nt_close", 2),
        ("nt_create_file", 2),
        ("nt_open_file", 118),
        ("nt_protect_virtual_memory", 10),
        ("nt_query_virtual_memory", 10),
        ("nt_read_file", 257),
        ("nt_write_file", 2),
        ("rtl_allocate_heap", 390),
        ("rtl_dos_path_to_native", 120),
        ("rtl_enter_critical_section", 120),
        ("rtl_free_heap", 390),
        ("rtl_init_ansi_string", 240),
        ("rtl_leave_critical_section", 120),
        ("rtl_unicode_to_multibyte", 30),
        ("close_handle", 118),
        ("get_long_path_name", 3),
        ("read_file", 693),
        ("set_file_pointer", 30),
    ]);
    let swift = in_api_order(vec![
        ("nt_close", 2),
        ("nt_create_file", 2),
        ("nt_open_file", 118),
        ("nt_protect_virtual_memory", 12),
        ("nt_query_virtual_memory", 12),
        ("nt_read_file", 95),
        ("nt_write_file", 2),
        ("rtl_allocate_heap", 750),
        ("rtl_dos_path_to_native", 120),
        ("rtl_enter_critical_section", 120),
        ("rtl_free_heap", 630),
        ("rtl_free_unicode_string", 120),
        ("rtl_init_ansi_string", 480),
        ("rtl_init_unicode_string", 120),
        ("rtl_leave_critical_section", 120),
        ("rtl_unicode_to_multibyte", 150),
        ("close_handle", 118),
        ("get_long_path_name", 30),
        ("read_file", 267),
        ("set_file_pointer", 30),
    ]);
    let cases = [
        (Edition::Nimbus2000, ServerKind::Wren, 512_868, &wren, 680),
        (Edition::Nimbus2000, ServerKind::Heron, 487_269, &heron, 484),
        (Edition::NimbusXp, ServerKind::Wren, 1_181_440, &wren, 680),
        (Edition::NimbusXp, ServerKind::Heron, 1_153_231, &heron, 484),
        (
            Edition::Nimbus2000,
            ServerKind::Sparrow,
            428_264,
            &sparrow,
            1072,
        ),
        (Edition::Nimbus2000, ServerKind::Swift, 620_539, &swift, 484),
        (
            Edition::NimbusXp,
            ServerKind::Sparrow,
            934_080,
            &sparrow,
            1072,
        ),
        (Edition::NimbusXp, ServerKind::Swift, 1_499_264, &swift, 484),
    ];
    for (edition, kind, instructions, api_calls, io_ops) in cases {
        assert_eq!(
            serve_stream(edition, kind),
            Work {
                instructions,
                api_calls: api_calls.clone(),
                io_ops,
            },
            "{kind:?} on {edition:?}"
        );
    }
}
