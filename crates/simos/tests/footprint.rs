//! Resident-memory footprint of a booted machine: the OS holds only the
//! memory pages it writes, a snapshot stores only its non-zero pages, and
//! the document corpus stays stored as bytes through checkpoint clones and
//! operator faults. Every count here is deterministic.

use depbench::opfaults::{apply_operator_fault, undo_operator_fault, OperatorFault};
use mvm::mem::PAGE_CELLS;
use simos::source::MEM_SIZE;
use simos::{DeviceFile, DeviceStore, Edition, Os, OsApi};
use specweb::{FileSet, FileSetConfig};
use webserver::{Heron, WebServer, Wren};

/// Pages of OS memory.
const OS_PAGES: usize = MEM_SIZE / PAGE_CELLS;

/// A booted nimbus-2000 with the corpus installed and `server` started —
/// the state a campaign worker checkpoints.
fn started(server: &mut dyn WebServer) -> (Os, FileSet) {
    let mut os = Os::boot(Edition::Nimbus2000).expect("boots");
    let fs = FileSet::populate(FileSetConfig::default(), os.devices_mut());
    assert!(server.start(&mut os), "{} starts", server.name());
    (os, fs)
}

fn corpus_is_bytes(devices: &DeviceStore, fs: &FileSet) -> bool {
    fs.entries()
        .iter()
        .all(|e| matches!(devices.handle(&e.native_path), Some(DeviceFile::Bytes(_))))
}

#[test]
fn a_started_server_snapshots_to_a_few_pages() {
    let servers: [Box<dyn WebServer>; 2] = [Box::new(Wren::new()), Box::new(Heron::new())];
    for mut server in servers {
        let (os, _) = started(server.as_mut());
        let stored = os.snapshot().stored_pages();
        assert!(
            (1..=16).contains(&stored),
            "{}: {stored} of {OS_PAGES} pages stored",
            server.name()
        );
        assert!(stored <= os.resident_pages(), "{}", server.name());
        assert!(os.resident_pages() <= 16, "{}", server.name());
    }
}

#[test]
fn a_fresh_boot_flags_only_the_pages_it_wrote() {
    let os = Os::boot(Edition::Nimbus2000).expect("boots");
    let resident = os.resident_pages();
    assert!(resident <= 16, "{resident} of {OS_PAGES} pages flagged");
    // Every page holding a non-zero cell is flagged: the snapshot, which
    // scans only flagged pages, finds them all.
    let nonzero = (0..OS_PAGES)
        .filter(|&p| {
            let page = os.peek_cells((p * PAGE_CELLS) as i64, PAGE_CELLS).unwrap();
            page.iter().any(|&c| c != 0)
        })
        .count();
    assert_eq!(os.snapshot().stored_pages(), nonzero);
    assert!(nonzero <= resident);
    let again = Os::boot(Edition::Nimbus2000).expect("boots");
    assert_eq!(again.resident_pages(), resident, "boot is deterministic");
}

#[test]
fn a_reboot_then_restore_gives_back_the_snapshot_exactly() {
    let mut server = Wren::new();
    let (mut os, fs) = started(&mut server);
    let snap = os.snapshot();
    let cells = os.peek_cells(0, MEM_SIZE).unwrap().to_vec();

    // Dirty memory and the device tree, then reboot over them.
    let p = os.call(OsApi::RtlAllocateHeap, &[100]).unwrap().value;
    os.call(OsApi::RtlFreeHeap, &[p]).unwrap();
    os.poke(MEM_SIZE as i64 - 1, 42).unwrap();
    os.devices_mut().add_file("/web/new.html", b"x");
    os.reboot().unwrap();
    assert_ne!(os.peek_cells(0, MEM_SIZE).unwrap(), &cells[..]);

    os.restore_snapshot(&snap);
    assert_eq!(os.peek_cells(0, MEM_SIZE).unwrap(), &cells[..]);
    assert_eq!(os.devices().file_size("/web/new.html"), None);
    assert!(corpus_is_bytes(os.devices(), &fs));
}

#[test]
fn clones_and_operator_faults_keep_corpus_files_as_bytes() {
    let mut server = Heron::new();
    let (mut os, fs) = started(&mut server);
    let clone = os.devices().clone();
    assert!(corpus_is_bytes(&clone, &fs));

    let (a, b) = (&fs.entries()[0], &fs.entries()[7]);
    let faults = [
        OperatorFault::DeleteFile {
            path: a.native_path.clone(),
        },
        OperatorFault::TruncateFile {
            path: a.native_path.clone(),
            keep: a.len as usize / 2,
        },
        OperatorFault::SwapContent {
            a: a.native_path.clone(),
            b: b.native_path.clone(),
        },
        OperatorFault::BreakVirtualRoot,
    ];
    for fault in &faults {
        let undo = apply_operator_fault(&mut os, fault);
        for e in [a, b] {
            if let Some(file) = os.devices().handle(&e.native_path) {
                assert!(matches!(file, DeviceFile::Bytes(_)), "{fault:?}");
            }
        }
        undo_operator_fault(&mut os, undo);
        assert!(corpus_is_bytes(os.devices(), &fs), "{fault:?}");
        for e in [a, b] {
            let path = &e.native_path;
            assert_eq!(os.devices().handle(path), clone.handle(path), "{fault:?}");
        }
    }
}
