//! The device layer: raw storage reached through hypercalls.
//!
//! This models the hardware *below* the OS — it is explicitly not a fault
//! target (the paper injects into OS code, not devices). Files are stored
//! host-side; the OS reaches them with `hcall` instructions carrying file
//! ids, offsets and VM buffer addresses. Every transfer accrues *device cost
//! units* so that callers can charge simulated time proportional to I/O
//! volume.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

use mvm::{HcallHandler, Memory, Reg, Trap};

use crate::source::hc;

/// Maximum path length the device will read out of VM memory.
const DEV_MAX_PATH: usize = 512;

/// Fixed cost units per I/O hypercall, plus per-cell transfer cost.
const IO_BASE_COST: u64 = 20;

/// Largest file the device holds, in cells. A `WRITE` that would end past
/// it fails with `-1`, like a full disk, so a wild offset read out of
/// corrupted OS memory cannot make the host allocate without bound.
const MAX_FILE_CELLS: usize = 1 << 20;

/// The content of one device file, shared by handle.
///
/// Installed content (the document corpus, [`DeviceStore::add_file`]) is
/// stored as bytes, one eighth of its size as cells; a `WRITE` hypercall
/// first widens the file it writes to cells. Both read back as the same
/// cells ([`DeviceFile::cells`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeviceFile {
    /// One byte per cell.
    Bytes(Arc<Vec<u8>>),
    /// Full cells, as written by the OS.
    Cells(Arc<Vec<i64>>),
}

impl DeviceFile {
    /// Length in cells.
    pub fn len(&self) -> usize {
        match self {
            DeviceFile::Bytes(b) => b.len(),
            DeviceFile::Cells(c) => c.len(),
        }
    }

    /// True if the file holds no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The content as cells: borrowed from a cell file, widened from a byte
    /// file.
    pub fn cells(&self) -> Cow<'_, [i64]> {
        match self {
            DeviceFile::Bytes(b) => Cow::Owned(widen(b)),
            DeviceFile::Cells(c) => Cow::Borrowed(c.as_slice()),
        }
    }

    /// The first `keep` cells, stored as this file is.
    pub fn truncated(&self, keep: usize) -> DeviceFile {
        let keep = keep.min(self.len());
        match self {
            DeviceFile::Bytes(b) => DeviceFile::Bytes(Arc::new(b[..keep].to_vec())),
            DeviceFile::Cells(c) => DeviceFile::Cells(Arc::new(c[..keep].to_vec())),
        }
    }

    /// The cells to write into, detached from every other handle
    /// (copy-on-write) and widened first if the file holds bytes.
    fn cells_mut(&mut self) -> &mut Vec<i64> {
        if let DeviceFile::Bytes(b) = self {
            *self = DeviceFile::Cells(Arc::new(widen(b)));
        }
        match self {
            DeviceFile::Cells(c) => Arc::make_mut(c),
            DeviceFile::Bytes(_) => unreachable!("widened above"),
        }
    }
}

fn widen(bytes: &[u8]) -> Vec<i64> {
    bytes.iter().map(|&b| i64::from(b)).collect()
}

/// Host-side file store plus hypercall dispatch.
///
/// File contents and the path table live behind [`Arc`]s, so cloning the
/// store (taken as a campaign checkpoint, or restored from one) shares them
/// and only copies the file handle list. A write to a shared file copies
/// just that file first ([`Arc::make_mut`], or widening a byte file into
/// cells of its own), and a path change copies the path table first —
/// copy-on-write, which is what makes per-slot snapshot restore cheap even
/// with a large static file set.
#[derive(Clone, Debug, Default)]
pub struct DeviceStore {
    files: Vec<DeviceFile>,
    by_path: Arc<BTreeMap<String, usize>>,
    cost_units: u64,
    io_ops: u64,
}

impl DeviceStore {
    /// An empty store.
    pub fn new() -> DeviceStore {
        DeviceStore::default()
    }

    /// Adds (or replaces) a file with byte content; returns its id.
    pub fn add_file(&mut self, path: &str, content: &[u8]) -> usize {
        self.adopt_file(path, Arc::new(content.to_vec()))
    }

    /// Adds (or replaces) a file with cell content; returns its id.
    pub fn add_file_cells(&mut self, path: &str, cells: Vec<i64>) -> usize {
        self.install(path, DeviceFile::Cells(Arc::new(cells)))
    }

    /// Adds (or replaces) a byte file whose contents stay shared with the
    /// caller — [`DeviceStore::add_file`] without the copy. A later write
    /// to the file widens it into a copy of its own, leaving the caller's
    /// bytes untouched. Lets a generated corpus be installed into many
    /// stores at refcount cost.
    pub fn adopt_file(&mut self, path: &str, bytes: Arc<Vec<u8>>) -> usize {
        self.install(path, DeviceFile::Bytes(bytes))
    }

    /// Adds (or replaces) the file at `path` with `file`, a handle taken
    /// from [`DeviceStore::handle`] or built by the caller; returns its id.
    /// Replacing keeps the file's id.
    pub fn install(&mut self, path: &str, file: DeviceFile) -> usize {
        if let Some(&id) = self.by_path.get(path) {
            self.files[id] = file;
            id
        } else {
            let id = self.files.len();
            self.files.push(file);
            Arc::make_mut(&mut self.by_path).insert(path.to_string(), id);
            id
        }
    }

    /// Number of stored files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// The handle of the file at `path`, if present: a cheap clone shares
    /// the content.
    pub fn handle(&self, path: &str) -> Option<&DeviceFile> {
        self.by_path.get(path).map(|&id| &self.files[id])
    }

    /// Content of `path` as cells, if present.
    pub fn file(&self, path: &str) -> Option<Cow<'_, [i64]>> {
        self.handle(path).map(DeviceFile::cells)
    }

    /// Size in cells of the file at `path`, if present.
    pub fn file_size(&self, path: &str) -> Option<usize> {
        self.handle(path).map(DeviceFile::len)
    }

    /// Unlinks `path` (subsequent lookups miss); the content stays stored.
    /// Returns the file id, if the path existed.
    pub fn unlink(&mut self, path: &str) -> Option<usize> {
        Arc::make_mut(&mut self.by_path).remove(path)
    }

    /// Cost units accrued by hypercalls since the last [`take_cost`]
    /// (`IO_BASE_COST` per I/O op plus one unit per transferred cell).
    ///
    /// [`take_cost`]: DeviceStore::take_cost
    pub fn take_cost(&mut self) -> u64 {
        std::mem::take(&mut self.cost_units)
    }

    /// Total I/O hypercalls served.
    pub fn io_ops(&self) -> u64 {
        self.io_ops
    }

    fn lookup(&mut self, mem: &Memory, path_addr: i64) -> i64 {
        self.cost_units += IO_BASE_COST;
        self.io_ops += 1;
        let Ok(path) = mem.read_cstr(path_addr, DEV_MAX_PATH) else {
            return -1;
        };
        self.by_path.get(&path).map_or(-1, |&id| id as i64)
    }

    fn create(&mut self, mem: &Memory, path_addr: i64) -> i64 {
        self.cost_units += IO_BASE_COST;
        self.io_ops += 1;
        let Ok(path) = mem.read_cstr(path_addr, DEV_MAX_PATH) else {
            return -1;
        };
        if path.is_empty() || !path.starts_with('/') {
            return -1;
        }
        self.add_file_cells(&path, Vec::new()) as i64
    }

    fn size(&mut self, fid: i64) -> i64 {
        self.cost_units += IO_BASE_COST;
        usize::try_from(fid)
            .ok()
            .and_then(|id| self.files.get(id))
            .map_or(-1, |f| f.len() as i64)
    }

    fn read(&mut self, mem: &mut Memory, at: u32, args: &[i64]) -> Result<i64, Trap> {
        let (fid, off, dst, len) = (args[0], args[1], args[2], args[3]);
        self.io_ops += 1;
        self.cost_units += IO_BASE_COST;
        let Some(file) = usize::try_from(fid).ok().and_then(|id| self.files.get(id)) else {
            return Ok(-1);
        };
        if off < 0 || len < 0 {
            return Ok(-1);
        }
        let off = off as usize;
        if off >= file.len() {
            return Ok(0); // EOF
        }
        let n = (file.len() - off).min(len as usize);
        // A wild destination (possible under injected faults) is a bus error.
        let stored = match file {
            DeviceFile::Bytes(b) => mem.write_bytes(dst, &b[off..off + n]),
            DeviceFile::Cells(c) => mem.write_block(dst, &c[off..off + n]),
        };
        self.cost_units += n as u64;
        stored.map_err(|e| Trap::BadMemory { at, addr: e.addr })?;
        Ok(n as i64)
    }

    fn write(&mut self, mem: &Memory, at: u32, args: &[i64]) -> Result<i64, Trap> {
        let (fid, off, src, len) = (args[0], args[1], args[2], args[3]);
        self.io_ops += 1;
        self.cost_units += IO_BASE_COST;
        if off < 0 || len < 0 {
            return Ok(-1);
        }
        let data = mem
            .read_slice(src, len as usize)
            .map_err(|e| Trap::BadMemory { at, addr: e.addr })?;
        let Some(file) = usize::try_from(fid)
            .ok()
            .and_then(|id| self.files.get_mut(id))
        else {
            return Ok(-1);
        };
        let off = off as usize;
        if off + data.len() > MAX_FILE_CELLS {
            return Ok(-1); // disk full
        }
        let file = file.cells_mut();
        if file.len() < off + data.len() {
            file.resize(off + data.len(), 0);
        }
        file[off..off + data.len()].copy_from_slice(data);
        self.cost_units += data.len() as u64;
        Ok(data.len() as i64)
    }
}

impl HcallHandler for DeviceStore {
    fn hcall(
        &mut self,
        n: i32,
        at: u32,
        regs: &mut [i64; 32],
        mem: &mut Memory,
    ) -> Result<(), Trap> {
        let a = |i: usize| regs[Reg::arg(i).index()];
        let result = match n {
            x if x == hc::LOOKUP => self.lookup(mem, a(0)),
            x if x == hc::SIZE => self.size(a(0)),
            x if x == hc::READ => self.read(mem, at, &[a(0), a(1), a(2), a(3)])?,
            x if x == hc::WRITE => self.write(mem, at, &[a(0), a(1), a(2), a(3)])?,
            x if x == hc::CREATE => self.create(mem, a(0)),
            _ => return Err(Trap::BadHcall { at, n }),
        };
        regs[Reg::RV.index()] = result;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_with_path(path: &str) -> Memory {
        let mut m = Memory::new(4096);
        m.write_cstr(100, path).unwrap();
        m
    }

    fn call(dev: &mut DeviceStore, n: i32, args: &[i64], mem: &mut Memory) -> Result<i64, Trap> {
        let mut regs = [0i64; 32];
        for (i, &a) in args.iter().enumerate() {
            regs[Reg::arg(i).index()] = a;
        }
        dev.hcall(n, 0, &mut regs, mem)?;
        Ok(regs[Reg::RV.index()])
    }

    #[test]
    fn lookup_finds_known_paths() {
        let mut dev = DeviceStore::new();
        let id = dev.add_file("/web/a.html", b"abc");
        let mut mem = mem_with_path("/web/a.html");
        assert_eq!(
            call(&mut dev, hc::LOOKUP, &[100], &mut mem).unwrap(),
            id as i64
        );
        let mut mem = mem_with_path("/missing");
        assert_eq!(call(&mut dev, hc::LOOKUP, &[100], &mut mem).unwrap(), -1);
    }

    #[test]
    fn read_transfers_and_clamps_at_eof() {
        let mut dev = DeviceStore::new();
        let id = dev.add_file("/f", b"hello") as i64;
        let mut mem = Memory::new(4096);
        let n = call(&mut dev, hc::READ, &[id, 0, 200, 3], &mut mem).unwrap();
        assert_eq!(n, 3);
        assert_eq!(mem.read_block(200, 3).unwrap(), vec![104, 101, 108]);
        // Tail read clamps.
        let n = call(&mut dev, hc::READ, &[id, 3, 200, 10], &mut mem).unwrap();
        assert_eq!(n, 2);
        // Reads at/after EOF return 0.
        let n = call(&mut dev, hc::READ, &[id, 5, 200, 10], &mut mem).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn read_to_wild_address_traps() {
        let mut dev = DeviceStore::new();
        let id = dev.add_file("/f", b"hello") as i64;
        let mut mem = Memory::new(4096);
        let err = call(&mut dev, hc::READ, &[id, 0, -5, 3], &mut mem).unwrap_err();
        assert!(matches!(err, Trap::BadMemory { .. }));
    }

    #[test]
    fn write_extends_files() {
        let mut dev = DeviceStore::new();
        let mut mem = mem_with_path("/new");
        let id = call(&mut dev, hc::CREATE, &[100], &mut mem).unwrap();
        assert!(id >= 0);
        mem.write_block(300, &[1, 2, 3]).unwrap();
        let n = call(&mut dev, hc::WRITE, &[id, 0, 300, 3], &mut mem).unwrap();
        assert_eq!(n, 3);
        assert_eq!(call(&mut dev, hc::SIZE, &[id], &mut mem).unwrap(), 3);
        assert_eq!(*dev.file("/new").unwrap(), [1, 2, 3]);
    }

    #[test]
    fn a_write_past_the_size_cap_fails_like_a_full_disk() {
        let mut dev = DeviceStore::new();
        let id = dev.add_file("/f", b"abc") as i64;
        let mut mem = Memory::new(4096);
        mem.write_block(300, &[1, 2, 3]).unwrap();
        let wild = 1i64 << 50;
        assert_eq!(
            call(&mut dev, hc::WRITE, &[id, wild, 300, 3], &mut mem).unwrap(),
            -1
        );
        let last = (MAX_FILE_CELLS - 3) as i64;
        assert_eq!(
            call(&mut dev, hc::WRITE, &[id, last + 1, 300, 3], &mut mem).unwrap(),
            -1
        );
        assert_eq!(
            dev.file_size("/f"),
            Some(3),
            "a refused write changes nothing"
        );
        assert!(matches!(dev.handle("/f"), Some(DeviceFile::Bytes(_))));
        assert_eq!(
            call(&mut dev, hc::WRITE, &[id, last, 300, 3], &mut mem).unwrap(),
            3
        );
        assert_eq!(dev.file_size("/f"), Some(MAX_FILE_CELLS));
    }

    #[test]
    fn writes_widen_byte_files_without_touching_shared_copies() {
        let mut dev = DeviceStore::new();
        let bytes = Arc::new(b"hello".to_vec());
        let id = dev.adopt_file("/f", Arc::clone(&bytes)) as i64;
        let checkpoint = dev.clone();
        let mut mem = Memory::new(4096);
        mem.write_block(300, &[-1, 1000]).unwrap();
        assert_eq!(
            call(&mut dev, hc::WRITE, &[id, 4, 300, 2], &mut mem).unwrap(),
            2
        );
        assert_eq!(*dev.file("/f").unwrap(), [104, 101, 108, 108, -1, 1000]);
        assert!(matches!(dev.handle("/f"), Some(DeviceFile::Cells(_))));
        assert_eq!(checkpoint.handle("/f"), Some(&DeviceFile::Bytes(bytes)));
        assert_eq!(*checkpoint.file("/f").unwrap(), [104, 101, 108, 108, 111]);
    }

    #[test]
    fn byte_and_cell_files_read_back_the_same_cells() {
        let mut dev = DeviceStore::new();
        let bytes = dev.add_file("/b", &[0, 7, 255]) as i64;
        let cells = dev.add_file_cells("/c", vec![0, 7, 255]) as i64;
        let mut mem = Memory::new(4096);
        for (id, dst) in [(bytes, 200), (cells, 300)] {
            assert_eq!(
                call(&mut dev, hc::READ, &[id, 0, dst, 8], &mut mem).unwrap(),
                3
            );
            assert_eq!(mem.read_block(dst, 3).unwrap(), [0, 7, 255]);
        }
        assert_eq!(dev.file("/b"), dev.file("/c"));
        assert_eq!(*dev.handle("/b").unwrap().truncated(2).cells(), [0, 7]);
        assert!(matches!(
            dev.handle("/b").unwrap().truncated(9),
            DeviceFile::Bytes(b) if b.len() == 3
        ));
    }

    #[test]
    fn create_rejects_bad_paths() {
        let mut dev = DeviceStore::new();
        let mut mem = mem_with_path("no-slash");
        assert_eq!(call(&mut dev, hc::CREATE, &[100], &mut mem).unwrap(), -1);
    }

    #[test]
    fn replacing_a_file_keeps_its_id() {
        let mut dev = DeviceStore::new();
        let a = dev.add_file("/f", b"one");
        let b = dev.add_file("/f", b"two!");
        assert_eq!(a, b);
        assert_eq!(dev.file_size("/f"), Some(4));
        assert_eq!(dev.file_count(), 1);
    }

    #[test]
    fn path_changes_do_not_leak_into_clones() {
        let mut dev = DeviceStore::new();
        let id = dev.add_file("/a", b"a");
        let checkpoint = dev.clone();
        assert_eq!(dev.unlink("/a"), Some(id));
        dev.add_file("/c", b"c");
        assert_eq!(dev.file("/a"), None);
        assert!(dev.file("/c").is_some());
        assert_eq!(checkpoint.file_size("/a"), Some(1));
        assert_eq!(checkpoint.file("/c"), None);
        assert_eq!(dev.unlink("/missing"), None);
    }

    #[test]
    fn unknown_hcall_traps() {
        let mut dev = DeviceStore::new();
        let mut mem = Memory::new(64);
        let err = call(&mut dev, 99, &[], &mut mem).unwrap_err();
        assert!(matches!(err, Trap::BadHcall { n: 99, .. }));
    }

    #[test]
    fn io_costs_accrue_and_reset() {
        let mut dev = DeviceStore::new();
        let id = dev.add_file("/f", &[7u8; 100]) as i64;
        let mut mem = Memory::new(4096);
        call(&mut dev, hc::READ, &[id, 0, 200, 100], &mut mem).unwrap();
        let c = dev.take_cost();
        assert!(c >= 100, "cost {c} should include per-cell transfer");
        assert_eq!(dev.take_cost(), 0);
        assert!(dev.io_ops() >= 1);
    }
}
