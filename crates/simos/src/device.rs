//! The device layer: raw storage reached through hypercalls.
//!
//! This models the hardware *below* the OS — it is explicitly not a fault
//! target (the paper injects into OS code, not devices). Files are stored
//! host-side; the OS reaches them with `hcall` instructions carrying file
//! ids, offsets and VM buffer addresses. Every transfer accrues *device cost
//! units* so that callers can charge simulated time proportional to I/O
//! volume.

use std::collections::BTreeMap;
use std::sync::Arc;

use mvm::{HcallHandler, Memory, Reg, Trap};

use crate::source::hc;

/// Maximum path length the device will read out of VM memory.
const DEV_MAX_PATH: usize = 512;

/// Fixed cost units per I/O hypercall, plus per-cell transfer cost.
const IO_BASE_COST: u64 = 20;

/// Host-side file store plus hypercall dispatch.
///
/// File contents and the path table live behind [`Arc`]s, so cloning the
/// store (taken as a campaign checkpoint, or restored from one) shares them
/// and only copies the file handle list. A write to a shared file copies
/// just that file first ([`Arc::make_mut`]), and a path change copies the
/// path table first — copy-on-write, which is what makes per-slot snapshot
/// restore cheap even with a large static file set.
#[derive(Clone, Debug, Default)]
pub struct DeviceStore {
    files: Vec<Arc<Vec<i64>>>,
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
        let cells: Vec<i64> = content.iter().map(|&b| b as i64).collect();
        self.add_file_cells(path, cells)
    }

    /// Adds (or replaces) a file with cell content; returns its id.
    pub fn add_file_cells(&mut self, path: &str, cells: Vec<i64>) -> usize {
        self.adopt_file(path, Arc::new(cells))
    }

    /// Adds (or replaces) a file whose contents stay shared with the caller
    /// — [`DeviceStore::add_file_cells`] without the copy. The slot holds
    /// the caller's `Arc`; a later write to the file detaches it first
    /// (copy-on-write), exactly as with checkpoint-shared contents. Lets a
    /// generated corpus be installed into many stores at refcount cost.
    pub fn adopt_file(&mut self, path: &str, cells: Arc<Vec<i64>>) -> usize {
        if let Some(&id) = self.by_path.get(path) {
            self.files[id] = cells;
            id
        } else {
            let id = self.files.len();
            self.files.push(cells);
            Arc::make_mut(&mut self.by_path).insert(path.to_string(), id);
            id
        }
    }

    /// Number of stored files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Content of `path`, if present.
    pub fn file(&self, path: &str) -> Option<&[i64]> {
        self.by_path.get(path).map(|&id| self.files[id].as_slice())
    }

    /// Size in cells of the file at `path`, if present.
    pub fn file_size(&self, path: &str) -> Option<usize> {
        self.file(path).map(<[i64]>::len)
    }

    /// All linked paths, sorted.
    pub fn paths(&self) -> Vec<String> {
        self.by_path.keys().cloned().collect()
    }

    /// Unlinks `path` (subsequent lookups miss); the content stays stored
    /// and can be re-linked. Returns the file id, if the path existed.
    pub fn unlink(&mut self, path: &str) -> Option<usize> {
        Arc::make_mut(&mut self.by_path).remove(path)
    }

    /// (Re-)links `path` to an existing file id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not reference a stored file.
    pub fn link(&mut self, path: &str, id: usize) {
        assert!(id < self.files.len(), "file id {id} out of range");
        Arc::make_mut(&mut self.by_path).insert(path.to_string(), id);
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
        // Clone the handle, not the cells: the transfer reads straight out
        // of the (shared) file buffer while the cost tally borrows `self`.
        let file = Arc::clone(file);
        self.cost_units += n as u64;
        // A wild destination (possible under injected faults) is a bus error.
        mem.write_block(dst, &file[off..off + n])
            .map_err(|e| Trap::BadMemory { at, addr: e.addr })?;
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
        // Copy-on-write: detach from any checkpoint sharing this file.
        let file = Arc::make_mut(file);
        let off = off as usize;
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
        assert_eq!(dev.file("/new").unwrap(), &[1, 2, 3]);
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
        dev.unlink("/a");
        dev.link("/b", id);
        dev.add_file("/c", b"c");
        assert_eq!(dev.paths(), ["/b", "/c"]);
        assert_eq!(checkpoint.paths(), ["/a"]);
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
