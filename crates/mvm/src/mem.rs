//! Word-addressed data memory.
//!
//! The VM's memory is a flat array of `i64` cells. Addresses are cell
//! indices; there is no byte packing — strings store one character per cell.
//! This keeps pointer arithmetic in MiniC trivially predictable, which in
//! turn keeps compiled idioms canonical for the mutation-operator patterns.
//!
//! Every mutating method flags the [`PAGE_CELLS`]-cell pages it touched
//! twice: *dirty* (written since the last restore) and *resident* (may hold
//! a non-zero cell). [`Memory::restore`] rolls back to a [`MemorySnapshot`]
//! by copying only the pages written since the last restore of that same
//! snapshot; a snapshot stores only the pages that hold a non-zero cell, and
//! [`Memory::clear`] zeroes only resident pages. A page that is never
//! written is never touched, so a fresh allocation costs no resident memory
//! beyond the pages the program actually uses.

use std::iter::StepBy;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cells per dirty-tracking page (4 KiB of `i64`s).
pub const PAGE_CELLS: usize = 512;

/// Number of flags in each per-page bitmap. Page `p` sets flag
/// `p % PAGE_FLAGS`, so marking a store is a shift, a mask and two byte
/// stores — no bounds check and no second heap pointer in the interpreter's
/// store path. A memory of at most `PAGE_FLAGS` pages (the OS's 262,144
/// cells) has one flag per page; in a larger one, pages `PAGE_FLAGS` apart
/// share a flag and are copied, zeroed and scanned together.
const PAGE_FLAGS: usize = 512;

/// Source of process-wide [`MemorySnapshot`] ids.
static NEXT_SNAPSHOT_ID: AtomicU64 = AtomicU64::new(0);

/// Flat data memory of `i64` cells.
///
/// # Example
///
/// ```
/// use mvm::Memory;
///
/// let mut m = Memory::new(16);
/// m.write(3, 42)?;
/// assert_eq!(m.read(3)?, 42);
/// assert!(m.read(99).is_err());
/// # Ok::<(), mvm::mem::MemError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Memory {
    cells: Vec<i64>,
    /// Per-page flags, set by every write since the last [`Memory::restore`].
    dirty: [bool; PAGE_FLAGS],
    /// Per-page flags, set by every write and cleared only where the pages
    /// are known to be zero again. Invariant: every page whose flag is clear
    /// holds only zeros.
    resident: [bool; PAGE_FLAGS],
    /// Id of the snapshot this memory last restored from. Invariant: every
    /// page whose dirty flag is clear equals that snapshot's page.
    basis: Option<u64>,
}

/// An immutable checkpoint of a [`Memory`], taken with [`Memory::snapshot`].
///
/// Only pages holding a non-zero cell are stored; every other page is known
/// to be zero. The id is unique per `snapshot` call and clones share it, so
/// equal ids always mean equal contents.
#[derive(Clone, Debug)]
pub struct MemorySnapshot {
    id: u64,
    /// Cells in the memory the snapshot was taken from.
    len: usize,
    /// Per page: its cells, or `None` for a page of zeros.
    pages: Vec<Option<Box<[i64]>>>,
}

impl MemorySnapshot {
    /// Number of pages stored: those that held a non-zero cell.
    pub fn stored_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }
}

/// An out-of-bounds access, carrying the faulting address.
///
/// Negative addresses are reported as `i64` so wild pointer arithmetic from
/// injected faults is visible in traces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemError {
    /// The address that missed.
    pub addr: i64,
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "memory access out of bounds at address {}", self.addr)
    }
}

impl std::error::Error for MemError {}

impl Memory {
    /// Allocates `size` zeroed cells. The allocation is left untouched
    /// until written, so unused pages cost no resident memory.
    pub fn new(size: usize) -> Memory {
        Memory {
            cells: vec![0; size],
            dirty: [false; PAGE_FLAGS],
            resident: [false; PAGE_FLAGS],
            basis: None,
        }
    }

    #[inline]
    fn mark_page(&mut self, page: usize) {
        let flag = page % PAGE_FLAGS;
        self.dirty[flag] = true;
        self.resident[flag] = true;
    }

    /// Marks every page overlapping the in-bounds cells `start..end`.
    fn mark_range(&mut self, start: usize, end: usize) {
        if start < end {
            for page in start / PAGE_CELLS..=(end - 1) / PAGE_CELLS {
                self.mark_page(page);
            }
        }
    }

    /// The pages that share flag `flag`.
    fn flag_pages(&self, flag: usize) -> StepBy<Range<usize>> {
        (flag..self.cells.len().div_ceil(PAGE_CELLS)).step_by(PAGE_FLAGS)
    }

    /// The cells of page `page` (the last page may be short).
    fn page_cells(&self, page: usize) -> Range<usize> {
        let start = page * PAGE_CELLS;
        start..(start + PAGE_CELLS).min(self.cells.len())
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the memory has zero cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Number of pages that may hold a non-zero cell: every page written
    /// since it was last known to be zero (at allocation, [`Memory::clear`],
    /// or a [`Memory::restore`] that left it zero).
    pub fn resident_pages(&self) -> usize {
        (0..PAGE_FLAGS)
            .filter(|&flag| self.resident[flag])
            .map(|flag| self.flag_pages(flag).len())
            .sum()
    }

    /// Reads the cell at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if `addr` is negative or past the end.
    pub fn read(&self, addr: i64) -> Result<i64, MemError> {
        usize::try_from(addr)
            .ok()
            .and_then(|a| self.cells.get(a))
            .copied()
            .ok_or(MemError { addr })
    }

    /// Writes `value` at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if `addr` is negative or past the end.
    #[inline]
    pub fn write(&mut self, addr: i64, value: i64) -> Result<(), MemError> {
        let a = usize::try_from(addr)
            .ok()
            .filter(|&a| a < self.cells.len())
            .ok_or(MemError { addr })?;
        self.cells[a] = value;
        self.mark_page(a / PAGE_CELLS);
        Ok(())
    }

    /// Borrows a contiguous region of memory without copying — the cheap
    /// form of [`Memory::read_block`] for callers that only inspect the
    /// cells (checksums, device transfers).
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if any cell of the range is out of bounds; the
    /// reported address is the first out-of-bounds cell, exactly as a
    /// cell-by-cell read would have reported it.
    pub fn read_slice(&self, addr: i64, len: usize) -> Result<&[i64], MemError> {
        if len == 0 {
            return Ok(&[]);
        }
        let start = usize::try_from(addr).map_err(|_| MemError { addr })?;
        if start >= self.cells.len() {
            return Err(MemError { addr });
        }
        if len > self.cells.len() - start {
            // First out-of-bounds cell: one past the end of memory.
            return Err(MemError {
                addr: self.cells.len() as i64,
            });
        }
        Ok(&self.cells[start..start + len])
    }

    /// Copies a contiguous region out of memory.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if any cell of the range is out of bounds.
    pub fn read_block(&self, addr: i64, len: usize) -> Result<Vec<i64>, MemError> {
        self.read_slice(addr, len).map(<[i64]>::to_vec)
    }

    /// Writes a contiguous region into memory.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] on the first out-of-bounds cell; earlier cells
    /// stay written (the VM traps immediately after, so partial writes model
    /// real wild-store behaviour).
    pub fn write_block(&mut self, addr: i64, values: &[i64]) -> Result<(), MemError> {
        self.store(addr, values)
    }

    /// Writes `bytes` one per cell — [`Memory::write_block`] for a device
    /// transfer out of a byte-stored file.
    ///
    /// # Errors
    ///
    /// As [`Memory::write_block`], including the partial wild store.
    pub fn write_bytes(&mut self, addr: i64, bytes: &[u8]) -> Result<(), MemError> {
        self.store(addr, bytes)
    }

    fn store<T: Copy + Into<i64>>(&mut self, addr: i64, values: &[T]) -> Result<(), MemError> {
        if values.is_empty() {
            return Ok(());
        }
        let start = usize::try_from(addr).map_err(|_| MemError { addr })?;
        if start >= self.cells.len() {
            return Err(MemError { addr });
        }
        let end = self.cells.len().min(start + values.len());
        for (cell, &v) in self.cells[start..end].iter_mut().zip(values) {
            *cell = v.into();
        }
        self.mark_range(start, end);
        if end - start < values.len() {
            // Partial wild store: everything in bounds landed; report the
            // first out-of-bounds cell (one past the end).
            return Err(MemError {
                addr: self.cells.len() as i64,
            });
        }
        Ok(())
    }

    /// Reads a NUL-terminated string (one char per cell) of at most
    /// `max_len` characters.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the scan walks out of bounds before a NUL.
    pub fn read_cstr(&self, addr: i64, max_len: usize) -> Result<String, MemError> {
        let mut s = String::new();
        for i in 0..max_len as i64 {
            let c = self.read(addr + i)?;
            if c == 0 {
                break;
            }
            s.push(char::from_u32((c as u32) & 0x10FFFF).unwrap_or('\u{FFFD}'));
        }
        Ok(s)
    }

    /// Writes `s` as one char per cell followed by a NUL.
    ///
    /// # Errors
    ///
    /// Returns [`MemError`] if the string plus terminator does not fit.
    pub fn write_cstr(&mut self, addr: i64, s: &str) -> Result<(), MemError> {
        for (i, c) in s.chars().enumerate() {
            self.write(addr + i as i64, c as i64)?;
        }
        self.write(addr + s.chars().count() as i64, 0)
    }

    /// Zeroes every cell (fresh boot of the substrate). Only resident pages
    /// are written — and marked dirty — since every other page is zero.
    pub fn clear(&mut self) {
        for flag in 0..PAGE_FLAGS {
            if std::mem::take(&mut self.resident[flag]) {
                for page in self.flag_pages(flag) {
                    let cells = self.page_cells(page);
                    self.cells[cells].fill(0);
                }
                self.dirty[flag] = true;
            }
        }
    }

    /// Checkpoints the current contents under a fresh process-wide id,
    /// storing only the pages that hold a non-zero cell. Pages whose
    /// resident flag is clear are zero and are not scanned.
    pub fn snapshot(&self) -> MemorySnapshot {
        let mut pages = vec![None; self.cells.len().div_ceil(PAGE_CELLS)];
        for flag in (0..PAGE_FLAGS).filter(|&flag| self.resident[flag]) {
            for page in self.flag_pages(flag) {
                let cells = &self.cells[self.page_cells(page)];
                if cells.iter().any(|&c| c != 0) {
                    pages[page] = Some(cells.into());
                }
            }
        }
        MemorySnapshot {
            id: NEXT_SNAPSHOT_ID.fetch_add(1, Ordering::Relaxed),
            len: self.cells.len(),
            pages,
        }
    }

    /// Rolls every cell back to `snap` and returns how many cells were
    /// written. This is the restore half of checkpoint/restore.
    ///
    /// When this memory last restored from the same snapshot, only the pages
    /// written since (including those [`Memory::clear`] zeroed) are
    /// restored; otherwise (first restore, a different snapshot) every page
    /// is. Restoring a page writes the snapshot's cells back if it stored
    /// the page, and otherwise zero-fills it only if it is resident, so the
    /// count covers the snapshot's stored pages plus the resident pages it
    /// does not store.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken from a memory of another size (a
    /// snapshot only makes sense against the machine it was taken from).
    pub fn restore(&mut self, snap: &MemorySnapshot) -> usize {
        assert_eq!(
            self.cells.len(),
            snap.len,
            "snapshot size mismatch: {} cells vs {}",
            snap.len,
            self.cells.len()
        );
        let full = self.basis != Some(snap.id);
        let mut written = 0;
        for flag in 0..PAGE_FLAGS {
            let dirty = std::mem::take(&mut self.dirty[flag]);
            if !(full || dirty) {
                continue;
            }
            let mut resident = false;
            for page in self.flag_pages(flag) {
                let cells = self.page_cells(page);
                match &snap.pages[page] {
                    Some(stored) => {
                        written += stored.len();
                        self.cells[cells].copy_from_slice(stored);
                        resident = true;
                    }
                    None if self.resident[flag] => {
                        written += cells.len();
                        self.cells[cells].fill(0);
                    }
                    None => {}
                }
            }
            self.resident[flag] = resident;
        }
        self.basis = Some(snap.id);
        written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn read_write_roundtrip() {
        let mut m = Memory::new(8);
        m.write(0, -5).unwrap();
        m.write(7, i64::MAX).unwrap();
        assert_eq!(m.read(0).unwrap(), -5);
        assert_eq!(m.read(7).unwrap(), i64::MAX);
    }

    #[test]
    fn bounds_are_enforced() {
        let mut m = Memory::new(4);
        assert_eq!(m.read(4).unwrap_err().addr, 4);
        assert_eq!(m.read(-1).unwrap_err().addr, -1);
        assert_eq!(m.write(4, 0).unwrap_err().addr, 4);
        assert_eq!(m.write(i64::MIN, 0).unwrap_err().addr, i64::MIN);
    }

    #[test]
    fn block_ops() {
        let mut m = Memory::new(10);
        m.write_block(2, &[1, 2, 3]).unwrap();
        assert_eq!(m.read_block(2, 3).unwrap(), vec![1, 2, 3]);
        assert!(m.write_block(8, &[1, 2, 3]).is_err());
        assert!(m.read_block(8, 3).is_err());
    }

    #[test]
    fn cstr_roundtrip() {
        let mut m = Memory::new(32);
        m.write_cstr(1, "hello").unwrap();
        assert_eq!(m.read_cstr(1, 31).unwrap(), "hello");
        // NUL terminates early even when max_len is larger.
        assert_eq!(m.read_cstr(1, 3).unwrap(), "hel");
    }

    #[test]
    fn cstr_too_long_fails() {
        let mut m = Memory::new(4);
        assert!(m.write_cstr(0, "toolong").is_err());
    }

    #[test]
    fn clear_zeroes() {
        let mut m = Memory::new(4);
        m.write(2, 9).unwrap();
        m.clear();
        assert_eq!(m.read(2).unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "snapshot size mismatch")]
    fn restore_rejects_mismatched_sizes() {
        let mut m = Memory::new(4);
        m.restore(&Memory::new(8).snapshot());
    }

    #[test]
    fn restore_copies_only_pages_written_since_the_last_restore() {
        let size = 8 * PAGE_CELLS;
        let mut m = Memory::new(size);
        m.write(5, 7).unwrap();
        let snap = m.snapshot();
        assert_eq!(m.restore(&snap), PAGE_CELLS, "first restore: page 0");

        m.write(5, -1).unwrap();
        m.write_block(3 * PAGE_CELLS as i64 - 1, &[1, 2]).unwrap();
        assert_eq!(m.restore(&snap), 3 * PAGE_CELLS, "pages 0, 2 and 3");
        assert_eq!(m.read(5).unwrap(), 7);
        assert_eq!(m.read_block(3 * PAGE_CELLS as i64 - 1, 2).unwrap(), [0, 0]);
        assert_eq!(m.restore(&snap), 0, "nothing written since");

        let other = m.snapshot();
        assert_eq!(m.restore(&other), PAGE_CELLS, "a different snapshot");
        m.clear();
        assert_eq!(m.restore(&other), PAGE_CELLS, "after clear: page 0");
        assert_eq!(m.read(5).unwrap(), 7);
    }

    #[test]
    fn snapshots_store_and_clear_zeroes_only_resident_pages() {
        let mut m = Memory::new(8 * PAGE_CELLS + 3);
        assert_eq!(m.resident_pages(), 0, "a fresh memory");
        m.write(2 * PAGE_CELLS as i64, 9).unwrap();
        m.write(5 * PAGE_CELLS as i64, 0).unwrap();
        m.write_bytes(8 * PAGE_CELLS as i64, &[1, 2, 3]).unwrap();
        assert_eq!(m.resident_pages(), 3, "pages 2, 5 and 8");
        let snap = m.snapshot();
        assert_eq!(snap.stored_pages(), 2, "page 5 holds only zeros");

        m.clear();
        assert_eq!(m.resident_pages(), 0);
        assert_eq!(m.read(2 * PAGE_CELLS as i64).unwrap(), 0);
        assert_eq!(m.restore(&snap), PAGE_CELLS + 3, "pages 2 and 8");
        assert_eq!(m.read_block(8 * PAGE_CELLS as i64, 3).unwrap(), [1, 2, 3]);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn write_bytes_widens_and_stores_partially_like_write_block() {
        let mut m = Memory::new(6);
        m.write_bytes(1, &[0, 255, 7]).unwrap();
        assert_eq!(m.read_block(0, 4).unwrap(), [0, 0, 255, 7]);
        assert_eq!(m.write_bytes(4, &[1, 2, 3]), Err(MemError { addr: 6 }));
        assert_eq!(m.read_block(4, 2).unwrap(), [1, 2]);
        assert_eq!(m.write_bytes(-1, &[1]), Err(MemError { addr: -1 }));
        assert_eq!(m.write_bytes(6, &[1]), Err(MemError { addr: 6 }));
        assert_eq!(m.write_bytes(99, &[]), Ok(()));
    }

    #[test]
    fn partial_wild_store_marks_the_cells_it_wrote() {
        let mut m = Memory::new(2 * PAGE_CELLS);
        let snap = m.snapshot();
        m.restore(&snap);
        let last = 2 * PAGE_CELLS as i64 - 1;
        assert!(m.write_block(last, &[4, 5, 6]).is_err());
        assert_eq!(m.read(last).unwrap(), 4);
        assert_eq!(m.restore(&snap), PAGE_CELLS);
        assert_eq!(m.read(last).unwrap(), 0);
    }

    #[test]
    fn pages_sharing_a_flag_are_all_restored() {
        let pages = PAGE_FLAGS + 2;
        let mut m = Memory::new(pages * PAGE_CELLS);
        let snap = m.snapshot();
        m.restore(&snap);
        let far = ((PAGE_FLAGS + 1) * PAGE_CELLS) as i64;
        m.write(far, 9).unwrap();
        assert_eq!(m.restore(&snap), 2 * PAGE_CELLS, "pages 1 and 513");
        assert_eq!(m.read(far).unwrap(), 0);
    }

    /// One step of the restore property below.
    #[derive(Clone, Debug)]
    enum Op {
        Write(i64, i64),
        WriteBlock(i64, Vec<i64>),
        WriteBytes(i64, Vec<u8>),
        WriteCstr(i64, String),
        /// Writes a page back to all zeros.
        ZeroPage(usize),
        Clear,
        Snapshot,
        Restore(usize),
    }

    /// Two pages more than there are flags, plus a short last page, so
    /// pages 0–2 share their flags with pages 512–514.
    const PROP_PAGES: usize = PAGE_FLAGS + 3;
    const PROP_CELLS: i64 = ((PROP_PAGES - 1) * PAGE_CELLS + 37) as i64;

    /// Addresses in the low pages, in the pages sharing their flags, and
    /// around both ends, so ops revisit pages and flags often; block
    /// writes can start in bounds and run off the end (partial wild
    /// stores).
    fn addr() -> impl Strategy<Value = i64> {
        let shared = (PAGE_FLAGS * PAGE_CELLS) as i64;
        prop_oneof![-2i64..0, 0..4 * PAGE_CELLS as i64, shared..PROP_CELLS + 2]
    }

    fn op() -> impl Strategy<Value = Op> {
        let page = prop_oneof![0usize..4, PAGE_FLAGS..PROP_PAGES];
        prop_oneof![
            (addr(), any::<i64>()).prop_map(|(a, v)| Op::Write(a, v)),
            (
                addr(),
                proptest::collection::vec(any::<i64>(), 0..PAGE_CELLS + 40)
            )
                .prop_map(|(a, vs)| Op::WriteBlock(a, vs)),
            (addr(), proptest::collection::vec(any::<u8>(), 0..80))
                .prop_map(|(a, bs)| Op::WriteBytes(a, bs)),
            (addr(), "[a-z]{0,12}").prop_map(|(a, s)| Op::WriteCstr(a, s)),
            page.prop_map(Op::ZeroPage),
            Just(Op::Clear),
            Just(Op::Snapshot),
            any::<usize>().prop_map(Op::Restore),
        ]
    }

    proptest! {
        #[test]
        fn prop_write_then_read(addr in 0i64..64, v: i64) {
            let mut m = Memory::new(64);
            m.write(addr, v).unwrap();
            prop_assert_eq!(m.read(addr).unwrap(), v);
        }

        #[test]
        fn prop_cstr_roundtrip(s in "[a-zA-Z0-9 /._-]{0,30}") {
            let mut m = Memory::new(64);
            m.write_cstr(0, &s).unwrap();
            prop_assert_eq!(m.read_cstr(0, 63).unwrap(), s);
        }

        /// Restoring any snapshot, taken of any state, leaves memory equal
        /// to a full copy of the cells at the time it was taken.
        #[test]
        fn prop_restore_equals_a_full_copy(
            seed_a: i64,
            seed_b: i64,
            ops in proptest::collection::vec(op(), 1..40),
        ) {
            let size = PROP_CELLS as usize;
            let full_copy = |m: &Memory| m.read_slice(0, size).unwrap().to_vec();
            let filled = |seed: i64| {
                let mut m = Memory::new(size);
                let low: Vec<i64> = (0..3 * PAGE_CELLS as i64).map(|i| seed ^ i).collect();
                m.write_block(0, &low).unwrap();
                let shared = PAGE_FLAGS * PAGE_CELLS;
                m.write_block(shared as i64, &low[..size - shared]).unwrap();
                (m.snapshot(), full_copy(&m))
            };
            let mut snaps = vec![filled(seed_a), filled(seed_b)];
            let mut m = Memory::new(size);
            for op in ops {
                match op {
                    Op::Write(a, v) => drop(m.write(a, v)),
                    Op::WriteBlock(a, vs) => drop(m.write_block(a, &vs)),
                    Op::WriteBytes(a, bs) => drop(m.write_bytes(a, &bs)),
                    Op::WriteCstr(a, s) => drop(m.write_cstr(a, &s)),
                    Op::ZeroPage(p) => {
                        let len = PAGE_CELLS.min(size - p * PAGE_CELLS);
                        m.write_block((p * PAGE_CELLS) as i64, &vec![0; len]).unwrap();
                    }
                    Op::Clear => {
                        m.clear();
                        prop_assert_eq!(m.resident_pages(), 0);
                        prop_assert!(m.read_slice(0, size).unwrap().iter().all(|&c| c == 0));
                    }
                    Op::Snapshot => snaps.push((m.snapshot(), full_copy(&m))),
                    Op::Restore(i) => {
                        let (snap, cells) = &snaps[i % snaps.len()];
                        let written = m.restore(snap);
                        prop_assert!(written <= size);
                        prop_assert_eq!(m.read_slice(0, size).unwrap(), &cells[..]);
                        prop_assert!(snap.stored_pages() <= m.resident_pages());
                    }
                }
            }
        }
    }
}
