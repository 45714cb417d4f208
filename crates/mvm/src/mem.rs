//! Word-addressed data memory.
//!
//! The VM's memory is a flat array of `i64` cells. Addresses are cell
//! indices; there is no byte packing — strings store one character per cell.
//! This keeps pointer arithmetic in MiniC trivially predictable, which in
//! turn keeps compiled idioms canonical for the mutation-operator patterns.
//!
//! Every mutating method records which [`PAGE_CELLS`]-cell pages it touched,
//! so [`Memory::restore`] can roll back to a [`MemorySnapshot`] by copying
//! only the pages written since the last restore of that same snapshot.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cells per dirty-tracking page (4 KiB of `i64`s).
pub const PAGE_CELLS: usize = 512;

/// Number of dirty flags. Page `p` sets flag `p % DIRTY_FLAGS`, so marking a
/// store is a shift, a mask and a byte store — no bounds check and no second
/// heap pointer in the interpreter's store path. A memory of at most
/// `DIRTY_FLAGS` pages (the OS's 262,144 cells) has one flag per page; in a
/// larger one, pages `DIRTY_FLAGS` apart share a flag and a restore copies
/// all of them.
const DIRTY_FLAGS: usize = 512;

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
    dirty: [bool; DIRTY_FLAGS],
    /// Id of the snapshot this memory last restored from. Invariant: every
    /// page whose flag is clear equals that snapshot's page.
    basis: Option<u64>,
}

/// An immutable checkpoint of a [`Memory`], taken with [`Memory::snapshot`].
///
/// The id is unique per `snapshot` call and clones share it, so equal ids
/// always mean equal contents.
#[derive(Clone, Debug)]
pub struct MemorySnapshot {
    id: u64,
    cells: Vec<i64>,
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
    /// Allocates `size` zeroed cells.
    pub fn new(size: usize) -> Memory {
        Memory {
            cells: vec![0; size],
            dirty: [false; DIRTY_FLAGS],
            basis: None,
        }
    }

    #[inline]
    fn mark_page(&mut self, page: usize) {
        self.dirty[page % DIRTY_FLAGS] = true;
    }

    /// Marks every page overlapping the in-bounds cells `start..end`.
    fn mark_range(&mut self, start: usize, end: usize) {
        if start < end {
            for page in start / PAGE_CELLS..=(end - 1) / PAGE_CELLS {
                self.mark_page(page);
            }
        }
    }

    /// Marks every page as written.
    fn mark_all(&mut self) {
        self.dirty = [true; DIRTY_FLAGS];
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the memory has zero cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
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
        if values.is_empty() {
            return Ok(());
        }
        let start = usize::try_from(addr).map_err(|_| MemError { addr })?;
        if start >= self.cells.len() {
            return Err(MemError { addr });
        }
        let avail = self.cells.len() - start;
        if values.len() <= avail {
            self.cells[start..start + values.len()].copy_from_slice(values);
            self.mark_range(start, start + values.len());
            Ok(())
        } else {
            // Partial wild store: everything in bounds lands, then the
            // first out-of-bounds cell is reported (one past the end).
            self.cells[start..].copy_from_slice(&values[..avail]);
            self.mark_range(start, self.cells.len());
            Err(MemError {
                addr: self.cells.len() as i64,
            })
        }
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

    /// Zeroes every cell (fresh boot of the substrate).
    pub fn clear(&mut self) {
        self.cells.fill(0);
        self.mark_all();
    }

    /// Overwrites every cell from a same-sized memory — one `memcpy`, no
    /// reallocation.
    ///
    /// # Panics
    ///
    /// Panics if the two memories differ in size.
    pub fn copy_from(&mut self, other: &Memory) {
        self.copy_all(&other.cells);
    }

    fn copy_all(&mut self, cells: &[i64]) {
        assert_eq!(
            self.cells.len(),
            cells.len(),
            "snapshot size mismatch: {} cells vs {}",
            cells.len(),
            self.cells.len()
        );
        self.cells.copy_from_slice(cells);
        self.mark_all();
    }

    /// Checkpoints the current contents under a fresh process-wide id.
    pub fn snapshot(&self) -> MemorySnapshot {
        MemorySnapshot {
            id: NEXT_SNAPSHOT_ID.fetch_add(1, Ordering::Relaxed),
            cells: self.cells.clone(),
        }
    }

    /// Rolls every cell back to `snap` and returns how many cells were
    /// copied. This is the restore half of checkpoint/restore.
    ///
    /// When this memory last restored from the same snapshot, only the pages
    /// written since are copied back; otherwise (first restore, a different
    /// snapshot) every cell is. [`Memory::clear`] and [`Memory::copy_from`]
    /// mark every page written, so a restore after them copies everything.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot was taken from a memory of another size (a
    /// snapshot only makes sense against the machine it was taken from).
    pub fn restore(&mut self, snap: &MemorySnapshot) -> usize {
        let copied = if self.basis == Some(snap.id) {
            let mut copied = 0;
            let pages = self.cells.len().div_ceil(PAGE_CELLS);
            for (first, flag) in self.dirty.iter_mut().enumerate() {
                if !std::mem::take(flag) {
                    continue;
                }
                for page in (first..pages).step_by(DIRTY_FLAGS) {
                    let start = page * PAGE_CELLS;
                    let end = (start + PAGE_CELLS).min(self.cells.len());
                    self.cells[start..end].copy_from_slice(&snap.cells[start..end]);
                    copied += end - start;
                }
            }
            copied
        } else {
            self.copy_all(&snap.cells);
            self.cells.len()
        };
        self.dirty = [false; DIRTY_FLAGS];
        self.basis = Some(snap.id);
        copied
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
    fn copy_from_restores_snapshot_contents() {
        let mut m = Memory::new(4);
        m.write(1, 7).unwrap();
        let snap = m.clone();
        m.write(1, -1).unwrap();
        m.write(3, 9).unwrap();
        m.copy_from(&snap);
        assert_eq!(m.read(1).unwrap(), 7);
        assert_eq!(m.read(3).unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "snapshot size mismatch")]
    fn copy_from_rejects_mismatched_sizes() {
        let mut m = Memory::new(4);
        m.copy_from(&Memory::new(8));
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
        assert_eq!(m.restore(&snap), size, "first restore is a full copy");

        m.write(5, -1).unwrap();
        m.write_block(3 * PAGE_CELLS as i64 - 1, &[1, 2]).unwrap();
        assert_eq!(m.restore(&snap), 3 * PAGE_CELLS, "pages 0, 2 and 3");
        assert_eq!(m.read(5).unwrap(), 7);
        assert_eq!(m.read_block(3 * PAGE_CELLS as i64 - 1, 2).unwrap(), [0, 0]);
        assert_eq!(m.restore(&snap), 0, "nothing written since");

        let other = m.snapshot();
        assert_eq!(m.restore(&other), size, "a different snapshot");
        m.clear();
        assert_eq!(m.restore(&other), size, "after clear");
        assert_eq!(m.read(5).unwrap(), 7);
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
        let pages = DIRTY_FLAGS + 2;
        let mut m = Memory::new(pages * PAGE_CELLS);
        let snap = m.snapshot();
        m.restore(&snap);
        let far = ((DIRTY_FLAGS + 1) * PAGE_CELLS) as i64;
        m.write(far, 9).unwrap();
        assert_eq!(m.restore(&snap), 2 * PAGE_CELLS, "pages 1 and 513");
        assert_eq!(m.read(far).unwrap(), 0);
    }

    /// One step of the restore property below.
    #[derive(Clone, Debug)]
    enum Op {
        Write(i64, i64),
        WriteBlock(i64, Vec<i64>),
        WriteCstr(i64, String),
        Clear,
        CopyFrom(i64),
        Restore(bool),
    }

    /// A few pages of memory, so ops revisit pages often; block writes can
    /// start in bounds and run off the end (partial wild stores).
    const PROP_CELLS: i64 = 4 * PAGE_CELLS as i64 + 37;

    fn op() -> impl Strategy<Value = Op> {
        let addr = -2i64..PROP_CELLS + 2;
        prop_oneof![
            (addr.clone(), any::<i64>()).prop_map(|(a, v)| Op::Write(a, v)),
            (
                addr.clone(),
                proptest::collection::vec(any::<i64>(), 0..PAGE_CELLS + 40)
            )
                .prop_map(|(a, vs)| Op::WriteBlock(a, vs)),
            (addr, "[a-z]{0,12}").prop_map(|(a, s)| Op::WriteCstr(a, s)),
            Just(Op::Clear),
            any::<i64>().prop_map(Op::CopyFrom),
            any::<bool>().prop_map(Op::Restore),
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

        #[test]
        fn prop_restore_equals_a_full_copy(
            seed_a: i64,
            seed_b: i64,
            ops in proptest::collection::vec(op(), 1..40),
        ) {
            let size = PROP_CELLS as usize;
            let filled = |seed: i64| {
                let mut m = Memory::new(size);
                let cells: Vec<i64> = (0..PROP_CELLS).map(|i| seed ^ i).collect();
                m.write_block(0, &cells).unwrap();
                m
            };
            let snaps = [filled(seed_a).snapshot(), filled(seed_b).snapshot()];
            let mut m = Memory::new(size);
            for op in ops {
                match op {
                    Op::Write(a, v) => drop(m.write(a, v)),
                    Op::WriteBlock(a, vs) => drop(m.write_block(a, &vs)),
                    Op::WriteCstr(a, s) => drop(m.write_cstr(a, &s)),
                    Op::Clear => m.clear(),
                    Op::CopyFrom(seed) => m.copy_from(&filled(seed)),
                    Op::Restore(second) => {
                        let snap = &snaps[usize::from(second)];
                        let copied = m.restore(snap);
                        prop_assert!(copied <= size);
                        prop_assert_eq!(m.read_slice(0, size).unwrap(), &snap.cells[..]);
                    }
                }
            }
        }
    }
}
