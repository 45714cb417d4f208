//! A counting global allocator, shared by the contract tests that bound
//! how much memory a read or a write holds at once.
//!
//! Bytes are counted per thread, so tests running in parallel do not
//! disturb one another.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes each thread holds through [`System`].
struct Counting;

thread_local! {
    /// Bytes this thread has allocated and not freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The most `LIVE` has been since [`peak_of`] last reset it.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every call is forwarded to `System` unchanged; the counters are
// thread-local cells with no destructor, so updating them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        unsafe { System.dealloc(p, layout) };
        track(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            track(new_size as isize - layout.size() as isize);
        }
        q
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The most bytes `f` held at once, beyond what the thread held before.
pub fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    let peak = PEAK.with(Cell::get);
    (out, (peak - base) as usize)
}
