//! A stable, deterministic event queue.
//!
//! Events scheduled for the same instant are delivered in insertion order
//! (FIFO), which keeps simulations reproducible regardless of how the
//! underlying heap happens to tie-break.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A timestamped event queue with FIFO tie-breaking.
///
/// The queue is the core of the discrete-event loop: producers
/// [`schedule`](EventQueue::schedule) events at future instants and the driver
/// repeatedly [`pop`](EventQueue::pop)s the earliest one, advancing the clock
/// to its timestamp.
///
/// # Example
///
/// ```
/// use simkit::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_micros(10), 'b');
/// q.schedule(SimTime::from_micros(10), 'c');
/// q.schedule(SimTime::from_micros(5), 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, within one
        // instant, the first-inserted) entry surfaces first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulated instant — the timestamp of the last event popped.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` for instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`now`](EventQueue::now): an event may
    /// not be scheduled in the past.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past ({at} < {})",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is drained.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops every pending event, keeping the clock where it is.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), 3);
        q.schedule(SimTime::from_micros(10), 1);
        q.schedule(SimTime::from_micros(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert!(q.pop().is_none());
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_micros(42), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(7));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_events_in_the_past() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(10), ());
        q.pop();
        q.schedule(SimTime::from_micros(5), ());
    }

    #[test]
    fn peek_and_len_observe_without_mutation() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_micros(10), ());
        q.schedule(SimTime::from_micros(4), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(4)));
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
    }

    proptest! {
        /// Pop order equals a stable sort of the scheduled (time, insertion
        /// index) pairs, for any batch of offsets.
        #[test]
        fn prop_pop_is_stable_sort(offsets in proptest::collection::vec(0u64..50, 1..200)) {
            let mut q = EventQueue::new();
            for (i, &off) in offsets.iter().enumerate() {
                q.schedule(SimTime::from_micros(off), i);
            }
            let mut expect: Vec<(u64, usize)> =
                offsets.iter().copied().zip(0..).collect();
            expect.sort_by_key(|&(t, _)| t); // stable sort keeps insertion order
            let got: Vec<(u64, usize)> =
                std::iter::from_fn(|| q.pop().map(|(t, i)| (t.as_micros(), i))).collect();
            prop_assert_eq!(got, expect);
        }
    }
}
