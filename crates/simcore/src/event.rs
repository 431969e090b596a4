//! Deterministic event queue.
//!
//! The queue is generic over the event payload so each simulation defines its
//! own event enum and drives the loop itself:
//!
//! ```
//! use simcore::{EventQueue, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Tick, Done }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_micros(10), Ev::Tick);
//! q.schedule(SimTime::from_micros(20), Ev::Done);
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t.as_micros(), ev), (10, Ev::Tick));
//! ```
//!
//! Events scheduled for the same instant are delivered in insertion order
//! (FIFO), which keeps runs bit-for-bit reproducible.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A time-ordered, FIFO-tie-broken event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
}

#[derive(Debug)]
struct Entry<E> {
    key: Reverse<(SimTime, u64)>,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
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

    /// The current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the queue.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the caller; the event is
    /// clamped to `now` so time never runs backwards.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        self.seq += 1;
        self.heap.push(Entry {
            key: Reverse((at, self.seq)),
            event,
        });
    }

    /// Pops the earliest event and advances the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        let Reverse((t, _)) = entry.key;
        self.now = t;
        Some((t, entry.event))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.key.0 .0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(30), "c");
        q.schedule(SimTime::from_micros(10), "a");
        q.schedule(SimTime::from_micros(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(42));
    }

    #[test]
    fn scheduling_in_the_past_is_clamped_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_micros(100), "late");
        q.pop();
        q.schedule(SimTime::from_micros(1), "early");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "early");
        assert_eq!(t, SimTime::from_micros(100));
    }
}
