//! Timestamped event queue with deterministic ordering.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An event extracted from an [`EventQueue`], paired with its firing time and
/// the monotone sequence number that broke any timestamp tie.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// The instant at which the event fires.
    pub at: SimTime,
    /// Insertion order; events scheduled earlier pop first among equal times.
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

/// A min-priority queue of events ordered by `(time, insertion order)`.
///
/// `EventQueue` tags every insertion with a monotone sequence number,
/// guaranteeing FIFO order among events scheduled for the same instant —
/// an unstable priority queue would pop simultaneous events in an
/// unspecified order and simulations would not be reproducible.
///
/// A binary heap: O(log n) push and pop with no tuning state. The queues
/// this stack drives are shallow — a serving floor holds one pending
/// completion per replica plus a few timers, because arrivals are merged
/// in front of the queue ([`Simulator::step_merged`]) instead of being
/// pushed into it — so a few comparisons per operation are all the
/// ordering costs (DESIGN.md §4.8 measures it against a calendar queue).
///
/// [`Simulator::step_merged`]: crate::Simulator::step_merged
///
/// # Example
///
/// ```
/// use skip_des::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(5), "b");
/// q.push(SimTime::from_nanos(5), "c");
/// q.push(SimTime::from_nanos(1), "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|s| s.event).collect();
/// assert_eq!(order, vec!["a", "b", "c"]);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

// Manual ordering impls: only `at` and `seq` participate, and the heap is a
// max-heap so comparisons are reversed to obtain min-first behaviour.
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
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` to fire at `at`. Returns the sequence number used
    /// for tie-breaking, which is unique per queue.
    pub fn push(&mut self, at: SimTime, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
        seq
    }

    /// Removes and returns the earliest event, FIFO among equal timestamps.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        self.heap.pop().map(|e| Scheduled {
            at: e.at,
            seq: e.seq,
            event: e.event,
        })
    }

    /// The firing time of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Discards all pending events, keeping the sequence counter monotone.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> Extend<(SimTime, E)> for EventQueue<E> {
    fn extend<I: IntoIterator<Item = (SimTime, E)>>(&mut self, iter: I) {
        for (at, event) in iter {
            self.push(at, event);
        }
    }
}

impl<E> FromIterator<(SimTime, E)> for EventQueue<E> {
    fn from_iter<I: IntoIterator<Item = (SimTime, E)>>(iter: I) -> Self {
        let mut q = EventQueue::new();
        q.extend(iter);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(q: &mut EventQueue<u32>) -> Vec<(u64, u32)> {
        std::iter::from_fn(|| q.pop())
            .map(|s| (s.at.as_nanos(), s.event))
            .collect()
    }

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), 3);
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(20), 2);
        assert_eq!(drain(&mut q), vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(SimTime::from_nanos(42), i);
        }
        let popped: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|s| s.event).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_nanos(7), 0);
        q.push(SimTime::from_nanos(3), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
    }

    #[test]
    fn len_and_clear() {
        let mut q: EventQueue<u32> = (0..5).map(|i| (SimTime::from_nanos(i), i as u32)).collect();
        assert_eq!(q.len(), 5);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        // Sequence numbers stay monotone across clear.
        let s = q.push(SimTime::ZERO, 9);
        assert_eq!(s, 5);
    }

    #[test]
    fn seq_numbers_are_unique_and_monotone() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_nanos(1), 0);
        let b = q.push(SimTime::from_nanos(1), 1);
        assert!(b > a);
    }

    #[test]
    fn push_earlier_than_cursor_rewinds() {
        // Drain forward, then push an event earlier than the last one
        // popped: the queue must still surface it first.
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(1_000_000), 1);
        assert_eq!(q.pop().unwrap().event, 1);
        q.push(SimTime::from_nanos(5), 2);
        q.push(SimTime::from_nanos(2_000_000), 3);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(5)));
        assert_eq!(drain(&mut q), vec![(5, 2), (2_000_000, 3)]);
    }

    #[test]
    fn far_future_jump_does_not_crawl_or_misorder() {
        // Events separated by huge gaps, up to the end of the clock.
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(u64::from(u32::MAX) * 1000), 2);
        q.push(SimTime::from_nanos(3), 1);
        q.push(SimTime::from_nanos(u64::MAX - 1), 3);
        assert_eq!(
            drain(&mut q),
            vec![(3, 1), (u64::from(u32::MAX) * 1000, 2), (u64::MAX - 1, 3)]
        );
    }

    #[test]
    fn resize_preserves_order_across_growth_and_shrink() {
        let mut q = EventQueue::new();
        // A deep queue with heavily colliding times.
        for i in 0..10_000u32 {
            q.push(SimTime::from_nanos(u64::from(i % 997) * 10), i);
        }
        let mut prev: Option<(SimTime, u64)> = None;
        let mut n = 0;
        while let Some(s) = q.pop() {
            if let Some(p) = prev {
                assert!((s.at, s.seq) > p, "pop order violated at {n}");
            }
            prev = Some((s.at, s.seq));
            n += 1;
        }
        assert_eq!(n, 10_000);
    }
}
