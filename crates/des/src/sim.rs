//! The event loop: a clock plus an [`EventQueue`], driven by a handler.

use std::iter::Peekable;

use crate::event::{EventQueue, Scheduled};
use crate::time::SimTime;

/// A discrete-event simulator: a monotone clock and a pending-event queue.
///
/// The handler passed to [`Simulator::run`] receives each event together with
/// a [`SimContext`] through which it can read the clock and schedule further
/// events. The clock never moves backwards; scheduling an event in the past
/// is a logic error and panics.
///
/// # Example
///
/// ```
/// use skip_des::{SimDuration, SimTime, Simulator};
///
/// #[derive(Debug)]
/// enum Ev { Ping(u32) }
///
/// let mut sim = Simulator::new();
/// sim.schedule(SimTime::ZERO, Ev::Ping(0));
/// let mut last = 0;
/// sim.run(|ctx, Ev::Ping(n)| {
///     last = n;
///     if n < 3 {
///         ctx.schedule(ctx.now() + SimDuration::from_nanos(10), Ev::Ping(n + 1));
///     }
/// });
/// assert_eq!(last, 3);
/// assert_eq!(sim.now(), SimTime::from_nanos(30));
/// ```
#[derive(Debug, Clone)]
pub struct Simulator<E> {
    now: SimTime,
    queue: EventQueue<E>,
    processed: u64,
}

/// Handle given to event handlers for reading the clock and scheduling
/// follow-up events.
#[derive(Debug)]
pub struct SimContext<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<E> SimContext<'_, E> {
    /// The current simulated instant (the firing time of the event being
    /// handled).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current instant.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {now}",
            now = self.now
        );
        self.queue.push(at, event);
    }
}

impl<E> Simulator<E> {
    /// Creates a simulator with the clock at [`SimTime::ZERO`] and no
    /// pending events.
    #[must_use]
    pub fn new() -> Self {
        Simulator {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            processed: 0,
        }
    }

    /// The current simulated instant.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events handled so far.
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` at instant `at` from outside the event loop.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current instant.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {now}",
            now = self.now
        );
        self.queue.push(at, event);
    }

    /// Pops and handles a single event, advancing the clock to its firing
    /// time. Returns `false` if the queue was empty.
    pub fn step<F>(&mut self, handler: F) -> bool
    where
        F: FnMut(&mut SimContext<'_, E>, E),
    {
        let Some(Scheduled { at, event, .. }) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "event queue yielded a past event");
        self.fire(at, event, handler);
        true
    }

    /// Handles the earlier of `source`'s next event and the queue's head,
    /// advancing the clock to its time. Returns `false` once both are
    /// exhausted.
    ///
    /// `source` is a time-ordered stream of events that were never
    /// pushed — a workload's arrivals, say. Merging it in front of the
    /// queue keeps the queue as deep as what handlers schedule, not as deep
    /// as the whole stream, and draws the stream one event at a time. On a
    /// time tie the source's event fires first, so the order is exactly
    /// the one pushing the whole source before anything else would give:
    /// its events would hold the lowest sequence numbers.
    ///
    /// # Panics
    ///
    /// Panics if `source` yields an event earlier than the clock (it is
    /// not time-ordered).
    pub fn step_merged<I, F>(&mut self, source: &mut Peekable<I>, handler: F) -> bool
    where
        I: Iterator<Item = (SimTime, E)>,
        F: FnMut(&mut SimContext<'_, E>, E),
    {
        let source_first = match (source.peek(), self.queue.peek_time()) {
            (Some(&(at, _)), Some(head)) => at <= head,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if !source_first {
            return self.step(handler);
        }
        let (at, event) = source.next().expect("peeked a source event");
        assert!(
            at >= self.now,
            "merged source is not time-ordered: {at} < {now}",
            now = self.now
        );
        self.fire(at, event, handler);
        true
    }

    /// Advances the clock to `at` and hands `event` to `handler`.
    fn fire<F>(&mut self, at: SimTime, event: E, mut handler: F)
    where
        F: FnMut(&mut SimContext<'_, E>, E),
    {
        self.now = at;
        self.processed += 1;
        let mut ctx = SimContext {
            now: at,
            queue: &mut self.queue,
        };
        handler(&mut ctx, event);
    }

    /// Runs until the queue drains, returning the final clock value.
    pub fn run<F>(&mut self, mut handler: F) -> SimTime
    where
        F: FnMut(&mut SimContext<'_, E>, E),
    {
        while self.step(&mut handler) {}
        self.now
    }

    /// Runs until the queue drains or the next event would fire after
    /// `horizon` (exclusive), returning the final clock value. Events at or
    /// beyond the horizon remain queued.
    pub fn run_until<F>(&mut self, horizon: SimTime, mut handler: F) -> SimTime
    where
        F: FnMut(&mut SimContext<'_, E>, E),
    {
        while let Some(t) = self.queue.peek_time() {
            if t >= horizon {
                break;
            }
            self.step(&mut handler);
        }
        self.now
    }
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Simulator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn clock_advances_with_events() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::from_nanos(10), 1u32);
        sim.schedule(SimTime::from_nanos(20), 2u32);
        let mut seen = Vec::new();
        sim.run(|ctx, ev| seen.push((ctx.now().as_nanos(), ev)));
        assert_eq!(seen, vec![(10, 1), (20, 2)]);
        assert_eq!(sim.now(), SimTime::from_nanos(20));
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn handlers_can_cascade() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::ZERO, 0u32);
        let mut count = 0;
        sim.run(|ctx, depth| {
            count += 1;
            if depth < 5 {
                ctx.schedule(ctx.now() + SimDuration::from_nanos(1), depth + 1);
            }
        });
        assert_eq!(count, 6);
        assert_eq!(sim.now(), SimTime::from_nanos(5));
    }

    #[test]
    fn run_until_leaves_future_events_queued() {
        let mut sim = Simulator::new();
        for t in [5u64, 15, 25] {
            sim.schedule(SimTime::from_nanos(t), t);
        }
        let mut fired = Vec::new();
        sim.run_until(SimTime::from_nanos(20), |_, ev| fired.push(ev));
        assert_eq!(fired, vec![5, 15]);
        assert_eq!(sim.pending(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::from_nanos(10), ());
        sim.run(|ctx, ()| {
            ctx.schedule(SimTime::from_nanos(5), ());
        });
    }

    #[test]
    fn merged_source_wins_ties_and_advances_the_clock() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::from_nanos(10), "queued@10");
        let mut source = [(10, "source@10"), (20, "source@20")]
            .into_iter()
            .map(|(t, e)| (SimTime::from_nanos(t), e))
            .peekable();
        let mut seen = Vec::new();
        while sim.step_merged(&mut source, |ctx, ev| {
            if ev == "source@10" {
                ctx.schedule(ctx.now(), "scheduled@10");
            }
            seen.push(ev);
        }) {}
        assert_eq!(
            seen,
            ["source@10", "queued@10", "scheduled@10", "source@20"]
        );
        assert_eq!(sim.now(), SimTime::from_nanos(20));
        assert_eq!(sim.events_processed(), 4);
    }

    #[test]
    #[should_panic(expected = "merged source is not time-ordered")]
    fn merged_source_out_of_order_panics() {
        let mut sim: Simulator<u32> = Simulator::new();
        let mut source = [(5, 0u32), (3, 1)]
            .into_iter()
            .map(|(t, e)| (SimTime::from_nanos(t), e))
            .peekable();
        while sim.step_merged(&mut source, |_, _| {}) {}
    }

    #[test]
    fn step_on_empty_returns_false() {
        let mut sim: Simulator<()> = Simulator::new();
        assert!(!sim.step(|_, _| {}));
    }
}
