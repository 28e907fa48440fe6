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
    source_next: Option<SimTime>,
    queue: &'a mut EventQueue<E>,
}

impl<E> SimContext<'_, E> {
    /// The current simulated instant (the firing time of the event being
    /// handled).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// When the merged source's next event fires: set by
    /// [`Simulator::step_merged`], which draws the source one event ahead
    /// of the handler. `None` once the source is exhausted, and always
    /// under [`Simulator::step`], [`Simulator::run`] and
    /// [`Simulator::run_until`]. A handler cannot peek the source itself:
    /// `step_merged` holds it while the handler runs.
    #[must_use]
    pub fn source_next(&self) -> Option<SimTime> {
        self.source_next
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
        self.step_queue(None, handler)
    }

    /// [`step`](Self::step), telling the handler when the merged source
    /// fires next.
    fn step_queue<F>(&mut self, source_next: Option<SimTime>, handler: F) -> bool
    where
        F: FnMut(&mut SimContext<'_, E>, E),
    {
        let Some(Scheduled { at, event, .. }) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "event queue yielded a past event");
        self.fire(at, event, source_next, handler);
        true
    }

    /// Handles the earlier of `source`'s next event and the queue's head,
    /// advancing the clock to its time. Returns `false` once both are
    /// exhausted.
    ///
    /// `source` is a time-ordered stream of events that were never
    /// pushed — a workload's arrivals, say. Merging it in front of the
    /// queue keeps the queue as deep as what handlers schedule, not as deep
    /// as the whole stream. The stream is drawn one event ahead: before the
    /// handler runs, the source is peeked past the event being fired, and
    /// [`SimContext::source_next`] reports when its next event comes. On a
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
        let source_at = source.peek().map(|&(at, _)| at);
        let source_first = match (source_at, self.queue.peek_time()) {
            (Some(at), Some(head)) => at <= head,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if !source_first {
            return self.step_queue(source_at, handler);
        }
        let (at, event) = source.next().expect("peeked a source event");
        assert!(
            at >= self.now,
            "merged source is not time-ordered: {at} < {now}",
            now = self.now
        );
        let next = source.peek().map(|&(at, _)| at);
        self.fire(at, event, next, handler);
        true
    }

    /// Advances the clock to `at` and hands `event` to `handler`.
    fn fire<F>(&mut self, at: SimTime, event: E, source_next: Option<SimTime>, mut handler: F)
    where
        F: FnMut(&mut SimContext<'_, E>, E),
    {
        self.now = at;
        self.processed += 1;
        let mut ctx = SimContext {
            now: at,
            source_next,
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

    /// `source_next` is the instant of the source's next event after the
    /// one being fired, whether the fired event came from the source or the
    /// queue; a source event tied with the one firing reports that instant.
    #[test]
    fn source_next_reports_the_next_source_event_on_a_tie() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::from_nanos(10), "queued@10");
        sim.schedule(SimTime::from_nanos(15), "queued@15");
        let mut source = [(10, "source@10"), (10, "source@10b"), (20, "source@20")]
            .into_iter()
            .map(|(t, e)| (SimTime::from_nanos(t), e))
            .peekable();
        let mut seen = Vec::new();
        while sim.step_merged(&mut source, |ctx, ev| {
            seen.push((ev, ctx.source_next().map(SimTime::as_nanos)));
        }) {}
        assert_eq!(
            seen,
            [
                ("source@10", Some(10)),
                ("source@10b", Some(20)),
                ("queued@10", Some(20)),
                ("queued@15", Some(20)),
                ("source@20", None),
            ]
        );
    }

    /// Once the source is exhausted, queue events see `None`.
    #[test]
    fn source_next_is_none_after_the_source_is_exhausted() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::from_nanos(30), 1u32);
        let mut source = std::iter::once((SimTime::from_nanos(5), 0u32)).peekable();
        let mut seen = Vec::new();
        while sim.step_merged(&mut source, |ctx, ev| {
            seen.push((ev, ctx.source_next()));
            if ev == 0 {
                ctx.schedule(SimTime::from_nanos(7), 2);
            }
        }) {}
        assert_eq!(seen, [(0, None), (2, None), (1, None)]);
    }

    /// Plain `step` (and so `run` and `run_until`) has no source.
    #[test]
    fn source_next_is_none_under_plain_step() {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::from_nanos(5), ());
        sim.schedule(SimTime::from_nanos(9), ());
        let mut seen = Vec::new();
        assert!(sim.step(|ctx, ()| seen.push(ctx.source_next())));
        sim.run(|ctx, ()| seen.push(ctx.source_next()));
        assert_eq!(seen, [None, None]);
    }

    #[test]
    fn step_on_empty_returns_false() {
        let mut sim: Simulator<()> = Simulator::new();
        assert!(!sim.step(|_, _| {}));
    }
}
