//! Property-based tests for the DES core invariants.

use proptest::prelude::*;
use skip_des::{EventQueue, FifoResource, SimContext, SimDuration, SimTime, Simulator};

/// An event of the merge property: a source event, a timer scheduled
/// before the loop starts, or a follow-up one scheduled by a handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Source { i: usize, fanout: u32, delay: u64 },
    Timer,
    FollowUp { i: usize, k: u32 },
    Echo { i: usize, k: u32 },
}

/// Records `ev` at the current instant and schedules its follow-ups.
fn handle(ctx: &mut SimContext<'_, Ev>, ev: Ev, seen: &mut Vec<(u64, Ev)>) {
    seen.push((ctx.now().as_nanos(), ev));
    match ev {
        Ev::Source { i, fanout, delay } => {
            for k in 0..fanout {
                ctx.schedule(
                    ctx.now() + SimDuration::from_nanos(delay),
                    Ev::FollowUp { i, k },
                );
            }
        }
        Ev::FollowUp { i, k } if k % 2 == 0 => ctx.schedule(ctx.now(), Ev::Echo { i, k }),
        Ev::Timer | Ev::FollowUp { .. } | Ev::Echo { .. } => {}
    }
}

proptest! {
    /// Merging a time-ordered source in front of the queue
    /// ([`Simulator::step_merged`]) handles the same `(time, event)`
    /// sequence as pushing the whole source into the queue before anything
    /// else and running it.
    ///
    /// Each source step is `(gap, fanout, delay)`: the event fires `gap`
    /// nanoseconds after the previous one (`gap == 0`, a tie, is common),
    /// and its handler schedules `fanout` follow-ups `delay` nanoseconds
    /// later (`delay == 0` schedules at `now`). Every even follow-up
    /// schedules one more event at `now`, so ties between source events,
    /// queued events and events scheduled at the current instant all
    /// occur. A timer at `timer` is scheduled outside the loop, as a
    /// floor schedules its first scale tick: after the whole source when
    /// it is pushed, before the first step when it is merged.
    #[test]
    fn merged_source_matches_pushing_it_first(
        steps in prop::collection::vec((0u64..3, 0u32..3, 0u64..3), 1..200),
        timer in 0u64..200
    ) {
        let mut at = 0u64;
        let source: Vec<(SimTime, Ev)> = steps
            .iter()
            .enumerate()
            .map(|(i, &(gap, fanout, delay))| {
                at += gap;
                (SimTime::from_nanos(at), Ev::Source { i, fanout, delay })
            })
            .collect();

        let mut pushed = Simulator::new();
        for &(t, ev) in &source {
            pushed.schedule(t, ev);
        }
        pushed.schedule(SimTime::from_nanos(timer), Ev::Timer);
        let mut want = Vec::new();
        pushed.run(|ctx, ev| handle(ctx, ev, &mut want));

        let mut merged = Simulator::new();
        merged.schedule(SimTime::from_nanos(timer), Ev::Timer);
        let mut src = source.iter().copied().peekable();
        let mut got = Vec::new();
        while merged.step_merged(&mut src, |ctx, ev| handle(ctx, ev, &mut got)) {}

        prop_assert_eq!(got, want);
        prop_assert_eq!(merged.now(), pushed.now());
        prop_assert_eq!(merged.events_processed(), pushed.events_processed());
    }

    /// Schedule-at-`now` from inside a handler: a handler that re-schedules
    /// `fanout` immediate events must observe them at the same instant, in
    /// the order it scheduled them, before any later-time event fires.
    #[test]
    fn schedule_at_now_fires_fifo_before_later_events(fanout in 1usize..20) {
        let mut sim = Simulator::new();
        sim.schedule(SimTime::from_nanos(10), usize::MAX); // the trigger
        sim.schedule(SimTime::from_nanos(11), usize::MAX - 1); // a later event
        let mut seen: Vec<(u64, usize)> = Vec::new();
        sim.run(|ctx, ev: usize| {
            if ev == usize::MAX {
                for k in 0..fanout {
                    ctx.schedule(ctx.now(), k);
                }
            }
            seen.push((ctx.now().as_nanos(), ev));
        });
        let mut expect = vec![(10, usize::MAX)];
        expect.extend((0..fanout).map(|k| (10, k)));
        expect.push((11, usize::MAX - 1));
        prop_assert_eq!(seen, expect);
    }

    /// Events always pop in non-decreasing time order regardless of
    /// insertion order, and FIFO among ties.
    #[test]
    fn queue_pops_in_time_order(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last: Option<(SimTime, u64)> = None;
        while let Some(s) = q.pop() {
            if let Some((lt, lseq)) = last {
                prop_assert!(s.at > lt || (s.at == lt && s.seq > lseq),
                    "ordering violated: {:?} after {:?}", (s.at, s.seq), (lt, lseq));
            }
            last = Some((s.at, s.seq));
        }
    }

    /// The simulator clock is monotone for any event cascade.
    #[test]
    fn simulator_clock_monotone(delays in proptest::collection::vec(0u64..100, 1..100)) {
        let mut sim = Simulator::new();
        for (i, &d) in delays.iter().enumerate() {
            sim.schedule(SimTime::from_nanos(d), i);
        }
        let mut last = SimTime::ZERO;
        sim.run(|ctx, _| {
            assert!(ctx.now() >= last);
            last = ctx.now();
        });
    }

    /// FIFO resource invariants: each unit starts no earlier than it is
    /// available nor before the previous unit ends, and runs exactly its
    /// duration.
    #[test]
    fn fifo_resource_invariants(
        work in proptest::collection::vec((0u64..10_000, 0u64..500), 1..100)
    ) {
        let mut r = FifoResource::new();
        let mut last_avail = 0u64;
        let mut prev_end = SimTime::ZERO;
        for (gap, dur) in work {
            // Availability must be non-decreasing (serial submitter).
            last_avail += gap;
            let busy = r.admit(SimTime::from_nanos(last_avail), SimDuration::from_nanos(dur));
            prop_assert!(busy.start >= SimTime::from_nanos(last_avail));
            prop_assert!(busy.start >= prev_end);
            prop_assert_eq!(busy.end.duration_since(busy.start), SimDuration::from_nanos(dur));
            prev_end = busy.end;
        }
    }

    /// Percentile is always an element of the input and bounded by min/max.
    #[test]
    fn percentile_within_bounds(
        xs in proptest::collection::vec(0u64..1_000_000, 1..100),
        p in 0.0f64..100.0
    ) {
        let xs: Vec<f64> = xs.into_iter().map(|v| v as f64).collect();
        let v = skip_des::percentile(&xs, p);
        prop_assert!(xs.contains(&v));
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= min && v <= max);
    }
}
