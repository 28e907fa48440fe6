//! Serial FIFO resources — the queueing primitive behind GPU streams.
//!
//! A CUDA stream executes kernels strictly in submission order; a kernel
//! starts at the later of (a) the instant it becomes available to the stream
//! and (b) the instant the previous kernel finishes. [`FifoResource`]
//! captures exactly that admission rule and nothing more: it remembers only
//! when it next falls free.

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// One busy interval on a [`FifoResource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Busy {
    /// Start of the interval.
    pub start: SimTime,
    /// End of the interval (exclusive).
    pub end: SimTime,
}

/// A serial first-come-first-served resource.
///
/// # Example
///
/// ```
/// use skip_des::{FifoResource, SimDuration, SimTime};
///
/// let mut stream = FifoResource::new();
/// // First kernel arrives at t=10 and runs 100ns.
/// let a = stream.admit(SimTime::from_nanos(10), SimDuration::from_nanos(100));
/// assert_eq!(a.start, SimTime::from_nanos(10));
/// // Second arrives at t=20 but must queue behind the first.
/// let b = stream.admit(SimTime::from_nanos(20), SimDuration::from_nanos(50));
/// assert_eq!(b.start, SimTime::from_nanos(110));
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FifoResource {
    free_at: SimTime,
}

impl FifoResource {
    /// Creates a resource that is free from the simulation epoch.
    #[must_use]
    pub fn new() -> Self {
        FifoResource::default()
    }

    /// Admits a unit of work that becomes available at `available` and takes
    /// `duration` to execute. Returns the busy interval assigned to it.
    ///
    /// Admission order is the caller's responsibility: calls must be made in
    /// the order work is submitted (as a CPU thread launches kernels), which
    /// is naturally the case when driven from a simulation event loop.
    pub fn admit(&mut self, available: SimTime, duration: SimDuration) -> Busy {
        let start = available.max(self.free_at);
        let end = start + duration;
        self.free_at = end;
        Busy { start, end }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> SimTime {
        SimTime::from_nanos(v)
    }
    fn d(v: u64) -> SimDuration {
        SimDuration::from_nanos(v)
    }

    #[test]
    fn back_to_back_work_queues() {
        let mut r = FifoResource::new();
        let a = r.admit(ns(0), d(10));
        let b = r.admit(ns(0), d(10));
        assert_eq!(a.end, ns(10));
        assert_eq!(b.start, ns(10));
        assert_eq!(b.end, ns(20));
    }

    #[test]
    fn idle_gap_when_work_arrives_late() {
        let mut r = FifoResource::new();
        r.admit(ns(0), d(10));
        let b = r.admit(ns(50), d(5));
        assert_eq!(b.start, ns(50));
        assert_eq!(b.end, ns(55));
    }

    #[test]
    fn intervals_are_in_order_and_disjoint() {
        let mut r = FifoResource::new();
        let iv: Vec<Busy> = (0..10).map(|i| r.admit(ns(i * 3), d(5))).collect();
        for w in iv.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
    }
}
