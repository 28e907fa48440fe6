//! Early-abort stop conditions: budgets that let a simulation stop the
//! moment its outcome is decided.
//!
//! A planner scoring hundreds of candidate fleets does not need the full
//! run of a candidate that has already blown its SLO attainment floor or
//! already bills more than a known-better incumbent — both quantities are
//! monotone in simulated time, so the verdict at the abort instant is the
//! verdict of the full run. [`StopCondition`] carries those budgets into
//! the fleet floor (`simulate_fleet_bounded`); a run stopped by one
//! returns a truncated-but-honest report with its `aborted` flag set,
//! which callers must never count as a completed envelope.

use skip_des::SimDuration;

use crate::observe::SloTargets;

/// Budgets after which a bounded simulation run aborts.
///
/// All fields are *exceed* thresholds: the run stops once a counter goes
/// strictly above its budget, so a budget of `k` misses tolerates exactly
/// `k` of them. [`StopCondition::UNBOUNDED`] (all `None`) reproduces the
/// unbounded run byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StopCondition {
    /// Abort once more than this many completed requests missed the TTFT
    /// target. `None` leaves the axis unbounded.
    pub ttft_miss_budget: Option<u32>,
    /// Abort once more than this many completed requests missed the
    /// end-to-end target. `None` leaves the axis unbounded.
    pub e2e_miss_budget: Option<u32>,
    /// Abort once accrued replica-seconds exceed this ceiling — the run
    /// provably bills more than the incumbent it competes with. `None`
    /// leaves cost unbounded.
    pub cost_ceiling: Option<f64>,
}

impl StopCondition {
    /// No budgets: the bounded runners degenerate to the unbounded run.
    pub const UNBOUNDED: StopCondition = StopCondition {
        ttft_miss_budget: None,
        e2e_miss_budget: None,
        cost_ceiling: None,
    };

    /// `true` when no budget is set and the run can use the fast
    /// no-bookkeeping event loop.
    #[must_use]
    pub fn is_unbounded(&self) -> bool {
        *self == Self::UNBOUNDED
    }

    /// Miss budgets equivalent to "attainment on every set axis of `slo`
    /// must reach `floor` over `requests` completions": each set axis gets
    /// [`allowed_misses`]`(requests, floor)`; unset axes stay unbounded.
    #[must_use]
    pub fn for_attainment(requests: u32, floor: f64, slo: SloTargets) -> Self {
        let allowed = allowed_misses(requests, floor);
        StopCondition {
            ttft_miss_budget: slo.ttft.map(|_| allowed),
            e2e_miss_budget: slo.e2e.map(|_| allowed),
            cost_ceiling: None,
        }
    }
}

/// The largest miss count `m` such that completing `requests - m` of
/// `requests` requests within target still clears `floor` under the exact
/// `met as f64 / requests as f64 >= floor` division
/// [`SloReport::evaluate`](crate::observe::SloReport::evaluate) performs.
///
/// Computed against that float predicate rather than by rounding, so an
/// abort decision can never disagree with the final report's attainment
/// check.
#[must_use]
pub fn allowed_misses(requests: u32, floor: f64) -> u32 {
    if requests == 0 {
        return 0;
    }
    let n = f64::from(requests);
    let clears = |misses: u32| f64::from(requests - misses) / n >= floor;
    let mut m = (((1.0 - floor) * n).floor().max(0.0) as u32).min(requests);
    while m > 0 && !clears(m) {
        m -= 1;
    }
    while m < requests && clears(m + 1) {
        m += 1;
    }
    m
}

/// Incremental miss/cost bookkeeping for one bounded run. The floors feed
/// it each newly-finished request and ask whether a budget is blown.
#[derive(Debug)]
pub(crate) struct StopGuard {
    stop: StopCondition,
    ttft_target: Option<SimDuration>,
    e2e_target: Option<SimDuration>,
    ttft_misses: u32,
    e2e_misses: u32,
}

impl StopGuard {
    pub(crate) fn new(stop: StopCondition, slo: SloTargets) -> Self {
        StopGuard {
            stop,
            ttft_target: slo.ttft,
            e2e_target: slo.e2e,
            ttft_misses: 0,
            e2e_misses: 0,
        }
    }

    /// Records one finished request's latencies. Comparison is the same
    /// inclusive `<=` the final report uses (integer-nanosecond
    /// `SimDuration` ordering equals the report's f64 comparison for any
    /// latency under ~104 days).
    pub(crate) fn note(&mut self, ttft: SimDuration, e2e: SimDuration) {
        if self.ttft_target.is_some_and(|t| ttft > t) {
            self.ttft_misses += 1;
        }
        if self.e2e_target.is_some_and(|t| e2e > t) {
            self.e2e_misses += 1;
        }
    }

    /// `true` once either miss counter exceeds its budget — misses only
    /// grow, so the full run's attainment is already below the floor the
    /// budgets encode.
    pub(crate) fn miss_budget_blown(&self) -> bool {
        let blown = |budget: Option<u32>, misses: u32| budget.is_some_and(|b| misses > b);
        blown(self.stop.ttft_miss_budget, self.ttft_misses)
            || blown(self.stop.e2e_miss_budget, self.e2e_misses)
    }

    /// `true` when a cost ceiling is set at all — lets the floors skip
    /// computing the accrued bill on every event otherwise.
    pub(crate) fn wants_cost(&self) -> bool {
        self.stop.cost_ceiling.is_some()
    }

    /// `true` once `accrued_replica_seconds` strictly exceeds the ceiling
    /// — the bill only grows, so the full run is already more expensive.
    pub(crate) fn cost_blown(&self, accrued_replica_seconds: f64) -> bool {
        self.stop
            .cost_ceiling
            .is_some_and(|c| accrued_replica_seconds > c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowed_misses_matches_the_report_division() {
        // Exhaustively agree with the float predicate over a grid.
        for requests in [1u32, 2, 3, 7, 24, 64, 100, 1000] {
            for floor in [0.01, 0.5, 0.9, 0.95, 0.99, 1.0] {
                let m = allowed_misses(requests, floor);
                let n = f64::from(requests);
                assert!(
                    f64::from(requests - m) / n >= floor,
                    "n={requests} floor={floor}: {m} misses must still clear"
                );
                if m < requests {
                    assert!(
                        f64::from(requests - m - 1) / n < floor,
                        "n={requests} floor={floor}: {} misses must not clear",
                        m + 1
                    );
                }
            }
        }
    }

    #[test]
    fn unbounded_condition_never_trips() {
        let mut g = StopGuard::new(
            StopCondition::UNBOUNDED,
            SloTargets {
                ttft: Some(SimDuration::from_millis(1)),
                e2e: Some(SimDuration::from_millis(1)),
            },
        );
        for _ in 0..100 {
            g.note(SimDuration::from_secs(10), SimDuration::from_secs(10));
        }
        assert!(!g.miss_budget_blown());
        assert!(!g.wants_cost());
        assert!(!g.cost_blown(f64::INFINITY));
    }

    #[test]
    fn miss_budgets_trip_only_past_the_budget() {
        let slo = SloTargets {
            ttft: Some(SimDuration::from_millis(100)),
            e2e: Some(SimDuration::from_millis(500)),
        };
        let stop = StopCondition::for_attainment(10, 0.8, slo);
        assert_eq!(stop.ttft_miss_budget, Some(2));
        assert_eq!(stop.e2e_miss_budget, Some(2));
        let mut g = StopGuard::new(stop, slo);
        let hit = (SimDuration::from_millis(50), SimDuration::from_millis(200));
        let miss = (SimDuration::from_millis(200), SimDuration::from_secs(1));
        g.note(hit.0, hit.1);
        g.note(miss.0, miss.1);
        g.note(miss.0, miss.1);
        assert!(!g.miss_budget_blown(), "two misses are within budget");
        g.note(miss.0, miss.1);
        assert!(g.miss_budget_blown(), "the third miss blows the budget");
    }

    #[test]
    fn one_axis_can_trip_alone() {
        let slo = SloTargets {
            ttft: Some(SimDuration::from_millis(100)),
            e2e: Some(SimDuration::from_secs(60)),
        };
        let mut g = StopGuard::new(StopCondition::for_attainment(4, 1.0, slo), slo);
        g.note(SimDuration::from_millis(200), SimDuration::from_millis(300));
        assert!(g.miss_budget_blown(), "a 100% floor tolerates zero misses");
    }

    #[test]
    fn cost_ceiling_is_strict() {
        let g = StopGuard::new(
            StopCondition {
                cost_ceiling: Some(4.0),
                ..StopCondition::UNBOUNDED
            },
            SloTargets::default(),
        );
        assert!(g.wants_cost());
        assert!(!g.cost_blown(4.0), "equality cannot prove a worse bill");
        assert!(g.cost_blown(4.0 + 1e-9));
    }
}
