//! Replica routing: which pending queue each arrival joins.
//!
//! A [`Router`] decides the queue topology ([`Router::queue_count`]) and
//! dispatches each arrival given a load snapshot of every replica. The
//! floor maintains one pending queue per router-declared queue index;
//! [`RouterPolicy::SharedQueue`] collapses them to a single queue every
//! replica pulls from (the M/G/k discipline and the pre-router behaviour),
//! while the per-replica routers partition arrivals at admission time.
//!
//! The same trait serves the fleet: the floor marks pool/state
//! eligibility and per-replica serving cost in each [`ReplicaLoad`]
//! snapshot, and the fleet's rr/jsq/cost-jsq dispatch are the same
//! routers consulting those extra fields. A single-node floor marks every
//! replica eligible with zero link depth, which degenerates each router
//! to its classic single-pool behaviour.

use crate::config::RouterPolicy;
use crate::fleet::spec::FleetRouterPolicy;

/// Load snapshot of one replica, consulted by routing policies.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReplicaLoad {
    /// Requests waiting in the queue this replica pulls from.
    pub(crate) queued: u32,
    /// Requests in the replica's running batch or static job.
    pub(crate) running: u32,
    /// Preempted requests parked on the replica awaiting resume.
    pub(crate) parked: u32,
    /// KV handoffs queued or in flight on the replica's inbound link
    /// (0 outside a disaggregated fleet).
    pub(crate) link: u32,
    /// Whether this replica may receive the request being routed: up (or
    /// the fallback set when nothing is up) and in a pool serving the
    /// routed direction. Single-node floors mark every replica eligible.
    pub(crate) eligible: bool,
    /// Estimated serving cost per request on this replica, in
    /// nanoseconds — the per-platform unit price cost-model routing
    /// weighs backlog by. Zero when the floor prices uniformly.
    pub(crate) unit_cost_ns: f64,
}

impl Default for ReplicaLoad {
    fn default() -> Self {
        ReplicaLoad {
            queued: 0,
            running: 0,
            parked: 0,
            link: 0,
            eligible: true,
            unit_cost_ns: 0.0,
        }
    }
}

impl ReplicaLoad {
    /// Total outstanding work on the replica.
    #[must_use]
    pub(crate) fn total(self) -> u32 {
        self.queued + self.running + self.parked + self.link
    }
}

/// Dispatches arrivals across replica queues.
pub(crate) trait Router {
    /// Number of pending queues the floor maintains: 1 for a shared queue,
    /// `replicas` for partitioned dispatch.
    fn queue_count(&self, replicas: usize) -> usize;

    /// Queue index the request being routed joins, given one load
    /// snapshot per replica. No router reads the request itself.
    fn route(&mut self, load: &[ReplicaLoad]) -> usize;
}

impl RouterPolicy {
    /// Instantiates the configured router.
    pub(crate) fn build(self) -> Box<dyn Router> {
        match self {
            RouterPolicy::SharedQueue => Box::new(SharedQueue),
            RouterPolicy::RoundRobin => Box::new(RoundRobin { next: 0 }),
            RouterPolicy::JoinShortestQueue => Box::new(JoinShortestQueue),
        }
    }
}

impl FleetRouterPolicy {
    /// Instantiates the configured fleet router. Fleet dispatch reuses the
    /// same [`Router`] implementations the single-node floor builds; the
    /// cost-model variant additionally weighs each backlog by the
    /// replica's [`ReplicaLoad::unit_cost_ns`].
    pub(crate) fn build(self) -> Box<dyn Router> {
        match self {
            FleetRouterPolicy::RoundRobin => Box::new(RoundRobin { next: 0 }),
            FleetRouterPolicy::JoinShortestQueue => Box::new(JoinShortestQueue),
            FleetRouterPolicy::CostModelJsq => Box::new(CostModelJsq),
        }
    }
}

/// One shared queue; idle replicas pull from it at iteration boundaries.
struct SharedQueue;

impl Router for SharedQueue {
    fn queue_count(&self, _replicas: usize) -> usize {
        1
    }

    fn route(&mut self, _load: &[ReplicaLoad]) -> usize {
        0
    }
}

/// Deals arrivals to eligible replicas in rotation, blind to load.
struct RoundRobin {
    next: usize,
}

impl Router for RoundRobin {
    fn queue_count(&self, replicas: usize) -> usize {
        replicas
    }

    fn route(&mut self, load: &[ReplicaLoad]) -> usize {
        let eligible = load.iter().filter(|l| l.eligible).count();
        let k = self.next % eligible.max(1);
        self.next = self.next.wrapping_add(1);
        load.iter()
            .enumerate()
            .filter(|(_, l)| l.eligible)
            .nth(k)
            .map_or(0, |(i, _)| i)
    }
}

/// Each arrival joins the eligible replica with the least outstanding
/// work (queued + running + parked + link); ties go to the lowest index.
struct JoinShortestQueue;

impl Router for JoinShortestQueue {
    fn queue_count(&self, replicas: usize) -> usize {
        replicas
    }

    fn route(&mut self, load: &[ReplicaLoad]) -> usize {
        load.iter()
            .enumerate()
            .filter(|(_, l)| l.eligible)
            .min_by_key(|(i, l)| (l.total(), *i))
            .map_or(0, |(i, _)| i)
    }
}

/// Cost-model JSQ: each arrival joins the eligible replica whose backlog
/// is cheapest to clear, weighing (outstanding + 1) by the replica's unit
/// serving cost. On a homogeneous fleet every unit cost is equal and this
/// degenerates to [`JoinShortestQueue`].
struct CostModelJsq;

impl Router for CostModelJsq {
    fn queue_count(&self, replicas: usize) -> usize {
        replicas
    }

    fn route(&mut self, load: &[ReplicaLoad]) -> usize {
        let mut best = 0usize;
        let mut best_cost = f64::INFINITY;
        let mut first = true;
        for (i, l) in load.iter().enumerate() {
            if !l.eligible {
                continue;
            }
            if first {
                best = i;
                first = false;
            }
            let cost = f64::from(l.total() + 1) * l.unit_cost_ns;
            if cost < best_cost {
                best = i;
                best_cost = cost;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(spec: &[(u32, u32, u32)]) -> Vec<ReplicaLoad> {
        spec.iter()
            .map(|&(queued, running, parked)| ReplicaLoad {
                queued,
                running,
                parked,
                ..ReplicaLoad::default()
            })
            .collect()
    }

    #[test]
    fn shared_queue_uses_one_queue() {
        let mut r = RouterPolicy::SharedQueue.build();
        assert_eq!(r.queue_count(4), 1);
        assert_eq!(r.route(&load(&[(5, 5, 5); 4])), 0);
    }

    #[test]
    fn round_robin_rotates_regardless_of_load() {
        let mut r = RouterPolicy::RoundRobin.build();
        assert_eq!(r.queue_count(3), 3);
        let l = load(&[(9, 9, 9), (0, 0, 0), (0, 0, 0)]);
        let picks: Vec<usize> = (0..6).map(|_| r.route(&l)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn round_robin_rotates_over_the_eligible_subset() {
        let mut r = FleetRouterPolicy::RoundRobin.build();
        let mut l = load(&[(0, 0, 0); 4]);
        l[0].eligible = false;
        l[2].eligible = false;
        let picks: Vec<usize> = (0..4).map(|_| r.route(&l)).collect();
        assert_eq!(picks, vec![1, 3, 1, 3]);
    }

    #[test]
    fn jsq_picks_least_loaded_with_low_index_ties() {
        let mut r = RouterPolicy::JoinShortestQueue.build();
        assert_eq!(r.queue_count(3), 3);
        // Replica 1 has the least total outstanding work.
        assert_eq!(r.route(&load(&[(2, 1, 0), (1, 0, 1), (4, 0, 0)])), 1);
        // Parked work counts against a replica.
        assert_eq!(r.route(&load(&[(1, 0, 3), (1, 1, 0), (3, 1, 0)])), 1);
        // Ties break to the lowest index.
        assert_eq!(r.route(&load(&[(1, 1, 0), (2, 0, 0), (0, 2, 0)])), 0);
    }

    #[test]
    fn jsq_counts_link_depth_and_skips_ineligible_replicas() {
        let mut r = FleetRouterPolicy::JoinShortestQueue.build();
        let mut l = load(&[(2, 0, 0), (0, 0, 0), (0, 1, 0)]);
        l[1].link = 3; // inbound handoffs count as outstanding work
        assert_eq!(r.route(&l), 2);
        l[2].eligible = false;
        assert_eq!(r.route(&l), 0);
    }

    #[test]
    fn cost_jsq_weighs_backlog_by_unit_cost() {
        let mut r = FleetRouterPolicy::CostModelJsq.build();
        let mut l = load(&[(2, 0, 0), (0, 0, 0)]);
        // Uniform cost: plain JSQ picks the empty replica.
        l[0].unit_cost_ns = 100.0;
        l[1].unit_cost_ns = 100.0;
        assert_eq!(r.route(&l), 1);
        // A slow replica loses even with a shorter queue.
        l[1].unit_cost_ns = 1000.0;
        assert_eq!(r.route(&l), 0);
        // Strict improvement only: ties keep the earliest candidate.
        l[0].queued = 0;
        l[1].unit_cost_ns = 100.0;
        assert_eq!(r.route(&l), 0);
    }
}
