//! The memory layer: paged-KV admission, preemption, and resume.
//!
//! Every [`BlockAllocator`](skip_mem::BlockAllocator) touch lives here, so
//! batch policies decide *when* to admit, grow, or evict while this layer
//! owns *how* the block bookkeeping, offload pricing, and park/resume
//! mechanics work. The event loop never sees a block.

use std::collections::VecDeque;

use skip_des::{SimDuration, SimTime};
use skip_hw::Interconnect;
use skip_mem::{swap_cost, BlockAllocator, EvictionAction, KvSpec, OffloadPolicy};

use crate::config::{KvCacheConfig, ServingConfig};
use crate::latency::LatencyModel;
use crate::observe::{LifecycleKind, RecordSink, ResumeAction};
use crate::policy::Active;

/// A preempted request parked for a later resume. Its context,
/// `prefilled + generated`, is frozen while parked, so it prices both the
/// swap-in copy and the re-prefill.
pub(crate) struct Parked {
    pub(crate) active: Active,
    pub(crate) resume: ResumeAction,
}

/// Cumulative memory-pressure counters across the fleet.
#[derive(Default)]
pub(crate) struct MemCounters {
    pub(crate) preemptions: u64,
    pub(crate) swap_outs: u64,
    pub(crate) swapped_bytes: u64,
    pub(crate) recomputed_tokens: u64,
}

/// Immutable memory-model context shared by all replicas.
pub(crate) struct MemShared {
    pub(crate) spec: KvSpec,
    pub(crate) offload: OffloadPolicy,
    pub(crate) interconnect: Interconnect,
}

/// The fleet-wide memory layer: one block pool and park queue per replica,
/// shared offload context, and cumulative pressure counters.
pub(crate) struct MemoryLayer {
    shared: MemShared,
    pools: Vec<BlockAllocator>,
    parked: Vec<VecDeque<Parked>>,
    counters: MemCounters,
}

impl MemoryLayer {
    /// Builds the layer for `replicas` identical pools sized by `kv`.
    pub(crate) fn new(cfg: &ServingConfig, kv: KvCacheConfig, replicas: usize) -> Self {
        MemoryLayer {
            shared: MemShared {
                spec: KvSpec::for_model(&cfg.model, kv.block_tokens),
                offload: kv.offload,
                interconnect: cfg.platform.interconnect.clone(),
            },
            pools: (0..replicas)
                .map(|_| BlockAllocator::new(kv.blocks_per_replica))
                .collect(),
            parked: (0..replicas).map(|_| VecDeque::new()).collect(),
            counters: MemCounters::default(),
        }
    }

    /// One replica's mutable view of the layer.
    pub(crate) fn lane(&mut self, replica: usize) -> MemLane<'_> {
        MemLane {
            shared: &self.shared,
            pool: &mut self.pools[replica],
            parked: &mut self.parked[replica],
            counters: &mut self.counters,
            replica_id: replica as u32,
        }
    }

    /// Requests parked on `replica`.
    pub(crate) fn parked_len(&self, replica: usize) -> usize {
        self.parked[replica].len()
    }

    /// Parked requests across the fleet.
    pub(crate) fn parked_total(&self) -> usize {
        self.parked.iter().map(VecDeque::len).sum()
    }

    /// KV blocks in use across all replica pools.
    pub(crate) fn used_blocks(&self) -> u32 {
        self.pools.iter().map(BlockAllocator::used_blocks).sum()
    }

    /// KV blocks configured across all replica pools.
    pub(crate) fn total_blocks(&self) -> u32 {
        self.pools.iter().map(BlockAllocator::total_blocks).sum()
    }

    /// High-water pool occupancy across replicas, as a fraction.
    pub(crate) fn peak_occupancy(&self) -> f64 {
        self.pools
            .iter()
            .map(|p| f64::from(p.peak_used_blocks()) / f64::from(p.total_blocks().max(1)))
            .fold(0.0, f64::max)
    }

    /// The cumulative pressure counters.
    pub(crate) fn counters(&self) -> &MemCounters {
        &self.counters
    }
}

/// One replica's mutable slice of the memory layer, handed to the batch
/// policy for the duration of one scheduling decision.
pub(crate) struct MemLane<'a> {
    shared: &'a MemShared,
    pool: &'a mut BlockAllocator,
    parked: &'a mut VecDeque<Parked>,
    counters: &'a mut MemCounters,
    replica_id: u32,
}

impl MemLane<'_> {
    /// `true` when no preempted request awaits resume on this replica.
    pub(crate) fn parked_is_empty(&self) -> bool {
        self.parked.is_empty()
    }

    /// Grows `owner`'s block table to cover `tokens`; `false` (with no
    /// side effect) when the pool cannot.
    pub(crate) fn try_reserve(&mut self, owner: u64, tokens: u64) -> bool {
        self.pool.grow_to(owner, tokens, &self.shared.spec).is_ok()
    }

    /// Hands `owner`'s blocks back to the pool.
    pub(crate) fn release(&mut self, owner: u64) {
        self.pool.release(owner);
    }

    /// Resumes preempted requests, oldest first, while they fit; the whole
    /// cohort rides one iteration whose cost is returned. A parked request
    /// that does not fit blocks newcomer admission (it is older than
    /// anything pending), preventing starvation. `None` when nothing
    /// resumed.
    pub(crate) fn resume_cohort(
        &mut self,
        slots: usize,
        lat: &LatencyModel,
        now: SimTime,
        actives: &mut Vec<Active>,
        obs: &mut impl RecordSink,
    ) -> Option<SimDuration> {
        if slots == 0 || self.parked.is_empty() {
            return None;
        }
        let spec = &self.shared.spec;
        let first = actives.len();
        let mut priced: Vec<(u64, ResumeAction)> = Vec::new();
        while priced.len() < slots {
            let Some(front) = self.parked.front() else {
                break;
            };
            let ctx_tokens = u64::from(front.active.prefilled) + u64::from(front.active.generated);
            if !self.pool.can_reserve(spec.blocks_for(ctx_tokens)) {
                break;
            }
            let p = self.parked.pop_front().expect("front probed above");
            self.pool
                .grow_to(p.active.req.id, ctx_tokens, spec)
                .expect("reservation probed above");
            if p.resume == ResumeAction::Recompute {
                self.counters.recomputed_tokens += ctx_tokens;
            }
            priced.push((ctx_tokens, p.resume));
            actives.push(p.active);
        }
        if priced.is_empty() {
            return None;
        }
        let cost = price_resumes(lat, self.shared, &priced);
        for (a, &(_, action)) in actives[first..].iter().zip(&priced) {
            obs.record(
                a.req.id,
                now,
                LifecycleKind::Resumed {
                    replica: self.replica_id,
                    action,
                    cost,
                },
            );
        }
        Some(cost)
    }

    /// Makes the iteration's block growth fit: while the summed block
    /// deficit of every active whose target `needs` returns exceeds the
    /// free pool, the newest active (vLLM's LIFO victim order) is
    /// preempted; then every surviving target is reserved. Returns the
    /// engine stall the evictions charge now (swap copy-outs).
    ///
    /// `needs` maps an active to the token count its table must cover
    /// after this iteration (`None` = not growing). `on_evict` tells the
    /// policy the position each victim held in `actives` when it was
    /// removed, so state kept parallel to the batch can drop its entry.
    pub(crate) fn fit_and_grow(
        &mut self,
        actives: &mut Vec<Active>,
        needs: impl Fn(&Active) -> Option<u64>,
        lat: &LatencyModel,
        now: SimTime,
        obs: &mut impl RecordSink,
        mut on_evict: impl FnMut(usize),
    ) -> SimDuration {
        let spec = &self.shared.spec;
        let mut swap_stall = SimDuration::ZERO;
        loop {
            let deficit: u32 = actives
                .iter()
                .map(|a| {
                    needs(a).map_or(0, |target| {
                        spec.blocks_for(target)
                            .saturating_sub(self.pool.held_blocks(a.req.id))
                    })
                })
                .sum();
            if deficit <= self.pool.free_blocks() {
                break;
            }
            let victim = actives
                .iter()
                .enumerate()
                .max_by_key(|(_, a)| a.req.id)
                .map(|(i, _)| i)
                .expect("active batch is non-empty");
            swap_stall += self.preempt(victim, lat, now, actives, obs);
            on_evict(victim);
        }
        for a in actives.iter() {
            if let Some(target) = needs(a) {
                self.pool
                    .grow_to(a.req.id, target, &self.shared.spec)
                    .expect("deficit covered above");
            }
        }
        swap_stall
    }

    /// Evicts `actives[victim]`: releases its device blocks and parks it
    /// for a later resume. Returns the engine stall charged now (the
    /// copy-out time when swapping; recompute defers its whole cost to
    /// resume).
    fn preempt(
        &mut self,
        victim: usize,
        lat: &LatencyModel,
        now: SimTime,
        actives: &mut Vec<Active>,
        obs: &mut impl RecordSink,
    ) -> SimDuration {
        let a = actives.remove(victim);
        let tokens = u64::from(a.prefilled) + u64::from(a.generated);
        let bytes = tokens * self.shared.spec.bytes_per_token;
        self.pool.release(a.req.id);
        self.counters.preemptions += 1;
        let one_way = swap_cost(&self.shared.interconnect, bytes);
        let recompute = lat.prefill(1, tokens as u32);
        let (action, stall) = match self.shared.offload.decide(one_way + one_way, recompute) {
            EvictionAction::SwapOut => {
                self.counters.swap_outs += 1;
                self.counters.swapped_bytes += bytes;
                (ResumeAction::SwapIn, one_way)
            }
            EvictionAction::Recompute => (ResumeAction::Recompute, SimDuration::ZERO),
        };
        obs.record(
            a.req.id,
            now,
            LifecycleKind::Preempted {
                replica: self.replica_id,
                action,
                stall,
            },
        );
        self.parked.push_back(Parked {
            active: a,
            resume: action,
        });
        stall
    }
}

/// Prices the resume iteration for one cohort of parked requests, given
/// `(context_tokens, action)` per request.
///
/// Swapped-out requests each pay their context's copy-back transfer.
/// Recompute victims re-prefill **as one batch**: the engine runs them as a
/// single batched prefill sized by the longest context, exactly like
/// newcomer admission.
pub(crate) fn price_resumes(
    lat: &LatencyModel,
    shared: &MemShared,
    resumes: &[(u64, ResumeAction)],
) -> SimDuration {
    let mut cost = SimDuration::ZERO;
    let mut recompute_batch = 0u32;
    let mut recompute_ctx = 0u64;
    for &(ctx_tokens, action) in resumes {
        match action {
            ResumeAction::Recompute => {
                recompute_batch += 1;
                recompute_ctx = recompute_ctx.max(ctx_tokens);
            }
            ResumeAction::SwapIn => {
                cost += swap_cost(
                    &shared.interconnect,
                    ctx_tokens * shared.spec.bytes_per_token,
                );
            }
        }
    }
    if recompute_batch > 0 {
        cost += lat.prefill(recompute_batch, recompute_ctx as u32);
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use skip_hw::Platform;
    use skip_llm::zoo;

    /// Regression for resume-stall accounting: a cohort of recompute
    /// victims resuming together must be priced as one batched prefill,
    /// not the sum of serial single-request prefills.
    #[test]
    fn batched_resume_costs_less_than_serial_singles() {
        let platform = Platform::intel_h100();
        let model = zoo::llama2_7b();
        let lat = LatencyModel::new(platform.clone(), model.clone());
        let shared = MemShared {
            spec: KvSpec::for_model(&model, KvSpec::DEFAULT_BLOCK_TOKENS),
            offload: OffloadPolicy::Recompute,
            interconnect: platform.interconnect.clone(),
        };
        let cohort = [(1100, ResumeAction::Recompute); 3];
        let batched = price_resumes(&lat, &shared, &cohort);
        let serial: SimDuration = cohort
            .iter()
            .map(|&(ctx, action)| price_resumes(&lat, &shared, &[(ctx, action)]))
            .sum();
        assert!(
            batched < serial,
            "batched {batched} must undercut serial {serial}"
        );
        // Swap-ins are per-request transfers: batching must not discount.
        let swaps = [(1100, ResumeAction::SwapIn); 3];
        let swap_batched = price_resumes(&lat, &shared, &swaps);
        let swap_serial: SimDuration = swaps
            .iter()
            .map(|&(ctx, action)| price_resumes(&lat, &shared, &[(ctx, action)]))
            .sum();
        assert_eq!(swap_batched, swap_serial);
    }
}
