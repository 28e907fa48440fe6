//! The memory layer: paged-KV admission, preemption, and resume.
//!
//! Every [`BlockAllocator`](skip_mem::BlockAllocator) touch lives here, so
//! batch policies decide *when* to admit, grow, or evict while this layer
//! owns *how* the block bookkeeping, offload pricing, and park/resume
//! mechanics work. The event loop never sees a block.
//!
//! A decode step grows one kind of row by one rule: a row past its prompt
//! must cover its context plus the step. [`MemLane::fit_and_grow`] applies
//! it to one step at an iteration boundary, [`MemLane::decode_room`] to a
//! decode window, and both test the same block deficit.

use std::collections::VecDeque;

use skip_des::{SimDuration, SimTime};
use skip_hw::Interconnect;
use skip_mem::{swap_cost, BlockAllocator, EvictionAction, KvSpec, OffloadPolicy};

use crate::config::{KvCacheConfig, ServingConfig};
use crate::latency::LatencyModel;
use crate::observe::{LifecycleKind, RecordSink, ResumeAction};
use crate::policy::Active;

/// A preempted request parked for a later resume. Its
/// [`context`](Active::context) is frozen while parked, so it prices both
/// the swap-in copy and the re-prefill.
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
                spec: KvSpec::for_model(&cfg.model, KvSpec::DEFAULT_BLOCK_TOKENS),
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
            let ctx_tokens = u64::from(front.active.context());
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

    /// Makes one decode step's block growth fit: while the decode rows'
    /// [`deficit`](Self::deficit) for one step exceeds the free pool, the
    /// newest active (vLLM's LIFO victim order) is preempted; then every
    /// surviving decode row grows through the step. Returns the engine
    /// stall the evictions charge now (swap copy-outs).
    ///
    /// `on_evict` tells the policy the position each victim held in
    /// `actives` when it was removed, so state kept parallel to the batch
    /// can drop its entry.
    pub(crate) fn fit_and_grow(
        &mut self,
        actives: &mut Vec<Active>,
        lat: &LatencyModel,
        now: SimTime,
        obs: &mut impl RecordSink,
        mut on_evict: impl FnMut(usize),
    ) -> SimDuration {
        let mut swap_stall = SimDuration::ZERO;
        while self.deficit(actives, 1) > self.pool.free_blocks() {
            let victim = actives
                .iter()
                .enumerate()
                .max_by_key(|(_, a)| a.req.id)
                .map(|(i, _)| i)
                .expect("active batch is non-empty");
            swap_stall += self.preempt(victim, lat, now, actives, obs);
            on_evict(victim);
        }
        self.grow_decode_rows(actives, 1);
        swap_stall
    }

    /// The blocks the decode rows (the `actives` past their prompt) lack
    /// to grow through `steps` decode steps from their context `c`:
    /// Σ max(0, `blocks_for(c + steps)` − held).
    fn deficit(&self, actives: &[Active], steps: u32) -> u32 {
        let spec = &self.shared.spec;
        actives
            .iter()
            .filter(|a| a.past_prompt())
            .map(|a| {
                let target = u64::from(a.context()) + u64::from(steps);
                spec.blocks_for(target)
                    .saturating_sub(self.pool.held_blocks(a.req.id))
            })
            .sum()
    }

    /// The most decode steps, up to `most`, through which the pool can
    /// grow the decode rows: the largest `j` whose
    /// [`deficit`](Self::deficit) fits the free blocks. Nothing is
    /// released inside a decode window, so this is the per-step test of
    /// [`fit_and_grow`](Self::fit_and_grow) summed over the window, and it
    /// holds for every step up to its answer. At least 1: the boundary
    /// already reserved the iteration's own step.
    pub(crate) fn decode_room(&self, actives: &[Active], most: u32) -> u32 {
        let fits = |steps| self.deficit(actives, steps) <= self.pool.free_blocks();
        if fits(most) {
            return most;
        }
        // The deficit only grows with `j`: bisect for the last step that fits.
        let (mut lo, mut hi) = (1, most - 1);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if fits(mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }

    /// Grows every decode row's table through `steps` decode steps at
    /// once, a growth whose [`deficit`](Self::deficit) the caller showed
    /// the pool covers.
    pub(crate) fn grow_decode_rows(&mut self, actives: &[Active], steps: u32) {
        for a in actives.iter().filter(|a| a.past_prompt()) {
            let target = u64::from(a.context()) + u64::from(steps);
            self.pool
                .grow_to(a.req.id, target, &self.shared.spec)
                .expect("the deficit test covered this growth");
        }
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
        let tokens = u64::from(a.context());
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
    use proptest::prelude::*;
    use skip_hw::Platform;
    use skip_llm::zoo;

    use crate::request::Request;
    use crate::unified::FloorObs;

    /// One replica's layer: a `blocks`-block pool of gpt2 KV pages on
    /// gh200 whose victims recompute.
    fn layer(blocks: u32) -> MemoryLayer {
        MemoryLayer {
            shared: MemShared {
                spec: KvSpec::for_model(&zoo::gpt2(), KvSpec::DEFAULT_BLOCK_TOKENS),
                offload: OffloadPolicy::Recompute,
                interconnect: Platform::gh200().interconnect,
            },
            pools: vec![BlockAllocator::new(blocks)],
            parked: vec![VecDeque::new()],
            counters: MemCounters::default(),
        }
    }

    /// Row `id` with `prefilled` of its `prompt_len` prompt tokens
    /// prefilled and `generated` tokens out.
    fn row(id: u64, prompt_len: u32, prefilled: u32, generated: u32) -> Active {
        let req = Request {
            id,
            arrival: SimTime::ZERO,
            prompt_len,
            new_tokens: 1024,
        };
        Active {
            req,
            generated,
            prefilled,
        }
    }

    /// Reserves every row's context on `layer`'s pool, then runs one
    /// boundary's decode step; returns how many rows it evicted.
    fn boundary(layer: &mut MemoryLayer, actives: &mut Vec<Active>, lat: &LatencyModel) -> usize {
        let mut mem = layer.lane(0);
        for a in actives.iter() {
            assert!(mem.try_reserve(a.req.id, u64::from(a.context())));
        }
        let rows = actives.len();
        mem.fit_and_grow(actives, lat, SimTime::ZERO, &mut FloorObs::Lean, |_| {});
        rows - actives.len()
    }

    /// A decode step grows only the rows past their prompt, and a
    /// shortfall evicts the newest id first wherever it sits, reporting
    /// each victim's position at its removal, until the decode rows' growth
    /// fits. Decode row 6 at context 16 (1 block, 2 after the step), decode
    /// rows 4 and 5 at context 48 (3 blocks, 4 after) and prompt rows 1
    /// and 7 holding one 16-token chunk each fill a 9-block pool, a deficit
    /// of 3. The newest, prompt row 7, frees one block and decode row 6 one
    /// more, which exactly covers rows 4 and 5. A rule that also grew
    /// prompt row 1 would lack a block there and evict row 5 too; row 1
    /// keeps its one.
    #[test]
    fn fit_and_grow_grows_only_decode_rows_and_evicts_the_newest_first() {
        let lat = LatencyModel::new(Platform::gh200(), zoo::gpt2());
        let mut layer = layer(9);
        let (decode, prompt) = (|id| row(id, 32, 32, 16), |id| row(id, 64, 16, 0));
        let mut actives = vec![row(6, 8, 8, 8), prompt(1), decode(4), prompt(7), decode(5)];
        let mut mem = layer.lane(0);
        for a in &actives {
            assert!(mem.try_reserve(a.req.id, u64::from(a.context())));
        }
        assert_eq!(mem.pool.free_blocks(), 0);
        let mut victims = Vec::new();
        let stall = mem.fit_and_grow(
            &mut actives,
            &lat,
            SimTime::ZERO,
            &mut FloorObs::Lean,
            |at| victims.push(at),
        );
        assert_eq!(
            stall,
            SimDuration::ZERO,
            "a recompute victim stalls nothing now"
        );
        assert_eq!(victims, [3, 0]);
        let ids: Vec<u64> = actives.iter().map(|a| a.req.id).collect();
        assert_eq!(ids, [1, 4, 5]);
        let held: Vec<u32> = [1, 4, 5, 6, 7].map(|id| mem.pool.held_blocks(id)).into();
        assert_eq!(held, [1, 4, 4, 0, 0]);
        assert_eq!(mem.pool.free_blocks(), 0);
        let parked: Vec<u64> = mem.parked.iter().map(|p| p.active.req.id).collect();
        assert_eq!(parked, [7, 6]);
    }

    proptest! {
        /// `decode_room` is the per-iteration rule summed over a window.
        /// From a boundary whose own decode step evicted nobody, it must
        /// answer what stepping the pool one iteration at a time answers,
        /// capped at `most`: 1 (the boundary's own step) plus the rounds —
        /// credit every decode row a token, then `fit_and_grow` — that run
        /// before the first round that evicts. The two sides run on
        /// identically built layers, over 1-6 decode rows at random
        /// contexts, with or without a prompt row anywhere in the batch.
        #[test]
        fn decode_room_is_the_per_iteration_rule_over_a_window(
            decode in prop::collection::vec((1u32..400, 0u32..200), 1..7),
            with_prompt in prop::sample::select(vec![false, true]),
            (prompt_at, prompt_len) in (0usize..7, 2u32..400),
            slack in 0u32..64,
            most in 1u32..257,
        ) {
            let build = || {
                let mut actives: Vec<Active> = decode
                    .iter()
                    .enumerate()
                    .map(|(id, &(prompt, out))| row(id as u64, prompt, prompt, out))
                    .collect();
                if with_prompt {
                    let id = actives.len() as u64;
                    let at = prompt_at.min(actives.len());
                    actives.insert(at, row(id, prompt_len, prompt_len / 2, 0));
                }
                actives
            };
            let spec = KvSpec::for_model(&zoo::gpt2(), KvSpec::DEFAULT_BLOCK_TOKENS);
            let held: u32 = build()
                .iter()
                .map(|a| spec.blocks_for(u64::from(a.context())))
                .sum();
            let lat = LatencyModel::new(Platform::gh200(), zoo::gpt2());

            let mut windowed = layer(held + slack);
            let mut actives = build();
            if boundary(&mut windowed, &mut actives, &lat) > 0 {
                return;
            }
            let room = windowed.lane(0).decode_room(&actives, most);

            let mut stepped = layer(held + slack);
            let mut actives = build();
            assert_eq!(boundary(&mut stepped, &mut actives, &lat), 0);
            let mut mem = stepped.lane(0);
            let mut steps = 1;
            while steps < most {
                for a in actives.iter_mut().filter(|a| a.past_prompt()) {
                    a.generated += 1;
                }
                let rows = actives.len();
                mem.fit_and_grow(&mut actives, &lat, SimTime::ZERO, &mut FloorObs::Lean, |_| {});
                if actives.len() < rows {
                    break;
                }
                steps += 1;
            }
            prop_assert_eq!(room, steps, "{} rows, most {}", actives.len(), most);
        }
    }

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
