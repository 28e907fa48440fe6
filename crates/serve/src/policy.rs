//! Batch-formation policies: what the next engine iteration runs.
//!
//! A [`BatchPolicy`] owns two scheduler decisions — picking and pricing the
//! next iteration for one replica ([`BatchPolicy::next_iteration`]) and
//! crediting the iteration that just completed ([`BatchPolicy::retire`]).
//! Everything a policy may touch is handed to it through a [`Lane`]: the
//! replica's pending queue, its running state, an optional
//! [`MemLane`](crate::memctx::MemLane) for KV bookkeeping, and the
//! observability recorder. The DES loop, flush timers, and replica routing
//! live in `unified.rs` and never depend on which policy runs.
//!
//! One trait covers both serving floors. The single-node policies
//! ([`Policy::build`]) admit through memory-aware seams; the fleet policies
//! ([`FleetBatchPolicy::build`]) admit inside the iteration (recording
//! pool-aware lifecycle events), give prefill strict priority over decode,
//! and route finished prefills to the lane's handoff buffer when the
//! replica sits in a prefill pool. Every policy stamps a request's first
//! token into the floor's [`Lane::first_token`] and completes it through
//! one path, so latencies never depend on what the observer recorded.

use std::collections::VecDeque;

use skip_des::{SimDuration, SimTime};

use crate::config::Policy;
use crate::fleet::spec::{FleetBatchPolicy, PoolRole};
use crate::latency::LatencyModel;
use crate::memctx::MemLane;
use crate::observe::{LifecycleKind, RecordSink};
use crate::request::Request;
use crate::unified::FloorObs;

/// A request in the running batch.
pub(crate) struct Active {
    pub(crate) req: Request,
    /// Tokens generated so far (0 while still prefilling).
    pub(crate) generated: u32,
    /// Prompt tokens prefilled so far. Whole-prompt policies set this to
    /// `prompt_len` at admission; chunked prefill advances it chunk by
    /// chunk, and it is what preemption/resume sizing reads, so a request
    /// parked mid-prefill swaps or recomputes only what it actually holds.
    pub(crate) prefilled: u32,
}

/// A completed request's user-visible latencies.
pub(crate) struct Finished {
    pub(crate) ttft: SimDuration,
    pub(crate) e2e: SimDuration,
}

/// One replica's scheduling state.
#[derive(Default)]
pub(crate) struct ReplicaState {
    /// Running batch (iteration-level policies).
    pub(crate) actives: Vec<Active>,
    /// Chunked prefill's grants for the in-flight iteration, parallel to
    /// `actives`: `grants[i]` is the prompt tokens `actives[i]` prefills
    /// (0 = none). Empty during a resume iteration, so its retire advances
    /// nobody. Reused across iterations.
    pub(crate) grants: Vec<u32>,
    /// In-flight static job: each request with its first-token instant.
    pub(crate) static_job: Vec<(Request, SimTime)>,
    pub(crate) busy: bool,
}

impl ReplicaState {
    /// Requests this replica is responsible for right now.
    pub(crate) fn running(&self) -> usize {
        self.actives.len() + self.static_job.len()
    }
}

/// Everything a batch policy may touch while scheduling one replica:
/// the replica's queue and state, the shared pricing model, the optional
/// memory lane, the pool the replica serves, and the trace/metrics sinks.
/// Borrowed afresh from the floor for each decision, so policies hold no
/// state of their own beyond their knobs.
pub(crate) struct Lane<'a> {
    pub(crate) prompt_len: u32,
    pub(crate) new_tokens: u32,
    pub(crate) lat: &'a LatencyModel,
    pub(crate) now: SimTime,
    pub(crate) replica: usize,
    /// The pool this replica serves; single-node floors always say
    /// [`PoolRole::Unified`].
    pub(crate) pool: PoolRole,
    pub(crate) queue: &'a mut VecDeque<Request>,
    pub(crate) state: &'a mut ReplicaState,
    pub(crate) mem: Option<MemLane<'a>>,
    pub(crate) obs: &'a mut FloorObs,
    pub(crate) done: &'a mut Vec<Finished>,
    /// First-token instant of every request, indexed by request id:
    /// written when its prefill finishes, read when it completes (possibly
    /// on another replica, after a KV handoff).
    pub(crate) first_token: &'a mut [SimTime],
    /// Finished prefills awaiting a KV handoff to the decode pool; the
    /// floor drains this after every retire.
    pub(crate) handoffs_out: &'a mut Vec<Request>,
    /// Reusable retire scratch: the drained running set ping-pongs between
    /// here and `state.actives`, so fleet retires allocate nothing once
    /// the buffers have grown to batch size.
    pub(crate) scratch: &'a mut Vec<Active>,
    pub(crate) last_completion: &'a mut SimTime,
}

impl Lane<'_> {
    /// Request `id`'s prefill finished at `at`: its first token is out.
    fn first_token_out(&mut self, id: u64, at: SimTime) {
        self.first_token[id as usize] = at;
        self.obs.record(id, at, LifecycleKind::FirstToken);
    }

    /// Completes `req` on this replica, deriving its latencies from its
    /// arrival and its first-token instant.
    fn complete(&mut self, req: Request) {
        if let Some(mem) = self.mem.as_mut() {
            mem.release(req.id);
        }
        self.obs.record(
            req.id,
            self.now,
            LifecycleKind::Completed {
                replica: self.replica as u32,
            },
        );
        self.done.push(Finished {
            ttft: self.first_token[req.id as usize].saturating_duration_since(req.arrival),
            e2e: self.now.saturating_duration_since(req.arrival),
        });
        *self.last_completion = self.now;
    }
}

/// Forms and retires engine iterations for one replica.
pub(crate) trait BatchPolicy {
    /// Picks and prices the next iteration; `None` when the replica has
    /// nothing to do. `flush` forces a partial static batch (the oldest
    /// waiter's timeout expired).
    fn next_iteration(&self, lane: &mut Lane<'_>, flush: bool) -> Option<SimDuration>;

    /// Credits the iteration/job that just completed.
    fn retire(&self, lane: &mut Lane<'_>);

    /// `Some(max_wait)` when the floor must arm a flush timer for the
    /// oldest pending arrival (static batching); `None` for policies that
    /// admit at every iteration boundary.
    fn flush_after(&self) -> Option<SimDuration> {
        None
    }
}

impl Policy {
    /// Instantiates the configured batch policy.
    pub(crate) fn build(self) -> Box<dyn BatchPolicy> {
        match self {
            Policy::Static {
                batch_size,
                max_wait,
            } => Box::new(StaticBatch {
                batch_size,
                max_wait,
            }),
            Policy::Continuous { max_batch } => Box::new(ContinuousBatch { max_batch }),
            Policy::ChunkedPrefill {
                max_batch,
                chunk_tokens,
            } => Box::new(ChunkedPrefillBatch {
                max_batch,
                chunk_tokens,
            }),
        }
    }
}

impl FleetBatchPolicy {
    /// Instantiates the configured fleet batch policy for `max_batch`
    /// admission slots per replica.
    pub(crate) fn build(self, max_batch: u32) -> Box<dyn BatchPolicy> {
        match self {
            FleetBatchPolicy::Continuous => Box::new(FleetContinuous { max_batch }),
            FleetBatchPolicy::ChunkedPrefill { chunk_tokens } => Box::new(FleetChunked {
                max_batch,
                chunk_tokens,
            }),
        }
    }
}

/// Classic static batching: collect `batch_size` requests (or time out
/// waiting), run the whole batch to completion as one job.
pub(crate) struct StaticBatch {
    batch_size: u32,
    max_wait: SimDuration,
}

impl BatchPolicy for StaticBatch {
    fn next_iteration(&self, lane: &mut Lane<'_>, flush: bool) -> Option<SimDuration> {
        let enough = lane.queue.len() as u32 >= self.batch_size;
        if lane.queue.is_empty() || !(enough || flush) {
            return None;
        }
        let take = (lane.queue.len() as u32).min(self.batch_size);
        let batch: Vec<Request> = (0..take).filter_map(|_| lane.queue.pop_front()).collect();
        let b = batch.len() as u32;
        let prefill = lane.lat.prefill(b, lane.prompt_len);
        let mut total = prefill;
        for step in 1..lane.new_tokens {
            total += lane.lat.decode_step(b, lane.prompt_len + step);
        }
        let first_token_at = lane.now + prefill;
        for req in batch {
            lane.obs.record(
                req.id,
                lane.now,
                LifecycleKind::Admitted {
                    replica: lane.replica as u32,
                },
            );
            lane.state.static_job.push((req, first_token_at));
        }
        Some(total)
    }

    fn retire(&self, lane: &mut Lane<'_>) {
        for (req, first_token_at) in std::mem::take(&mut lane.state.static_job) {
            lane.first_token_out(req.id, first_token_at);
            lane.complete(req);
        }
    }

    fn flush_after(&self) -> Option<SimDuration> {
        Some(self.max_wait)
    }
}

/// Iteration-level continuous batching (Orca/vLLM style): newcomers join
/// at the next iteration boundary; each iteration is either a batched
/// prefill for the newcomers or one decode step for the running batch.
/// With a memory lane, admission reserves prompt blocks, decode grows
/// tables, and exhaustion preempts the newest request.
pub(crate) struct ContinuousBatch {
    max_batch: u32,
}

impl BatchPolicy for ContinuousBatch {
    /// Resumes parked requests first, then admits newcomers whose prompts
    /// fit, else runs one decode step, preempting the newest requests
    /// until the whole batch's next token fits. Without a memory lane
    /// every prompt fits and nothing is ever parked or preempted.
    fn next_iteration(&self, lane: &mut Lane<'_>, _flush: bool) -> Option<SimDuration> {
        let Lane {
            prompt_len,
            lat,
            now,
            replica,
            queue,
            state,
            mem,
            obs,
            ..
        } = lane;
        let now = *now;
        let replica_id = *replica as u32;
        let slots = (self.max_batch as usize).saturating_sub(state.actives.len());

        // 1. Resume preempted requests; the cohort rides one iteration.
        if let Some(mem) = mem.as_mut() {
            if let Some(cost) = mem.resume_cohort(slots, lat, now, &mut state.actives, obs) {
                return Some(cost);
            }
        }

        // 2. Admit newcomers whose prompt blocks fit (only when no
        //    preempted request is waiting — they have priority).
        if mem.as_ref().is_none_or(MemLane::parked_is_empty) && slots > 0 && !queue.is_empty() {
            let mut admitted = 0u32;
            while (admitted as usize) < slots {
                let Some(req) = queue.front() else { break };
                if let Some(mem) = mem.as_mut() {
                    if !mem.try_reserve(req.id, u64::from(req.prompt_len)) {
                        break;
                    }
                }
                let req = queue.pop_front().expect("front probed above");
                obs.record(
                    req.id,
                    now,
                    LifecycleKind::Admitted {
                        replica: replica_id,
                    },
                );
                let prefilled = req.prompt_len;
                state.actives.push(Active {
                    req,
                    generated: 0,
                    prefilled,
                });
                admitted += 1;
            }
            if admitted > 0 {
                return Some(lat.prefill(admitted, *prompt_len));
            }
        }

        // 3. One decode step. First make the whole batch's next token fit
        //    (a lone request always fits because validation guarantees the
        //    pool holds at least one full request).
        if state.actives.is_empty() {
            return None;
        }
        let mut swap_stall = SimDuration::ZERO;
        if let Some(mem) = mem.as_mut() {
            swap_stall = mem.fit_and_grow(
                &mut state.actives,
                |a| Some(u64::from(a.prefilled) + u64::from(a.generated) + 1),
                lat,
                now,
                obs,
                |_| {},
            );
        }
        let ctx = state
            .actives
            .iter()
            .map(|a| a.prefilled + a.generated)
            .max()
            .expect("non-empty");
        Some(lat.decode_step(state.actives.len() as u32, ctx) + swap_stall)
    }

    fn retire(&self, lane: &mut Lane<'_>) {
        let now = lane.now;
        let mut i = 0;
        while i < lane.state.actives.len() {
            let a = &mut lane.state.actives[i];
            a.generated += 1;
            if a.generated == 1 {
                // Prefill just finished: first token out.
                let id = a.req.id;
                lane.first_token_out(id, now);
            }
            let a = &lane.state.actives[i];
            if a.generated >= a.req.new_tokens {
                let a = lane.state.actives.swap_remove(i);
                lane.complete(a.req);
            } else {
                i += 1;
            }
        }
    }
}

/// Chunked prefill (Sarathi/vLLM style): each iteration spends at most
/// `chunk_tokens` of prefill work — continuing in-flight prompts first,
/// then admitting newcomers — and co-schedules one decode step for every
/// request already generating. Long prompts no longer monopolize the
/// engine, bounding the stall decode-phase requests see; the price is that
/// a prompt needs several iterations to finish prefilling.
pub(crate) struct ChunkedPrefillBatch {
    max_batch: u32,
    chunk_tokens: u32,
}

impl BatchPolicy for ChunkedPrefillBatch {
    fn next_iteration(&self, lane: &mut Lane<'_>, _flush: bool) -> Option<SimDuration> {
        let Lane {
            lat,
            now,
            replica,
            queue,
            state,
            mem,
            obs,
            ..
        } = lane;
        let now = *now;
        let replica_id = *replica as u32;
        let slots = (self.max_batch as usize).saturating_sub(state.actives.len());

        // Preempted requests have priority; the resume cohort rides one
        // iteration of its own, like memory-aware continuous batching.
        if let Some(mem) = mem.as_mut() {
            if let Some(cost) = mem.resume_cohort(slots, lat, now, &mut state.actives, obs) {
                state.grants.clear();
                return Some(cost);
            }
        }

        // 1. Continue in-flight prefills, oldest first, within the budget.
        let mut budget = grant_chunks(
            &state.actives,
            &mut state.grants,
            self.chunk_tokens,
            mem.as_mut(),
        );

        // 2. Admit newcomers into the leftover budget (blocked while
        //    anything is parked — preempted requests are older than the
        //    whole queue).
        let parked_clear = mem.as_ref().is_none_or(MemLane::parked_is_empty);
        while parked_clear && budget > 0 && state.actives.len() < self.max_batch as usize {
            let Some(req) = queue.front() else { break };
            let tokens = req.prompt_len.min(budget);
            if let Some(mem) = mem.as_mut() {
                if !mem.try_reserve(req.id, u64::from(tokens)) {
                    break;
                }
            }
            let req = queue.pop_front().expect("front probed above");
            obs.record(
                req.id,
                now,
                LifecycleKind::Admitted {
                    replica: replica_id,
                },
            );
            state.actives.push(Active {
                req,
                generated: 0,
                prefilled: 0,
            });
            state.grants.push(tokens);
            budget -= tokens;
        }

        // 3. Co-schedule one decode step for every request already in its
        //    decode phase, preempting (newest first) until the growth fits.
        //    Evicted requests lose their grants.
        let mut swap_stall = SimDuration::ZERO;
        if let Some(mem) = mem.as_mut() {
            swap_stall = mem.fit_and_grow(
                &mut state.actives,
                |a| {
                    (a.prefilled >= a.req.prompt_len)
                        .then(|| u64::from(a.prefilled) + u64::from(a.generated) + 1)
                },
                lat,
                now,
                obs,
                |victim| {
                    state.grants.remove(victim);
                },
            );
        }

        // No row left to run (every one evicted or refused memory): the
        // iteration degenerates to the swap stall, if any; otherwise the
        // replica idles.
        match price_chunked(lat, &state.actives, &state.grants) {
            Some(cost) => Some(cost + swap_stall),
            None => (swap_stall > SimDuration::ZERO).then_some(swap_stall),
        }
    }

    fn retire(&self, lane: &mut Lane<'_>) {
        let now = lane.now;
        for i in 0..lane.state.grants.len() {
            let grant = lane.state.grants[i];
            let a = &mut lane.state.actives[i];
            if grant > 0 {
                a.prefilled += grant;
                if a.prefilled >= a.req.prompt_len {
                    // Final chunk: first token out with it.
                    a.generated = 1;
                    let id = a.req.id;
                    lane.first_token_out(id, now);
                }
            } else if a.prefilled >= a.req.prompt_len {
                a.generated += 1;
            }
        }
        lane.state.grants.clear();
        let mut i = 0;
        while i < lane.state.actives.len() {
            let a = &lane.state.actives[i];
            if a.prefilled >= a.req.prompt_len && a.generated >= a.req.new_tokens {
                let a = lane.state.actives.swap_remove(i);
                lane.complete(a.req);
            } else {
                i += 1;
            }
        }
    }
}

/// Grants this iteration's prompt chunks: walks the in-flight prompts in
/// batch order and grants each `min(prompt tokens left, budget)`. With a
/// memory lane each grant first reserves `prefilled + grant` tokens, and
/// the first refusal stops the walk (FCFS — a younger prompt must not
/// overtake on memory). Leaves `grants` parallel to `actives` and returns
/// the budget left.
fn grant_chunks(
    actives: &[Active],
    grants: &mut Vec<u32>,
    mut budget: u32,
    mut mem: Option<&mut MemLane<'_>>,
) -> u32 {
    grants.clear();
    grants.resize(actives.len(), 0);
    for (a, grant) in actives.iter().zip(grants.iter_mut()) {
        if budget == 0 {
            break;
        }
        if a.prefilled >= a.req.prompt_len {
            continue;
        }
        let tokens = (a.req.prompt_len - a.prefilled).min(budget);
        if let Some(mem) = mem.as_deref_mut() {
            if !mem.try_reserve(a.req.id, u64::from(a.prefilled) + u64::from(tokens)) {
                break;
            }
        }
        *grant = tokens;
        budget -= tokens;
    }
    budget
}

/// Prices one chunked-prefill iteration: one batched prefill over the
/// granted rows (sized by the largest grant) plus one decode step over the
/// rows past their prompt (sized by the longest context). `None` when the
/// iteration has neither.
fn price_chunked(lat: &LatencyModel, actives: &[Active], grants: &[u32]) -> Option<SimDuration> {
    debug_assert_eq!(actives.len(), grants.len());
    let mut chunk_rows = 0u32;
    let mut max_chunk = 0u32;
    let mut decode_rows = 0u32;
    let mut decode_ctx = 0u32;
    for (a, &grant) in actives.iter().zip(grants) {
        if grant > 0 {
            chunk_rows += 1;
            max_chunk = max_chunk.max(grant);
        } else if a.prefilled >= a.req.prompt_len {
            decode_rows += 1;
            decode_ctx = decode_ctx.max(a.prefilled + a.generated);
        }
    }
    let mut cost = SimDuration::ZERO;
    if chunk_rows > 0 {
        cost += lat.prefill(chunk_rows, max_chunk);
    }
    if decode_rows > 0 {
        cost += lat.decode_step(decode_rows, decode_ctx);
    }
    (chunk_rows + decode_rows > 0).then_some(cost)
}

/// Admits newcomers at the iteration boundary, fleet style: up to
/// `max_batch` actives, recording pool-aware lifecycle events. Requests
/// joining a decode replica arrive with their prompt prefilled and their
/// first token already produced by the prefill pool.
fn fleet_admit(lane: &mut Lane<'_>, max_batch: u32) {
    let room = (max_batch as usize).saturating_sub(lane.state.actives.len());
    let decode_side = lane.pool == PoolRole::Decode;
    for _ in 0..room {
        let Some(req) = lane.queue.pop_front() else {
            break;
        };
        let kind = if decode_side {
            LifecycleKind::DecodeAdmitted {
                replica: lane.replica as u32,
            }
        } else {
            LifecycleKind::Admitted {
                replica: lane.replica as u32,
            }
        };
        lane.obs.record(req.id, lane.now, kind);
        lane.state.actives.push(Active {
            generated: u32::from(decode_side),
            prefilled: if decode_side { req.prompt_len } else { 0 },
            req,
        });
    }
}

/// Routes a request that just produced a token: complete at its budget,
/// hand off from the prefill pool, else keep decoding.
fn fleet_finish_or_keep(lane: &mut Lane<'_>, a: Active, target: u32) {
    if a.generated >= target {
        lane.complete(a.req);
    } else if lane.pool == PoolRole::Prefill {
        lane.handoffs_out.push(a.req);
    } else {
        lane.state.actives.push(a);
    }
}

/// Fleet continuous batching with strict prefill priority: when any
/// admitted request still needs its prompt, the iteration prefills those
/// whole while decoders idle; otherwise one decode step advances the
/// entire batch.
pub(crate) struct FleetContinuous {
    max_batch: u32,
}

impl BatchPolicy for FleetContinuous {
    fn next_iteration(&self, lane: &mut Lane<'_>, _flush: bool) -> Option<SimDuration> {
        fleet_admit(lane, self.max_batch);
        if lane.state.actives.is_empty() {
            return None;
        }
        // Price the iteration in a single counting pass.
        let mut fresh_rows = 0u32;
        let mut fresh_len = 0u32;
        let mut batch_ctx = 0u32;
        for a in &lane.state.actives {
            if a.generated == 0 {
                fresh_rows += 1;
                fresh_len = fresh_len.max(a.req.prompt_len);
            }
            batch_ctx = batch_ctx.max(a.req.prompt_len + a.generated);
        }
        Some(if fresh_rows == 0 {
            lane.lat
                .decode_step(lane.state.actives.len() as u32, batch_ctx)
        } else {
            lane.lat.prefill(fresh_rows, fresh_len)
        })
    }

    fn retire(&self, lane: &mut Lane<'_>) {
        let was_prefill = lane.state.actives.iter().any(|a| a.generated == 0);
        let target = lane.new_tokens;
        let now = lane.now;
        // Drain through the reusable scratch buffer: swap the running set
        // out, push survivors straight back, and keep both capacities for
        // the next retire.
        let mut work = std::mem::replace(&mut lane.state.actives, std::mem::take(lane.scratch));
        for mut a in work.drain(..) {
            if was_prefill {
                if a.generated == 0 {
                    a.generated = 1;
                    a.prefilled = a.req.prompt_len;
                    lane.first_token_out(a.req.id, now);
                } else {
                    // Decoding requests idled through the prefill
                    // iteration (prefill-priority continuous batching).
                    lane.state.actives.push(a);
                    continue;
                }
            } else {
                a.generated += 1;
            }
            fleet_finish_or_keep(lane, a, target);
        }
        *lane.scratch = work;
    }
}

/// Fleet chunked prefill: [`ChunkedPrefillBatch`]'s grant walk and price
/// without the memory seams. The grants live in [`ReplicaState::grants`]
/// (reused across iterations) and are applied at retire.
pub(crate) struct FleetChunked {
    max_batch: u32,
    chunk_tokens: u32,
}

impl BatchPolicy for FleetChunked {
    fn next_iteration(&self, lane: &mut Lane<'_>, _flush: bool) -> Option<SimDuration> {
        fleet_admit(lane, self.max_batch);
        let state = &mut *lane.state;
        grant_chunks(&state.actives, &mut state.grants, self.chunk_tokens, None);
        price_chunked(lane.lat, &state.actives, &state.grants)
    }

    fn retire(&self, lane: &mut Lane<'_>) {
        let target = lane.new_tokens;
        let now = lane.now;
        let mut work = std::mem::replace(&mut lane.state.actives, std::mem::take(lane.scratch));
        for (i, mut a) in work.drain(..).enumerate() {
            let grant = lane.state.grants[i];
            if a.prefilled >= a.req.prompt_len {
                // Spent the iteration in its decode phase.
                a.generated += 1;
            } else if grant > 0 {
                a.prefilled += grant;
                if a.prefilled >= a.req.prompt_len {
                    // Final chunk: first token out with it.
                    a.generated = 1;
                    lane.first_token_out(a.req.id, now);
                } else {
                    lane.state.actives.push(a);
                    continue;
                }
            } else {
                // Out of chunk budget this iteration; stays admitted.
                lane.state.actives.push(a);
                continue;
            }
            fleet_finish_or_keep(lane, a, target);
        }
        *lane.scratch = work;
        lane.state.grants.clear();
    }
}
