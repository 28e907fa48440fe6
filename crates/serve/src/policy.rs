//! Batch-formation policies: what the next engine iteration runs.
//!
//! A [`BatchPolicy`] owns two scheduler decisions — picking and pricing the
//! next iteration for one replica ([`BatchPolicy::next_iteration`]) and
//! crediting the iteration that just completed ([`BatchPolicy::retire`]).
//! Everything a policy may touch is handed to it through a [`Lane`]: the
//! replica's pending queue, its running batch, an optional
//! [`MemLane`](crate::memctx::MemLane) for KV bookkeeping, and the
//! observability recorder. The DES loop, flush timers, and replica routing
//! live in `unified.rs` and never depend on which policy runs.
//!
//! Every policy keeps one running batch, [`ReplicaState::actives`], and
//! prices from the rows it holds: a static job is a batch of rows run to
//! completion, and an iteration-level decode step runs over the rows past
//! their prompt, which one function counts ([`decode_rows`]) and
//! [`decode_window`] extends. The memory layer grows those same rows by
//! the same rule.
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

/// A request in the running batch: a row of a static job or of an
/// iteration-level batch.
pub(crate) struct Active {
    pub(crate) req: Request,
    /// Tokens generated so far (0 while still prefilling, and throughout a
    /// static job, which completes its rows whole).
    pub(crate) generated: u32,
    /// Prompt tokens prefilled so far. Whole-prompt policies set this to
    /// `prompt_len` at admission; chunked prefill advances it chunk by
    /// chunk, and it is what preemption/resume sizing reads, so a request
    /// parked mid-prefill swaps or recomputes only what it actually holds.
    pub(crate) prefilled: u32,
}

impl Active {
    /// Whether the whole prompt is prefilled, so an iteration decodes this
    /// row rather than granting it a chunk.
    pub(crate) fn past_prompt(&self) -> bool {
        self.prefilled >= self.req.prompt_len
    }

    /// Tokens the row's KV covers: its prefilled prompt plus what it has
    /// generated.
    pub(crate) fn context(&self) -> u32 {
        self.prefilled + self.generated
    }
}

/// A completed request's user-visible latencies.
pub(crate) struct Finished {
    pub(crate) ttft: SimDuration,
    pub(crate) e2e: SimDuration,
}

/// One replica's scheduling state.
#[derive(Default)]
pub(crate) struct ReplicaState {
    /// The running batch: every request this replica is responsible for
    /// apart from its queue and its parked requests.
    pub(crate) actives: Vec<Active>,
    /// Chunked prefill's grants for the in-flight iteration, parallel to
    /// `actives`: `grants[i]` is the prompt tokens `actives[i]` prefills
    /// (0 = none). Empty during a resume iteration, so its retire advances
    /// nobody. Reused across iterations.
    pub(crate) grants: Vec<u32>,
    pub(crate) busy: bool,
}

/// Everything a batch policy may touch while scheduling one replica:
/// the replica's queue and state, the shared pricing model, the optional
/// memory lane, the pool the replica serves, and the trace/metrics sinks.
/// Borrowed afresh from the floor for each decision, so policies hold no
/// state of their own beyond their knobs.
pub(crate) struct Lane<'a> {
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
    pub(crate) last_completion: &'a mut SimTime,
    /// Set by [`BatchPolicy::next_iteration`] when the iteration it priced
    /// is decode-only: its boundary resumed, admitted, granted a prompt
    /// chunk to and evicted nobody, so it is one decode step over the rows
    /// past their prompt. Only such an iteration may grow into a
    /// [`decode_window`].
    pub(crate) decode_only: bool,
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
/// waiting), run the whole batch to completion as one job. The job's
/// requests are the batch's rows, priced at their longest prompt and
/// output; their first tokens come out when the job's prefill ends.
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
        let take = lane.queue.len().min(self.batch_size as usize);
        let job = lane.queue.drain(..take).map(|req| Active {
            prefilled: req.prompt_len,
            generated: 0,
            req,
        });
        lane.state.actives.extend(job);
        let (prompt_len, new_tokens) = lane.state.actives.iter().fold((0, 0), |(p, n), a| {
            (p.max(a.req.prompt_len), n.max(a.req.new_tokens))
        });
        let b = take as u32;
        let prefill = lane.lat.prefill(b, prompt_len);
        let mut total = prefill;
        for step in 1..new_tokens {
            total += lane.lat.decode_step(b, prompt_len + step);
        }
        let admitted_here = LifecycleKind::Admitted {
            replica: lane.replica as u32,
        };
        for i in 0..take {
            let id = lane.state.actives[i].req.id;
            lane.obs.record(id, lane.now, admitted_here);
            lane.first_token_out(id, lane.now + prefill);
        }
        Some(total)
    }

    fn retire(&self, lane: &mut Lane<'_>) {
        let mut job = std::mem::take(&mut lane.state.actives);
        for a in job.drain(..) {
            lane.complete(a.req);
        }
        lane.state.actives = job;
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
            lat,
            now,
            replica,
            queue,
            state,
            mem,
            obs,
            decode_only,
            ..
        } = lane;
        let now = *now;
        let admitted_here = LifecycleKind::Admitted {
            replica: *replica as u32,
        };
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
            let mut prompt_len = 0;
            while (admitted as usize) < slots {
                let Some(req) = queue.front() else { break };
                if let Some(mem) = mem.as_mut() {
                    if !mem.try_reserve(req.id, u64::from(req.prompt_len)) {
                        break;
                    }
                }
                let req = queue.pop_front().expect("front probed above");
                obs.record(req.id, now, admitted_here);
                prompt_len = prompt_len.max(req.prompt_len);
                state.actives.push(Active {
                    req,
                    generated: 0,
                    prefilled: req.prompt_len,
                });
                admitted += 1;
            }
            if admitted > 0 {
                return Some(lat.prefill(admitted, prompt_len));
            }
        }

        // 3. One decode step. First make the whole batch's next token fit
        //    (a lone request always fits because validation guarantees the
        //    pool holds at least one full request).
        if state.actives.is_empty() {
            return None;
        }
        let running = state.actives.len();
        let mut swap_stall = SimDuration::ZERO;
        if let Some(mem) = mem.as_mut() {
            swap_stall = mem.fit_and_grow(&mut state.actives, lat, now, obs, |_| {});
        }
        *decode_only = state.actives.len() == running;
        let (rows, ctx) = decode_rows(&state.actives);
        Some(lat.decode_step(rows, ctx) + swap_stall)
    }

    /// Credits every row one token, then completes the rows that reached
    /// their budget. This advance-all discipline also credits a row that
    /// idled beside a newcomer's prefill or a resume (DESIGN.md §2.5).
    fn retire(&self, lane: &mut Lane<'_>) {
        for i in 0..lane.state.actives.len() {
            let a = &mut lane.state.actives[i];
            a.generated += 1;
            if a.generated == 1 {
                // Prefill just finished: first token out.
                let id = a.req.id;
                lane.first_token_out(id, lane.now);
            }
        }
        complete_finished(lane);
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
            decode_only,
            ..
        } = lane;
        let now = *now;
        let admitted_here = LifecycleKind::Admitted {
            replica: *replica as u32,
        };
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
            obs.record(req.id, now, admitted_here);
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
        let running = state.actives.len();
        let mut swap_stall = SimDuration::ZERO;
        if let Some(mem) = mem.as_mut() {
            swap_stall = mem.fit_and_grow(&mut state.actives, lat, now, obs, |victim| {
                state.grants.remove(victim);
            });
        }
        // Each grant and each admission spends budget, so an untouched
        // budget means neither happened. A prompt row whose chunk the pool
        // refused stays in the batch, unpriced.
        *decode_only = budget == self.chunk_tokens && state.actives.len() == running;

        // No row left to run (every one evicted or refused memory): the
        // iteration degenerates to the swap stall, if any; otherwise the
        // replica idles.
        match price_chunked(lat, &state.actives, &state.grants) {
            Some(cost) => Some(cost + swap_stall),
            None => (swap_stall > SimDuration::ZERO).then_some(swap_stall),
        }
    }

    fn retire(&self, lane: &mut Lane<'_>) {
        credit_chunks(lane);
        complete_finished(lane);
    }
}

/// Credits a chunked iteration: a granted row prefills its chunk, and its
/// first token comes out with the final one; every other row past its
/// prompt decodes one token. An empty [`ReplicaState::grants`] (a resume
/// iteration) credits nobody.
fn credit_chunks(lane: &mut Lane<'_>) {
    for i in 0..lane.state.grants.len() {
        let grant = lane.state.grants[i];
        let a = &mut lane.state.actives[i];
        if grant > 0 {
            a.prefilled += grant;
            if a.past_prompt() {
                // Final chunk: first token out with it.
                a.generated = 1;
                let id = a.req.id;
                lane.first_token_out(id, lane.now);
            }
        } else if a.past_prompt() {
            a.generated += 1;
        }
    }
    lane.state.grants.clear();
}

/// Completes every row that has generated its last token, sweeping the
/// batch in position order with `swap_remove`.
fn complete_finished(lane: &mut Lane<'_>) {
    let mut i = 0;
    while i < lane.state.actives.len() {
        let a = &lane.state.actives[i];
        if a.past_prompt() && a.generated >= a.req.new_tokens {
            let a = lane.state.actives.swap_remove(i);
            lane.complete(a.req);
        } else {
            i += 1;
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
        if a.past_prompt() {
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
    let (chunk_rows, max_chunk) = grants
        .iter()
        .filter(|&&grant| grant > 0)
        .fold((0, 0), |(rows, max), &grant| (rows + 1, max.max(grant)));
    let (rows, ctx) = decode_rows(actives);
    let mut cost = SimDuration::ZERO;
    if chunk_rows > 0 {
        cost += lat.prefill(chunk_rows, max_chunk);
    }
    if rows > 0 {
        cost += lat.decode_step(rows, ctx);
    }
    (chunk_rows + rows > 0).then_some(cost)
}

/// The decode step over `actives`: how many rows are past their prompt,
/// and the longest context among them. Every iteration-level policy
/// prices its decode step from this, at `decode_step(rows, ctx)`; a
/// granted row is still in its prompt, so it never counts.
pub(crate) fn decode_rows(actives: &[Active]) -> (u32, u32) {
    actives
        .iter()
        .filter(|a| a.past_prompt())
        .fold((0, 0), |(rows, ctx), a| (rows + 1, ctx.max(a.context())))
}

/// Grows the iteration the policy just priced as `step` into a **decode
/// window**: the run of decode steps the replica would take, one
/// `IterationDone` each, while nothing but token counts and block tables
/// change. Only an iteration the policy marked [`Lane::decode_only`]
/// grows; any other stays one step. Over the `n` [`decode_rows`] at
/// longest context `ctx`, step `k + 1` costs `decode_step(n, ctx + k)`,
/// one table index. The window ends at the first of:
///
/// * the step that completes its first request (every iteration-level
///   retire completes a decode row at its `new_tokens`);
/// * the last boundary strictly before `until`: the next arrival wins a
///   tie, so that boundary must stay a real event;
/// * with a memory lane, the last step before one whose block growth the
///   replica's pool cannot cover ([`MemLane::decode_room`]); the decode
///   rows' tables then grow once, to the window's end.
///
/// Every decode row is credited all but the last step; the ordinary
/// retire at the window's end credits that one. A prompt row whose next
/// chunk the pool refused rides along unpriced and uncredited, as it
/// would at every boundary the window skips. Returns the window's length.
pub(crate) fn decode_window(
    lane: &mut Lane<'_>,
    step: SimDuration,
    until: Option<SimTime>,
) -> SimDuration {
    if !lane.decode_only {
        return step;
    }
    let actives = &mut lane.state.actives;
    let (n, ctx) = decode_rows(actives);
    debug_assert_eq!(step, lane.lat.decode_step(n, ctx), "not a decode-only step");
    let mut left = actives
        .iter()
        .filter(|a| a.past_prompt())
        .map(|a| a.req.new_tokens.saturating_sub(a.generated))
        .min()
        .unwrap_or(u32::MAX);
    if let Some(mem) = &lane.mem {
        left = mem.decode_room(actives, left);
    }
    let mut len = step;
    let mut k = 1;
    while k < left && until.is_none_or(|at| lane.now + len < at) {
        len += lane.lat.decode_step(n, ctx + k);
        k += 1;
    }
    if let Some(mem) = lane.mem.as_mut() {
        mem.grow_decode_rows(actives, k);
    }
    for a in actives.iter_mut().filter(|a| a.past_prompt()) {
        a.generated += k - 1;
    }
    len
}

/// Admits newcomers at the iteration boundary, fleet style: up to
/// `max_batch` actives, recording pool-aware lifecycle events. Requests
/// joining a decode replica arrive with their prompt prefilled and their
/// first token already produced by the prefill pool. Returns how many
/// joined.
fn fleet_admit(lane: &mut Lane<'_>, max_batch: u32) -> usize {
    let room = (max_batch as usize).saturating_sub(lane.state.actives.len());
    let decode_side = lane.pool == PoolRole::Decode;
    let replica = lane.replica as u32;
    let kind = if decode_side {
        LifecycleKind::DecodeAdmitted { replica }
    } else {
        LifecycleKind::Admitted { replica }
    };
    for admitted in 0..room {
        let Some(req) = lane.queue.pop_front() else {
            return admitted;
        };
        lane.obs.record(req.id, lane.now, kind);
        lane.state.actives.push(Active {
            generated: u32::from(decode_side),
            prefilled: if decode_side { req.prompt_len } else { 0 },
            req,
        });
    }
    room
}

/// Routes a request that just produced a token: complete at its budget,
/// hand off from the prefill pool, else keep decoding. Returns whether
/// the row stays in the batch.
fn fleet_keeps(lane: &mut Lane<'_>, a: &Active) -> bool {
    if a.generated >= a.req.new_tokens {
        lane.complete(a.req);
    } else if lane.pool == PoolRole::Prefill {
        lane.handoffs_out.push(a.req);
    } else {
        return true;
    }
    false
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
        let admitted = fleet_admit(lane, self.max_batch);
        let actives = &lane.state.actives;
        if actives.is_empty() {
            return None;
        }
        // A row is fresh until its whole prompt is prefilled in one
        // iteration, so every row that is not a decode row is fresh.
        let (rows, ctx) = decode_rows(actives);
        let fresh = actives.len() as u32 - rows;
        lane.decode_only = admitted == 0 && fresh == 0;
        Some(if fresh == 0 {
            lane.lat.decode_step(rows, ctx)
        } else {
            let fresh_len = actives
                .iter()
                .filter(|a| !a.past_prompt())
                .map(|a| a.req.prompt_len)
                .max()
                .expect("a fresh row");
            lane.lat.prefill(fresh, fresh_len)
        })
    }

    /// Compacts the batch in place: survivors, completions and handoffs
    /// keep batch order, and the batch's allocation is reused.
    fn retire(&self, lane: &mut Lane<'_>) {
        let was_prefill = lane.state.actives.iter().any(|a| !a.past_prompt());
        let mut batch = std::mem::take(&mut lane.state.actives);
        batch.retain_mut(|a| {
            if !was_prefill {
                a.generated += 1;
            } else if !a.past_prompt() {
                a.generated = 1;
                a.prefilled = a.req.prompt_len;
                lane.first_token_out(a.req.id, lane.now);
            } else {
                // Decoding requests idled through the prefill iteration
                // (prefill-priority continuous batching).
                return true;
            }
            fleet_keeps(lane, a)
        });
        lane.state.actives = batch;
    }
}

/// Fleet chunked prefill: [`ChunkedPrefillBatch`]'s grant walk, price and
/// crediting without the memory seams. The grants live in
/// [`ReplicaState::grants`] (reused across iterations) and are applied at
/// retire.
pub(crate) struct FleetChunked {
    max_batch: u32,
    chunk_tokens: u32,
}

impl BatchPolicy for FleetChunked {
    fn next_iteration(&self, lane: &mut Lane<'_>, _flush: bool) -> Option<SimDuration> {
        let admitted = fleet_admit(lane, self.max_batch);
        let state = &mut *lane.state;
        let budget = grant_chunks(&state.actives, &mut state.grants, self.chunk_tokens, None);
        lane.decode_only = admitted == 0 && budget == self.chunk_tokens;
        price_chunked(lane.lat, &state.actives, &state.grants)
    }

    /// Credits the iteration, then compacts the batch in place: every row
    /// past its prompt produced a token, and the rest stay admitted.
    fn retire(&self, lane: &mut Lane<'_>) {
        credit_chunks(lane);
        let mut batch = std::mem::take(&mut lane.state.actives);
        batch.retain(|a| !a.past_prompt() || fleet_keeps(lane, a));
        lane.state.actives = batch;
    }
}
