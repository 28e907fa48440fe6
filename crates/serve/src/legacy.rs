//! The pre-unification serve floor, frozen as a differential oracle.
//!
//! This module is a verbatim copy of the single-node DES loop — floor,
//! batch policies, and routers — exactly as it stood before the unified
//! floor landed. It compiles only under `cfg(test)` and exists so the
//! `unified_floor_equivalence` proptest can prove, byte for byte, that a
//! one-group replica set driven through the unified floor reproduces the
//! legacy behaviour across random policy × router × KV × arrival
//! configurations. Nothing outside the test tree may depend on it, and
//! nothing here should ever be "improved": drift would blind the oracle.

use std::collections::VecDeque;

use skip_des::{percentile, SimContext, SimDuration, SimTime, Simulator};

use crate::config::{Policy, RouterPolicy, ServingConfig};
use crate::floor::ServingReport;
use crate::latency::LatencyModel;
use crate::memctx::{MemLane, MemoryLayer};
use crate::observe::{CounterSample, LifecycleKind, ServingTrace, SloReport};
use crate::policy::{Active, Finished};
use crate::request::{Request, RequestStream};

/// One unit of work inside a chunked-prefill iteration plan, frozen.
#[derive(Debug, Clone, Copy)]
enum PlanStep {
    /// Prefill `tokens` more prompt tokens of request `id`.
    Chunk { id: u64, tokens: u32 },
    /// One decode step for request `id`.
    Decode { id: u64 },
}

fn plan_step_id(step: PlanStep) -> u64 {
    match step {
        PlanStep::Chunk { id, .. } | PlanStep::Decode { id } => id,
    }
}

/// One replica's scheduling state, frozen.
#[derive(Default)]
struct ReplicaState {
    /// Running batch (iteration-level policies).
    actives: Vec<Active>,
    /// In-flight static job: each request with its first-token instant.
    static_job: Vec<(Request, SimTime)>,
    /// The in-flight iteration's plan (chunked prefill).
    plan: Vec<PlanStep>,
    busy: bool,
}

impl ReplicaState {
    /// Requests this replica is responsible for right now.
    fn running(&self) -> usize {
        self.actives.len() + self.static_job.len()
    }
}

/// Load snapshot of one replica, as the pre-unification router saw it.
#[derive(Clone, Copy)]
struct Load {
    queued: u32,
    running: u32,
    parked: u32,
}

impl Load {
    fn total(self) -> u32 {
        self.queued + self.running + self.parked
    }
}

/// The three pre-unification routers, frozen.
enum LegacyRouter {
    Shared,
    RoundRobin { next: usize },
    Jsq,
}

impl LegacyRouter {
    fn build(policy: RouterPolicy) -> Self {
        match policy {
            RouterPolicy::SharedQueue => LegacyRouter::Shared,
            RouterPolicy::RoundRobin => LegacyRouter::RoundRobin { next: 0 },
            RouterPolicy::JoinShortestQueue => LegacyRouter::Jsq,
        }
    }

    fn queue_count(&self, replicas: usize) -> usize {
        match self {
            LegacyRouter::Shared => 1,
            LegacyRouter::RoundRobin { .. } | LegacyRouter::Jsq => replicas,
        }
    }

    fn route(&mut self, load: &[Load]) -> usize {
        match self {
            LegacyRouter::Shared => 0,
            LegacyRouter::RoundRobin { next } => {
                let q = *next % load.len().max(1);
                *next = next.wrapping_add(1);
                q
            }
            LegacyRouter::Jsq => load
                .iter()
                .enumerate()
                .min_by_key(|(i, l)| (l.total(), *i))
                .map_or(0, |(i, _)| i),
        }
    }
}

/// The pre-unification lane: one replica's scheduling context.
struct Lane<'a> {
    cfg: &'a ServingConfig,
    lat: &'a LatencyModel,
    now: SimTime,
    replica: usize,
    queue: &'a mut VecDeque<Request>,
    state: &'a mut ReplicaState,
    mem: Option<MemLane<'a>>,
    obs: &'a mut ServingTrace,
    done: &'a mut Vec<Finished>,
    last_completion: &'a mut SimTime,
}

impl Lane<'_> {
    fn complete(&mut self, a: Active) {
        if let Some(mem) = self.mem.as_mut() {
            mem.release(a.req.id);
        }
        self.obs.record(
            a.req.id,
            self.now,
            LifecycleKind::Completed {
                replica: self.replica as u32,
            },
        );
        self.done.push(Finished {
            ttft: self.obs.lifecycles[a.req.id as usize]
                .ttft()
                .expect("prefill completed before retirement"),
            e2e: self.now.saturating_duration_since(a.req.arrival),
        });
        *self.last_completion = self.now;
    }
}

trait BatchPolicy {
    fn next_iteration(&self, lane: &mut Lane<'_>, flush: bool) -> Option<SimDuration>;
    fn retire(&self, lane: &mut Lane<'_>);
    fn flush_after(&self) -> Option<SimDuration> {
        None
    }
}

fn build_policy(policy: Policy) -> Box<dyn BatchPolicy> {
    match policy {
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

struct StaticBatch {
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
        let prefill = lane.lat.prefill(b, lane.cfg.prompt_len);
        let mut total = prefill;
        for step in 1..lane.cfg.new_tokens.max(1) {
            total += lane.lat.decode_step(b, lane.cfg.prompt_len + step);
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
        let now = lane.now;
        let replica_id = lane.replica as u32;
        for (req, first_token_at) in std::mem::take(&mut lane.state.static_job) {
            lane.obs
                .record(req.id, first_token_at, LifecycleKind::FirstToken);
            lane.obs.record(
                req.id,
                now,
                LifecycleKind::Completed {
                    replica: replica_id,
                },
            );
            lane.done.push(Finished {
                ttft: first_token_at.saturating_duration_since(req.arrival),
                e2e: now.saturating_duration_since(req.arrival),
            });
            *lane.last_completion = now;
        }
    }

    fn flush_after(&self) -> Option<SimDuration> {
        Some(self.max_wait)
    }
}

struct ContinuousBatch {
    max_batch: u32,
}

impl ContinuousBatch {
    fn plain_iteration(&self, lane: &mut Lane<'_>) -> Option<SimDuration> {
        let slots = self.max_batch as usize - lane.state.actives.len().min(self.max_batch as usize);
        let newcomers = lane.queue.len().min(slots);
        if newcomers > 0 {
            for _ in 0..newcomers {
                let req = lane.queue.pop_front().expect("counted above");
                lane.obs.record(
                    req.id,
                    lane.now,
                    LifecycleKind::Admitted {
                        replica: lane.replica as u32,
                    },
                );
                let prefilled = req.prompt_len;
                lane.state.actives.push(Active {
                    req,
                    generated: 0,
                    prefilled,
                });
            }
            Some(lane.lat.prefill(newcomers as u32, lane.cfg.prompt_len))
        } else if !lane.state.actives.is_empty() {
            let ctx = lane
                .state
                .actives
                .iter()
                .map(|a| a.req.prompt_len + a.generated)
                .max()
                .expect("non-empty");
            Some(lane.lat.decode_step(lane.state.actives.len() as u32, ctx))
        } else {
            None
        }
    }

    fn memory_iteration(&self, lane: &mut Lane<'_>) -> Option<SimDuration> {
        let Lane {
            cfg,
            lat,
            now,
            replica,
            queue,
            state,
            mem,
            obs,
            ..
        } = lane;
        let mem = mem.as_mut().expect("memory path requires a lane");
        let now = *now;
        let replica_id = *replica as u32;
        let slots = (self.max_batch as usize).saturating_sub(state.actives.len());

        if let Some(cost) = mem.resume_cohort(slots, lat, now, &mut state.actives, obs) {
            return Some(cost);
        }

        if mem.parked_is_empty() && slots > 0 && !queue.is_empty() {
            let mut admitted = 0u32;
            while (admitted as usize) < slots {
                let Some(req) = queue.front() else { break };
                if !mem.try_reserve(req.id, u64::from(req.prompt_len)) {
                    break;
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
                return Some(lat.prefill(admitted, cfg.prompt_len));
            }
        }

        if state.actives.is_empty() {
            return None;
        }
        let swap_stall = mem.fit_and_grow(&mut state.actives, lat, now, obs, |_| {});
        let ctx = state
            .actives
            .iter()
            .map(|a| a.prefilled + a.generated)
            .max()
            .expect("non-empty");
        Some(lat.decode_step(state.actives.len() as u32, ctx) + swap_stall)
    }
}

impl BatchPolicy for ContinuousBatch {
    fn next_iteration(&self, lane: &mut Lane<'_>, _flush: bool) -> Option<SimDuration> {
        if lane.mem.is_some() {
            self.memory_iteration(lane)
        } else {
            self.plain_iteration(lane)
        }
    }

    fn retire(&self, lane: &mut Lane<'_>) {
        let now = lane.now;
        let mut i = 0;
        while i < lane.state.actives.len() {
            let a = &mut lane.state.actives[i];
            if a.generated == 0 {
                a.generated = 1;
                lane.obs.record(a.req.id, now, LifecycleKind::FirstToken);
            } else {
                a.generated += 1;
            }
            let a = &lane.state.actives[i];
            if a.generated >= a.req.new_tokens.max(1) {
                let a = lane.state.actives.swap_remove(i);
                lane.complete(a);
            } else {
                i += 1;
            }
        }
    }
}

struct ChunkedPrefillBatch {
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

        if let Some(mem) = mem.as_mut() {
            if let Some(cost) = mem.resume_cohort(slots, lat, now, &mut state.actives, obs) {
                return Some(cost);
            }
        }

        let mut plan: Vec<PlanStep> = Vec::new();
        let mut budget = self.chunk_tokens;

        for a in state.actives.iter() {
            if budget == 0 {
                break;
            }
            if a.prefilled >= a.req.prompt_len {
                continue;
            }
            let tokens = (a.req.prompt_len - a.prefilled).min(budget);
            if let Some(mem) = mem.as_mut() {
                if !mem.try_reserve(a.req.id, u64::from(a.prefilled) + u64::from(tokens)) {
                    break;
                }
            }
            plan.push(PlanStep::Chunk {
                id: a.req.id,
                tokens,
            });
            budget -= tokens;
        }

        let parked_clear = mem.as_ref().is_none_or(MemLane::parked_is_empty);
        let mut admitted = state.actives.len();
        while parked_clear && budget > 0 && admitted < self.max_batch as usize {
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
            plan.push(PlanStep::Chunk { id: req.id, tokens });
            state.actives.push(Active {
                req,
                generated: 0,
                prefilled: 0,
            });
            budget -= tokens;
            admitted += 1;
        }

        let mut swap_stall = SimDuration::ZERO;
        if let Some(mem) = mem.as_mut() {
            // The memory layer reports each victim's batch position; this
            // id list moves in lockstep with the batch to recover its id.
            let mut ids: Vec<u64> = state.actives.iter().map(|a| a.req.id).collect();
            swap_stall = mem.fit_and_grow(&mut state.actives, lat, now, obs, |victim| {
                let victim = ids.remove(victim);
                plan.retain(|s| plan_step_id(*s) != victim);
            });
        }
        for a in state.actives.iter() {
            if a.prefilled >= a.req.prompt_len {
                plan.push(PlanStep::Decode { id: a.req.id });
            }
        }

        if plan.is_empty() {
            return (swap_stall > SimDuration::ZERO).then_some(swap_stall);
        }

        let mut chunk_rows = 0u32;
        let mut max_chunk = 0u32;
        let mut decode_rows = 0u32;
        for step in &plan {
            match *step {
                PlanStep::Chunk { tokens, .. } => {
                    chunk_rows += 1;
                    max_chunk = max_chunk.max(tokens);
                }
                PlanStep::Decode { .. } => decode_rows += 1,
            }
        }
        let mut cost = swap_stall;
        if chunk_rows > 0 {
            cost += lat.prefill(chunk_rows, max_chunk);
        }
        if decode_rows > 0 {
            let ctx = state
                .actives
                .iter()
                .filter(|a| a.prefilled >= a.req.prompt_len)
                .map(|a| a.prefilled + a.generated)
                .max()
                .expect("decode rows counted above");
            cost += lat.decode_step(decode_rows, ctx);
        }
        state.plan = plan;
        Some(cost)
    }

    fn retire(&self, lane: &mut Lane<'_>) {
        let now = lane.now;
        for step in std::mem::take(&mut lane.state.plan) {
            match step {
                PlanStep::Chunk { id, tokens } => {
                    let a = lane
                        .state
                        .actives
                        .iter_mut()
                        .find(|a| a.req.id == id)
                        .expect("planned request still active");
                    a.prefilled += tokens;
                    if a.prefilled >= a.req.prompt_len {
                        a.generated = 1;
                        lane.obs.record(id, now, LifecycleKind::FirstToken);
                    }
                }
                PlanStep::Decode { id } => {
                    lane.state
                        .actives
                        .iter_mut()
                        .find(|a| a.req.id == id)
                        .expect("planned request still active")
                        .generated += 1;
                }
            }
        }
        let mut i = 0;
        while i < lane.state.actives.len() {
            let a = &lane.state.actives[i];
            if a.prefilled >= a.req.prompt_len && a.generated >= a.req.new_tokens.max(1) {
                let a = lane.state.actives.swap_remove(i);
                lane.complete(a);
            } else {
                i += 1;
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival(Request),
    IterationDone(usize),
    FlushTimeout { queue: usize, generation: u64 },
}

#[derive(Default)]
struct FlushTimer {
    generation: u64,
    deadline: Option<SimTime>,
}

struct Floor<'a> {
    cfg: &'a ServingConfig,
    lat: &'a LatencyModel,
    policy: Box<dyn BatchPolicy>,
    router: LegacyRouter,
    queues: Vec<VecDeque<Request>>,
    queue_of: Vec<usize>,
    states: Vec<ReplicaState>,
    mem: Option<MemoryLayer>,
    finished: Vec<Finished>,
    last_completion: SimTime,
    flush: Vec<FlushTimer>,
    obs: ServingTrace,
    expired_buf: Vec<bool>,
    load_buf: Vec<Load>,
}

impl Floor<'_> {
    fn handle(&mut self, ctx: &mut SimContext<'_, Event>, event: Event) {
        let now = ctx.now();
        match event {
            Event::Arrival(req) => {
                self.obs.record(req.id, now, LifecycleKind::Arrived);
                self.snapshot_load();
                let q = self.router.route(&self.load_buf).min(self.queues.len() - 1);
                self.queues[q].push_back(req);
                self.refresh_expired(now);
                self.kick_idle_replicas(ctx);
                self.arm_flush_timers(ctx);
            }
            Event::FlushTimeout { queue, generation } => {
                if generation == self.flush[queue].generation {
                    self.flush[queue].deadline = None;
                    if !self.queues[queue].is_empty() {
                        self.expired_buf.iter_mut().for_each(|e| *e = false);
                        self.expired_buf[queue] = true;
                        self.kick_idle_replicas(ctx);
                    }
                    self.arm_flush_timers(ctx);
                }
            }
            Event::IterationDone(replica) => {
                self.states[replica].busy = false;
                self.with_lane(now, replica, |policy, lane| policy.retire(lane));
                self.refresh_expired(now);
                self.kick_idle_replicas(ctx);
                self.arm_flush_timers(ctx);
            }
        }
        self.sample(now);
    }

    fn with_lane<R>(
        &mut self,
        now: SimTime,
        replica: usize,
        f: impl FnOnce(&dyn BatchPolicy, &mut Lane<'_>) -> R,
    ) -> R {
        let q = self.queue_of[replica];
        let mut lane = Lane {
            cfg: self.cfg,
            lat: self.lat,
            now,
            replica,
            queue: &mut self.queues[q],
            state: &mut self.states[replica],
            mem: self.mem.as_mut().map(|m| m.lane(replica)),
            obs: &mut self.obs,
            done: &mut self.finished,
            last_completion: &mut self.last_completion,
        };
        f(&*self.policy, &mut lane)
    }

    fn kick_idle_replicas(&mut self, ctx: &mut SimContext<'_, Event>) {
        let now = ctx.now();
        for replica in 0..self.states.len() {
            if self.states[replica].busy {
                continue;
            }
            let flush = self.expired_buf[self.queue_of[replica]];
            let dur = self.with_lane(now, replica, |policy, lane| {
                policy.next_iteration(lane, flush)
            });
            if let Some(dur) = dur {
                self.states[replica].busy = true;
                ctx.schedule(now + dur, Event::IterationDone(replica));
            }
        }
    }

    fn refresh_expired(&mut self, now: SimTime) {
        let Some(max_wait) = self.policy.flush_after() else {
            self.expired_buf.iter_mut().for_each(|e| *e = false);
            return;
        };
        for (e, q) in self.expired_buf.iter_mut().zip(&self.queues) {
            *e = q
                .front()
                .is_some_and(|r| now.saturating_duration_since(r.arrival) >= max_wait);
        }
    }

    fn arm_flush_timers(&mut self, ctx: &mut SimContext<'_, Event>) {
        let Some(max_wait) = self.policy.flush_after() else {
            return;
        };
        for q in 0..self.queues.len() {
            let desired = self.queues[q]
                .front()
                .map(|r| r.arrival + max_wait)
                .filter(|&deadline| deadline > ctx.now());
            let timer = &mut self.flush[q];
            if desired == timer.deadline {
                continue;
            }
            timer.generation += 1;
            timer.deadline = desired;
            if let Some(deadline) = desired {
                ctx.schedule(
                    deadline,
                    Event::FlushTimeout {
                        queue: q,
                        generation: timer.generation,
                    },
                );
            }
        }
    }

    fn snapshot_load(&mut self) {
        let Floor {
            queues,
            queue_of,
            states,
            mem,
            load_buf,
            ..
        } = self;
        load_buf.clear();
        load_buf.extend((0..states.len()).map(|r| Load {
            queued: queues[queue_of[r]].len() as u32,
            running: states[r].running() as u32,
            parked: mem.as_ref().map_or(0, |m| m.parked_len(r)) as u32,
        }));
    }

    fn sample(&mut self, now: SimTime) {
        let running: usize = self.states.iter().map(ReplicaState::running).sum();
        let parked = self.mem.as_ref().map_or(0, MemoryLayer::parked_total);
        let busy = self.states.iter().filter(|s| s.busy).count();
        let sample = CounterSample {
            at: now,
            queue_depth: self.queues.iter().map(VecDeque::len).sum::<usize>() as u32,
            running: running as u32,
            parked: parked as u32,
            busy_replicas: busy as u32,
            kv_used_blocks: self.mem.as_ref().map_or(0, MemoryLayer::used_blocks),
            kv_total_blocks: self.mem.as_ref().map_or(0, MemoryLayer::total_blocks),
            admitted_total: self.obs.admitted_total(),
            completed_total: self.obs.completed_total(),
        };
        self.obs.push_sample(sample);
    }
}

/// Runs the frozen pre-unification serving loop, unbounded, returning the
/// report and trace exactly as `simulate_traced` produced them before the
/// refactor.
pub(crate) fn simulate_traced(cfg: &ServingConfig, replicas: u32) -> (ServingReport, ServingTrace) {
    assert!(replicas > 0, "need at least one replica");
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }

    let n = replicas as usize;
    let lat = LatencyModel::new(cfg.platform.clone(), cfg.model.clone());
    let mut sim: Simulator<Event> = Simulator::new();
    let mut first_arrival: Option<SimTime> = None;
    for req in RequestStream::poisson(
        cfg.arrival_rate_per_s,
        cfg.prompt_len,
        cfg.new_tokens,
        cfg.seed,
    )
    .take(cfg.requests as usize)
    {
        first_arrival.get_or_insert(req.arrival);
        sim.schedule(req.arrival, Event::Arrival(req));
    }

    let router = LegacyRouter::build(cfg.router);
    let nq = router.queue_count(n).clamp(1, n);
    let mut obs = ServingTrace::new(cfg.model.name.clone(), cfg.platform.name.clone(), replicas);
    obs.reserve(cfg.requests, if cfg.kv.is_some() { 6 } else { 4 });
    let mut floor = Floor {
        cfg,
        lat: &lat,
        policy: build_policy(cfg.policy),
        router,
        queues: (0..nq).map(|_| VecDeque::new()).collect(),
        queue_of: (0..n).map(|r| r.min(nq - 1)).collect(),
        states: (0..n).map(|_| ReplicaState::default()).collect(),
        mem: cfg.kv.map(|kv| MemoryLayer::new(cfg, kv, n)),
        finished: Vec::with_capacity(cfg.requests as usize),
        last_completion: SimTime::ZERO,
        flush: (0..nq).map(|_| FlushTimer::default()).collect(),
        obs,
        expired_buf: vec![false; nq],
        load_buf: Vec::with_capacity(n),
    };

    sim.run(|ctx, event| floor.handle(ctx, event));

    let report = assemble_report(
        cfg,
        &floor.finished,
        floor.last_completion,
        first_arrival,
        floor.mem.as_ref(),
    );
    (report, floor.obs)
}

fn assemble_report(
    cfg: &ServingConfig,
    finished: &[Finished],
    last_completion: SimTime,
    first_arrival: Option<SimTime>,
    mem: Option<&MemoryLayer>,
) -> ServingReport {
    let latencies: Vec<(SimDuration, SimDuration)> =
        finished.iter().map(|f| (f.ttft, f.e2e)).collect();
    let ttfts: Vec<f64> = latencies.iter().map(|(t, _)| t.as_nanos_f64()).collect();
    let e2es: Vec<f64> = latencies.iter().map(|(_, e)| e.as_nanos_f64()).collect();
    let makespan =
        last_completion.saturating_duration_since(first_arrival.unwrap_or(SimTime::ZERO));
    let completed = finished.len() as u32;
    let total_tokens = u64::from(completed) * u64::from(cfg.new_tokens.max(1));
    let throughput_tok_s = if completed == 0 {
        0.0
    } else {
        total_tokens as f64 / makespan.as_secs_f64().max(1e-12)
    };
    let d = |v: f64| SimDuration::from_nanos_f64(v);
    ServingReport {
        completed,
        ttft_p50: d(percentile(&ttfts, 50.0)),
        ttft_p95: d(percentile(&ttfts, 95.0)),
        ttft_p99: d(percentile(&ttfts, 99.0)),
        e2e_p50: d(percentile(&e2es, 50.0)),
        e2e_p95: d(percentile(&e2es, 95.0)),
        throughput_tok_s,
        makespan,
        preemptions: mem.map_or(0, |m| m.counters().preemptions),
        swap_outs: mem.map_or(0, |m| m.counters().swap_outs),
        swapped_bytes: mem.map_or(0, |m| m.counters().swapped_bytes),
        recomputed_tokens: mem.map_or(0, |m| m.counters().recomputed_tokens),
        kv_peak_occupancy: mem.map_or(0.0, MemoryLayer::peak_occupancy),
        slo: SloReport::evaluate(cfg.slo, &latencies, cfg.new_tokens.max(1), makespan),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KvCacheConfig;
    use crate::observe::SloTargets;
    use skip_hw::Platform;
    use skip_llm::zoo;
    use skip_mem::{KvSpec, OffloadPolicy};

    fn cfg(policy: Policy, router: RouterPolicy, kv: Option<KvCacheConfig>) -> ServingConfig {
        ServingConfig {
            platform: Platform::intel_h100(),
            model: zoo::gpt2(),
            policy,
            requests: 24,
            arrival_rate_per_s: 80.0,
            prompt_len: 96,
            new_tokens: 4,
            seed: 23,
            kv,
            slo: SloTargets {
                ttft: Some(SimDuration::from_millis(200)),
                e2e: None,
            },
            router,
        }
    }

    /// Pins the frozen copy to the live floor while the two are still the
    /// same code: any accidental edit to either side breaks this before
    /// the refactor even starts.
    #[test]
    fn frozen_oracle_matches_live_floor() {
        let pressured = Some(KvCacheConfig::with_blocks(
            KvSpec::for_model(&zoo::gpt2(), KvSpec::DEFAULT_BLOCK_TOKENS).blocks_for(100) * 3,
            OffloadPolicy::Auto,
        ));
        for (c, replicas) in [
            (
                cfg(
                    Policy::Continuous { max_batch: 4 },
                    RouterPolicy::SharedQueue,
                    None,
                ),
                1,
            ),
            (
                cfg(
                    Policy::Static {
                        batch_size: 4,
                        max_wait: SimDuration::from_millis(30),
                    },
                    RouterPolicy::RoundRobin,
                    None,
                ),
                3,
            ),
            (
                cfg(
                    Policy::ChunkedPrefill {
                        max_batch: 4,
                        chunk_tokens: 48,
                    },
                    RouterPolicy::JoinShortestQueue,
                    pressured,
                ),
                2,
            ),
            // Partitioned queues without flush timers: the live floor kicks
            // only the touched replica where the legacy loop swept them all.
            (
                cfg(
                    Policy::Continuous { max_batch: 4 },
                    RouterPolicy::RoundRobin,
                    pressured,
                ),
                4,
            ),
            (
                cfg(
                    Policy::Continuous { max_batch: 4 },
                    RouterPolicy::JoinShortestQueue,
                    None,
                ),
                3,
            ),
        ] {
            let legacy = simulate_traced(&c, replicas);
            let live = crate::floor::simulate_traced(&c, replicas);
            let legacy_bytes = serde_json::to_string(&legacy).unwrap();
            let live_bytes = serde_json::to_string(&live).unwrap();
            assert_eq!(legacy_bytes, live_bytes, "policy {:?}", c.policy);
        }
    }

    mod equivalence {
        use super::*;
        use proptest::prelude::*;

        fn policy_strategy() -> impl Strategy<Value = Policy> {
            // Selector + prop_map in place of `prop_oneof!`: draw parameters
            // for every variant, keep the selected one.
            (0u32..3, 1u32..9, 5u64..81, 16u32..129).prop_map(|(kind, batch, ms, chunk_tokens)| {
                match kind {
                    0 => Policy::Continuous { max_batch: batch },
                    1 => Policy::Static {
                        batch_size: batch,
                        max_wait: SimDuration::from_millis(ms),
                    },
                    _ => Policy::ChunkedPrefill {
                        max_batch: batch,
                        chunk_tokens,
                    },
                }
            })
        }

        fn router_strategy() -> impl Strategy<Value = RouterPolicy> {
            prop::sample::select(vec![
                RouterPolicy::SharedQueue,
                RouterPolicy::RoundRobin,
                RouterPolicy::JoinShortestQueue,
            ])
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// The tentpole's equivalence theorem, tested: for a random
            /// scenario (policy × router × KV pressure × replica count ×
            /// load), the unified floor driving a one-group replica set
            /// produces the frozen pre-unification floor's report AND
            /// trace, byte for byte.
            #[test]
            fn unified_floor_equivalence(
                policy in policy_strategy(),
                router in router_strategy(),
                // 0 = unbounded KV; 1..=3 = block-budget multiplier, where
                // 1 barely holds one full request (maximum preemption churn).
                kv_pressure in 0u32..4,
                replicas in 1u32..5,
                rate in 10.0f64..400.0,
                requests in 5u32..41,
                prompt_len in 16u32..257,
                new_tokens in 1u32..9,
                seed in 0u64..u64::MAX,
            ) {
                let mut c = cfg(policy, router, None);
                c.requests = requests;
                c.arrival_rate_per_s = rate;
                c.prompt_len = prompt_len;
                c.new_tokens = new_tokens;
                c.seed = seed;
                c.kv = (kv_pressure > 0).then(|| {
                    let spec = KvSpec::for_model(&c.model, KvSpec::DEFAULT_BLOCK_TOKENS);
                    let full = spec.blocks_for(u64::from(prompt_len) + u64::from(new_tokens));
                    KvCacheConfig::with_blocks(full * kv_pressure + 1, OffloadPolicy::Auto)
                });
                let legacy = simulate_traced(&c, replicas);
                let live = crate::floor::simulate_traced(&c, replicas);
                prop_assert_eq!(
                    serde_json::to_string(&legacy).unwrap(),
                    serde_json::to_string(&live).unwrap(),
                    "diverged for policy {:?} router {:?} kv x{:?} replicas {}",
                    c.policy,
                    c.router,
                    kv_pressure,
                    replicas
                );
            }
        }
    }
}
