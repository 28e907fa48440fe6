//! The unified serving floor: the one place a serving floor is built, run
//! and summarised.
//!
//! Both public fronts lower their config to one [`FloorSpec`]: replica
//! groups, arrivals, batch policy, arrival and handoff routers, an
//! optional KV layer, an optional autoscaler, and the observer. The
//! single-node front (`crate::floor`) describes one homogeneous unified
//! group with a KV layer when budgeted; the fleet front
//! (`crate::fleet::floor`) describes heterogeneous, optionally
//! disaggregated and autoscaled groups. [`FloorSpec::run`] builds the
//! [`ReplicaSet`] and the [`UnifiedFloor`], drives the one DES loop, and
//! folds the finished set into the [`LatencySummary`] both reports share.
//!
//! How a wake-up restarts idle replicas follows from the description, not
//! from which front built it: when replicas share one queue, or the policy
//! arms flush timers (static batching), a wake-up sweeps every replica;
//! otherwise it kicks only the replica that was touched. So does whether a
//! decode-only iteration runs up to the next completion, arrival or KV
//! block shortfall in one event (a decode window): only on a lean,
//! unbounded, targeted-wake floor with one unified pool and no autoscaler,
//! with or without a memory layer.
//!
//! Scheduling itself still lives behind the three seams: the
//! [`Router`] picks a queue for each arrival (and a destination for each
//! KV handoff), the [`BatchPolicy`] forms and retires iterations through
//! a [`Lane`], and the [`MemoryLayer`] (inside the lane) owns all
//! KV-block bookkeeping. Adding a policy or router never touches this
//! file.

use std::collections::VecDeque;
use std::iter::Peekable;

use skip_des::{percentile, SimContext, SimDuration, SimTime, Simulator};
use skip_hw::Platform;
use skip_llm::ModelConfig;
use skip_mem::KvSpec;

use crate::fleet::autoscale::{AutoscaleConfig, ScaleAction, ScalingEvent};
use crate::fleet::observe::{FleetSample, FleetTrace};
use crate::fleet::spec::{PoolRole, ReplicaGroup};
use crate::latency::LatencyModel;
use crate::memctx::MemoryLayer;
use crate::observe::{
    CounterSample, LifecycleKind, RecordSink, ServingTrace, SloReport, SloTargets,
};
use crate::policy::{decode_window, BatchPolicy, Finished, Lane, ReplicaState};
use crate::request::Request;
use crate::router::{ReplicaLoad, Router};
use crate::stop::{StopCondition, StopGuard};

/// What the floor observes: nothing beyond its own state (`Lean`, every
/// untraced entry point), or the full recording — the single-node
/// [`ServingTrace`] or the fleet's [`FleetTrace`]. Policies and the loop
/// record through one vocabulary; each trace keeps its own sample shape
/// and serde bytes. Reports never read the recording, so a lean run
/// returns the same report as a traced one.
///
/// An enum rather than a type parameter: [`BatchPolicy`] is used as a
/// trait object, so its methods cannot be generic over the sink.
pub(crate) enum FloorObs {
    Lean,
    Serve(ServingTrace),
    Fleet(FleetTrace),
}

impl FloorObs {
    fn push_scaling(&mut self, ev: ScalingEvent) {
        if let FloorObs::Fleet(t) = self {
            t.scaling.push(ev);
        }
    }
}

impl RecordSink for FloorObs {
    fn record(&mut self, id: u64, at: SimTime, kind: LifecycleKind) {
        match self {
            FloorObs::Lean => {}
            FloorObs::Serve(t) => t.record(id, at, kind),
            FloorObs::Fleet(t) => t.record(id, at, kind),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Arrival(Request),
    /// A replica finished its current iteration/job.
    IterationDone(usize),
    /// The flush timer armed for `queue` expired (static batching).
    FlushTimeout {
        queue: usize,
        generation: u64,
    },
    /// The in-flight transfer on `dst`'s handoff link landed.
    HandoffDone(usize),
    /// Autoscaler decision point.
    ScaleTick,
    /// A launching replica finished provisioning + weight load.
    ReplicaUp(usize),
}

/// Replica lifecycle under autoscaling; fixed sets stay [`RState::Up`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RState {
    Launching,
    Up,
    Draining,
    Down,
}

/// A KV handoff parked on (or moving over) a destination link.
#[derive(Debug, Clone, Copy)]
struct Handoff {
    req: Request,
    queued_at: SimTime,
    bytes: u64,
    transfer: SimDuration,
}

/// Per-replica ingress link: FIFO queue plus at most one in-flight
/// transfer, so concurrent handoffs to the same destination serialize and
/// the interconnect shows up as occupancy. One-pool floors keep these
/// permanently empty (zero-cost links).
#[derive(Debug, Default)]
struct LinkRt {
    queue: VecDeque<Handoff>,
    inflight: Option<(Handoff, SimTime)>,
}

impl LinkRt {
    fn depth(&self) -> u32 {
        (self.queue.len() + usize::from(self.inflight.is_some())) as u32
    }
}

/// One queue's flush timer: the deadline of the oldest pending arrival
/// plus the policy's `max_wait`. The generation counter invalidates
/// superseded timer events still sitting in the DES queue.
#[derive(Default)]
struct FlushTimer {
    generation: u64,
    deadline: Option<SimTime>,
}

/// One replica's identity inside the set: which platform prices it,
/// which pool it serves, its scaling state, and its unit serving cost
/// (the cost-model router's exchange rate; 0 when pricing is uniform).
struct ReplicaMeta {
    platform_idx: usize,
    pool: PoolRole,
    state: RState,
    unit_cost_ns: f64,
}

/// The unified floor's replica fields, grouped: the platforms and their
/// latency models, per-replica identities, handoff links, the two routing
/// seams, and the scaling/billing knobs. A single-node floor is the
/// degenerate case — one group, one pool, always-up replicas, inert
/// links, no autoscaler.
pub(crate) struct ReplicaSet {
    platforms: Vec<Platform>,
    lat: Vec<LatencyModel>,
    meta: Vec<ReplicaMeta>,
    links: Vec<LinkRt>,
    /// Routes arrivals to a queue.
    arrival_router: Box<dyn Router>,
    /// Routes finished prefills to a decode replica.
    handoff_router: Box<dyn Router>,
    /// KV geometry for handoff sizing.
    kv: KvSpec,
    disagg: bool,
    autoscale: Option<AutoscaleConfig>,
    /// Model weight bytes a launching replica loads over its host link.
    weight_bytes: u64,
    // Cumulative handoff and scaling telemetry.
    pub(crate) handoffs: u64,
    pub(crate) handoff_bytes: u64,
    pub(crate) handoff_waits: Vec<f64>,
    pub(crate) handoff_transfer_ns: f64,
    pub(crate) scale_ups: u32,
    pub(crate) scale_downs: u32,
    pub(crate) peak_live: u32,
    pub(crate) replica_ns: f64,
    last_bill: SimTime,
}

impl ReplicaSet {
    fn live_count(&self) -> u32 {
        self.meta
            .iter()
            .filter(|m| matches!(m.state, RState::Up | RState::Draining))
            .count() as u32
    }

    /// Accrues replica-seconds up to `now` at the current live count.
    /// Called before any state transition and once at the end.
    fn bill(&mut self, now: SimTime) {
        let live = self.live_count();
        self.replica_ns +=
            now.saturating_duration_since(self.last_bill).as_nanos_f64() * f64::from(live);
        self.last_bill = now;
    }

    /// The bill the run has provably accrued by `now`, without mutating
    /// billing state — what a cost-ceiling [`StopCondition`] compares
    /// against between events.
    fn accrued_replica_seconds(&self, now: SimTime) -> f64 {
        (self.replica_ns
            + now.saturating_duration_since(self.last_bill).as_nanos_f64()
                * f64::from(self.live_count()))
            / 1e9
    }
}

/// Per-request service estimate on one platform, in nanoseconds — the
/// cost-model JSQ's exchange rate between queue depths on different
/// platforms. Memoized in the [`LatencyModel`]'s price table, so this is
/// two table hits after the first call. Priced only for a validated fleet,
/// so every count is at least 1.
fn unit_cost_ns(
    lat: &LatencyModel,
    pool: PoolRole,
    max_batch: u32,
    prompt_len: u32,
    new_tokens: u32,
) -> f64 {
    let b = max_batch;
    let prefill = lat.prefill(b, prompt_len).as_nanos_f64() / f64::from(b);
    let steps = new_tokens - 1;
    let decode = lat.decode_step(b, prompt_len + new_tokens).as_nanos_f64() / f64::from(b);
    match pool {
        PoolRole::Prefill => prefill,
        PoolRole::Decode => decode * f64::from(steps.max(1)),
        PoolRole::Unified => prefill + decode * f64::from(steps),
    }
}

/// A serving floor as both fronts describe it. [`FloorSpec::run`] is the
/// only constructor of a [`UnifiedFloor`].
pub(crate) struct FloorSpec<'a> {
    /// Replica groups, in replica-index order.
    pub(crate) groups: &'a [ReplicaGroup],
    pub(crate) model: &'a ModelConfig,
    /// Arrivals in time order with dense ids from 0, drawn one at a time
    /// as the loop reaches them.
    pub(crate) arrivals: Box<dyn Iterator<Item = Request> + 'a>,
    /// How many requests `arrivals` yields.
    pub(crate) requests: u32,
    pub(crate) prompt_len: u32,
    pub(crate) new_tokens: u32,
    /// Admission slots per replica under the fleet policies, and the batch
    /// the cost-model router's unit prices assume. Zero for the
    /// single-node policies, which carry their own limits; their routers
    /// read no price, so every unit price stays zero.
    pub(crate) max_batch: u32,
    pub(crate) policy: Box<dyn BatchPolicy>,
    pub(crate) arrival_router: Box<dyn Router>,
    /// A second router instance, so round-robin handoff dispatch keeps its
    /// own cursor. Never consulted without a decode pool.
    pub(crate) handoff_router: Box<dyn Router>,
    /// Paged-KV bookkeeping, one pool per replica; `None` is an infinite
    /// cache.
    pub(crate) mem: Option<MemoryLayer>,
    pub(crate) autoscale: Option<AutoscaleConfig>,
    pub(crate) obs: FloorObs,
    pub(crate) slo: SloTargets,
    pub(crate) stop: StopCondition,
}

/// A finished floor: its final state, the latency summary of what it
/// completed, whether a [`StopCondition`] cut it short, and how many
/// events its loop handled.
pub(crate) struct FloorRun {
    pub(crate) floor: UnifiedFloor,
    pub(crate) latency: LatencySummary,
    pub(crate) aborted: bool,
    pub(crate) events: u64,
}

impl FloorSpec<'_> {
    /// Builds the described floor, drives it to completion (or to the
    /// first blown budget), bills the span it ran, and summarises its
    /// latencies.
    pub(crate) fn run(self) -> FloorRun {
        // One platform entry (and LatencyModel) per distinct platform
        // name; replicas reference them by index so a 4-replica group
        // prices through one model.
        let mut platforms: Vec<Platform> = Vec::new();
        let mut meta: Vec<ReplicaMeta> = Vec::new();
        for g in self.groups {
            let platform_idx = match platforms.iter().position(|p| p.name == g.platform.name) {
                Some(i) => i,
                None => {
                    platforms.push(g.platform.clone());
                    platforms.len() - 1
                }
            };
            meta.extend((0..g.count).map(|_| ReplicaMeta {
                platform_idx,
                pool: g.role,
                state: RState::Up,
                unit_cost_ns: 0.0,
            }));
        }
        let lat: Vec<LatencyModel> = platforms
            .iter()
            .map(|p| LatencyModel::new(p.clone(), self.model.clone()))
            .collect();
        if self.max_batch > 0 {
            // Pure and memoized, so pricing eagerly here only warms the
            // latency caches.
            for m in &mut meta {
                m.unit_cost_ns = unit_cost_ns(
                    &lat[m.platform_idx],
                    m.pool,
                    self.max_batch,
                    self.prompt_len,
                    self.new_tokens,
                );
            }
        }
        let n = meta.len();
        let nq = self.arrival_router.queue_count(n).clamp(1, n);
        let disagg = self.groups.iter().any(|g| g.role != PoolRole::Unified);
        let sweeps = nq < n || self.policy.flush_after().is_some();
        // Decode windows need a floor where only an arrival can touch a
        // decoding replica: targeted wakes, one unified pool (no handoff
        // lands) and no autoscaler. A memory layer is no bar: each replica
        // owns its pool, and a window stops short of a block shortfall. A
        // lean, unbounded run reads neither per-iteration samples nor
        // per-event budgets.
        let windows = matches!(self.obs, FloorObs::Lean)
            && self.stop.is_unbounded()
            && !sweeps
            && !disagg
            && self.autoscale.is_none();

        let mut sim: Simulator<Event> = Simulator::new();
        let mut arrivals = self
            .arrivals
            .map(|req| (req.arrival, Event::Arrival(req)))
            .peekable();
        let first_arrival = arrivals.peek().map(|&(at, _)| at);
        if let Some(auto) = &self.autoscale {
            sim.schedule(SimTime::ZERO + auto.interval, Event::ScaleTick);
        }

        let mut floor = UnifiedFloor {
            set: ReplicaSet {
                platforms,
                lat,
                meta,
                links: (0..n).map(|_| LinkRt::default()).collect(),
                arrival_router: self.arrival_router,
                handoff_router: self.handoff_router,
                kv: KvSpec::for_model(self.model, KvSpec::DEFAULT_BLOCK_TOKENS),
                disagg,
                autoscale: self.autoscale,
                weight_bytes: self.model.weight_bytes_fp16(),
                handoffs: 0,
                handoff_bytes: 0,
                handoff_waits: Vec::with_capacity(if disagg { self.requests as usize } else { 0 }),
                handoff_transfer_ns: 0.0,
                scale_ups: 0,
                scale_downs: 0,
                peak_live: n as u32,
                replica_ns: 0.0,
                last_bill: SimTime::ZERO,
            },
            sweeps,
            windows,
            policy: self.policy,
            queues: (0..nq).map(|_| VecDeque::new()).collect(),
            queue_of: (0..n).map(|r| r.min(nq - 1)).collect(),
            states: (0..n)
                .map(|_| ReplicaState {
                    actives: Vec::with_capacity(self.max_batch as usize),
                    ..ReplicaState::default()
                })
                .collect(),
            mem: self.mem,
            finished: Vec::with_capacity(self.requests as usize),
            first_token: vec![SimTime::ZERO; self.requests as usize],
            last_completion: SimTime::ZERO,
            flush: (0..nq).map(|_| FlushTimer::default()).collect(),
            obs: self.obs,
            expired_buf: vec![false; nq],
            load_buf: Vec::with_capacity(n),
            scratch_handoffs: Vec::with_capacity(if disagg { self.max_batch as usize } else { 0 }),
            requests: self.requests,
        };

        let aborted = floor.drive(&mut sim, &mut arrivals, self.stop, self.slo);
        // An aborted run bills the span actually simulated: its truncated
        // report still prices what it rented before it was called off.
        let end = if aborted { sim.now() } else { SimTime::ZERO };
        floor
            .set
            .bill(end.max(floor.last_completion).max(floor.set.last_bill));
        let latency = LatencySummary::of(
            &floor.finished,
            first_arrival,
            floor.last_completion,
            self.new_tokens,
            self.slo,
        );
        FloorRun {
            floor,
            latency,
            aborted,
            events: sim.events_processed(),
        }
    }
}

/// The fields [`ServingReport`](crate::ServingReport) and
/// [`FleetReport`](crate::FleetReport) share, folded from a finished set.
pub(crate) struct LatencySummary {
    pub(crate) completed: u32,
    pub(crate) ttft_p50: SimDuration,
    pub(crate) ttft_p95: SimDuration,
    pub(crate) ttft_p99: SimDuration,
    pub(crate) e2e_p50: SimDuration,
    pub(crate) e2e_p95: SimDuration,
    pub(crate) throughput_tok_s: f64,
    pub(crate) makespan: SimDuration,
    pub(crate) slo: SloReport,
}

impl LatencySummary {
    /// Summarises `finished` over the span from the first arrival to the
    /// last completion. Tokens count completed requests only, and an empty
    /// finished set yields an all-zero (but well-formed) summary rather
    /// than a panic.
    pub(crate) fn of(
        finished: &[Finished],
        first_arrival: Option<SimTime>,
        last_completion: SimTime,
        new_tokens: u32,
        slo: SloTargets,
    ) -> Self {
        let latencies: Vec<(SimDuration, SimDuration)> =
            finished.iter().map(|f| (f.ttft, f.e2e)).collect();
        let ttfts: Vec<f64> = latencies.iter().map(|(t, _)| t.as_nanos_f64()).collect();
        let e2es: Vec<f64> = latencies.iter().map(|(_, e)| e.as_nanos_f64()).collect();
        let makespan =
            last_completion.saturating_duration_since(first_arrival.unwrap_or(SimTime::ZERO));
        let completed = finished.len() as u32;
        let total_tokens = u64::from(completed) * u64::from(new_tokens);
        let throughput_tok_s = if completed == 0 {
            0.0
        } else {
            total_tokens as f64 / makespan.as_secs_f64().max(1e-12)
        };
        let d = |v: f64| SimDuration::from_nanos_f64(v);
        LatencySummary {
            completed,
            ttft_p50: d(percentile(&ttfts, 50.0)),
            ttft_p95: d(percentile(&ttfts, 95.0)),
            ttft_p99: d(percentile(&ttfts, 99.0)),
            e2e_p50: d(percentile(&e2es, 50.0)),
            e2e_p95: d(percentile(&e2es, 95.0)),
            throughput_tok_s,
            makespan,
            slo: SloReport::evaluate(slo, &latencies, new_tokens, makespan),
        }
    }
}

/// The unified floor: DES state shared by both serving fronts, plus the
/// policy/router/memory seams.
pub(crate) struct UnifiedFloor {
    pub(crate) set: ReplicaSet,
    policy: Box<dyn BatchPolicy>,
    /// Pending queues — one shared (index 0) or one per replica,
    /// whichever topology the router declared.
    queues: Vec<VecDeque<Request>>,
    /// Which queue each replica pulls from.
    queue_of: Vec<usize>,
    states: Vec<ReplicaState>,
    pub(crate) mem: Option<MemoryLayer>,
    finished: Vec<Finished>,
    /// First-token instant of every request, indexed by request id (see
    /// [`Lane::first_token`]).
    first_token: Vec<SimTime>,
    last_completion: SimTime,
    flush: Vec<FlushTimer>,
    /// The observer: lean, or lifecycle records + counter samples.
    pub(crate) obs: FloorObs,
    /// Whether a wake-up sweeps every replica, derived from the
    /// description: when replicas share a queue, any idle one may take new
    /// work; when the policy arms flush timers, an expiry may release a
    /// partial batch on any queue. Otherwise only the touched replica's
    /// inputs changed: every other idle replica found nothing to start
    /// when its own inputs last changed, and still finds nothing.
    sweeps: bool,
    /// Whether an iteration may grow into a decode window (see
    /// [`decode_window`]), derived from the description like `sweeps`.
    windows: bool,
    /// Reused per-event scratch: which queues' oldest waiter timed out.
    /// Refilled by [`refresh_expired`](Self::refresh_expired); never
    /// reallocated after construction.
    expired_buf: Vec<bool>,
    /// Reused per-arrival scratch: the router's load snapshot.
    load_buf: Vec<ReplicaLoad>,
    /// Reusable buffer for handoffs discovered during a retire.
    scratch_handoffs: Vec<Request>,
    /// Total requests this run serves (the autoscaler's done check).
    requests: u32,
}

impl UnifiedFloor {
    /// Drives the event loop to completion (or to the first blown budget),
    /// returning whether the run aborted. Arrivals are merged in front of
    /// the queue one at a time, winning ties, so the queue only ever holds
    /// what handlers schedule. Bounded runs step the same loop with
    /// incremental miss and bill bookkeeping after every event, so a run
    /// no budget stops is byte-identical to the unbounded run.
    fn drive(
        &mut self,
        sim: &mut Simulator<Event>,
        arrivals: &mut Peekable<impl Iterator<Item = (SimTime, Event)>>,
        stop: StopCondition,
        slo: SloTargets,
    ) -> bool {
        if stop.is_unbounded() {
            while sim.step_merged(arrivals, |ctx, event| self.handle(ctx, event)) {}
            return false;
        }
        let mut guard = StopGuard::new(stop, slo);
        let mut noted = 0usize;
        while sim.step_merged(arrivals, |ctx, event| self.handle(ctx, event)) {
            for f in &self.finished[noted..] {
                guard.note(f.ttft, f.e2e);
            }
            noted = self.finished.len();
            if guard.miss_budget_blown()
                || (guard.wants_cost()
                    && guard.cost_blown(self.set.accrued_replica_seconds(sim.now())))
            {
                return true;
            }
        }
        false
    }

    fn handle(&mut self, ctx: &mut SimContext<'_, Event>, event: Event) {
        let now = ctx.now();
        match event {
            Event::Arrival(req) => {
                self.obs.record(req.id, now, LifecycleKind::Arrived);
                self.snapshot_load(true);
                let q = self
                    .set
                    .arrival_router
                    .route(&self.load_buf)
                    .min(self.queues.len() - 1);
                self.queues[q].push_back(req);
                self.wake(ctx, q);
            }
            Event::FlushTimeout { queue, generation } => {
                if generation == self.flush[queue].generation {
                    self.flush[queue].deadline = None;
                    if !self.queues[queue].is_empty() {
                        self.expired_buf.iter_mut().for_each(|e| *e = false);
                        self.expired_buf[queue] = true;
                        self.kick_all(ctx);
                    }
                    self.arm_flush_timers(ctx);
                }
            }
            Event::IterationDone(replica) => {
                self.states[replica].busy = false;
                self.with_lane(now, replica, |policy, lane| policy.retire(lane));
                self.dispatch_handoffs(ctx, replica, now);
                self.wake(ctx, replica);
                if self.set.autoscale.is_some() {
                    self.settle_drains(now);
                }
            }
            Event::HandoffDone(dst) => {
                let (h, started) = self.set.links[dst]
                    .inflight
                    .take()
                    .expect("HandoffDone without an in-flight transfer");
                self.obs.record(
                    h.req.id,
                    now,
                    LifecycleKind::HandoffDone {
                        to: dst as u32,
                        wait: started.saturating_duration_since(h.queued_at),
                        transfer: h.transfer,
                    },
                );
                self.set.handoffs += 1;
                self.set.handoff_bytes += h.bytes;
                self.set.handoff_waits.push(
                    started
                        .saturating_duration_since(h.queued_at)
                        .as_nanos_f64(),
                );
                self.set.handoff_transfer_ns += h.transfer.as_nanos_f64();
                self.queues[self.queue_of[dst]].push_back(h.req);
                self.pump_link(ctx, dst, now);
                self.kick(ctx, dst, false);
            }
            Event::ScaleTick => self.scale_tick(ctx, now),
            Event::ReplicaUp(r) => {
                self.set.bill(now);
                self.set.meta[r].state = RState::Up;
                // The only transition that raises the live count.
                self.set.peak_live = self.set.peak_live.max(self.set.live_count());
                self.set.scale_ups += 1;
                self.obs.push_scaling(ScalingEvent {
                    at: now,
                    pool: self.set.meta[r].pool,
                    replica: r as u32,
                    action: ScaleAction::Up,
                });
                self.kick(ctx, r, false);
            }
        }
        self.sample(now);
    }

    /// Restarts idle replicas after `touched`'s queue or state changed:
    /// a sweeping floor refreshes flush expiry, kicks every replica, and
    /// re-arms the timers; otherwise only `touched` is kicked.
    fn wake(&mut self, ctx: &mut SimContext<'_, Event>, touched: usize) {
        if self.sweeps {
            self.refresh_expired(ctx.now());
            self.kick_all(ctx);
            self.arm_flush_timers(ctx);
        } else {
            self.kick(ctx, touched, false);
        }
    }

    /// Builds the lane — one replica's complete scheduling context — and
    /// hands it to `f` together with the batch policy.
    fn with_lane<R>(
        &mut self,
        now: SimTime,
        replica: usize,
        f: impl FnOnce(&dyn BatchPolicy, &mut Lane<'_>) -> R,
    ) -> R {
        let q = self.queue_of[replica];
        let meta = &self.set.meta[replica];
        let mut lane = Lane {
            lat: &self.set.lat[meta.platform_idx],
            now,
            replica,
            pool: meta.pool,
            queue: &mut self.queues[q],
            state: &mut self.states[replica],
            mem: self.mem.as_mut().map(|m| m.lane(replica)),
            obs: &mut self.obs,
            done: &mut self.finished,
            first_token: &mut self.first_token,
            handoffs_out: &mut self.scratch_handoffs,
            last_completion: &mut self.last_completion,
            decode_only: false,
        };
        f(&*self.policy, &mut lane)
    }

    /// Starts the next iteration on replica `r` if it is idle, routable,
    /// and has work; `flush` forces a partial static batch.
    fn kick(&mut self, ctx: &mut SimContext<'_, Event>, r: usize, flush: bool) {
        if self.states[r].busy || matches!(self.set.meta[r].state, RState::Launching | RState::Down)
        {
            return;
        }
        let now = ctx.now();
        let until = ctx.source_next();
        let windows = self.windows;
        let dur = self.with_lane(now, r, |policy, lane| {
            let step = policy.next_iteration(lane, flush)?;
            Some(if windows {
                decode_window(lane, step, until)
            } else {
                step
            })
        });
        if let Some(dur) = dur {
            self.states[r].busy = true;
            ctx.schedule(now + dur, Event::IterationDone(r));
        }
    }

    /// Kicks every replica, flushing those whose queue `expired_buf`
    /// marks as timed out. The caller fills the mask once per pass, so a
    /// replica consuming a queue's head cannot change the flush decision
    /// for the replicas after it.
    fn kick_all(&mut self, ctx: &mut SimContext<'_, Event>) {
        for r in 0..self.states.len() {
            let flush = self.expired_buf[self.queue_of[r]];
            self.kick(ctx, r, flush);
        }
    }

    /// Refills `expired_buf` with which queues' oldest pending arrival has
    /// waited the policy's full flush window.
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

    /// Arms each queue's flush timer for its **oldest** pending arrival.
    ///
    /// The timer tracks the head of the queue and is only re-armed when
    /// the head's deadline differs from the one outstanding; heads already
    /// past their deadline are handled by the expiry check every event
    /// performs, so no timer is needed for them.
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
            timer.generation += 1; // invalidates any outstanding timer
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

    /// Refills `load_buf` with per-replica load snapshots for the
    /// routers, marking which replicas may receive the routed direction
    /// (`arrivals` or handoffs): up, and in a pool serving it. A
    /// one-pool, always-up floor marks every replica eligible.
    fn snapshot_load(&mut self, arrivals: bool) {
        let UnifiedFloor {
            set,
            queues,
            queue_of,
            states,
            mem,
            load_buf,
            ..
        } = self;
        let want = |m: &ReplicaMeta| {
            if arrivals {
                matches!(m.pool, PoolRole::Unified | PoolRole::Prefill)
            } else {
                m.pool == PoolRole::Decode
            }
        };
        load_buf.clear();
        load_buf.extend((0..states.len()).map(|r| ReplicaLoad {
            queued: queues[queue_of[r]].len() as u32,
            running: states[r].actives.len() as u32,
            parked: mem.as_ref().map_or(0, |m| m.parked_len(r)) as u32,
            link: set.links[r].depth(),
            eligible: set.meta[r].state == RState::Up && want(&set.meta[r]),
            unit_cost_ns: set.meta[r].unit_cost_ns,
        }));
        if !load_buf.iter().any(|l| l.eligible) {
            // Degenerate fallback (every candidate mid-drain): route to
            // any non-down replica of the right pool so no request is
            // stranded.
            for (l, m) in load_buf.iter_mut().zip(&set.meta) {
                l.eligible = m.state != RState::Down && want(m);
            }
            assert!(
                load_buf.iter().any(|l| l.eligible),
                "fleet has no routable replica"
            );
        }
    }

    /// Starts every handoff the retire just parked in the scratch buffer
    /// (reused across retires).
    fn dispatch_handoffs(&mut self, ctx: &mut SimContext<'_, Event>, from: usize, now: SimTime) {
        if self.scratch_handoffs.is_empty() {
            return;
        }
        let mut handoffs = std::mem::take(&mut self.scratch_handoffs);
        for req in handoffs.drain(..) {
            self.start_handoff(ctx, from, req, now);
        }
        self.scratch_handoffs = handoffs;
    }

    /// Queues `req`'s KV on a decode replica's ingress link, starting the
    /// transfer immediately when the link is idle.
    fn start_handoff(
        &mut self,
        ctx: &mut SimContext<'_, Event>,
        from: usize,
        req: Request,
        now: SimTime,
    ) {
        self.snapshot_load(false);
        let dst = self
            .set
            .handoff_router
            .route(&self.load_buf)
            .min(self.queues.len() - 1);
        // Prompt plus the first token produced by prefill, in whole
        // blocks — what paged attention actually migrates.
        let bytes = self
            .set
            .kv
            .handoff_bytes(u64::from(req.prompt_len).saturating_add(1));
        let src_p = &self.set.platforms[self.set.meta[from].platform_idx];
        let dst_p = &self.set.platforms[self.set.meta[dst].platform_idx];
        let transfer = src_p.kv_handoff_time(dst_p, bytes);
        self.obs.record(
            req.id,
            now,
            LifecycleKind::HandoffQueued {
                from: from as u32,
                bytes,
            },
        );
        self.set.links[dst].queue.push_back(Handoff {
            req,
            queued_at: now,
            bytes,
            transfer,
        });
        self.pump_link(ctx, dst, now);
    }

    /// Starts the next queued transfer on `dst`'s link if it is idle.
    fn pump_link(&mut self, ctx: &mut SimContext<'_, Event>, dst: usize, now: SimTime) {
        if self.set.links[dst].inflight.is_some() {
            return;
        }
        if let Some(h) = self.set.links[dst].queue.pop_front() {
            let transfer = h.transfer;
            self.set.links[dst].inflight = Some((h, now));
            ctx.schedule(now + transfer, Event::HandoffDone(dst));
        }
    }

    /// Outstanding work at replica `i`: its queue, its running batch, and
    /// handoffs already committed to its link.
    fn backlog(&self, i: usize) -> u32 {
        (self.queues[self.queue_of[i]].len() + self.states[i].actives.len()) as u32
            + self.set.links[i].depth()
    }

    fn scale_tick(&mut self, ctx: &mut SimContext<'_, Event>, now: SimTime) {
        let Some(auto) = self.set.autoscale else {
            return;
        };
        let all_done = self.finished.len() >= self.requests as usize;
        if !all_done {
            let pools: &[PoolRole] = if self.set.disagg {
                &[PoolRole::Prefill, PoolRole::Decode]
            } else {
                &[PoolRole::Unified]
            };
            for &pool in pools {
                self.scale_pool(ctx, pool, auto, now);
            }
            ctx.schedule(now + auto.interval, Event::ScaleTick);
        }
        self.settle_drains(now);
    }

    fn scale_pool(
        &mut self,
        ctx: &mut SimContext<'_, Event>,
        pool: PoolRole,
        auto: AutoscaleConfig,
        now: SimTime,
    ) {
        // One counting pass over the pool: outstanding work, up/launching
        // tallies, the newest up replica (drain victim), and the pool's
        // seed replica — no per-tick index vectors.
        let mut outstanding = 0u32;
        let mut up_count = 0u32;
        let mut last_up = None;
        let mut launching = 0u32;
        let mut seed = None;
        for i in 0..self.set.meta.len() {
            if self.set.meta[i].pool != pool {
                continue;
            }
            seed = seed.or(Some(i));
            outstanding += self.backlog(i);
            match self.set.meta[i].state {
                RState::Up => {
                    up_count += 1;
                    last_up = Some(i);
                }
                RState::Launching => launching += 1,
                _ => {}
            }
        }
        let pressure = f64::from(outstanding) / f64::from(up_count.max(1));
        if pressure > auto.high_load && (up_count + launching) < auto.max_per_pool {
            // Clone the pool's seed replica: same platform, same unit price.
            let seed = &self.set.meta[seed.expect("pool has at least one replica")];
            let (platform_idx, unit_cost_ns) = (seed.platform_idx, seed.unit_cost_ns);
            let launch_cost = auto.provision_delay
                + self.set.platforms[platform_idx].h2d_transfer(self.set.weight_bytes);
            let new_idx = self.set.meta.len();
            self.set.meta.push(ReplicaMeta {
                platform_idx,
                pool,
                state: RState::Launching,
                unit_cost_ns,
            });
            self.set.links.push(LinkRt::default());
            self.states.push(ReplicaState::default());
            self.queues.push(VecDeque::new());
            self.queue_of.push(new_idx);
            self.obs.push_scaling(ScalingEvent {
                at: now,
                pool,
                replica: new_idx as u32,
                action: ScaleAction::LaunchRequested,
            });
            ctx.schedule(now + launch_cost, Event::ReplicaUp(new_idx));
        } else if pressure < auto.low_load && up_count > auto.min_per_pool && launching == 0 {
            // Drain the newest up replica; it keeps its backlog and
            // leaves once empty.
            let victim = last_up.expect("up set non-empty above");
            self.set.bill(now);
            self.set.meta[victim].state = RState::Draining;
            self.obs.push_scaling(ScalingEvent {
                at: now,
                pool,
                replica: victim as u32,
                action: ScaleAction::DrainRequested,
            });
        }
    }

    /// Retires draining replicas whose backlog has fully emptied.
    fn settle_drains(&mut self, now: SimTime) {
        for i in 0..self.set.meta.len() {
            let empty = self.set.meta[i].state == RState::Draining
                && !self.states[i].busy
                && self.queues[self.queue_of[i]].is_empty()
                && self.states[i].actives.is_empty()
                && self.set.links[i].depth() == 0;
            if empty {
                self.set.bill(now);
                self.set.meta[i].state = RState::Down;
                self.set.scale_downs += 1;
                self.obs.push_scaling(ScalingEvent {
                    at: now,
                    pool: self.set.meta[i].pool,
                    replica: i as u32,
                    action: ScaleAction::Down,
                });
            }
        }
    }

    /// Samples every counter track at an iteration boundary, in the shape
    /// the run's trace expects (a lean floor samples nothing).
    /// Re-sampling at the same instant overwrites, so each boundary keeps
    /// its final state.
    fn sample(&mut self, now: SimTime) {
        let UnifiedFloor {
            set,
            queues,
            queue_of,
            states,
            mem,
            obs,
            ..
        } = self;
        match obs {
            FloorObs::Lean => {}
            FloorObs::Serve(t) => {
                let running: usize = states.iter().map(|s| s.actives.len()).sum();
                let parked = mem.as_ref().map_or(0, MemoryLayer::parked_total);
                let busy = states.iter().filter(|s| s.busy).count();
                let sample = CounterSample {
                    at: now,
                    queue_depth: queues.iter().map(VecDeque::len).sum::<usize>() as u32,
                    running: running as u32,
                    parked: parked as u32,
                    busy_replicas: busy as u32,
                    kv_used_blocks: mem.as_ref().map_or(0, MemoryLayer::used_blocks),
                    kv_total_blocks: mem.as_ref().map_or(0, MemoryLayer::total_blocks),
                    admitted_total: t.admitted_total(),
                    completed_total: t.completed_total(),
                };
                t.push_sample(sample);
            }
            FloorObs::Fleet(t) => {
                let mut prefill_queue = 0u32;
                let mut decode_queue = 0u32;
                let mut running = 0u32;
                for (r, m) in set.meta.iter().enumerate() {
                    running += states[r].actives.len() as u32;
                    if m.pool == PoolRole::Decode {
                        decode_queue += queues[queue_of[r]].len() as u32;
                    } else {
                        prefill_queue += queues[queue_of[r]].len() as u32;
                    }
                }
                let handoff_queued: u32 = set.links.iter().map(|l| l.queue.len() as u32).sum();
                let handoff_inflight =
                    set.links.iter().filter(|l| l.inflight.is_some()).count() as u32;
                t.push_sample(FleetSample {
                    at: now,
                    prefill_queue,
                    decode_queue,
                    running,
                    handoff_queued,
                    handoff_inflight,
                    live_replicas: set.live_count(),
                    arrived_total: t.arrived_total(),
                    completed_total: t.completed_total(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use skip_des::{SimDuration, SimTime};
    use skip_hw::Platform;
    use skip_llm::zoo;
    use skip_mem::{KvSpec, OffloadPolicy};

    use super::{FloorObs, FloorSpec};
    use crate::config::{KvCacheConfig, Policy, RouterPolicy, ServingConfig};
    use crate::fleet::arrivals::ArrivalProcess;
    use crate::fleet::autoscale::AutoscaleConfig;
    use crate::fleet::floor::{fleet_report, run_fleet};
    use crate::fleet::observe::FleetTrace;
    use crate::fleet::spec::{
        FleetBatchPolicy, FleetConfig, FleetRouterPolicy, FleetSpec, PoolRole, ReplicaGroup,
    };
    use crate::floor::{run_floor, serving_report, ServingReport};
    use crate::latency::LatencyModel;
    use crate::memctx::MemoryLayer;
    use crate::observe::{LifecycleKind, ServingTrace, SloTargets};
    use crate::policy::BatchPolicy;
    use crate::request::Request;
    use crate::stop::StopCondition;

    /// Tight enough that part of every load misses it.
    const SLO: SloTargets = SloTargets {
        ttft: Some(SimDuration::from_millis(40)),
        e2e: None,
    };

    /// No budget; a ceiling no run reaches (the stepped loop runs to the
    /// end); an attainment floor most runs blow part-way; a bill ceiling
    /// a fraction of a replica-second in.
    fn stops(requests: u32) -> [StopCondition; 4] {
        let ceiling = |c| StopCondition {
            cost_ceiling: Some(c),
            ..StopCondition::UNBOUNDED
        };
        [
            StopCondition::UNBOUNDED,
            ceiling(1e9),
            StopCondition::for_attainment(requests, 0.9, SLO),
            ceiling(0.2),
        ]
    }

    /// Counts of (runs, aborted runs) checked, so the grid provably
    /// covers aborts.
    #[derive(Default)]
    struct Tally {
        runs: u32,
        aborted: u32,
    }

    impl Tally {
        /// Checks one lean run against its traced twin, each given as
        /// (report, events handled): the reports must serialize
        /// identically, and the lean floor handles no more events than
        /// the traced one, exactly as many where `windows` says it may not
        /// use decode windows. Returns whether the lean floor windowed.
        fn check<R: serde::Serialize>(
            &mut self,
            lean: (R, u64),
            traced: (R, u64),
            aborted: bool,
            windows: bool,
            what: &str,
        ) -> bool {
            assert_eq!(
                serde_json::to_string(&lean.0).unwrap(),
                serde_json::to_string(&traced.0).unwrap(),
                "lean and recording observers diverged for {what}"
            );
            if windows {
                assert!(
                    lean.1 <= traced.1,
                    "lean floor handled more events for {what}"
                );
            } else {
                assert_eq!(
                    lean.1, traced.1,
                    "a floor without windows skipped events for {what}"
                );
            }
            self.runs += 1;
            self.aborted += u32::from(aborted);
            lean.1 < traced.1
        }
    }

    /// The lean observer never changes what the floor computes: over
    /// shape × policy × router × KV pressure, the single-node floor returns
    /// a serde-identical report whether it records or not. Single-node runs
    /// are unbounded, so the grid has no stop-condition axis. The shapes
    /// are (arrival rate, new tokens): a short decode at a high rate, and a
    /// long decode at a low rate, on which every floor that may window
    /// (targeted wakes, pressured KV pool or none) handles fewer events
    /// than its traced twin.
    #[test]
    fn lean_single_node_floor_reports_what_the_recording_floor_reports() {
        let model = zoo::gpt2();
        let spec = KvSpec::for_model(&model, KvSpec::DEFAULT_BLOCK_TOKENS);
        let mut tally = Tally::default();
        for (rate, new_tokens) in [(150.0, 6), (20.0, 64)] {
            let pressured = KvCacheConfig::with_blocks(
                spec.blocks_for(u64::from(96 + new_tokens)) * 2,
                OffloadPolicy::Auto,
            );
            for policy in [
                Policy::Continuous { max_batch: 4 },
                Policy::Static {
                    batch_size: 4,
                    max_wait: SimDuration::from_millis(30),
                },
                Policy::ChunkedPrefill {
                    max_batch: 4,
                    chunk_tokens: 48,
                },
            ] {
                for router in [
                    RouterPolicy::SharedQueue,
                    RouterPolicy::RoundRobin,
                    RouterPolicy::JoinShortestQueue,
                ] {
                    for kv in [None, Some(pressured)] {
                        let cfg = ServingConfig {
                            platform: Platform::intel_h100(),
                            model: model.clone(),
                            policy,
                            requests: 40,
                            arrival_rate_per_s: rate,
                            prompt_len: 96,
                            new_tokens,
                            seed: 29,
                            kv,
                            slo: SLO,
                            router,
                        };
                        let (lean, _, lean_events) = run_floor(&cfg, 2, false);
                        let (traced, _, traced_events) = run_floor(&cfg, 2, true);
                        let windows = router != RouterPolicy::SharedQueue
                            && !matches!(policy, Policy::Static { .. });
                        let what =
                            format!("{policy:?} / {router} / kv {kv:?} / {new_tokens} tokens");
                        let windowed = tally.check(
                            (lean, lean_events),
                            (traced, traced_events),
                            false,
                            windows,
                            &what,
                        );
                        assert!(
                            windowed || !windows || new_tokens < 64,
                            "no decode window fired for {what}"
                        );
                    }
                }
            }
        }
        assert_eq!(tally.runs, 36);
    }

    /// The same contract on fleet floors: shape × policy × router ×
    /// unified or disaggregated pools × fixed or autoscaled × stop
    /// condition. Decode windows fire only on unbounded runs of fixed,
    /// unified fleets.
    #[test]
    fn lean_fleet_floor_reports_what_the_recording_floor_reports() {
        let mut tally = Tally::default();
        for (rate, new_tokens) in [(200.0, 6), (20.0, 64)] {
            for policy in [
                FleetBatchPolicy::Continuous,
                FleetBatchPolicy::ChunkedPrefill { chunk_tokens: 32 },
            ] {
                for router in [
                    FleetRouterPolicy::RoundRobin,
                    FleetRouterPolicy::JoinShortestQueue,
                    FleetRouterPolicy::CostModelJsq,
                ] {
                    for spec in [
                        FleetSpec::homogeneous(Platform::intel_h100(), 2),
                        FleetSpec::disaggregated(Platform::gh200(), 1, Platform::amd_a100(), 2),
                    ] {
                        for autoscale in [None, Some(AutoscaleConfig::default())] {
                            let cfg = FleetConfig {
                                spec: spec.clone(),
                                model: zoo::gpt2(),
                                max_batch: 4,
                                requests: 40,
                                arrivals: ArrivalProcess::Poisson { rate_per_s: rate },
                                prompt_len: 96,
                                new_tokens,
                                seed: 31,
                                slo: SLO,
                                router,
                                policy,
                                autoscale,
                            };
                            for stop in stops(cfg.requests) {
                                let (lean, _, lean_events) = run_fleet(&cfg, stop, false);
                                let (traced, _, traced_events) = run_fleet(&cfg, stop, true);
                                let windows = stop.is_unbounded()
                                    && !cfg.spec.is_disaggregated()
                                    && autoscale.is_none();
                                let what = format!(
                                    "{policy} / {router} / {} / autoscale {} / {stop:?} / \
                                     {new_tokens} tokens",
                                    cfg.spec,
                                    autoscale.is_some()
                                );
                                let aborted = lean.aborted;
                                let windowed = tally.check(
                                    (lean, lean_events),
                                    (traced, traced_events),
                                    aborted,
                                    windows,
                                    &what,
                                );
                                assert!(
                                    windowed || !windows || new_tokens < 64,
                                    "no decode window fired for {what}"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(tally.runs, 192);
        assert!(tally.aborted > 0, "the grid must cover aborted runs");
    }

    /// An arrival that lands exactly on an intermediate boundary of a
    /// decode window ends the window there: it fires first on the tie, so
    /// the boundary must stay a real event that admits it. Request 0
    /// arrives at zero and decodes alone; request 1 arrives a nanosecond
    /// before, exactly on, or a nanosecond after the boundary after two of
    /// its fifteen decode steps. Under every iteration-level policy the
    /// lean floor, which windows, reports what the traced floor, which
    /// takes one event per iteration, reports.
    #[test]
    fn an_arrival_on_a_window_boundary_ends_the_window() {
        let platform = Platform::gh200();
        let model = zoo::gpt2();
        let (prompt_len, new_tokens) = (32u32, 16u32);
        let lat = LatencyModel::new(platform.clone(), model.clone());
        let boundary = SimTime::ZERO
            + lat.prefill(1, prompt_len)
            + lat.decode_step(1, prompt_len + 1)
            + lat.decode_step(1, prompt_len + 2);
        let group = [ReplicaGroup {
            platform,
            count: 1,
            role: PoolRole::Unified,
        }];
        let policies: [fn() -> Box<dyn BatchPolicy>; 4] = [
            || Policy::Continuous { max_batch: 4 }.build(),
            || {
                Policy::ChunkedPrefill {
                    max_batch: 4,
                    chunk_tokens: 64,
                }
                .build()
            },
            || FleetBatchPolicy::Continuous.build(4),
            || FleetBatchPolicy::ChunkedPrefill { chunk_tokens: 64 }.build(4),
        ];
        let run = |policy: fn() -> Box<dyn BatchPolicy>, second: SimTime, traced: bool| {
            let arrivals =
                [SimTime::ZERO, second]
                    .into_iter()
                    .enumerate()
                    .map(move |(id, arrival)| Request {
                        id: id as u64,
                        arrival,
                        prompt_len,
                        new_tokens,
                    });
            let run = FloorSpec {
                groups: &group,
                model: &model,
                arrivals: Box::new(arrivals),
                requests: 2,
                prompt_len,
                new_tokens,
                max_batch: 4,
                policy: policy(),
                arrival_router: FleetRouterPolicy::JoinShortestQueue.build(),
                handoff_router: FleetRouterPolicy::JoinShortestQueue.build(),
                mem: None,
                autoscale: None,
                obs: if traced {
                    FloorObs::Fleet(FleetTrace::new("gpt2", "gh200:1"))
                } else {
                    FloorObs::Lean
                },
                slo: SLO,
                stop: StopCondition::UNBOUNDED,
            }
            .run();
            (fleet_report(&run), run.events)
        };
        let mut tally = Tally::default();
        for (i, policy) in policies.into_iter().enumerate() {
            for second in [
                boundary - SimDuration::from_nanos(1),
                boundary,
                boundary + SimDuration::from_nanos(1),
            ] {
                let what = format!("policy {i}, second arrival at {second} (boundary {boundary})");
                let windowed = tally.check(
                    run(policy, second, false),
                    run(policy, second, true),
                    false,
                    true,
                    &what,
                );
                assert!(windowed, "no decode window fired for {what}");
            }
        }
    }

    /// Both single-node iteration-level policies, chunked with a budget
    /// that takes a 32-token prompt whole.
    const KV_POLICIES: [Policy; 2] = [
        Policy::Continuous { max_batch: 4 },
        Policy::ChunkedPrefill {
            max_batch: 4,
            chunk_tokens: 64,
        },
    ];

    /// One gpt2 replica on gh200 under `policy`, with a `blocks`-block KV
    /// pool (eviction by [`OffloadPolicy::Auto`]), serving one request per
    /// `(arrival, new tokens)` pair with `prompt_len`-token prompts. The
    /// lean run returns its report and event count; the traced run also
    /// returns its recording.
    fn kv_replica(
        policy: Policy,
        blocks: u32,
        prompt_len: u32,
        reqs: &[(SimTime, u32)],
        traced: bool,
    ) -> (ServingReport, u64, Option<ServingTrace>) {
        let new_tokens = reqs.iter().map(|&(_, n)| n).max().unwrap_or(1);
        let cfg = ServingConfig {
            platform: Platform::gh200(),
            model: zoo::gpt2(),
            policy,
            requests: reqs.len() as u32,
            arrival_rate_per_s: 1.0,
            prompt_len,
            new_tokens,
            seed: 0,
            kv: Some(KvCacheConfig::with_blocks(blocks, OffloadPolicy::Auto)),
            slo: SLO,
            router: RouterPolicy::JoinShortestQueue,
        };
        let group = [ReplicaGroup {
            platform: cfg.platform.clone(),
            count: 1,
            role: PoolRole::Unified,
        }];
        let arrivals = reqs
            .iter()
            .enumerate()
            .map(move |(id, &(arrival, new_tokens))| Request {
                id: id as u64,
                arrival,
                prompt_len,
                new_tokens,
            });
        let run = FloorSpec {
            groups: &group,
            model: &cfg.model,
            arrivals: Box::new(arrivals),
            requests: cfg.requests,
            prompt_len,
            new_tokens,
            max_batch: 0,
            policy: policy.build(),
            arrival_router: cfg.router.build(),
            handoff_router: cfg.router.build(),
            mem: cfg.kv.map(|kv| MemoryLayer::new(&cfg, kv, 1)),
            autoscale: None,
            obs: if traced {
                FloorObs::Serve(ServingTrace::new("gpt2", "gh200", 1))
            } else {
                FloorObs::Lean
            },
            slo: SLO,
            stop: StopCondition::UNBOUNDED,
        }
        .run();
        let report = serving_report(run.latency, run.floor.mem.as_ref());
        let trace = match run.floor.obs {
            FloorObs::Serve(t) => Some(t),
            _ => None,
        };
        (report, run.events, trace)
    }

    /// A decode window under a memory layer ends on the last step whose
    /// block growth the pool covers. Two requests arrive together with
    /// 32-token prompts and 64 tokens to generate, a full growth of
    /// `blocks_for(96)` = 6 blocks each, into a pool of 10: two blocks
    /// short. After both prefills the batch decodes at contexts 34 and 33
    /// holding 3 blocks each. The first window runs 46 steps, the last one
    /// the 10 blocks cover; the next step must evict request 1. Request 0
    /// then runs alone to its completion, request 1 resumes, and runs to
    /// its own. So the lean floor handles nine events: two arrivals, two
    /// prefill iterations, the eviction step, the resume iteration and
    /// three windows. The traced floor takes one event per iteration and
    /// must report the same preemptions, swapped bytes, latencies and
    /// peak occupancy.
    #[test]
    fn a_window_ends_before_the_pool_runs_short() {
        let reqs = [(SimTime::ZERO, 64), (SimTime::ZERO, 64)];
        let mut tally = Tally::default();
        for policy in KV_POLICIES {
            let (lean, lean_events, _) = kv_replica(policy, 10, 32, &reqs, false);
            let (traced, traced_events, _) = kv_replica(policy, 10, 32, &reqs, true);
            let what = format!("{policy:?}");
            assert_eq!(lean.preemptions, 1, "{what}");
            assert_eq!(lean.kv_peak_occupancy, 1.0, "{what}");
            assert_eq!(lean_events, 9, "{what}");
            assert!(
                tally.check(
                    (lean, lean_events),
                    (traced, traced_events),
                    false,
                    true,
                    &what
                ),
                "no decode window fired for {what}"
            );
        }
    }

    /// A resume iteration is never grown into a window, though the rows
    /// beside it decode. Three requests arrive together into a 10-block
    /// pool; request 0 needs 40 tokens, the others 64. Request 2, the
    /// newest, is evicted when the batch outgrows the pool, and resumes
    /// when request 0 completes, while request 1, never evicted, keeps
    /// decoding. The traced recording shows that instant; the lean floor
    /// must report what the traced one does, with fewer events.
    #[test]
    fn a_resume_beside_decoding_rows_is_never_grown() {
        let reqs = [
            (SimTime::ZERO, 40),
            (SimTime::ZERO, 64),
            (SimTime::ZERO, 64),
        ];
        let mut tally = Tally::default();
        for policy in KV_POLICIES {
            let (lean, lean_events, _) = kv_replica(policy, 10, 32, &reqs, false);
            let (traced, traced_events, trace) = kv_replica(policy, 10, 32, &reqs, true);
            let what = format!("{policy:?}");
            let lifecycles = trace.expect("traced").lifecycles;
            let at = |id: usize, want: fn(&LifecycleKind) -> bool| {
                lifecycles[id]
                    .events
                    .iter()
                    .filter(|e| want(&e.kind))
                    .map(|e| e.at)
                    .collect::<Vec<_>>()
            };
            let resumes = at(2, |k| matches!(k, LifecycleKind::Resumed { .. }));
            let first_token = at(1, |k| matches!(k, LifecycleKind::FirstToken))[0];
            let completed = at(1, |k| matches!(k, LifecycleKind::Completed { .. }))[0];
            assert!(at(1, |k| matches!(k, LifecycleKind::Preempted { .. })).is_empty());
            assert!(
                resumes.iter().any(|&t| first_token < t && t < completed),
                "{what}: request 2 never resumed while request 1 decoded"
            );
            assert!(
                tally.check(
                    (lean, lean_events),
                    (traced, traced_events),
                    false,
                    true,
                    &what
                ),
                "no decode window fired for {what}"
            );
        }
    }

    /// A chunked iteration whose only prompt row was refused its next
    /// chunk, with a newcomer refused admission behind it, is decode-only,
    /// so it grows into a window. Three requests with 96-token prompts
    /// arrive together into a 10-block pool under 32-token chunks. Request
    /// 0 prefills in three chunks and then decodes 32 tokens; requests 1
    /// and 2 need one token, their first, so they never decode. Once
    /// request 1 holds its first chunk, its second needs two blocks where
    /// one is free, and request 2's first chunk needs two: every remaining
    /// step of request 0 runs in that state, as one window of 30 steps.
    #[test]
    fn a_refused_chunk_and_a_waiting_queue_still_open_a_window() {
        let reqs = [(SimTime::ZERO, 32), (SimTime::ZERO, 1), (SimTime::ZERO, 1)];
        let policy = Policy::ChunkedPrefill {
            max_batch: 4,
            chunk_tokens: 32,
        };
        let (lean, lean_events, _) = kv_replica(policy, 10, 96, &reqs, false);
        let (traced, traced_events, _) = kv_replica(policy, 10, 96, &reqs, true);
        assert_eq!(lean.completed, 3);
        assert_eq!(traced_events - lean_events, 29, "one window of 30 steps");
        let windowed = Tally::default().check(
            (lean, lean_events),
            (traced, traced_events),
            false,
            true,
            "a refused chunk",
        );
        assert!(windowed);
    }
}
