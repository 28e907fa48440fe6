//! The five workloads. Their inputs are written out here, not imported
//! from `skip_bench::experiments`, so that an edit to an experiment never
//! silently changes the benchmark. Each workload has an untraced pass (the
//! one the end-to-end metrics time), a traced pass (the per-layer
//! breakdown) and output checks that feed `failed`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::ops::RangeInclusive;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use serde::Serialize;
use skip_core::{
    attribute_to_operators, classify_sweep, DependencyGraph, OpStat, ProfileReport,
    SweepClassification, SweepPoint,
};
use skip_des::{percentile, EventQueue, SimDuration, SimTime};
use skip_fusion::FusionRecommendation;
use skip_hw::Platform;
use skip_llm::{zoo, AttentionImpl, GraphOptions, ModelConfig, Phase};
use skip_mem::KvSpec;
use skip_runtime::{Engine, ExecMode};
use skip_serve::fleet::plan::{self, PlannerConfig, TrafficEnvelope};
use skip_serve::{
    simulate_fleet, simulate_fleet_traced, simulate_replicas, simulate_traced, ArrivalProcess,
    FleetBatchPolicy, FleetConfig, FleetReport, FleetRouterPolicy, FleetSpec, KvCacheConfig,
    LatencyModel, OffloadPolicy, PlanSweep, Policy, RequestLifecycle, RequestStream, Resolution,
    RouterPolicy, ServingConfig, ServingReport, SloTargets, SweepBounds,
};
use skip_trace::chrome;

use crate::spans::{count_allocs, Span, Spans};

/// The seed `--seed` defaults to, and the one the expected digests hold
/// for.
pub const DEFAULT_SEED: u64 = 13;

/// Input seeds one run spreads its passes over, round-robin. What a pass
/// costs depends on the inputs its seed draws (how many fleets the planner
/// must simulate in full, how many requests are preempted), by up to 13%
/// between seeds on `plan_capacity`, so a run over several draws reads the
/// same from one `--seed` to the next.
pub const RUN_SEEDS: u64 = 4;

/// The input seeds of a run at `--seed seed`: `4 seed` to `4 seed + 3`, so
/// runs at different seeds share no inputs.
pub fn run_seeds(seed: u64) -> Vec<u64> {
    (0..RUN_SEEDS)
        .map(|k| seed.wrapping_mul(RUN_SEEDS).wrapping_add(k))
        .collect()
}

/// A run's digest: FNV-1a over the digests of its input seeds, in order.
pub fn combined_digest<'a>(digests: impl IntoIterator<Item = &'a str>) -> String {
    let mut combined = Digest::new();
    for d in digests {
        combined.bytes(d.as_bytes());
    }
    combined.hex()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ProfileSweep,
    ServeSteady,
    ServeKvPressure,
    PlanCapacity,
    ServeTraceExport,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ProfileSweep,
        Workload::ServeSteady,
        Workload::ServeKvPressure,
        Workload::PlanCapacity,
        Workload::ServeTraceExport,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ProfileSweep => "profile_sweep",
            Workload::ServeSteady => "serve_steady",
            Workload::ServeKvPressure => "serve_kv_pressure",
            Workload::PlanCapacity => "plan_capacity",
            Workload::ServeTraceExport => "serve_trace_export",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one operation of this workload is.
    pub fn op(self) -> &'static str {
        match self {
            Workload::ProfileSweep => "points",
            Workload::PlanCapacity => "candidates",
            _ => "requests",
        }
    }

    /// Operations one pass attempts.
    pub fn ops(self, seed: u64) -> u64 {
        match self {
            Workload::ProfileSweep => ProfileGrid::full().points(),
            Workload::ServeSteady => u64::from(serve_steady(seed).requests),
            Workload::ServeKvPressure => u64::from(serve_kv_pressure(seed).requests),
            Workload::PlanCapacity => plan::enumerate(&plan_capacity(seed)).len() as u64,
            Workload::ServeTraceExport => u64::from(serve_trace_export(seed).requests),
        }
    }

    /// [`combined_digest`] of the passes' serialized outputs at the input
    /// seeds of a run at [`DEFAULT_SEED`], as this revision of the
    /// simulator produces them. A change that only speeds the simulator up
    /// must leave these unchanged.
    pub fn expected_digest(self) -> &'static str {
        match self {
            Workload::ProfileSweep => "5c92ccceea36b6dd",
            Workload::ServeSteady => "9bb19a753102596f",
            Workload::ServeKvPressure => "607203b7b114516d",
            Workload::PlanCapacity => "0c5556a9d09b7ada",
            Workload::ServeTraceExport => "4fa79e3dbcabe8f2",
        }
    }

    /// One untraced pass: builds the inputs, times the call into the
    /// simulator, then checks and digests what it returned.
    pub fn run(self, seed: u64, spawned_at_ns: u128) -> (Outcome, Timing) {
        match self {
            Workload::ProfileSweep => {
                let grid = ProfileGrid::full();
                let (out, t) = timed(spawned_at_ns, || profile_sweep(&grid, &mut Spans::off()));
                (profile_outcome(&grid, &out), t)
            }
            Workload::ServeSteady => {
                let cfg = serve_steady(seed);
                let (r, t) = timed(spawned_at_ns, || simulate_fleet(&cfg));
                (serve_outcome(cfg.requests, r.completed, &r), t)
            }
            Workload::ServeKvPressure => {
                let cfg = serve_kv_pressure(seed);
                let (r, t) = timed(spawned_at_ns, || simulate_replicas(&cfg, KV_REPLICAS));
                (serve_outcome(cfg.requests, r.completed, &r), t)
            }
            Workload::PlanCapacity => {
                let cfg = plan_capacity(seed);
                let (answer, t) = timed(spawned_at_ns, || plan_answer(&cfg, &mut Spans::off()));
                (plan_outcome(&cfg, &answer), t)
            }
            Workload::ServeTraceExport => {
                let cfg = serve_trace_export(seed);
                let ((r, trace, json), t) = timed(spawned_at_ns, || {
                    let (r, trace) = simulate_traced(&cfg, KV_REPLICAS);
                    let json = chrome::to_chrome_trace(&trace.to_trace());
                    (r, trace, json)
                });
                let mut o = export_outcome(&cfg, &r, &json);
                o.check(trace.conserves_requests(), || {
                    "request conservation broken".to_owned()
                });
                (o, t)
            }
        }
    }

    /// One traced pass: the same outputs, with every call into a layer's
    /// public function wrapped in a span and the layer's counts recorded.
    pub fn run_traced(self, seed: u64) -> Traced {
        let mut spans = Spans::on();
        let mut t = Traced::default();
        let outcome = spans.span(self.name(), |s| match self {
            Workload::ProfileSweep => traced_profile(&ProfileGrid::full(), s, &mut t),
            Workload::ServeSteady => traced_fleet(&serve_steady(seed), s, &mut t),
            Workload::ServeKvPressure => {
                traced_replicas(&serve_kv_pressure(seed), false, s, &mut t)
            }
            Workload::PlanCapacity => traced_plan(&plan_capacity(seed), s, &mut t),
            Workload::ServeTraceExport => {
                traced_replicas(&serve_trace_export(seed), true, s, &mut t)
            }
        });
        t.layers
            .insert("traced_run_s".into(), spans.seconds(self.name()));
        let spans = spans.into_spans();
        for s in spans.iter().filter(|s| s.parent.is_some()) {
            *t.layers.entry(format!("{}_s", s.name)).or_default() += s.dur_ns as f64 / 1e9;
        }
        let floor = t.layers.get("serve.unified.floor_s").copied();
        if let (Some(floor), Some(untraced)) = (floor, t.layers.get("serve.unified.untraced_s")) {
            t.layers
                .insert("serve.observe.record_s".into(), floor - untraced);
        }
        t.outcome = outcome;
        t.spans = spans;
        t
    }
}

/// Host-side cost of one untraced pass.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// From the parent's spawn of this process to the first call into the
    /// simulator.
    pub setup_s: f64,
    pub run_s: f64,
    /// `VmHWM` right after the pass, KiB.
    pub peak_rss_kb: u64,
}

/// Wall-clock nanoseconds since the Unix epoch: the one clock a parent and
/// its child both read.
pub fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

fn timed<T>(spawned_at_ns: u128, work: impl FnOnce() -> T) -> (T, Timing) {
    let setup_s = unix_ns().saturating_sub(spawned_at_ns) as f64 / 1e9;
    let start = Instant::now();
    let out = black_box(work());
    let run_s = start.elapsed().as_secs_f64();
    let timing = Timing {
        setup_s,
        run_s,
        peak_rss_kb: peak_rss_kb(),
    };
    (out, timing)
}

/// This process's peak resident set, KiB (0 where `/proc` is absent).
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_owned();
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// FNV-1a over the serialized outputs of a pass.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn json<T: Serialize + ?Sized>(&mut self, value: &T) {
        self.bytes(
            serde_json::to_string(value)
                .expect("outputs serialize")
                .as_bytes(),
        );
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// What a pass attempted, what failed, and the digest of its outputs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub digest: String,
    pub problems: Vec<String>,
}

impl Outcome {
    fn new(attempted: u64, digest: &Digest) -> Outcome {
        Outcome {
            attempted,
            failed: 0,
            digest: digest.hex(),
            problems: Vec::new(),
        }
    }

    /// Records `problem` against `ops` operations.
    fn fail(&mut self, ops: u64, problem: String) {
        self.failed = (self.failed + ops).min(self.attempted);
        self.problems.push(problem);
    }

    /// A failed whole-pass check fails every operation.
    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.fail(self.attempted, problem());
        }
    }
}

/// A traced pass's outcome, layer metrics, simulated statistics and spans.
#[derive(Debug, Default)]
pub struct Traced {
    pub outcome: Outcome,
    pub layers: BTreeMap<String, f64>,
    pub sim: BTreeMap<String, f64>,
    pub spans: Vec<Span>,
}

// ---------------------------------------------------------------- inputs

/// `profile_sweep`: the paper's SKIP pipeline over 4 models x the paper
/// trio x {eager, FlashAttention-2} x batch 1..128 x seq 128..2048.
pub struct ProfileGrid {
    pub models: Vec<ModelConfig>,
    pub platforms: Vec<Platform>,
    pub modes: Vec<ExecMode>,
    pub batches: Vec<u32>,
    pub seqs: Vec<u32>,
}

impl ProfileGrid {
    pub fn full() -> ProfileGrid {
        ProfileGrid {
            models: vec![
                zoo::llama32_1b(),
                zoo::bert_base_uncased(),
                zoo::gpt2(),
                zoo::gemma_2b(),
            ],
            platforms: vec![
                Platform::amd_a100(),
                Platform::intel_h100(),
                Platform::gh200(),
            ],
            modes: vec![ExecMode::Eager, ExecMode::FlashAttention2],
            batches: vec![1, 2, 4, 8, 16, 32, 64, 128],
            seqs: (1..=16).map(|i| i * 128).collect(),
        }
    }

    fn points(&self) -> u64 {
        (self.models.len()
            * self.platforms.len()
            * self.modes.len()
            * self.batches.len()
            * self.seqs.len()) as u64
    }
}

/// Replicas of the single-node floor in `serve_kv_pressure` and
/// `serve_trace_export`.
const KV_REPLICAS: u32 = 2;
const KV_MAX_BATCH: u32 = 32;
const KV_CHUNK_TOKENS: u32 = 512;

/// `serve_steady`: 100k requests on four GH200s at about 75% load, the
/// low-batch CPU-bound regime at population scale.
pub fn serve_steady(seed: u64) -> FleetConfig {
    FleetConfig {
        spec: FleetSpec::homogeneous(Platform::gh200(), 4),
        model: zoo::llama32_1b(),
        max_batch: 16,
        requests: 100_000,
        arrivals: ArrivalProcess::Poisson { rate_per_s: 6.0 },
        prompt_len: 128,
        new_tokens: 256,
        seed,
        slo: SloTargets {
            ttft: Some(SimDuration::from_millis(200)),
            e2e: None,
        },
        router: FleetRouterPolicy::JoinShortestQueue,
        policy: FleetBatchPolicy::Continuous,
        autoscale: None,
    }
}

/// `serve_kv_pressure`: long contexts on two H100 replicas whose KV pools
/// hold 8 full request lifetimes each, so requests are preempted and
/// swapped over PCIe.
pub fn serve_kv_pressure(seed: u64) -> ServingConfig {
    let model = zoo::llama2_7b();
    let prompt_len = 1536;
    let new_tokens = 256;
    let lifetime = KvSpec::for_model(&model, KvSpec::DEFAULT_BLOCK_TOKENS)
        .blocks_for(u64::from(prompt_len + new_tokens));
    ServingConfig {
        platform: Platform::intel_h100(),
        model,
        policy: Policy::ChunkedPrefill {
            max_batch: KV_MAX_BATCH,
            chunk_tokens: KV_CHUNK_TOKENS,
        },
        requests: 40_000,
        arrival_rate_per_s: 2.0,
        prompt_len,
        new_tokens,
        seed,
        kv: Some(KvCacheConfig::with_blocks(
            lifetime * 8,
            OffloadPolicy::Auto,
        )),
        slo: SloTargets::default(),
        router: RouterPolicy::JoinShortestQueue,
    }
}

/// `serve_trace_export`: the `serve_kv_pressure` floor at 1000 requests,
/// exported to a Chrome trace kept in memory (about 26 MB of JSON and
/// 370 MiB peak; the trace's memory grows linearly with requests).
pub fn serve_trace_export(seed: u64) -> ServingConfig {
    ServingConfig {
        requests: 1_000,
        ..serve_kv_pressure(seed)
    }
}

/// `plan_capacity`: the pruned generational sweep over 1260 fleet
/// compositions of up to 12 replicas, for a diurnal llama-2-7b envelope.
pub fn plan_capacity(seed: u64) -> PlannerConfig {
    PlannerConfig {
        envelope: TrafficEnvelope {
            model: zoo::llama2_7b(),
            qps: 50.0,
            peak_qps: Some(150.0),
            requests: 1024,
            prompt_len: 512,
            new_tokens: 16,
            seed,
            slo: SloTargets {
                ttft: Some(SimDuration::from_millis(600)),
                e2e: Some(SimDuration::from_millis(2500)),
            },
        },
        platforms: vec![
            Platform::amd_a100(),
            Platform::intel_h100(),
            Platform::gh200(),
        ],
        max_replicas: 12,
        max_batch: 8,
        attainment_floor: 0.9,
        router: FleetRouterPolicy::CostModelJsq,
        policy: FleetBatchPolicy::Continuous,
    }
}

// --------------------------------------------------------- profile_sweep

/// One (platform, model, mode, seq) batch sweep through the SKIP pipeline.
#[derive(Serialize)]
struct SweepOut {
    platform: String,
    model: String,
    mode: ExecMode,
    seq: u32,
    points: Vec<(ProfileReport, Vec<OpStat>)>,
    class: SweepClassification,
    fusion: Vec<FusionRecommendation>,
}

struct ProfileOut {
    sweeps: Vec<SweepOut>,
    trace_events: u64,
}

fn profile_sweep(grid: &ProfileGrid, spans: &mut Spans) -> ProfileOut {
    let mut sweeps = Vec::new();
    let mut trace_events = 0u64;
    for platform in &grid.platforms {
        let engine = Engine::new(platform.clone());
        for model in &grid.models {
            for &mode in &grid.modes {
                let opts = GraphOptions {
                    attention: match mode {
                        ExecMode::FlashAttention2 => AttentionImpl::FlashAttention2,
                        _ => AttentionImpl::Eager,
                    },
                };
                for &seq in &grid.seqs {
                    let mut points = Vec::with_capacity(grid.batches.len());
                    let mut fusion = Vec::new();
                    for &batch in &grid.batches {
                        let wl = skip_llm::Workload::new(model.clone(), Phase::Prefill, batch, seq);
                        spans.span("llm.graph", |_| wl.graph_shared(opts));
                        let trace = spans.span("runtime.run", |_| engine.run(&wl, mode));
                        trace_events += (trace.cpu_ops().len()
                            + trace.launches().len()
                            + trace.kernels().len()) as u64;
                        let graph = spans.span("core.depgraph", |_| DependencyGraph::build(&trace));
                        let report = spans.span("core.metrics", |_| {
                            ProfileReport::analyze_with_graph(&trace, &graph)
                        });
                        let ops =
                            spans.span("core.attribution", |_| attribute_to_operators(&trace));
                        if batch == 1 {
                            fusion = spans.span("fusion.recommend", |_| {
                                skip_fusion::recommend(&trace, 16, 0.8)
                            });
                        }
                        points.push((report, ops));
                    }
                    let curve: Vec<SweepPoint> = grid
                        .batches
                        .iter()
                        .zip(&points)
                        .map(|(&batch_size, (r, _))| SweepPoint {
                            batch_size,
                            tklqt: r.tklqt,
                        })
                        .collect();
                    let class = spans.span("core.classify", |_| classify_sweep(&curve));
                    sweeps.push(SweepOut {
                        platform: platform.name.clone(),
                        model: model.name.clone(),
                        mode,
                        seq,
                        points,
                        class,
                        fusion,
                    });
                }
            }
        }
    }
    ProfileOut {
        sweeps,
        trace_events,
    }
}

fn traced_profile(grid: &ProfileGrid, spans: &mut Spans, t: &mut Traced) -> Outcome {
    let out = profile_sweep(grid, spans);
    t.layers
        .insert("runtime.trace_events".into(), out.trace_events as f64);
    // The CPU-bound/GPU-bound transition the paper's Fig. 6 marks, for
    // llama-3.2-1b eager at seq 512 (0 when the sweep never crosses).
    for sweep in &out.sweeps {
        if sweep.model == "llama-3.2-1b" && sweep.mode == ExecMode::Eager && sweep.seq == 512 {
            t.sim.insert(
                format!("sim.transition_batch.{}", sweep.platform),
                f64::from(sweep.class.transition_batch.unwrap_or(0)),
            );
        }
    }
    profile_outcome(grid, &out)
}

fn profile_outcome(grid: &ProfileGrid, out: &ProfileOut) -> Outcome {
    let mut digest = Digest::new();
    let mut analysed = 0u64;
    let mut misattributed = 0u64;
    for sweep in &out.sweeps {
        digest.json(sweep);
        for (report, ops) in &sweep.points {
            analysed += 1;
            if ops.iter().map(|o| o.kernels).sum::<usize>() != report.kernel_count {
                misattributed += 1;
            }
        }
    }
    let mut o = Outcome::new(grid.points(), &digest);
    o.check(analysed == grid.points(), || {
        format!("analysed {analysed} of {} points", grid.points())
    });
    if misattributed > 0 {
        o.fail(
            misattributed,
            format!("{misattributed} points attribute a kernel count other than the one they ran"),
        );
    }
    o
}

// ----------------------------------------------------------- serving

fn serve_outcome<R: Serialize>(requests: u32, completed: u32, report: &R) -> Outcome {
    let mut digest = Digest::new();
    digest.json(report);
    let mut o = Outcome::new(u64::from(requests), &digest);
    let missing = requests.saturating_sub(completed);
    if missing > 0 {
        o.fail(
            u64::from(missing),
            format!("{missing} of {requests} requests did not complete"),
        );
    }
    o
}

fn export_outcome(cfg: &ServingConfig, report: &ServingReport, json: &str) -> Outcome {
    let mut o = serve_outcome(cfg.requests, report.completed, report);
    let mut digest = Digest::new();
    digest.json(report);
    digest.bytes(json.as_bytes());
    o.digest = digest.hex();
    o
}

/// The (batch, length) keys a serving config prices at its nominal
/// lengths: every batch up to the cap, prefill at `prefill_len`, decode at
/// every context the requests pass through.
struct KeyGrid {
    max_batch: u32,
    prefill_len: u32,
    ctx: RangeInclusive<u32>,
}

impl KeyGrid {
    fn price(&self, lat: &LatencyModel) -> u64 {
        let mut calls = 0;
        for b in 1..=self.max_batch {
            black_box(lat.prefill(b, self.prefill_len));
            for ctx in self.ctx.clone() {
                black_box(lat.decode_step(b, ctx));
            }
            calls += 1 + self.ctx.clone().count() as u64;
        }
        calls
    }
}

/// Prices `grid` through a fresh latency model per platform, cold and then
/// warm. Runs before any floor, so the process-global caches are cold.
fn price_grid(
    platforms: &[Platform],
    model: &ModelConfig,
    grid: &KeyGrid,
    spans: &mut Spans,
    t: &mut Traced,
) {
    let models: Vec<LatencyModel> = platforms
        .iter()
        .map(|p| LatencyModel::new(p.clone(), model.clone()))
        .collect();
    let calls: u64 = spans.span("serve.latency.cold", |_| {
        models.iter().map(|m| grid.price(m)).sum()
    });
    spans.span("serve.latency.warm", |_| {
        for m in &models {
            grid.price(m);
        }
    });
    let runs: u64 = models.iter().map(LatencyModel::engine_runs).sum();
    t.layers
        .insert("serve.latency.engine_runs".into(), runs as f64);
    t.layers.insert(
        "serve.latency.hit_ns".into(),
        spans.seconds("serve.latency.warm") * 1e9 / calls.max(1) as f64,
    );
}

/// Times the traced floor entry point, then the untraced one with its
/// allocations counted. Both run after the pricing grid is warm.
fn floor<R, T>(
    requests: u32,
    traced: impl FnOnce() -> (R, T),
    untraced: impl FnOnce() -> R,
    spans: &mut Spans,
    t: &mut Traced,
) -> (R, T, R) {
    let (report, trace) = spans.span("serve.unified.floor", |_| traced());
    let (untraced, allocs) = spans.span("serve.unified.untraced", |_| count_allocs(untraced));
    t.layers.insert(
        "serve.unified.allocs_per_request".into(),
        allocs as f64 / f64::from(requests.max(1)),
    );
    (report, trace, untraced)
}

/// Recording-work counts, the sample timestamps replayed through the DES
/// event queue, and the statistics only the recording holds.
fn observe(
    lifecycles: &[RequestLifecycle],
    samples: &[(SimTime, u32)],
    spans: &mut Spans,
    t: &mut Traced,
) {
    let events: usize = lifecycles.iter().map(|lc| lc.events.len()).sum();
    t.layers
        .insert("serve.observe.lifecycle_events".into(), events as f64);
    t.layers
        .insert("serve.observe.samples".into(), samples.len() as f64);
    let popped = spans.span("des.queue", |_| {
        let mut q = EventQueue::new();
        for (i, &(at, _)) in samples.iter().enumerate() {
            q.push(at, i);
        }
        let mut popped = 0u64;
        while q.pop().is_some() {
            popped += 1;
        }
        popped
    });
    t.layers.insert("des.events".into(), popped as f64);
    let waits: Vec<f64> = lifecycles
        .iter()
        .filter_map(|lc| {
            Some(
                lc.admitted_at()?
                    .saturating_duration_since(lc.arrived_at()?)
                    .as_millis_f64(),
            )
        })
        .collect();
    t.sim
        .insert("sim.queue_wait_p99_ms".into(), percentile(&waits, 99.0));
    let running: f64 = samples.iter().map(|&(_, r)| f64::from(r)).sum();
    t.sim.insert(
        "sim.batch_mean".into(),
        running / samples.len().max(1) as f64,
    );
}

fn latency_sim(
    t: &mut Traced,
    ttft_p50: SimDuration,
    ttft_p99: SimDuration,
    e2e_p95: SimDuration,
    tok_s: f64,
) {
    t.sim
        .insert("sim.ttft_p50_ms".into(), ttft_p50.as_millis_f64());
    t.sim
        .insert("sim.ttft_p99_ms".into(), ttft_p99.as_millis_f64());
    t.sim
        .insert("sim.e2e_p95_ms".into(), e2e_p95.as_millis_f64());
    t.sim.insert("sim.tok_per_s".into(), tok_s);
}

fn fleet_sim(r: &FleetReport, t: &mut Traced) {
    latency_sim(t, r.ttft_p50, r.ttft_p99, r.e2e_p95, r.throughput_tok_s);
    t.sim.insert("sim.handoffs".into(), r.handoffs as f64);
    t.sim.insert("sim.scale_ups".into(), f64::from(r.scale_ups));
}

/// Traced and untraced entry points must agree, and the recording must
/// conserve requests at every sample.
fn check_floor<R: PartialEq>(o: &mut Outcome, traced: &R, untraced: &R, conserves: bool) {
    o.check(traced == untraced, || {
        "traced and untraced entry points disagree".to_owned()
    });
    o.check(conserves, || "request conservation broken".to_owned());
}

fn traced_fleet(cfg: &FleetConfig, spans: &mut Spans, t: &mut Traced) -> Outcome {
    spans.span("serve.arrivals", |_| {
        cfg.arrivals.generate(
            cfg.requests as usize,
            cfg.prompt_len,
            cfg.new_tokens,
            cfg.seed,
        )
    });
    let platforms: Vec<Platform> = cfg.spec.groups.iter().map(|g| g.platform.clone()).collect();
    let grid = KeyGrid {
        max_batch: cfg.max_batch,
        prefill_len: cfg.prompt_len,
        ctx: cfg.prompt_len + 1..=cfg.prompt_len + cfg.new_tokens,
    };
    price_grid(&platforms, &cfg.model, &grid, spans, t);
    let (report, trace, untraced) = floor(
        cfg.requests,
        || simulate_fleet_traced(cfg),
        || simulate_fleet(cfg),
        spans,
        t,
    );
    let samples: Vec<(SimTime, u32)> = trace.samples.iter().map(|s| (s.at, s.running)).collect();
    observe(&trace.lifecycles, &samples, spans, t);
    fleet_sim(&report, t);
    let mut o = serve_outcome(cfg.requests, untraced.completed, &untraced);
    check_floor(&mut o, &report, &untraced, trace.conserves_requests());
    o
}

fn traced_replicas(
    cfg: &ServingConfig,
    export: bool,
    spans: &mut Spans,
    t: &mut Traced,
) -> Outcome {
    spans.span("serve.arrivals", |_| {
        RequestStream::poisson(
            cfg.arrival_rate_per_s,
            cfg.prompt_len,
            cfg.new_tokens,
            cfg.seed,
        )
        .take(cfg.requests as usize)
        .collect::<Vec<_>>()
    });
    let grid = KeyGrid {
        max_batch: KV_MAX_BATCH,
        prefill_len: KV_CHUNK_TOKENS,
        ctx: cfg.prompt_len + 1..=cfg.prompt_len + cfg.new_tokens,
    };
    price_grid(
        std::slice::from_ref(&cfg.platform),
        &cfg.model,
        &grid,
        spans,
        t,
    );
    let (report, trace, untraced) = floor(
        cfg.requests,
        || simulate_traced(cfg, KV_REPLICAS),
        || simulate_replicas(cfg, KV_REPLICAS),
        spans,
        t,
    );
    let samples: Vec<(SimTime, u32)> = trace.samples.iter().map(|s| (s.at, s.running)).collect();
    observe(&trace.lifecycles, &samples, spans, t);
    latency_sim(
        t,
        report.ttft_p50,
        report.ttft_p99,
        report.e2e_p95,
        report.throughput_tok_s,
    );
    t.sim
        .insert("sim.preemptions".into(), report.preemptions as f64);
    t.sim
        .insert("sim.swap_outs".into(), report.swap_outs as f64);
    t.sim
        .insert("sim.kv_peak_occupancy".into(), report.kv_peak_occupancy);
    let mut o = if export {
        let exported = spans.span("serve.observe.to_trace", |_| trace.to_trace());
        let json = spans.span("trace.chrome", |_| chrome::to_chrome_trace(&exported));
        t.layers.insert(
            "trace.chrome_mb".into(),
            json.len() as f64 / (1024.0 * 1024.0),
        );
        t.layers.insert(
            "trace.counter_events".into(),
            exported.counters().len() as f64,
        );
        export_outcome(cfg, &report, &json)
    } else {
        serve_outcome(cfg.requests, untraced.completed, &untraced)
    };
    check_floor(&mut o, &report, &untraced, trace.conserves_requests());
    o
}

// ---------------------------------------------------------- plan_capacity

/// The planner's answer: every candidate's resolution, the frontier and
/// the cheapest feasible fleet.
#[derive(Serialize)]
struct PlanAnswer {
    sweep: PlanSweep,
    frontier: Vec<String>,
    cheapest: Option<String>,
}

impl PlanAnswer {
    fn cheapest_outcome(&self) -> Option<&plan::PlanOutcome> {
        let label = self.cheapest.as_ref()?;
        self.sweep.outcomes.iter().find(|o| &o.label == label)
    }
}

/// Runs the pruned sweep serially, timing each candidate's evaluation
/// under the span of its resolution.
fn plan_answer(cfg: &PlannerConfig, spans: &mut Spans) -> PlanAnswer {
    let sweep = plan::sweep_with(cfg, |wave, bounds| {
        wave.iter()
            .map(|c| {
                spans.span_named(
                    |_| plan::evaluate_bounded(cfg, c, bounds),
                    |o| match o.resolution {
                        Resolution::Simulated => "serve.plan.simulated",
                        Resolution::Aborted => "serve.plan.aborted",
                        Resolution::PrunedInfeasible => "serve.plan.pruned_infeasible",
                        Resolution::PrunedDominated => "serve.plan.pruned_dominated",
                    },
                )
            })
            .collect()
    });
    let (frontier, cheapest) = spans.span("serve.plan.frontier", |_| {
        let frontier = plan::frontier(&sweep.outcomes)
            .into_iter()
            .map(|o| o.label.clone())
            .collect();
        (
            frontier,
            plan::cheapest(&sweep.outcomes).map(|o| o.label.clone()),
        )
    });
    PlanAnswer {
        sweep,
        frontier,
        cheapest,
    }
}

fn plan_outcome(cfg: &PlannerConfig, answer: &PlanAnswer) -> Outcome {
    let mut digest = Digest::new();
    digest.json(answer);
    let candidates = plan::enumerate(cfg).len() as u64;
    let mut o = Outcome::new(candidates, &digest);
    let s = answer.sweep.stats;
    let resolved = s.simulated + s.aborted + s.pruned_infeasible + s.pruned_dominated;
    o.check(
        answer.sweep.outcomes.len() as u64 == candidates && u64::from(resolved) == candidates,
        || format!("resolved {resolved} of {candidates} candidates"),
    );
    o.check(!answer.frontier.is_empty(), || "empty frontier".to_owned());
    o.check(
        answer
            .cheapest_outcome()
            .is_some_and(|c| c.feasible && c.resolution == Resolution::Simulated),
        || "no feasible, fully simulated cheapest fleet".to_owned(),
    );
    o
}

fn traced_plan(cfg: &PlannerConfig, spans: &mut Spans, t: &mut Traced) -> Outcome {
    let env = &cfg.envelope;
    spans.span("serve.arrivals", |_| {
        env.arrivals().generate(
            env.requests as usize,
            env.prompt_len,
            env.new_tokens,
            env.seed,
        )
    });
    let grid = KeyGrid {
        max_batch: cfg.max_batch,
        prefill_len: env.prompt_len,
        ctx: env.prompt_len + 1..=env.prompt_len + env.new_tokens,
    };
    price_grid(&cfg.platforms, &env.model, &grid, spans, t);
    spans.span("serve.plan.bounds", |_| SweepBounds::new(cfg));
    let answer = plan_answer(cfg, spans);
    let s = answer.sweep.stats;
    for (name, n) in [
        ("serve.plan.simulated", s.simulated),
        ("serve.plan.aborted", s.aborted),
        ("serve.plan.pruned_infeasible", s.pruned_infeasible),
        ("serve.plan.pruned_dominated", s.pruned_dominated),
    ] {
        t.layers.insert(name.into(), f64::from(n));
    }
    let (simulated_s, aborted_s) = (
        spans.seconds("serve.plan.simulated"),
        spans.seconds("serve.plan.aborted"),
    );
    t.layers.insert(
        "serve.plan.useful_share".into(),
        simulated_s / (simulated_s + aborted_s).max(f64::MIN_POSITIVE),
    );
    t.sim
        .insert("sim.frontier_size".into(), answer.frontier.len() as f64);

    let mut o = plan_outcome(cfg, &answer);
    // The floor layers, on one full run of the cheapest fleet: the bounded
    // sweep simulated it unstopped, so it must match the plain entry point.
    let cheapest = answer.cheapest_outcome();
    let candidate = cheapest.and_then(|c| {
        plan::enumerate(cfg)
            .into_iter()
            .find(|k| k.label() == c.label)
    });
    if let (Some(best), Some(candidate)) = (cheapest, candidate) {
        t.sim.insert("sim.cheapest_replica_s".into(), best.cost());
        let fleet = plan::fleet_config(cfg, &candidate);
        let (report, trace, untraced) = floor(
            fleet.requests,
            || simulate_fleet_traced(&fleet),
            || simulate_fleet(&fleet),
            spans,
            t,
        );
        let samples: Vec<(SimTime, u32)> =
            trace.samples.iter().map(|s| (s.at, s.running)).collect();
        observe(&trace.lifecycles, &samples, spans, t);
        fleet_sim(&report, t);
        check_floor(&mut o, &report, &untraced, trace.conserves_requests());
        check_floor(&mut o, &best.report, &untraced, true);
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs an untraced and a traced pass of a scaled-down input twice and
    /// checks both complete and agree on the digest.
    fn completes_deterministically(
        untraced: impl Fn() -> Outcome,
        traced: impl Fn(&mut Spans, &mut Traced) -> Outcome,
    ) {
        let a = untraced();
        assert!(a.problems.is_empty(), "{:?}", a.problems);
        assert_eq!(a.failed, 0);
        assert!(a.attempted > 0);
        assert_eq!(a, untraced(), "same inputs, same digest");
        let mut t = Traced::default();
        let b = traced(&mut Spans::on(), &mut t);
        assert_eq!(a, b, "traced pass reproduces the untraced outputs");
        assert!(!t.layers.is_empty());
    }

    fn tiny_grid() -> ProfileGrid {
        ProfileGrid {
            models: vec![zoo::gpt2()],
            platforms: vec![Platform::gh200()],
            modes: vec![ExecMode::Eager, ExecMode::FlashAttention2],
            batches: vec![1, 4],
            seqs: vec![128],
        }
    }

    #[test]
    fn profile_sweep_adapter() {
        let grid = tiny_grid();
        completes_deterministically(
            || profile_outcome(&grid, &profile_sweep(&grid, &mut Spans::off())),
            |s, t| traced_profile(&grid, s, t),
        );
    }

    #[test]
    fn serve_steady_adapter() {
        let cfg = FleetConfig {
            requests: 300,
            ..serve_steady(DEFAULT_SEED)
        };
        completes_deterministically(
            || {
                let r = simulate_fleet(&cfg);
                serve_outcome(cfg.requests, r.completed, &r)
            },
            |s, t| traced_fleet(&cfg, s, t),
        );
    }

    #[test]
    fn serve_kv_pressure_adapter() {
        let cfg = ServingConfig {
            requests: 60,
            ..serve_kv_pressure(DEFAULT_SEED)
        };
        completes_deterministically(
            || {
                let r = simulate_replicas(&cfg, KV_REPLICAS);
                serve_outcome(cfg.requests, r.completed, &r)
            },
            |s, t| traced_replicas(&cfg, false, s, t),
        );
    }

    #[test]
    fn serve_trace_export_adapter() {
        let cfg = ServingConfig {
            requests: 40,
            ..serve_trace_export(DEFAULT_SEED)
        };
        completes_deterministically(
            || {
                let (r, trace) = simulate_traced(&cfg, KV_REPLICAS);
                export_outcome(&cfg, &r, &chrome::to_chrome_trace(&trace.to_trace()))
            },
            |s, t| traced_replicas(&cfg, true, s, t),
        );
    }

    #[test]
    fn plan_capacity_adapter() {
        let mut cfg = plan_capacity(DEFAULT_SEED);
        cfg.max_replicas = 3;
        cfg.envelope.requests = 32;
        cfg.envelope.qps = 10.0;
        cfg.envelope.peak_qps = None;
        completes_deterministically(
            || plan_outcome(&cfg, &plan_answer(&cfg, &mut Spans::off())),
            |s, t| traced_plan(&cfg, s, t),
        );
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
