//! # skipbench — the simulator's own speed, end to end and by layer
//!
//! One command builds the benchmark and prints every metric, by name and
//! with its unit, for all five workloads (about two minutes on a 2-core
//! host):
//!
//! ```text
//! cargo build --release -p skip-bench --bin skipbench && target/release/skipbench
//! ```
//!
//! The same sources also build as a package of their own, which is how
//! `BENCHMARK.json` runs one workload. It lists four of the five, so that
//! its runs of 30 s each fit the time it allows all of them; the one left
//! out, `serve_trace_export`, is a narrow path whose peak RSS varies the
//! most with the seed:
//!
//! ```text
//! cargo run --release --offline --quiet \
//!     --manifest-path crates/bench/src/bin/skipbench/Cargo.toml -- \
//!     --workload serve_steady --seed 13 --seconds 30 --trace 0
//! ```
//!
//! Flags: `--workloads a,b` (or `--workload a`; default all five),
//! `--seed S` (default 13; a run's passes take turns over the four input
//! seeds `4S` to `4S + 3`, each of which goes into every config's
//! `seed`), `--reps N` (default 5 rounds over the four input seeds) or
//! `--seconds S` (repeat until S seconds have passed),
//! `--trace 0|1` (only the untraced or only the traced children, then one
//! JSON result line), and `--compare BASE.json NEW.json`. Results go to
//! `target/skipbench.json` (with a host record), spans to
//! `target/skipbench-trace.json` (Chrome trace-event JSON, viewable in
//! Perfetto). `baseline.json` beside this file holds the first medians
//! of a 2-core Xeon host: `skipbench --compare
//! crates/bench/src/bin/skipbench/baseline.json target/skipbench.json`.
//!
//! ## How a repetition runs
//!
//! Every repetition runs one workload once, in a fresh child process of
//! this binary (`skipbench --child <workload>`), on one worker thread. The
//! child starts with the cold process-global caches a `skip` CLI call
//! starts with (graph cache, schedule table, pattern table) and reports
//! its own peak RSS. A separate traced child per workload wraps each call
//! into a layer's public function in a span; the per-layer table comes
//! from it, never the end-to-end numbers. Each workload is one offline
//! call, a closed loop of one; the simulated arrivals inside it are open
//! loop at the stated rates.
//!
//! ## Workloads
//!
//! * `profile_sweep` — 4 models (llama-3.2-1b, bert-base-uncased, gpt2,
//!   gemma-2b) × the paper trio × {eager, FlashAttention-2} × batch 1..128
//!   × seq 128..2048 step 128: 3072 points, each `Engine::run` →
//!   `DependencyGraph::build` → `ProfileReport::analyze_with_graph` →
//!   `attribute_to_operators`, then `classify_sweep` per sweep and
//!   `skip_fusion::recommend(t, 16, 0.8)` at batch 1. Why: the paper's own
//!   SKIP pipeline (TKLQT, CPU/GPU-bound transition, fusion), the only
//!   workload where llm/runtime/trace/core/fusion do most of the work; it
//!   never touches skip-serve.
//! * `serve_steady` — `simulate_fleet`, gh200×4, llama-3.2-1b, continuous
//!   batching up to 16, JSQ, Poisson 6 req/s, prompt 128, 256 tokens,
//!   100 000 requests, TTFT SLO 200 ms (about 75% load). Why: the GH200
//!   low-batch CPU-bound regime at population scale; the event loop,
//!   router, policy and recording dominate, pricing is about 64 keys, and
//!   there is no KV layer, handoff or planner.
//! * `serve_kv_pressure` — `simulate_replicas(cfg, 2)`, intel_h100,
//!   llama-2-7b, chunked prefill {32, 512}, JSQ, Poisson 2 req/s, prompt
//!   1536, 256 tokens, a KV pool of 8 full lifetimes per replica with
//!   automatic offload, 40 000 requests. Why: the same floor with writes
//!   beside reads; the memory layer reserves, grows, evicts and swaps, and
//!   long contexts price more cold keys. It shows whether a floor change
//!   that helps `serve_steady` costs the memory path.
//! * `plan_capacity` — `plan::sweep_with` with a serial closure over
//!   `evaluate_bounded`: llama-2-7b, 50 req/s with a diurnal peak of 150,
//!   1024 requests, prompt 512, 16 tokens, SLO TTFT 600 / e2e 2500 ms, up
//!   to 12 replicas, batch 8, floor 0.9, cost-model JSQ, continuous: 1260
//!   candidates. Why: the only workload with analytic bounds, early abort,
//!   handoff links and the autoscaler; many short floor runs instead of one
//!   long one.
//! * `serve_trace_export` — the `serve_kv_pressure` config at 1000
//!   requests through `simulate_traced` → `ServingTrace::to_trace` →
//!   `chrome::to_chrome_trace`, the JSON kept in memory. Why: the
//!   `skip serve --trace-out` path, the only workload dominated by
//!   exporting observations; its inputs match `serve_kv_pressure`, so the
//!   difference between the two isolates the export. (1000 requests keep
//!   the child near 380 MiB; the recording grows linearly with requests.)
//!
//! ## End-to-end metrics (untraced children)
//!
//! Medians, printed with q1/q3/min/max and n. No percentile above the
//! median has ten samples beyond it, so none is reported. The bounds are
//! set by the noise measured on a shared 2-core host (see `report::E2E`).
//!
//! * `run_s` — host seconds of one cold pass: the median, over the run's
//!   four input seeds, of the fastest pass at each seed (n = 4; lower;
//!   bound +24%). Every pass at a seed does the same deterministic work,
//!   and the host's other tenants only ever add to its time, in episodes
//!   that last from seconds to minutes and slowed single passes by up to
//!   70%. Over ten 30 s runs the median pass spread 8-19% between runs,
//!   the fastest 4-11%.
//! * `setup_s` — from the parent's spawn of a child to its first call into
//!   the simulator, median over every pass (lower; bound +25%).
//! * `peak_rss_mb` — the child's `VmHWM` after the pass, MiB, median over
//!   every pass (lower; bound +10%).
//! * `requests_per_s` / `points_per_s` / `candidates_per_s` — operations
//!   per host second of the same fastest passes as `run_s`; `ops_per_s` in
//!   the one-line result (higher; bound −24%).
//! * `failed_frac` — failed operations over attempted ones; a crashed
//!   child fails all of its operations, and a digest mismatch fails all
//!   of the workload's. It must stay 0: the checks below feed it.
//!
//! Checks: every request completes; the traced run conserves requests at
//! every sample; traced and untraced entry points return identical
//! reports; the frontier is non-empty and its cheapest fleet feasible; the
//! digest of each workload's serialized outputs is identical across
//! repetitions at each input seed and, at seed 13, the run's combined
//! digest equals the expected one in `workloads.rs`.
//!
//! ## Per-layer metrics (traced child) and what they should move
//!
//! A workload that never calls a layer reports 0 for it.
//!
//! * `llm.graph_s` (a `Workload::graph_shared` call ahead of
//!   `Engine::run`), `runtime.run_s`, `runtime.trace_events`,
//!   `core.depgraph_s`, `core.metrics_s`, `core.attribution_s`,
//!   `core.classify_s`, `fusion.recommend_s` — move `run_s`/`points_per_s`
//!   on `profile_sweep`, flat on the serve_* workloads. The graph and
//!   schedule caches also drive `peak_rss_mb` there.
//! * `serve.arrivals_s` — `ArrivalProcess::generate` / `RequestStream`
//!   with the workload seed.
//! * `serve.latency.cold_s`, `serve.latency.engine_runs`,
//!   `serve.latency.hit_ns` — a fresh `LatencyModel::new` pricing the
//!   workload's key grid, cold and then warm. Moves `run_s` on
//!   `serve_kv_pressure` and `plan_capacity`, barely on `serve_steady`.
//! * `serve.unified.floor_s` (the traced entry point, after the pricing
//!   grid is warm), `serve.unified.untraced_s` (the untraced entry point,
//!   timed the same way), `serve.observe.record_s` (their difference),
//!   `serve.unified.allocs_per_request` (allocations of the untraced call
//!   per request, from this binary's counting allocator) — move
//!   `run_s`/`requests_per_s` on `serve_steady` most and `plan_capacity`
//!   per candidate. Pay-for-what-you-use observation should drop
//!   `untraced_s` and `peak_rss_mb` on `serve_steady` and leave
//!   `serve_trace_export` flat.
//! * `serve.observe.lifecycle_events`, `serve.observe.samples` —
//!   deterministic counts of recording work.
//! * `des.queue_s`, `des.events` — the run's sample timestamps pushed and
//!   popped through `skip_des::EventQueue`.
//! * `serve.observe.to_trace_s`, `trace.chrome_s`, `trace.chrome_mb`,
//!   `trace.counter_events` — move `run_s`/`peak_rss_mb` on
//!   `serve_trace_export` only.
//! * `serve.plan.bounds_s` (`SweepBounds::new`);
//!   `serve.plan.{simulated,aborted,pruned_infeasible,pruned_dominated}`
//!   as a count and `_s` each, from timing every `evaluate_bounded` by its
//!   `Resolution`; `serve.plan.useful_share`, the simulated seconds over
//!   the simulated plus aborted ones; `serve.plan.frontier_s` — move
//!   `candidates_per_s` on
//!   `plan_capacity` only. The floor layers there come from one full run
//!   of the cheapest fleet.
//! * `traced_run_s` — the traced child's whole pass, printed beside
//!   `run_s`.
//!
//! Simulated statistics (`sim.ttft_p50_ms`, `sim.ttft_p99_ms`,
//! `sim.e2e_p95_ms`, `sim.queue_wait_p99_ms`, `sim.batch_mean`,
//! `sim.tok_per_s`, `sim.preemptions`, `sim.swap_outs`,
//! `sim.kv_peak_occupancy`, `sim.handoffs`, `sim.scale_ups`,
//! `sim.frontier_size`, `sim.cheapest_replica_s`, and
//! `sim.transition_batch.<platform>` for llama-3.2-1b eager at seq 512)
//! are printed with the traced table. A change that only speeds the
//! simulator up must leave every one of them bit-identical; the digests
//! check that.

mod report;
mod spans;
mod stats;
mod workloads;

use std::collections::{BTreeMap, BTreeSet};
use std::process::{Command, Stdio};
use std::time::Instant;

use serde::{Deserialize, Serialize, Value};

use report::{Host, Results, WorkloadResult, E2E, LAYERS};
use spans::Span;
use stats::Summary;
use workloads::{combined_digest, run_seeds, unix_ns, Workload, DEFAULT_SEED, RUN_SEEDS};

#[global_allocator]
static ALLOCATOR: spans::CountingAlloc = spans::CountingAlloc;

const USAGE: &str = "usage: skipbench [--workloads a,b | --workload a] [--seed S] \
[--reps N | --seconds S] [--trace 0|1]\n       skipbench --compare BASE.json NEW.json";

const RESULTS_PATH: &str = "target/skipbench.json";
const TRACE_PATH: &str = "target/skipbench-trace.json";

/// What a child process sends back on its last stdout line.
#[derive(Debug, Serialize, Deserialize)]
struct ChildReport {
    setup_s: f64,
    run_s: f64,
    peak_rss_kb: u64,
    attempted: u64,
    failed: u64,
    digest: String,
    problems: Vec<String>,
    layers: BTreeMap<String, f64>,
    sim: BTreeMap<String, f64>,
    spans: Vec<Span>,
}

/// How long to keep repeating.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Budget {
    Reps(u32),
    Seconds(f64),
}

#[derive(Debug, PartialEq)]
struct BenchArgs {
    workloads: Vec<Workload>,
    seed: u64,
    budget: Budget,
    /// `None` runs both kinds of child and prints tables; `Some` runs only
    /// the untraced (`false`) or traced (`true`) ones and ends with the
    /// one-line result.
    trace: Option<bool>,
}

#[derive(Debug, PartialEq)]
enum Cmd {
    Bench(BenchArgs),
    Compare(String, String),
    Child {
        workload: Workload,
        seed: u64,
        spawned_at_ns: u128,
        traced: bool,
    },
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse(&args) {
        Ok(Cmd::Bench(b)) => bench(&b),
        Ok(Cmd::Compare(base, new)) => compare(&base, &new),
        Ok(Cmd::Child {
            workload,
            seed,
            spawned_at_ns,
            traced,
        }) => child(workload, seed, spawned_at_ns, traced),
        Err(e) => {
            eprintln!("skipbench: {e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    let mut workloads = Workload::ALL.to_vec();
    let mut seed = DEFAULT_SEED;
    let mut budget = Budget::Reps(5);
    let mut trace = None;
    let mut child = None;
    let mut spawned_at_ns = 0u128;
    let mut traced = false;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" | "--workloads" => {
                workloads = value(flag)?
                    .split(',')
                    .map(|n| Workload::parse(n).ok_or_else(|| format!("unknown workload {n}")))
                    .collect::<Result<_, _>>()?;
            }
            "--seed" => seed = number(flag, &value(flag)?)?,
            "--reps" => match number(flag, &value(flag)?)? {
                0 => return Err("--reps must be at least 1".into()),
                n => budget = Budget::Reps(n),
            },
            "--seconds" => {
                let s: f64 = number(flag, &value(flag)?)?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                budget = Budget::Seconds(s);
            }
            "--trace" => match value(flag)?.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                v => return Err(format!("--trace takes 0 or 1, got {v}")),
            },
            "--compare" => return Ok(Cmd::Compare(value(flag)?, value(flag)?)),
            "--child" => {
                let name = value(flag)?;
                child =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--spawned-at" => spawned_at_ns = number(flag, &value(flag)?)?,
            "--traced" => traced = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if let Some(workload) = child {
        return Ok(Cmd::Child {
            workload,
            seed,
            spawned_at_ns,
            traced,
        });
    }
    if trace.is_some() && workloads.len() != 1 {
        return Err("--trace needs exactly one --workload".into());
    }
    Ok(Cmd::Bench(BenchArgs {
        workloads,
        seed,
        budget,
        trace,
    }))
}

fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} needs a number, got {v}"))
}

/// Runs one pass in this process and prints its report as one JSON line.
fn child(w: Workload, seed: u64, spawned_at_ns: u128, traced: bool) -> i32 {
    let report = if traced {
        let t = w.run_traced(seed);
        ChildReport {
            setup_s: 0.0,
            run_s: 0.0,
            peak_rss_kb: 0,
            attempted: t.outcome.attempted,
            failed: t.outcome.failed,
            digest: t.outcome.digest,
            problems: t.outcome.problems,
            layers: t.layers,
            sim: t.sim,
            spans: t.spans,
        }
    } else {
        let (o, timing) = w.run(seed, spawned_at_ns);
        ChildReport {
            setup_s: timing.setup_s,
            run_s: timing.run_s,
            peak_rss_kb: timing.peak_rss_kb,
            attempted: o.attempted,
            failed: o.failed,
            digest: o.digest,
            problems: o.problems,
            layers: BTreeMap::new(),
            sim: BTreeMap::new(),
            spans: Vec::new(),
        }
    };
    println!(
        "{}",
        serde_json::to_string(&report).expect("child report serializes")
    );
    0
}

/// Spawns one child of this binary and waits for its report.
fn spawn(w: Workload, seed: u64, traced: bool) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate skipbench: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", w.name(), "--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if traced {
        cmd.arg("--traced");
    }
    let out = cmd
        .arg("--spawned-at")
        .arg(unix_ns().to_string())
        .output()
        .map_err(|e| format!("cannot spawn a child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("child printed nothing")?;
    serde_json::from_str(line).map_err(|e| format!("unreadable child report: {e}"))
}

/// Runs `rep(pass)` for passes 0, 1, ... until `budget` is spent, and at
/// least once per input seed of the run: `Reps(n)` is `n` rounds over
/// the seeds.
fn repeat(budget: Budget, mut rep: impl FnMut(usize)) {
    let seeds = RUN_SEEDS as usize;
    let start = Instant::now();
    let mut n = 0;
    loop {
        rep(n);
        n += 1;
        let done = match budget {
            Budget::Reps(rounds) => n >= rounds as usize * seeds,
            Budget::Seconds(s) => n >= seeds && start.elapsed().as_secs_f64() >= s,
        };
        if done {
            break;
        }
    }
}

/// All repetitions of one workload, folded into its result; also returns
/// the first traced child's spans.
fn measure(w: Workload, args: &BenchArgs) -> (WorkloadResult, Vec<Span>) {
    let seeds = run_seeds(args.seed);
    let ops = w.ops(args.seed);
    // Children that reported, each with the input seed it ran.
    let mut untraced: Vec<(u64, ChildReport)> = Vec::new();
    let mut traced: Vec<(u64, ChildReport)> = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut problems = BTreeSet::new();
    let mut run = |kind: bool, pass: usize, into: &mut Vec<(u64, ChildReport)>| {
        let seed = seeds[pass % seeds.len()];
        match spawn(w, seed, kind) {
            Ok(mut r) => {
                attempted += r.attempted;
                failed += r.failed;
                problems.extend(r.problems.iter().cloned());
                // Only the first traced child's spans are written out.
                if !into.is_empty() {
                    r.spans = Vec::new();
                }
                into.push((seed, r));
            }
            Err(e) => {
                attempted += ops;
                failed += ops;
                problems.insert(e);
            }
        }
    };
    if args.trace != Some(true) {
        repeat(args.budget, |pass| run(false, pass, &mut untraced));
    }
    match args.trace {
        None => run(true, 0, &mut traced),
        Some(true) => repeat(args.budget, |pass| run(true, pass, &mut traced)),
        Some(false) => {}
    }

    // Outputs that differ across repetitions of one input seed, or from
    // the expected digest at the default seed, fail every operation: none
    // can be trusted.
    let mut by_seed: BTreeMap<u64, BTreeSet<&str>> = BTreeMap::new();
    for (seed, r) in untraced.iter().chain(&traced) {
        by_seed.entry(*seed).or_default().insert(r.digest.as_str());
    }
    let digest = combined_digest(
        seeds
            .iter()
            .filter_map(|s| by_seed.get(s).and_then(|d| d.first().copied())),
    );
    let wrong = if let Some((seed, d)) = by_seed.iter().find(|(_, d)| d.len() > 1) {
        Some(format!(
            "outputs at input seed {seed} differ across repetitions: {d:?}"
        ))
    } else if args.seed == DEFAULT_SEED
        && by_seed.len() == seeds.len()
        && digest != w.expected_digest()
    {
        Some(format!(
            "digest {digest} differs from the expected {} at seed {DEFAULT_SEED}",
            w.expected_digest()
        ))
    } else {
        None
    };
    if let Some(problem) = wrong {
        problems.insert(problem);
        failed = attempted;
    }

    // A pass's time is its work plus whatever the host's other tenants
    // cost it, and never less than the work: the fastest pass at each
    // input seed is the best estimate of that seed's cost, and the run's
    // time is the median over its seeds.
    let mut fastest: BTreeMap<u64, f64> = BTreeMap::new();
    for (seed, r) in &untraced {
        let t = fastest.entry(*seed).or_insert(f64::INFINITY);
        *t = t.min(r.run_s);
    }
    let fastest: Vec<f64> = fastest.into_values().collect();
    let column = |f: &dyn Fn(&ChildReport) -> f64| -> Vec<f64> {
        untraced.iter().map(|(_, r)| f(r)).collect()
    };
    let mut e2e = BTreeMap::new();
    for (name, values) in [
        ("run_s", fastest.clone()),
        ("setup_s", column(&|r| r.setup_s)),
        ("peak_rss_mb", column(&|r| r.peak_rss_kb as f64 / 1024.0)),
        (
            "ops_per_s",
            fastest.iter().map(|t| ops as f64 / t).collect(),
        ),
    ] {
        if let Some(s) = Summary::of(&values) {
            e2e.insert(name.to_owned(), s);
        }
    }
    let mut layers = BTreeMap::new();
    let names: BTreeSet<&String> = traced.iter().flat_map(|(_, r)| r.layers.keys()).collect();
    for name in names {
        let values: Vec<f64> = traced
            .iter()
            .filter_map(|(_, r)| r.layers.get(name).copied())
            .collect();
        if let Some(s) = Summary::of(&values) {
            layers.insert(name.clone(), s.median);
        }
    }
    let (sim, spans) = traced
        .into_iter()
        .next()
        .map_or_else(Default::default, |(_, r)| (r.sim, r.spans));
    let result = WorkloadResult {
        name: w.name().to_owned(),
        op: w.op().to_owned(),
        seed: args.seed,
        correct: problems.is_empty() && failed == 0,
        attempted,
        failed,
        digest,
        problems: problems.into_iter().collect(),
        e2e,
        layers,
        sim,
    };
    (result, spans)
}

fn bench(args: &BenchArgs) -> i32 {
    let host = Host::this();
    println!(
        "skipbench: {} cores ({}), kernel {}, {} worker per workload, seed {}",
        host.nproc, host.cpu_model, host.kernel, host.workers, args.seed
    );
    let mut workloads = Vec::new();
    let mut spans = Vec::new();
    for &w in &args.workloads {
        let (r, s) = measure(w, args);
        print!("{}", r.render());
        workloads.push(r);
        spans.push((w.name(), s));
    }
    let results = Results { host, workloads };
    write_outputs(&results, &spans);
    if let (Some(traced), [r]) = (args.trace, results.workloads.as_slice()) {
        println!("{}", one_line(r, traced));
    }
    i32::from(!results.workloads.iter().all(|r| r.correct))
}

/// Writes the results and span files, warning instead of failing: the
/// printed output is the benchmark's result.
fn write_outputs(results: &Results, spans: &[(&str, Vec<Span>)]) {
    let spans: Vec<(&str, &[Span])> = spans
        .iter()
        .filter(|(_, s)| !s.is_empty())
        .map(|(w, s)| (*w, s.as_slice()))
        .collect();
    let write = |path: &str, text: String| {
        if let Err(e) = std::fs::create_dir_all("target").and_then(|()| std::fs::write(path, text))
        {
            eprintln!("skipbench: cannot write {path}: {e}");
        }
    };
    write(
        RESULTS_PATH,
        serde_json::to_string_pretty(results).expect("results serialize") + "\n",
    );
    if !spans.is_empty() {
        write(TRACE_PATH, spans::chrome_trace(&spans));
    }
}

/// The one-line result: every end-to-end metric (untraced) or every
/// per-layer metric (traced).
fn one_line(r: &WorkloadResult, traced: bool) -> String {
    let metric = |value: f64, unit: &str| {
        Value::Map(vec![
            ("value".into(), Value::F64(value)),
            ("unit".into(), Value::Str(unit.into())),
        ])
    };
    let metrics: Vec<(String, Value)> = if traced {
        LAYERS
            .iter()
            .map(|&(name, unit)| {
                let v = r.layers.get(name).copied().unwrap_or(0.0);
                (name.to_owned(), metric(v, unit))
            })
            .collect()
    } else {
        E2E.iter()
            .map(|m| {
                let v = r.e2e.get(m.name).map_or(0.0, |s| s.median);
                (m.name.to_owned(), metric(v, m.unit))
            })
            .collect()
    };
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(r.correct)),
        ("attempted".into(), Value::U64(r.attempted)),
        ("failed".into(), Value::U64(r.failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).expect("result line serializes")
}

fn compare(base: &str, new: &str) -> i32 {
    let load = |path: &str| -> Result<Results, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    match (load(base), load(new)) {
        (Ok(b), Ok(n)) => i32::from(report::compare(&b, &n) > 0),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("skipbench: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_one_workload_command_line() {
        let cmd = parse(&args(
            "--workload serve_steady --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Cmd::Bench(BenchArgs {
                workloads: vec![Workload::ServeSteady],
                seed: 7,
                budget: Budget::Seconds(20.0),
                trace: Some(true),
            })
        );
        let Cmd::Bench(all) = parse(&[]).unwrap() else {
            panic!("bench expected")
        };
        assert_eq!(all.workloads.len(), 5);
        assert_eq!(
            (all.seed, all.budget, all.trace),
            (13, Budget::Reps(5), None)
        );
        assert!(
            parse(&args("--trace 1")).is_err(),
            "one workload per result line"
        );
        assert!(parse(&args("--workloads nope")).is_err());
        assert!(parse(&args("--reps 0")).is_err());
        assert!(parse(&args("--bogus")).is_err());
    }

    #[test]
    fn a_run_visits_every_input_seed() {
        let mut passes = 0;
        repeat(Budget::Reps(2), |_| passes += 1);
        assert_eq!(passes, 2 * RUN_SEEDS as usize);
        let mut passes = 0;
        repeat(Budget::Seconds(1e-9), |_| passes += 1);
        assert_eq!(passes, RUN_SEEDS as usize, "one round even past the budget");
        assert_eq!(run_seeds(13), [52, 53, 54, 55]);
    }

    #[test]
    fn one_line_result_names_every_metric() {
        let r = WorkloadResult {
            name: "w".into(),
            op: "requests".into(),
            seed: 13,
            correct: true,
            attempted: 4,
            failed: 0,
            digest: String::new(),
            problems: Vec::new(),
            e2e: BTreeMap::new(),
            layers: BTreeMap::new(),
            sim: BTreeMap::new(),
        };
        let line: Value = serde_json::from_str(&one_line(&r, false)).unwrap();
        let metrics = line.get("metrics").and_then(Value::as_map).unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["run_s", "setup_s", "peak_rss_mb", "ops_per_s"]);
        let line: Value = serde_json::from_str(&one_line(&r, true)).unwrap();
        assert_eq!(
            line.get("metrics").and_then(Value::as_map).unwrap().len(),
            LAYERS.len()
        );
        assert_eq!(line.get("attempted").and_then(Value::as_u64), Some(4));
    }
}
