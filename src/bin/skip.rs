//! `skip` — command-line front end for the skip-rs stack.
//!
//! ```text
//! skip profile  --model gpt2 --platform gh200 --batch 1 --seq 512 [--mode eager] [--export out.json]
//! skip sweep    --model bert-base-uncased [--platform intel_h100]
//! skip fuse     --model gpt2 [--platform intel_h100] [--chain-len 256]
//! skip generate --model llama-3.2-1b --tokens 32 [--platform gh200] [--batch 1]
//! skip models | skip platforms
//! ```

use std::collections::BTreeMap;
use std::error::Error;
use std::process::ExitCode;

use skip_core::{
    attribute_with_graph, classify_sweep, top_kernels, DependencyGraph, ProfileReport, SweepPoint,
};
use skip_des::SimDuration;
use skip_fusion::{recommend, FusionAnalysis};
use skip_hw::Platform;
use skip_llm::{zoo, ModelConfig, Phase, Workload};
use skip_runtime::{CompileMode, Engine, ExecMode};
use skip_serve::fleet::plan;
use skip_serve::{
    simulate_fleet, simulate_fleet_traced, simulate_replicas, simulate_traced, ArrivalProcess,
    AutoscaleConfig, ConfigError, FleetBatchPolicy, FleetConfig, FleetRouterPolicy, FleetSpec,
    KvCacheConfig, OffloadPolicy, PlannerConfig, Policy, RouterPolicy, ServingConfig, SloTargets,
    TrafficEnvelope,
};
use skip_trace::chrome;

const USAGE: &str = "\
skip — SKIP profiler & CPU-GPU coupling simulator (ISPASS 2025 reproduction)

USAGE:
    skip profile  --model <id> [--platform <id>] [--batch N] [--seq N] [--mode <m>] [--export FILE]
    skip sweep    --model <id> [--platform <id>|all] [--seq N]
    skip fuse     --model <id> [--platform <id>] [--chain-len N] [--threshold T]
    skip generate --model <id> [--platform <id>] [--batch N] [--seq N] [--tokens N]
    skip serve    --model <id> [--platform <id>] [--qps R] [--requests N] [--max-batch N] [--replicas N]
                  [--policy static|continuous|chunked] [--router shared|rr|jsq]
                  [--batch-size N] [--max-wait-ms T] [--chunk-tokens N]
                  [--seq N] [--tokens N] [--kv-blocks N] [--offload recompute|swap|auto]
                  [--trace-out FILE] [--slo-ttft-ms T] [--slo-e2e-ms T]
    skip serve    --model <id> --fleet <spec> [--disagg] [--autoscale] [--fleet-router rr|jsq|cost]
                  [--policy continuous|chunked] [--chunk-tokens N]
                  [--arrivals poisson|diurnal|bursty] [--peak-qps R] [--period-ms T]
                  [--burst-ms T] [--lull-ms T] [--qps R] [--requests N] [--max-batch N]
                  [--seq N] [--tokens N] [--trace-out FILE] [--slo-ttft-ms T] [--slo-e2e-ms T]
    skip plan     --model <id> [--qps R] [--peak-qps R] [--requests N] [--max-batch N]
                  [--seq N] [--tokens N] [--slo-ttft-ms T] [--slo-e2e-ms T]
                  [--max-replicas N] [--workers N]

FLEET SPECS: comma-separated groups '[prefill=|decode=]<platform>:<count>', e.g.
    --fleet intel_h100:4                              homogeneous unified fleet
    --fleet prefill=gh200:1,decode=intel_h100:3       disaggregated pools
    --fleet gh200:1,intel_h100:3 --disagg             first group prefill, rest decode
    skip models
    skip platforms

MODES: eager | fa2 | compile-default | compile-reduce-overhead | compile-max-autotune
";

fn models() -> Vec<ModelConfig> {
    let mut m = zoo::table_iii();
    m.push(zoo::gemma_2b());
    m.extend(zoo::seven_b_models());
    m.push(zoo::bert_large());
    m.push(zoo::gpt2_medium());
    m.push(zoo::llama31_8b());
    m.push(zoo::qwen25_05b());
    m
}

fn platforms() -> Vec<Platform> {
    let mut p = Platform::paper_trio();
    p.push(Platform::mi300a());
    p
}

fn find_model(id: &str) -> Result<ModelConfig, String> {
    models()
        .into_iter()
        .find(|m| m.name == id)
        .ok_or_else(|| format!("unknown model '{id}' (try `skip models`)"))
}

fn find_platform(id: &str) -> Result<Platform, String> {
    platforms()
        .into_iter()
        .find(|p| p.name == id)
        .ok_or_else(|| format!("unknown platform '{id}' (try `skip platforms`)"))
}

fn parse_mode(id: &str) -> Result<ExecMode, String> {
    Ok(match id {
        "eager" => ExecMode::Eager,
        "fa2" | "flash-attention-2" => ExecMode::FlashAttention2,
        "compile-default" => ExecMode::TorchCompile(CompileMode::Default),
        "compile-reduce-overhead" => ExecMode::TorchCompile(CompileMode::ReduceOverhead),
        "compile-max-autotune" => ExecMode::TorchCompile(CompileMode::MaxAutotune),
        other => return Err(format!("unknown mode '{other}'")),
    })
}

/// Flags that take no value; present means `"true"`.
const BOOL_FLAGS: [&str; 2] = ["disagg", "autoscale"];

/// Parses `--key value` pairs after the subcommand. Flags listed in
/// [`BOOL_FLAGS`] never consume a value.
fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --flag, got '{key}'"));
        };
        if BOOL_FLAGS.contains(&name) {
            flags.insert(name.to_owned(), "true".to_owned());
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("--{name} requires a value"))?;
        flags.insert(name.to_owned(), value.clone());
    }
    Ok(flags)
}

/// The flags each command line reads, space-separated; [`reject_unread`]
/// refuses any other.
const PROFILE_FLAGS: &str = "model platform batch seq mode export";
const SWEEP_FLAGS: &str = "model platform seq";
const FUSE_FLAGS: &str = "model platform chain-len threshold";
const GENERATE_FLAGS: &str = "model platform batch seq tokens";
const SERVE_FLAGS: &str = "model platform qps requests max-batch replicas policy router \
    batch-size max-wait-ms chunk-tokens seq tokens kv-blocks offload trace-out slo-ttft-ms \
    slo-e2e-ms";
const SERVE_FLEET_FLAGS: &str = "model fleet disagg autoscale fleet-router policy chunk-tokens \
    arrivals peak-qps period-ms burst-ms lull-ms qps requests max-batch seq tokens trace-out \
    slo-ttft-ms slo-e2e-ms";
const PLAN_FLAGS: &str = "model qps peak-qps requests max-batch seq tokens slo-ttft-ms \
    slo-e2e-ms max-replicas workers";

/// The command line `skip serve` runs, named by the mode flags it was
/// given, and the flags that mode reads. Static batching never consults
/// the KV pool, only chunked prefill reads a chunk budget, an offload
/// policy needs a non-zero `--kv-blocks`, and each fleet arrival process
/// reads only its own shape flags. An unknown `--policy` or `--arrivals`
/// value filters nothing, so its own parser reports it.
fn serve_mode(flags: &BTreeMap<String, String>) -> (String, String) {
    let fleet = flags.contains_key("fleet");
    let mut command = String::from(if fleet {
        "skip serve --fleet"
    } else {
        "skip serve"
    });
    let mut name = |key: &str| {
        if let Some(v) = flags.get(key) {
            command.push_str(&format!(" --{key} {v}"));
        }
    };
    name("policy");
    let policy = flags.get("policy").map_or("continuous", String::as_str);
    let mut unread = match policy {
        "static" if !fleet => vec!["chunk-tokens", "kv-blocks", "offload"],
        "continuous" => vec!["batch-size", "max-wait-ms", "chunk-tokens"],
        "chunked" | "chunked-prefill" => vec!["batch-size", "max-wait-ms"],
        _ => Vec::new(),
    };
    if fleet {
        name("arrivals");
        match flags.get("arrivals").map_or("poisson", String::as_str) {
            "poisson" => unread.extend(["peak-qps", "period-ms", "burst-ms", "lull-ms"]),
            "diurnal" => unread.extend(["burst-ms", "lull-ms"]),
            "bursty" => unread.push("period-ms"),
            _ => {}
        }
    } else if matches!(policy, "continuous" | "chunked" | "chunked-prefill") {
        name("kv-blocks");
        if flags.get("kv-blocks").is_none_or(|v| v.parse() == Ok(0u32)) {
            unread.push("offload");
        }
    }
    let all = if fleet {
        SERVE_FLEET_FLAGS
    } else {
        SERVE_FLAGS
    };
    let reads: Vec<&str> = all
        .split_whitespace()
        .filter(|f| !unread.contains(f))
        .collect();
    (command, reads.join(" "))
}

/// Fails on the first flag `command` does not read, so a typo or a flag
/// meant for another mode is an error instead of a silent default.
fn reject_unread(
    command: &str,
    flags: &BTreeMap<String, String>,
    reads: &str,
) -> Result<(), String> {
    let Some(flag) = flags
        .keys()
        .find(|k| !reads.split_whitespace().any(|r| r == k.as_str()))
    else {
        return Ok(());
    };
    let reads: Vec<String> = reads.split_whitespace().map(|r| format!("--{r}")).collect();
    let reads = if reads.is_empty() {
        "no flags".to_owned()
    } else {
        reads.join(" ")
    };
    Err(format!(
        "`{command}` does not read --{flag} (it reads {reads})"
    ))
}

fn get_u32(flags: &BTreeMap<String, String>, key: &str, default: u32) -> Result<u32, String> {
    match flags.get(key) {
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad number '{v}'")),
        None => Ok(default),
    }
}

/// Parses an optional `--slo-*-ms` flag into an SLO target. Every
/// subcommand that scores against SLOs shares this, so the same bad input
/// prints the same message regardless of subcommand. A target that is not
/// a positive, finite number of milliseconds is rejected rather than
/// becoming a 0 ms target.
fn get_slo_ms(flags: &BTreeMap<String, String>, key: &str) -> Result<Option<SimDuration>, String> {
    flags
        .get(key)
        .map(|v| {
            let ms: f64 = v
                .parse()
                .map_err(|_| format!("--{key}: bad number '{v}'"))?;
            if ms.is_finite() && ms > 0.0 {
                Ok(SimDuration::from_nanos_f64(ms * 1e6))
            } else {
                Err(format!("--{key} must be positive and finite, got {v}"))
            }
        })
        .transpose()
}

/// Reads a count flag that must be at least `min`, rejecting smaller
/// values with the validators' canonical wording (`... must be at least
/// N`), shared across subcommands.
fn get_count(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: u32,
    min: u32,
) -> Result<u32, String> {
    let v = get_u32(flags, key, default)?;
    if v < min {
        Err(format!("--{key} must be at least {min}"))
    } else {
        Ok(v)
    }
}

fn cmd_profile(flags: &BTreeMap<String, String>) -> Result<(), Box<dyn Error>> {
    reject_unread("skip profile", flags, PROFILE_FLAGS)?;
    let model = find_model(flags.get("model").ok_or("--model is required")?)?;
    let platform = find_platform(flags.get("platform").map_or("intel_h100", String::as_str))?;
    let batch = get_count(flags, "batch", 1, 1)?;
    let seq = get_count(flags, "seq", 512, 1)?;
    let mode = parse_mode(flags.get("mode").map_or("eager", String::as_str))?;

    let wl = Workload::new(model, Phase::Prefill, batch, seq);
    let trace = Engine::new(platform.clone()).run(&wl, mode);
    let graph = DependencyGraph::build(&trace);
    let r = ProfileReport::analyze_with_graph(&trace, &graph);

    println!(
        "== {} | {} | {mode} | batch {batch} | seq {seq} ==",
        wl.model.name, platform.name
    );
    println!("TTFT (inference latency) : {}", r.inference_latency);
    println!("TKLQT                    : {}", r.tklqt);
    println!("average kernel duration  : {}", r.akd);
    println!("GPU idle / CPU idle      : {} / {}", r.gpu_idle, r.cpu_idle);
    println!(
        "kernels / launches / ops : {} / {} / {}",
        r.kernel_count, r.launch_count, r.cpu_op_count
    );
    println!(
        "GPU utilization          : {:.1}%",
        r.gpu_utilization() * 100.0
    );

    println!("\ntop kernels:");
    for k in top_kernels(&trace, 5) {
        println!("  {:>5}x {:<44} {}", k.count, k.name, k.total_time);
    }
    println!("\ntop operators by GPU time:");
    for s in attribute_with_graph(&trace, &graph).into_iter().take(5) {
        println!(
            "  {:<28} {:>4} inst {:>5} kernels  gpu {}  launch+queue {}",
            s.name, s.instances, s.kernels, s.gpu_time, s.launch_queue_time
        );
    }

    if let Some(path) = flags.get("export") {
        std::fs::write(path, chrome::to_chrome_trace(&trace))?;
        println!("\nwrote Chrome trace to {path}");
    }
    Ok(())
}

fn cmd_sweep(flags: &BTreeMap<String, String>) -> Result<(), Box<dyn Error>> {
    reject_unread("skip sweep", flags, SWEEP_FLAGS)?;
    let model = find_model(flags.get("model").ok_or("--model is required")?)?;
    let seq = get_count(flags, "seq", 512, 1)?;
    let selected = flags.get("platform").map_or("all", String::as_str);
    let targets: Vec<Platform> = if selected == "all" {
        Platform::paper_trio()
    } else {
        vec![find_platform(selected)?]
    };

    for platform in targets {
        let engine = Engine::new(platform.clone());
        let mut points = Vec::new();
        println!("== {} on {} ==", model.name, platform.name);
        println!(
            "{:>6} {:>12} {:>12} {:>8}",
            "batch", "ttft_ms", "tklqt_ms", "gpu%"
        );
        for bs in [1u32, 2, 4, 8, 16, 32, 64, 128] {
            let wl = Workload::new(model.clone(), Phase::Prefill, bs, seq);
            let r = ProfileReport::analyze(&engine.run(&wl, ExecMode::Eager));
            println!(
                "{bs:>6} {:>12.3} {:>12.3} {:>7.0}%",
                r.inference_latency.as_millis_f64(),
                r.tklqt.as_millis_f64(),
                r.gpu_utilization() * 100.0
            );
            points.push(SweepPoint {
                batch_size: bs,
                tklqt: r.tklqt,
            });
        }
        let class = classify_sweep(&points);
        match class.transition_batch {
            Some(b) => println!("CPU-bound -> GPU-bound transition at batch {b}\n"),
            None => println!("CPU-bound across the whole sweep\n"),
        }
    }
    Ok(())
}

fn cmd_fuse(flags: &BTreeMap<String, String>) -> Result<(), Box<dyn Error>> {
    reject_unread("skip fuse", flags, FUSE_FLAGS)?;
    let model = find_model(flags.get("model").ok_or("--model is required")?)?;
    let platform = find_platform(flags.get("platform").map_or("intel_h100", String::as_str))?;
    let chain_len = get_count(flags, "chain-len", 256, 2)? as usize;
    let threshold = match flags.get("threshold") {
        None => 1.0,
        Some(v) => match v.parse::<f64>() {
            Ok(t) if t > 0.0 && t <= 1.0 => t,
            Ok(_) => return Err(format!("--threshold must be in (0, 1], got {v}").into()),
            Err(_) => return Err("--threshold: bad number".into()),
        },
    };

    let wl = Workload::new(model, Phase::Prefill, 1, 512);
    let trace = Engine::new(platform).run(&wl, ExecMode::Eager);
    let a = FusionAnalysis::of_trace(&trace, chain_len);
    println!(
        "K_eager {} -> K_fused {} ({} chains of {} fused): ideal speedup {:.2}x",
        a.k_eager,
        a.k_fused,
        a.fused_chains,
        a.chain_len,
        a.ideal_speedup()
    );
    println!("\nrecommendations (PS >= {threshold}):");
    for rec in recommend(&trace, chain_len, threshold).into_iter().take(8) {
        println!(
            "  PS={:.2} saves {:>4} launches  {} .. {}",
            rec.proximity_score,
            rec.est_launch_savings,
            rec.chain.first().expect("non-empty chain"),
            rec.chain.last().expect("non-empty chain"),
        );
    }
    Ok(())
}

fn cmd_generate(flags: &BTreeMap<String, String>) -> Result<(), Box<dyn Error>> {
    reject_unread("skip generate", flags, GENERATE_FLAGS)?;
    let model = find_model(flags.get("model").ok_or("--model is required")?)?;
    let platform = find_platform(flags.get("platform").map_or("gh200", String::as_str))?;
    let batch = get_count(flags, "batch", 1, 1)?;
    let seq = get_count(flags, "seq", 512, 1)?;
    let tokens = get_u32(flags, "tokens", 32)?;

    let r = Engine::new(platform.clone()).generate(&model, batch, seq, tokens, ExecMode::Eager);
    println!(
        "== {} on {} | batch {batch} | prompt {seq} | +{tokens} tokens ==",
        model.name, platform.name
    );
    println!("TTFT        : {}", r.ttft);
    println!("TPOT        : {}", r.tpot());
    println!("end-to-end  : {}", r.end_to_end());
    println!(
        "throughput  : {:.0} tokens/s",
        f64::from(batch) * f64::from(tokens) / r.decode_time.as_secs_f64().max(1e-12)
    );
    Ok(())
}

fn cmd_serve_fleet(
    flags: &BTreeMap<String, String>,
    model: ModelConfig,
    spec: &str,
) -> Result<(), Box<dyn Error>> {
    let mut spec = FleetSpec::parse(spec).map_err(|e| format!("--fleet: {e}"))?;
    if flags.contains_key("disagg") && !spec.is_disaggregated() {
        spec = spec
            .into_disaggregated()
            .map_err(|e| format!("--disagg: {e}"))?;
    }
    let router = FleetRouterPolicy::parse(flags.get("fleet-router").map_or("cost", String::as_str))
        .map_err(|e| format!("--fleet-router: {e}"))?;
    let policy = match flags.get("policy").map_or("continuous", String::as_str) {
        "continuous" => FleetBatchPolicy::Continuous,
        "chunked" | "chunked-prefill" => FleetBatchPolicy::ChunkedPrefill {
            chunk_tokens: get_u32(flags, "chunk-tokens", 128)?,
        },
        other => {
            return Err(format!(
                "--policy: unknown fleet policy '{other}' (expected continuous or chunked)"
            )
            .into())
        }
    };
    let qps: f64 = flags
        .get("qps")
        .map_or(Ok(20.0), |v| v.parse())
        .map_err(|_| "--qps: bad number")?;
    let peak: f64 = flags
        .get("peak-qps")
        .map_or(Ok(qps * 4.0), |v| v.parse())
        .map_err(|_| "--peak-qps: bad number")?;
    let ms = |key: &str, default: u32| -> Result<SimDuration, String> {
        Ok(SimDuration::from_millis(u64::from(get_u32(
            flags, key, default,
        )?)))
    };
    let process = flags.get("arrivals").map_or("poisson", String::as_str);
    let arrivals = match process {
        "poisson" => ArrivalProcess::Poisson { rate_per_s: qps },
        "diurnal" => ArrivalProcess::Diurnal {
            base_rate_per_s: qps,
            peak_rate_per_s: peak,
            period: ms("period-ms", 2000)?,
        },
        "bursty" => ArrivalProcess::Bursty {
            base_rate_per_s: qps,
            burst_rate_per_s: peak,
            burst_len: ms("burst-ms", 400)?,
            lull_len: ms("lull-ms", 2000)?,
        },
        other => {
            return Err(format!(
                "--arrivals: unknown process '{other}' (expected poisson, diurnal, or bursty)"
            )
            .into())
        }
    };
    let cfg = FleetConfig {
        spec,
        model: model.clone(),
        max_batch: get_u32(flags, "max-batch", 8)?,
        requests: get_u32(flags, "requests", 100)?,
        arrivals,
        prompt_len: get_u32(flags, "seq", 128)?,
        new_tokens: get_u32(flags, "tokens", 8)?,
        seed: 2026,
        slo: SloTargets {
            ttft: get_slo_ms(flags, "slo-ttft-ms")?,
            e2e: get_slo_ms(flags, "slo-e2e-ms")?,
        },
        router,
        policy,
        autoscale: flags
            .contains_key("autoscale")
            .then(AutoscaleConfig::default),
    };
    cfg.validate()
        .map_err(|e| format!("{e} (check {})", fleet_hint(&e, process)))?;

    // Record lifecycles and counter samples only when a trace is asked for.
    let (report, ftrace) = match flags.get("trace-out") {
        Some(path) => {
            let (report, ftrace) = simulate_fleet_traced(&cfg);
            (report, Some((path, ftrace)))
        }
        None => (simulate_fleet(&cfg), None),
    };
    println!(
        "== fleet serving {} on {} | {} | router {} | {} arrivals at {qps} req/s ==",
        model.name, cfg.spec, cfg.policy, cfg.router, process
    );
    println!("completed    : {} requests", report.completed);
    println!(
        "TTFT p50/p95/p99 : {} / {} / {}",
        report.ttft_p50, report.ttft_p95, report.ttft_p99
    );
    println!("e2e  p50/p95     : {} / {}", report.e2e_p50, report.e2e_p95);
    println!("throughput   : {:.0} tokens/s", report.throughput_tok_s);
    println!("makespan     : {}", report.makespan);
    if cfg.spec.is_disaggregated() {
        println!(
            "KV handoff   : {} transfers, {:.1} MB moved | wait p50/p95 {} / {} | link busy {}",
            report.handoffs,
            report.handoff_bytes as f64 / 1e6,
            report.handoff_wait_p50,
            report.handoff_wait_p95,
            report.handoff_transfer_total
        );
    }
    if cfg.autoscale.is_some() {
        println!(
            "autoscaling  : {} up / {} down | peak {} replicas | {:.2} replica-seconds",
            report.scale_ups, report.scale_downs, report.peak_replicas, report.replica_seconds
        );
    }
    if cfg.slo.is_set() {
        println!(
            "SLO          : ttft {:.1}% | e2e {:.1}% | {} / {} in SLO | goodput {:.2} req/s",
            report.slo.ttft_attainment * 100.0,
            report.slo.e2e_attainment * 100.0,
            report.slo.slo_completions,
            report.completed,
            report.slo.goodput_req_s
        );
    }
    if let Some((path, ftrace)) = ftrace {
        let trace = ftrace.to_trace();
        trace.validate()?;
        std::fs::write(path, chrome::to_chrome_trace(&trace))?;
        println!(
            "wrote fleet trace to {path} ({} requests, {} samples, {} scaling events) — open in https://ui.perfetto.dev",
            ftrace.lifecycles.len(),
            ftrace.samples.len(),
            ftrace.scaling.len()
        );
    }
    Ok(())
}

/// The `skip serve --fleet` flags the rule behind `e` reads, for its error
/// hint; `process` is the `--arrivals` process, whose own flags join
/// `--qps` when the arrival process is at fault.
fn fleet_hint(e: &ConfigError, process: &str) -> &'static str {
    match e {
        ConfigError::BadArrivals(_) => match process {
            "diurnal" => "--qps / --peak-qps / --period-ms",
            "bursty" => "--qps / --peak-qps / --burst-ms / --lull-ms",
            _ => "--qps",
        },
        ConfigError::AtLeastOne("max_batch") => "--max-batch",
        ConfigError::AtLeastOne("chunked-prefill chunk_tokens") => "--chunk-tokens",
        ConfigError::AtLeastOne("prompt_len") => "--seq",
        ConfigError::AtLeastOne("new_tokens") => "--tokens",
        ConfigError::RequestTooLong(_) => "--seq / --tokens",
        ConfigError::ZeroRequests => "--requests",
        ConfigError::EmptyFleet
        | ConfigError::ZeroCountGroup(_)
        | ConfigError::MixedUnifiedAndPools
        | ConfigError::MissingPool(_) => "--fleet / --disagg",
        ConfigError::BadAutoscale(_) => "--autoscale",
        _ => "--fleet / --requests / --max-batch / --seq / --tokens",
    }
}

/// `skip plan`: the capacity-frontier planner — enumerate fleet
/// compositions against a traffic envelope, run the pruned generational
/// sweep (waves fanned out through the deterministic harness, analytic
/// bounds and early aborts skipping decided candidates), and print the
/// cost-optimal frontier by replica-seconds billing.
fn cmd_plan(flags: &BTreeMap<String, String>) -> Result<(), Box<dyn Error>> {
    reject_unread("skip plan", flags, PLAN_FLAGS)?;
    let model = find_model(flags.get("model").ok_or("--model is required")?)?;
    let qps: f64 = flags
        .get("qps")
        .map_or(Ok(50.0), |v| v.parse())
        .map_err(|_| "--qps: bad number")?;
    let peak_qps: Option<f64> = flags
        .get("peak-qps")
        .map(|v| v.parse())
        .transpose()
        .map_err(|_| "--peak-qps: bad number")?;
    let slo = SloTargets {
        ttft: get_slo_ms(flags, "slo-ttft-ms")?,
        e2e: get_slo_ms(flags, "slo-e2e-ms")?,
    };
    let mut cfg = PlannerConfig::new(TrafficEnvelope {
        model: model.clone(),
        qps,
        peak_qps,
        requests: get_u32(flags, "requests", 64)?,
        prompt_len: get_u32(flags, "seq", 256)?,
        new_tokens: get_u32(flags, "tokens", 8)?,
        seed: 2026,
        slo,
    });
    cfg.max_batch = get_u32(flags, "max-batch", 8)?;
    cfg.max_replicas = get_count(flags, "max-replicas", 4, 1)?;
    cfg.validate().map_err(|e| format!("skip plan: {e}"))?;
    let workers = match get_u32(flags, "workers", 0)? as usize {
        0 => skip_bench::harness::threads(),
        n => n,
    };

    let sweep = plan::sweep_with(&cfg, |wave, bounds| {
        skip_bench::harness::map_with(workers, wave, |c| plan::evaluate_bounded(&cfg, &c, bounds))
    });
    let outcomes = &sweep.outcomes;
    let total = outcomes.len();
    let feasible = outcomes.iter().filter(|o| o.feasible).count();

    let arrivals = match peak_qps {
        Some(p) if p > qps => format!("diurnal {qps}->{p} req/s"),
        _ => format!("poisson {qps} req/s"),
    };
    println!(
        "== capacity plan for {} | {arrivals} | {} requests | up to {} replicas ==",
        model.name, cfg.envelope.requests, cfg.max_replicas
    );
    println!(
        "{total} candidates evaluated on {} worker(s); {feasible} feasible at >={:.0}% attainment",
        skip_bench::harness::effective_workers(workers),
        cfg.attainment_floor * 100.0
    );
    println!(
        "pruned sweep: {} simulated in full, {} aborted early, {} infeasible by bound, {} dominated",
        sweep.stats.simulated,
        sweep.stats.aborted,
        sweep.stats.pruned_infeasible,
        sweep.stats.pruned_dominated,
    );
    if !slo.is_set() {
        println!("note: no --slo-ttft-ms/--slo-e2e-ms set, so every completed fleet is feasible");
    }
    println!("\ncost-optimal frontier (replica-seconds vs e2e p95):");
    println!(
        "{:<40} {:>10} {:>11} {:>12} {:>6} {:>5}",
        "fleet", "replica-s", "e2e p95 ms", "ttft p95 ms", "slo %", "peak"
    );
    for o in plan::frontier(outcomes) {
        println!(
            "{:<40} {:>10.2} {:>11.0} {:>12.0} {:>6.0} {:>5}",
            o.label,
            o.cost(),
            o.report.e2e_p95.as_millis_f64(),
            o.report.ttft_p95.as_millis_f64(),
            100.0 * f64::from(o.report.slo.slo_completions)
                / f64::from(o.report.slo.completed.max(1)),
            o.report.peak_replicas,
        );
    }
    match plan::cheapest(outcomes) {
        Some(best) => println!(
            "\ncost-optimal fleet: {} at {:.2} replica-seconds (e2e p95 {:.0} ms)",
            best.label,
            best.cost(),
            best.report.e2e_p95.as_millis_f64()
        ),
        None => println!(
            "\nno feasible fleet within {} replicas — raise --max-replicas or relax the SLO",
            cfg.max_replicas
        ),
    }
    Ok(())
}

fn cmd_serve(flags: &BTreeMap<String, String>) -> Result<(), Box<dyn Error>> {
    let (command, reads) = serve_mode(flags);
    reject_unread(&command, flags, &reads)?;
    let model = find_model(flags.get("model").ok_or("--model is required")?)?;
    if let Some(spec) = flags.get("fleet") {
        return cmd_serve_fleet(flags, model, spec);
    }
    let platform = find_platform(flags.get("platform").map_or("intel_h100", String::as_str))?;
    let qps: f64 = flags
        .get("qps")
        .map_or(Ok(20.0), |v| v.parse())
        .map_err(|_| "--qps: bad number")?;
    let requests = get_u32(flags, "requests", 100)?;
    let max_batch = get_u32(flags, "max-batch", 16)?;
    let replicas = get_count(flags, "replicas", 1, 1)?;
    let policy = match flags.get("policy").map_or("continuous", String::as_str) {
        "static" => Policy::Static {
            batch_size: get_u32(flags, "batch-size", max_batch)?,
            max_wait: SimDuration::from_millis(u64::from(get_u32(flags, "max-wait-ms", 50)?)),
        },
        "continuous" => Policy::Continuous { max_batch },
        "chunked" | "chunked-prefill" => Policy::ChunkedPrefill {
            max_batch,
            chunk_tokens: get_u32(flags, "chunk-tokens", 128)?,
        },
        other => {
            return Err(format!(
                "--policy: unknown policy '{other}' (expected static, continuous, or chunked)"
            )
            .into())
        }
    };
    let router = RouterPolicy::parse(flags.get("router").map_or("shared", String::as_str))
        .map_err(|e| format!("--router: {e}"))?;
    let offload = flags
        .get("offload")
        .map_or(Ok(OffloadPolicy::Auto), |v| OffloadPolicy::parse(v))?;
    let prompt_len = get_u32(flags, "seq", 128)?;
    let new_tokens = get_u32(flags, "tokens", 8)?;
    let slo = SloTargets {
        ttft: get_slo_ms(flags, "slo-ttft-ms")?,
        e2e: get_slo_ms(flags, "slo-e2e-ms")?,
    };
    // --kv-blocks 0 (the default) models an infinite KV cache.
    let kv = match get_u32(flags, "kv-blocks", 0)? {
        0 => None,
        blocks => Some(KvCacheConfig::with_blocks(blocks, offload)),
    };

    let cfg = ServingConfig {
        platform: platform.clone(),
        model: model.clone(),
        policy,
        requests,
        arrival_rate_per_s: qps,
        prompt_len,
        new_tokens,
        seed: 2026,
        kv,
        slo,
        router,
    };
    cfg.validate().map_err(|e| {
        format!(
            "{e} (check --kv-blocks / --requests / --qps / --seq / --tokens and the policy \
             sizing flags)"
        )
    })?;

    // Record lifecycles and counter samples only when a trace is asked for.
    let (report, strace) = match flags.get("trace-out") {
        Some(path) => {
            let (report, strace) = simulate_traced(&cfg, replicas);
            (report, Some((path, strace)))
        }
        None => (simulate_replicas(&cfg, replicas), None),
    };
    let policy_label = match policy {
        Policy::Static {
            batch_size,
            max_wait,
        } => format!(
            "static batch {batch_size} (flush {:.0}ms)",
            max_wait.as_millis_f64()
        ),
        Policy::Continuous { max_batch } => format!("continuous max_batch {max_batch}"),
        Policy::ChunkedPrefill {
            max_batch,
            chunk_tokens,
        } => format!("chunked-prefill max_batch {max_batch} x {chunk_tokens} tok"),
    };
    println!(
        "== serving {} on {replicas}x {} | {policy_label} | router {router} | {qps} req/s ==",
        model.name, platform.name
    );
    println!("completed    : {} requests", report.completed);
    println!(
        "TTFT p50/p95/p99 : {} / {} / {}",
        report.ttft_p50, report.ttft_p95, report.ttft_p99
    );
    println!("e2e  p50/p95     : {} / {}", report.e2e_p50, report.e2e_p95);
    println!("throughput   : {:.0} tokens/s", report.throughput_tok_s);
    println!("makespan     : {}", report.makespan);
    if let Some(kv) = kv {
        println!(
            "KV cache     : {} blocks/replica x {} tokens | offload {}",
            kv.blocks_per_replica, kv.block_tokens, kv.offload
        );
        println!(
            "KV pressure  : {} preemptions ({} swapped, {:.1} MB moved; {} tokens recomputed) | peak occupancy {:.0}%",
            report.preemptions,
            report.swap_outs,
            report.swapped_bytes as f64 / 1e6,
            report.recomputed_tokens,
            report.kv_peak_occupancy * 100.0
        );
    }
    if slo.is_set() {
        let target = |t: Option<SimDuration>| {
            t.map_or_else(|| "-".to_owned(), |t| format!("{:.0}ms", t.as_millis_f64()))
        };
        println!(
            "SLO          : ttft<={} {:.1}% | e2e<={} {:.1}% | {} / {} in SLO",
            target(slo.ttft),
            report.slo.ttft_attainment * 100.0,
            target(slo.e2e),
            report.slo.e2e_attainment * 100.0,
            report.slo.slo_completions,
            report.completed
        );
        println!(
            "goodput      : {:.2} req/s | {:.0} tokens/s under SLO",
            report.slo.goodput_req_s, report.slo.goodput_tok_s
        );
    }
    if let Some((path, strace)) = strace {
        let trace = strace.to_trace();
        trace.validate()?;
        std::fs::write(path, chrome::to_chrome_trace(&trace))?;
        println!(
            "wrote serving trace to {path} ({} requests, {} counter samples) — open in https://ui.perfetto.dev",
            strace.lifecycles.len(),
            strace.samples.len()
        );
    }
    Ok(())
}

fn run() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        print!("{USAGE}");
        return Ok(());
    };
    match cmd.as_str() {
        "models" => {
            reject_unread("skip models", &parse_flags(&args[1..])?, "")?;
            for m in models() {
                println!(
                    "{:<20} {:>7.0}M params  {} layers",
                    m.name,
                    m.param_count() as f64 / 1e6,
                    m.layers
                );
            }
            Ok(())
        }
        "platforms" => {
            reject_unread("skip platforms", &parse_flags(&args[1..])?, "")?;
            for p in platforms() {
                println!(
                    "{:<12} [{}] {} + {} over {}",
                    p.name,
                    p.coupling.abbrev(),
                    p.cpu.name,
                    p.gpu.name,
                    p.interconnect.name
                );
            }
            Ok(())
        }
        "profile" => cmd_profile(&parse_flags(&args[1..])?),
        "serve" => cmd_serve(&parse_flags(&args[1..])?),
        "plan" => cmd_plan(&parse_flags(&args[1..])?),
        "sweep" => cmd_sweep(&parse_flags(&args[1..])?),
        "fuse" => cmd_fuse(&parse_flags(&args[1..])?),
        "generate" => cmd_generate(&parse_flags(&args[1..])?),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n\n{USAGE}").into()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
