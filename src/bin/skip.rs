//! `skip` — command-line front end for the skip-rs stack: the paper's
//! SKIP analyses (`profile`, `sweep`, `fuse`), generation, and the serving
//! floor and capacity planner built on them. `skip --help` lists every
//! command line and the flags each reads.

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
use skip_mem::KvSpec;
use skip_runtime::{CompileMode, Engine, ExecMode};
use skip_serve::fleet::plan;
use skip_serve::{
    simulate_fleet, simulate_fleet_traced, simulate_replicas, simulate_traced, ArrivalProcess,
    AutoscaleConfig, ConfigError, FleetBatchPolicy, FleetConfig, FleetReport, FleetRouterPolicy,
    FleetSpec, KvCacheConfig, OffloadPolicy, PlannerConfig, Policy, RouterPolicy, ServingConfig,
    ServingReport, SloTargets, TrafficEnvelope,
};
use skip_trace::{chrome, Trace};

/// A command's handler, given a command line it accepted.
type Handler = fn(&Args) -> Result<(), Box<dyn Error>>;

/// Every command line `skip` runs, one row per subcommand and per `skip
/// serve` mode: its name (a mode's adds the flag that selects it), its usage
/// synopsis, laid out as `skip --help` prints it, and its handler. A
/// synopsis names the flags its command reads, in order; a flag written with
/// no placeholder (`[--disagg]`) takes no value.
#[rustfmt::skip]
const COMMANDS: [(&str, &str, Handler); 9] = [
    ("profile", "--model <id> [--platform <id>] [--batch N] [--seq N] [--mode <m>] [--export FILE]", cmd_profile),
    ("sweep", "--model <id> [--platform <id>|all] [--seq N]", cmd_sweep),
    ("fuse", "--model <id> [--platform <id>] [--chain-len N] [--threshold T]", cmd_fuse),
    ("generate", "--model <id> [--platform <id>] [--batch N] [--seq N] [--tokens N]", cmd_generate),
    ("serve", "--model <id> [--platform <id>] [--qps R] [--requests N] [--max-batch N] [--replicas N]
                  [--policy static|continuous|chunked] [--router shared|rr|jsq]
                  [--batch-size N] [--max-wait-ms T] [--chunk-tokens N]
                  [--seq N] [--tokens N] [--kv-blocks N] [--offload recompute|swap|auto]
                  [--trace-out FILE] [--slo-ttft-ms T] [--slo-e2e-ms T]", cmd_serve),
    ("serve --fleet", "--model <id> --fleet <spec> [--disagg] [--autoscale] [--fleet-router rr|jsq|cost]
                  [--policy continuous|chunked] [--chunk-tokens N]
                  [--arrivals poisson|diurnal|bursty] [--peak-qps R] [--period-ms T]
                  [--burst-ms T] [--lull-ms T] [--qps R] [--requests N] [--max-batch N]
                  [--seq N] [--tokens N] [--trace-out FILE] [--slo-ttft-ms T] [--slo-e2e-ms T]", cmd_serve_fleet),
    ("plan", "--model <id> [--qps R] [--peak-qps R] [--requests N] [--max-batch N]
                  [--seq N] [--tokens N] [--slo-ttft-ms T] [--slo-e2e-ms T]
                  [--max-replicas N] [--workers N]", cmd_plan),
    ("models", "", cmd_models),
    ("platforms", "", cmd_platforms),
];

/// The flags `synopsis` names, in order.
fn synopsis_flags(synopsis: &'static str) -> impl Iterator<Item = &'static str> {
    synopsis.split_whitespace().filter_map(|word| {
        let flag = word.strip_prefix('[').unwrap_or(word).strip_prefix("--")?;
        Some(flag.trim_end_matches(']'))
    })
}

/// The usage text: every command's synopsis, then the fleet spec syntax
/// and the execution modes.
fn usage() -> String {
    let mut usage = String::from(
        "skip — SKIP profiler & CPU-GPU coupling simulator (ISPASS 2025 reproduction)\n\nUSAGE:\n",
    );
    for (name, synopsis, _) in COMMANDS {
        let word = name.split(' ').next().unwrap_or_default();
        usage += format!("    skip {word:<8} {synopsis}").trim_end();
        usage.push('\n');
    }
    usage
        + "
FLEET SPECS: comma-separated groups '[prefill=|decode=]<platform>:<count>', e.g.
    --fleet intel_h100:4                              homogeneous unified fleet
    --fleet prefill=gh200:1,decode=intel_h100:3       disaggregated pools
    --fleet gh200:1,intel_h100:3 --disagg             first group prefill, rest decode

MODES: eager | fa2 | compile-default | compile-reduce-overhead | compile-max-autotune
"
}

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

/// Parses `--key value` pairs after the subcommand. A flag some synopsis
/// writes with no placeholder (`[--disagg]`) never consumes a value;
/// present, it reads `"true"`.
fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let Some(name) = key.strip_prefix("--") else {
            return Err(format!("expected --flag, got '{key}'"));
        };
        let bare = format!("[--{name}]");
        let value: &str = if COMMANDS.iter().any(|(_, s, _)| s.contains(&bare)) {
            "true"
        } else {
            it.next()
                .ok_or_else(|| format!("--{name} requires a value"))?
        };
        flags.insert(name.to_owned(), value.to_owned());
    }
    Ok(flags)
}

/// The command line `skip serve` runs, named by the mode flags it was
/// given, and the flags of its row's synopsis that its sub-mode never
/// reads. Static batching never consults the KV pool, only chunked prefill
/// reads a chunk budget, an offload policy needs a non-zero `--kv-blocks`,
/// and each fleet arrival process reads only its own shape flags. An
/// unknown `--policy` or `--arrivals` value filters nothing, so its own
/// parser reports it.
fn serve_mode(row: &str, flags: &BTreeMap<String, String>) -> (String, Vec<&'static str>) {
    let fleet = flags.contains_key("fleet");
    let mut command = format!("skip {row}");
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
    (command, unread)
}

/// A command line `skip` accepted: its flags, every one of them read by
/// its command or sub-mode.
struct Args {
    flags: BTreeMap<String, String>,
    /// The flags the command or sub-mode reads, in synopsis order.
    reads: Vec<&'static str>,
}

/// Finds the command `argv` names and parses its flags. It fails on the
/// first flag the command or sub-mode does not read, so a typo or a flag
/// meant for another mode is an error instead of a silent default.
fn accept(argv: &[String]) -> Result<(Handler, Args), Box<dyn Error>> {
    let cmd = argv[0].as_str();
    let row = |name: &str| COMMANDS.iter().find(|(row, ..)| *row == name);
    // A row name with a space names a mode, not a command.
    if cmd.contains(' ') || row(cmd).is_none() {
        return Err(format!("unknown command '{cmd}'\n\n{}", usage()).into());
    }
    let flags = parse_flags(&argv[1..])?;
    let fleet = cmd == "serve" && flags.contains_key("fleet");
    let name = if fleet { "serve --fleet" } else { cmd };
    let &(_, synopsis, run) = row(name).expect("every serve mode has a row");
    let (command, unread) = if cmd == "serve" {
        serve_mode(name, &flags)
    } else {
        (format!("skip {name}"), Vec::new())
    };
    let reads: Vec<&str> = synopsis_flags(synopsis)
        .filter(|f| !unread.contains(f))
        .collect();
    if let Some(flag) = flags.keys().find(|k| !reads.contains(&k.as_str())) {
        let reads = match reads[..] {
            [] => "no flags".to_owned(),
            _ => format!("--{}", reads.join(" --")),
        };
        return Err(format!("`{command}` does not read --{flag} (it reads {reads})").into());
    }
    Ok((run, Args { flags, reads }))
}

impl Args {
    fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    fn model(&self) -> Result<ModelConfig, String> {
        let id = self.get("model").ok_or("--model is required")?;
        models()
            .into_iter()
            .find(|m| m.name == id)
            .ok_or_else(|| format!("unknown model '{id}' (try `skip models`)"))
    }

    fn u32(&self, key: &str, default: u32) -> Result<u32, String> {
        match self.get(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad number '{v}'")),
            None => Ok(default),
        }
    }

    /// Reads a count flag that must be at least `min`, worded as the
    /// validators word it (`... must be at least N`).
    fn count(&self, key: &str, default: u32, min: u32) -> Result<u32, String> {
        let v = self.u32(key, default)?;
        if v < min {
            Err(format!("--{key} must be at least {min}"))
        } else {
            Ok(v)
        }
    }

    /// Reads a rate flag in requests per second, if given; the validators
    /// judge its value.
    fn rate(&self, key: &str) -> Result<Option<f64>, String> {
        self.get(key)
            .map(|v| v.parse().map_err(|_| format!("--{key}: bad number '{v}'")))
            .transpose()
    }

    /// Reads the `--slo-*-ms` targets. Every subcommand that scores
    /// against SLOs shares this, so the same bad input prints the same
    /// message regardless of subcommand. A target that is not a positive,
    /// finite number of milliseconds is rejected rather than becoming a
    /// 0 ms target.
    fn slo(&self) -> Result<SloTargets, String> {
        let target = |key: &str| -> Result<Option<SimDuration>, String> {
            let Some(v) = self.get(key) else {
                return Ok(None);
            };
            match v.parse::<f64>() {
                Ok(ms) if ms.is_finite() && ms > 0.0 => {
                    Ok(Some(SimDuration::from_nanos_f64(ms * 1e6)))
                }
                Ok(_) => Err(format!("--{key} must be positive and finite, got {v}")),
                Err(_) => Err(format!("--{key}: bad number '{v}'")),
            }
        };
        Ok(SloTargets {
            ttft: target("slo-ttft-ms")?,
            e2e: target("slo-e2e-ms")?,
        })
    }
}

/// `e`'s message, then the flags behind its rule that `reads` holds: the
/// command line's read list decides, so `--batch-size` is named only under
/// `--policy static` and an arrival process's shape flags only under it.
fn hint(e: &ConfigError, reads: &[&str]) -> String {
    let rule: &[&str] = match e {
        ConfigError::ZeroRequests => &["requests"],
        ConfigError::NotPositive("arrival rate" | "offered load", _) => &["qps"],
        ConfigError::NotPositive("peak offered load", _) => &["peak-qps"],
        ConfigError::BadArrivals(_) => &["qps", "peak-qps", "period-ms", "burst-ms", "lull-ms"],
        ConfigError::AtLeastOne("prompt_len") => &["seq"],
        ConfigError::AtLeastOne("new_tokens") => &["tokens"],
        ConfigError::RequestTooLong(_) => &["seq", "tokens"],
        ConfigError::AtLeastOne("static batch_size") => &["batch-size", "max-batch"],
        ConfigError::AtLeastOne(
            "continuous max_batch" | "chunked-prefill max_batch" | "max_batch",
        ) => &["max-batch"],
        ConfigError::AtLeastOne("chunked-prefill chunk_tokens") => &["chunk-tokens"],
        ConfigError::KvPoolTooSmall { .. } => &["kv-blocks", "seq", "tokens"],
        ConfigError::EmptyFleet
        | ConfigError::ZeroCountGroup(_)
        | ConfigError::MixedUnifiedAndPools
        | ConfigError::MissingPool(_) => &["fleet", "disagg"],
        ConfigError::BadAutoscale(_) => &["autoscale"],
        // No flag reaches the rest: `--kv-blocks 0` is no pool, `--max-replicas`
        // is checked first, and the attainment floor and platform menu have
        // no flag.
        _ => &[],
    };
    let named: Vec<&str> = rule.iter().copied().filter(|f| reads.contains(f)).collect();
    if named.is_empty() {
        e.to_string()
    } else {
        format!("{e} (check --{})", named.join(" / --"))
    }
}

fn cmd_profile(args: &Args) -> Result<(), Box<dyn Error>> {
    let model = args.model()?;
    let platform = find_platform(args.get("platform").unwrap_or("intel_h100"))?;
    let batch = args.count("batch", 1, 1)?;
    let seq = args.count("seq", 512, 1)?;
    let mode = parse_mode(args.get("mode").unwrap_or("eager"))?;

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

    if let Some(path) = args.get("export") {
        std::fs::write(path, chrome::to_chrome_trace(&trace))?;
        println!("\nwrote Chrome trace to {path}");
    }
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), Box<dyn Error>> {
    let model = args.model()?;
    let seq = args.count("seq", 512, 1)?;
    let selected = args.get("platform").unwrap_or("all");
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

fn cmd_fuse(args: &Args) -> Result<(), Box<dyn Error>> {
    let model = args.model()?;
    let platform = find_platform(args.get("platform").unwrap_or("intel_h100"))?;
    let chain_len = args.count("chain-len", 256, 2)? as usize;
    let threshold = match args.get("threshold") {
        None => 1.0,
        Some(v) => match v.parse::<f64>() {
            Ok(t) if t > 0.0 && t <= 1.0 => t,
            Ok(_) => return Err(format!("--threshold must be in (0, 1], got {v}").into()),
            Err(_) => return Err(format!("--threshold: bad number '{v}'").into()),
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

fn cmd_generate(args: &Args) -> Result<(), Box<dyn Error>> {
    let model = args.model()?;
    let platform = find_platform(args.get("platform").unwrap_or("gh200"))?;
    let batch = args.count("batch", 1, 1)?;
    let seq = args.count("seq", 512, 1)?;
    let tokens = args.u32("tokens", 32)?;

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

/// Runs a serving floor and prints its report with `print`: the lean floor,
/// or under `--trace-out FILE` the traced one, whose recording `written`
/// turns into a trace and the line that names it; the trace is validated
/// and written to FILE as Chrome JSON.
fn serve_floor<R, T>(
    args: &Args,
    lean: impl FnOnce() -> R,
    traced: impl FnOnce() -> (R, T),
    print: impl FnOnce(&R),
    written: impl FnOnce(&T, &str) -> (Trace, String),
) -> Result<(), Box<dyn Error>> {
    let Some(path) = args.get("trace-out") else {
        print(&lean());
        return Ok(());
    };
    let (report, recording) = traced();
    print(&report);
    let (trace, what) = written(&recording, path);
    trace.validate()?;
    std::fs::write(path, chrome::to_chrome_trace(&trace))?;
    println!("wrote {what} — open in https://ui.perfetto.dev");
    Ok(())
}

/// Prints the report lines both `skip serve` modes share, from `completed`
/// through `makespan`; `ServingReport` and `FleetReport` name these fields
/// alike.
macro_rules! print_latencies {
    ($report:expr) => {{
        let r = $report;
        println!("completed    : {} requests", r.completed);
        println!(
            "TTFT p50/p95/p99 : {} / {} / {}",
            r.ttft_p50, r.ttft_p95, r.ttft_p99
        );
        println!("e2e  p50/p95     : {} / {}", r.e2e_p50, r.e2e_p95);
        println!("throughput   : {:.0} tokens/s", r.throughput_tok_s);
        println!("makespan     : {}", r.makespan);
    }};
}

fn cmd_serve(args: &Args) -> Result<(), Box<dyn Error>> {
    let model = args.model()?;
    let platform = find_platform(args.get("platform").unwrap_or("intel_h100"))?;
    let qps = args.rate("qps")?.unwrap_or(20.0);
    let requests = args.u32("requests", 100)?;
    let max_batch = args.u32("max-batch", 16)?;
    let replicas = args.count("replicas", 1, 1)?;
    let policy = match args.get("policy").unwrap_or("continuous") {
        "static" => Policy::Static {
            batch_size: args.u32("batch-size", max_batch)?,
            max_wait: SimDuration::from_millis(u64::from(args.u32("max-wait-ms", 50)?)),
        },
        "continuous" => Policy::Continuous { max_batch },
        "chunked" | "chunked-prefill" => Policy::ChunkedPrefill {
            max_batch,
            chunk_tokens: args.u32("chunk-tokens", 128)?,
        },
        other => {
            return Err(format!(
                "--policy: unknown policy '{other}' (expected static, continuous, or chunked)"
            )
            .into())
        }
    };
    let router = RouterPolicy::parse(args.get("router").unwrap_or("shared"))
        .map_err(|e| format!("--router: {e}"))?;
    let offload = args
        .get("offload")
        .map_or(Ok(OffloadPolicy::Auto), OffloadPolicy::parse)?;
    let cfg = ServingConfig {
        platform,
        model,
        policy,
        requests,
        arrival_rate_per_s: qps,
        router,
        prompt_len: args.u32("seq", 128)?,
        new_tokens: args.u32("tokens", 8)?,
        slo: args.slo()?,
        // --kv-blocks 0 (the default) models an infinite KV cache.
        kv: match args.u32("kv-blocks", 0)? {
            0 => None,
            blocks => Some(KvCacheConfig::with_blocks(blocks, offload)),
        },
        seed: 2026,
    };
    cfg.validate().map_err(|e| hint(&e, &args.reads))?;

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
        "== serving {} on {replicas}x {} | {policy_label} | router {} | {qps} req/s ==",
        cfg.model.name, cfg.platform.name, cfg.router
    );
    serve_floor(
        args,
        || simulate_replicas(&cfg, replicas),
        || simulate_traced(&cfg, replicas),
        |report| print_serving(&cfg, report),
        |strace, path| {
            let what = format!(
                "serving trace to {path} ({} requests, {} counter samples)",
                strace.lifecycles.len(),
                strace.samples.len()
            );
            (strace.to_trace(), what)
        },
    )
}

fn print_serving(cfg: &ServingConfig, report: &ServingReport) {
    print_latencies!(report);
    if let Some(kv) = cfg.kv {
        println!(
            "KV cache     : {} blocks/replica x {} tokens | offload {}",
            kv.blocks_per_replica,
            KvSpec::DEFAULT_BLOCK_TOKENS,
            kv.offload
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
    if cfg.slo.is_set() {
        let target = |t: Option<SimDuration>| {
            t.map_or_else(|| "-".to_owned(), |t| format!("{:.0}ms", t.as_millis_f64()))
        };
        println!(
            "SLO          : ttft<={} {:.1}% | e2e<={} {:.1}% | {} / {} in SLO",
            target(cfg.slo.ttft),
            report.slo.ttft_attainment * 100.0,
            target(cfg.slo.e2e),
            report.slo.e2e_attainment * 100.0,
            report.slo.slo_completions,
            report.completed
        );
        println!(
            "goodput      : {:.2} req/s | {:.0} tokens/s under SLO",
            report.slo.goodput_req_s, report.slo.goodput_tok_s
        );
    }
}

fn cmd_serve_fleet(args: &Args) -> Result<(), Box<dyn Error>> {
    let model = args.model()?;
    let spec = args.get("fleet").ok_or("--fleet is required")?;
    let mut spec = FleetSpec::parse(spec).map_err(|e| format!("--fleet: {e}"))?;
    if args.get("disagg").is_some() && !spec.is_disaggregated() {
        spec = spec
            .into_disaggregated()
            .map_err(|e| format!("--disagg: {e}"))?;
    }
    let router = FleetRouterPolicy::parse(args.get("fleet-router").unwrap_or("cost"))
        .map_err(|e| format!("--fleet-router: {e}"))?;
    let policy = match args.get("policy").unwrap_or("continuous") {
        "continuous" => FleetBatchPolicy::Continuous,
        "chunked" | "chunked-prefill" => FleetBatchPolicy::ChunkedPrefill {
            chunk_tokens: args.u32("chunk-tokens", 128)?,
        },
        other => {
            return Err(format!(
                "--policy: unknown fleet policy '{other}' (expected continuous or chunked)"
            )
            .into())
        }
    };
    let qps = args.rate("qps")?.unwrap_or(20.0);
    let peak = args.rate("peak-qps")?.unwrap_or(qps * 4.0);
    let ms = |key: &str, default: u32| -> Result<SimDuration, String> {
        Ok(SimDuration::from_millis(u64::from(args.u32(key, default)?)))
    };
    let process = args.get("arrivals").unwrap_or("poisson");
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
        model,
        max_batch: args.u32("max-batch", 8)?,
        requests: args.u32("requests", 100)?,
        arrivals,
        prompt_len: args.u32("seq", 128)?,
        new_tokens: args.u32("tokens", 8)?,
        seed: 2026,
        slo: args.slo()?,
        router,
        policy,
        autoscale: args.get("autoscale").map(|_| AutoscaleConfig::default()),
    };
    cfg.validate().map_err(|e| hint(&e, &args.reads))?;

    println!(
        "== fleet serving {} on {} | {} | router {} | {} arrivals at {qps} req/s ==",
        cfg.model.name, cfg.spec, cfg.policy, cfg.router, process
    );
    serve_floor(
        args,
        || simulate_fleet(&cfg),
        || simulate_fleet_traced(&cfg),
        |report| print_fleet(&cfg, report),
        |ftrace, path| {
            let what = format!(
                "fleet trace to {path} ({} requests, {} samples, {} scaling events)",
                ftrace.lifecycles.len(),
                ftrace.samples.len(),
                ftrace.scaling.len()
            );
            (ftrace.to_trace(), what)
        },
    )
}

fn print_fleet(cfg: &FleetConfig, report: &FleetReport) {
    print_latencies!(report);
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
}

/// `skip plan`: the capacity-frontier planner — enumerate fleet
/// compositions against a traffic envelope, run the pruned generational
/// sweep (waves fanned out through the deterministic harness, analytic
/// bounds and early aborts skipping decided candidates), and print the
/// cost-optimal frontier by replica-seconds billing.
fn cmd_plan(args: &Args) -> Result<(), Box<dyn Error>> {
    let model = args.model()?;
    let qps = args.rate("qps")?.unwrap_or(50.0);
    let peak_qps = args.rate("peak-qps")?;
    let mut cfg = PlannerConfig::new(TrafficEnvelope {
        model,
        qps,
        peak_qps,
        slo: args.slo()?,
        requests: args.u32("requests", 64)?,
        prompt_len: args.u32("seq", 256)?,
        new_tokens: args.u32("tokens", 8)?,
        seed: 2026,
    });
    cfg.max_batch = args.u32("max-batch", 8)?;
    cfg.max_replicas = args.count("max-replicas", 4, 1)?;
    cfg.validate()
        .map_err(|e| format!("skip plan: {}", hint(&e, &args.reads)))?;
    let workers = match args.u32("workers", 0)? as usize {
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
        cfg.envelope.model.name, cfg.envelope.requests, cfg.max_replicas
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
    if !cfg.envelope.slo.is_set() {
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

fn cmd_models(_: &Args) -> Result<(), Box<dyn Error>> {
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

fn cmd_platforms(_: &Args) -> Result<(), Box<dyn Error>> {
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

fn run() -> Result<(), Box<dyn Error>> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv
        .first()
        .is_none_or(|cmd| matches!(cmd.as_str(), "--help" | "-h" | "help"))
    {
        print!("{}", usage());
        return Ok(());
    }
    let (run, args) = accept(&argv)?;
    run(&args)
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

#[cfg(test)]
mod tests {
    use super::*;
    use skip_serve::PoolRole;

    /// Every rule the CLI can hit, on every command line with a read list of
    /// its own: the hint names at least one flag, and only flags that
    /// command line reads. The rules no flag reaches are `hint`'s last arm.
    #[test]
    fn every_hint_names_only_flags_its_command_line_reads() {
        use ConfigError::*;
        let shape = [
            ZeroRequests,
            AtLeastOne("prompt_len"),
            AtLeastOne("new_tokens"),
            RequestTooLong(1 << 32),
        ];
        let serve = |rules: &[ConfigError]| {
            [&shape[..], &[NotPositive("arrival rate", 0.0)], rules].concat()
        };
        let fleet = |rules: &[ConfigError]| {
            let topology = [
                EmptyFleet,
                ZeroCountGroup("gh200".into()),
                MixedUnifiedAndPools,
                MissingPool(PoolRole::Decode),
                AtLeastOne("max_batch"),
                BadArrivals("rate must be positive and finite, got 0".into()),
            ];
            [&shape[..], &topology, rules].concat()
        };
        let continuous = [AtLeastOne("continuous max_batch")];
        let chunked = [
            AtLeastOne("chunked-prefill max_batch"),
            AtLeastOne("chunked-prefill chunk_tokens"),
        ];
        let pool = [KvPoolTooSmall {
            blocks: 1,
            needed: 2,
        }];
        let cases: [(&[&str], Vec<ConfigError>); 10] = [
            (&["serve"], serve(&continuous)),
            (
                &["serve", "--kv-blocks", "8"],
                serve(&[&continuous[..], &pool].concat()),
            ),
            (
                &["serve", "--policy", "static"],
                serve(&[AtLeastOne("static batch_size")]),
            ),
            (&["serve", "--policy", "chunked"], serve(&chunked)),
            (
                &["serve", "--policy", "chunked", "--kv-blocks", "8"],
                serve(&[&chunked[..], &pool].concat()),
            ),
            (&["serve", "--fleet", "gh200:1"], fleet(&[])),
            (
                &["serve", "--fleet", "gh200:1", "--policy", "chunked"],
                fleet(&chunked[1..]),
            ),
            (
                &["serve", "--fleet", "gh200:1", "--arrivals", "diurnal"],
                fleet(&[]),
            ),
            (
                &["serve", "--fleet", "gh200:1", "--arrivals", "bursty"],
                fleet(&[]),
            ),
            (
                &["plan"],
                [
                    &shape[..],
                    &[
                        NotPositive("offered load", 0.0),
                        NotPositive("peak offered load", f64::INFINITY),
                        AtLeastOne("max_batch"),
                    ],
                ]
                .concat(),
            ),
        ];
        for (argv, rules) in cases {
            let argv: Vec<String> = argv.iter().map(|a| (*a).to_owned()).collect();
            let (_, args) = accept(&argv).expect("a command line skip accepts");
            for e in &rules {
                let msg = hint(e, &args.reads);
                let named = msg
                    .strip_prefix(&format!("{e} (check "))
                    .and_then(|m| m.strip_suffix(')'))
                    .unwrap_or_else(|| panic!("{argv:?}: {e:?} names no flag: {msg}"));
                for flag in named.split(" / ") {
                    let read = flag
                        .strip_prefix("--")
                        .is_some_and(|f| args.reads.contains(&f));
                    assert!(read, "{argv:?}: {e:?} names {flag}, which it does not read");
                }
            }
        }
    }
}
