//! The two serving front ends (`skip serve`, `skip plan`) must reject the
//! same bad input with the same words. Historically each subcommand
//! carried its own copy of the SLO-flag parser and its own zero-count
//! check, and the messages drifted; both now route through shared
//! helpers, and these tests pin the unified wording end to end — argv in,
//! stderr out. The forward-pass subcommands (`profile`, `sweep`,
//! `generate`, `fuse`) reject out-of-range sizes the same way: an error
//! message and a failing exit status, never a panic; so do the serving
//! fronts for requests longer than the price grid, and the planner for
//! batch caps and peak loads its sweep cannot build. Every subcommand also
//! rejects any flag it does not read, with one shared message.

use std::process::Command;

/// Runs the `skip` binary with `args`, expecting a non-zero exit, and
/// returns the trimmed stderr.
fn skip_err(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_skip"))
        .args(args)
        .output()
        .expect("skip binary runs");
    assert!(
        !out.status.success(),
        "`skip {}` unexpectedly succeeded: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8_lossy(&out.stderr).trim().to_owned()
}

/// What `skip` prints with no arguments: every command line it runs, with
/// the flags each reads in the order its read list gives them.
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
    skip models
    skip platforms

FLEET SPECS: comma-separated groups '[prefill=|decode=]<platform>:<count>', e.g.
    --fleet intel_h100:4                              homogeneous unified fleet
    --fleet prefill=gh200:1,decode=intel_h100:3       disaggregated pools
    --fleet gh200:1,intel_h100:3 --disagg             first group prefill, rest decode

MODES: eager | fa2 | compile-default | compile-reduce-overhead | compile-max-autotune
";

#[test]
fn usage_is_pinned() {
    for argv in [&[][..], &["help"], &["--help"], &["-h"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_skip"))
            .args(argv)
            .output()
            .expect("skip binary runs");
        assert!(out.status.success(), "skip {}", argv.join(" "));
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            USAGE,
            "skip {}",
            argv.join(" ")
        );
    }
    let unknown = skip_err(&["bogus"]);
    assert_eq!(
        unknown,
        format!("error: unknown command 'bogus'\n\n{}", USAGE.trim_end())
    );
}

/// Every command line's read list, in full and in order: each subcommand,
/// and each `skip serve` mode and sub-mode that reads a list of its own.
#[test]
fn every_read_list_is_pinned_in_full() {
    let serve = "--model --platform --qps --requests --max-batch --replicas --policy --router";
    let fleet = "--model --fleet --disagg --autoscale --fleet-router --policy";
    let slo = "--trace-out --slo-ttft-ms --slo-e2e-ms";
    let cases: [(&[&str], &str, String); 16] = [
        (
            &["profile"],
            "profile",
            "--model --platform --batch --seq --mode --export".into(),
        ),
        (&["sweep"], "sweep", "--model --platform --seq".into()),
        (
            &["fuse"],
            "fuse",
            "--model --platform --chain-len --threshold".into(),
        ),
        (
            &["generate"],
            "generate",
            "--model --platform --batch --seq --tokens".into(),
        ),
        (
            &["plan"],
            "plan",
            "--model --qps --peak-qps --requests --max-batch --seq --tokens --slo-ttft-ms \
             --slo-e2e-ms --max-replicas --workers"
                .into(),
        ),
        (&["models"], "models", "no flags".into()),
        (&["platforms"], "platforms", "no flags".into()),
        (
            &["serve"],
            "serve",
            format!("{serve} --seq --tokens --kv-blocks {slo}"),
        ),
        (
            &["serve", "--policy", "static"],
            "serve --policy static",
            format!("{serve} --batch-size --max-wait-ms --seq --tokens {slo}"),
        ),
        (
            &["serve", "--policy", "chunked"],
            "serve --policy chunked",
            format!("{serve} --chunk-tokens --seq --tokens --kv-blocks {slo}"),
        ),
        (
            &["serve", "--kv-blocks", "0"],
            "serve --kv-blocks 0",
            format!("{serve} --seq --tokens --kv-blocks {slo}"),
        ),
        (
            &["serve", "--kv-blocks", "8"],
            "serve --kv-blocks 8",
            format!("{serve} --seq --tokens --kv-blocks --offload {slo}"),
        ),
        (
            &["serve", "--fleet", "gh200:2"],
            "serve --fleet",
            format!("{fleet} --arrivals --qps --requests --max-batch --seq --tokens {slo}"),
        ),
        (
            &["serve", "--fleet", "gh200:2", "--arrivals", "diurnal"],
            "serve --fleet --arrivals diurnal",
            format!(
                "{fleet} --arrivals --peak-qps --period-ms --qps --requests --max-batch --seq \
                 --tokens {slo}"
            ),
        ),
        (
            &["serve", "--fleet", "gh200:2", "--arrivals", "bursty"],
            "serve --fleet --arrivals bursty",
            format!(
                "{fleet} --arrivals --peak-qps --burst-ms --lull-ms --qps --requests \
                 --max-batch --seq --tokens {slo}"
            ),
        ),
        (
            &["serve", "--fleet", "gh200:2", "--policy", "chunked"],
            "serve --fleet --policy chunked",
            format!(
                "{fleet} --chunk-tokens --arrivals --qps --requests --max-batch --seq --tokens \
                 {slo}"
            ),
        ),
    ];
    for (args, command, reads) in cases {
        let mut argv = args.to_vec();
        argv.extend(["--zz", "1"]);
        assert_eq!(
            skip_err(&argv),
            format!("error: `skip {command}` does not read --zz (it reads {reads})"),
            "skip {}",
            argv.join(" ")
        );
    }
}

#[test]
fn bad_slo_flag_prints_identical_message_in_serve_and_plan() {
    let cases = [
        ("soon", "{flag}: bad number 'soon'"),
        ("nan", "{flag} must be positive and finite, got nan"),
        ("-5", "{flag} must be positive and finite, got -5"),
        ("0", "{flag} must be positive and finite, got 0"),
    ];
    for key in ["slo-ttft-ms", "slo-e2e-ms"] {
        let flag = format!("--{key}");
        for (value, want) in cases {
            let serve = skip_err(&["serve", "--model", "gpt2", &flag, value]);
            let plan = skip_err(&["plan", "--model", "gpt2", &flag, value]);
            assert_eq!(serve, plan, "serve and plan diverge on {flag} {value}");
            assert_eq!(serve, format!("error: {}", want.replace("{flag}", &flag)));
        }
    }
}

/// A rate or threshold that is not a number names its value the way the
/// count and SLO flags do, on every command line that reads it.
#[test]
fn bad_rate_and_threshold_flags_name_their_value() {
    let fleet = ["serve", "--model", "gpt2", "--fleet", "gh200:1"];
    let diurnal = [&fleet[..], &["--arrivals", "diurnal"]].concat();
    let cases: [(&[&str], &str); 6] = [
        (&["serve", "--model", "gpt2"], "--qps"),
        (&fleet, "--qps"),
        (&diurnal, "--peak-qps"),
        (&["plan", "--model", "gpt2"], "--qps"),
        (&["plan", "--model", "gpt2"], "--peak-qps"),
        (&["fuse", "--model", "gpt2"], "--threshold"),
    ];
    for (command, flag) in cases {
        let argv = [command, &[flag, "soon"]].concat();
        assert_eq!(
            skip_err(&argv),
            format!("error: {flag}: bad number 'soon'"),
            "skip {}",
            argv.join(" ")
        );
    }
}

#[test]
fn out_of_range_forward_pass_flags_are_errors_not_panics() {
    let cases: [(&[&str], &str); 10] = [
        (&["profile", "--batch", "0"], "--batch must be at least 1"),
        (&["profile", "--seq", "0"], "--seq must be at least 1"),
        (&["sweep", "--seq", "0"], "--seq must be at least 1"),
        (&["generate", "--batch", "0"], "--batch must be at least 1"),
        (&["generate", "--seq", "0"], "--seq must be at least 1"),
        (
            &["fuse", "--chain-len", "0"],
            "--chain-len must be at least 2",
        ),
        (
            &["fuse", "--chain-len", "1"],
            "--chain-len must be at least 2",
        ),
        (
            &["fuse", "--threshold", "0"],
            "--threshold must be in (0, 1], got 0",
        ),
        (
            &["fuse", "--threshold", "2"],
            "--threshold must be in (0, 1], got 2",
        ),
        (
            &["fuse", "--threshold", "nan"],
            "--threshold must be in (0, 1], got nan",
        ),
    ];
    for (args, want) in cases {
        let mut argv = vec![args[0], "--model", "gpt2"];
        argv.extend(&args[1..]);
        assert_eq!(
            skip_err(&argv),
            format!("error: {want}"),
            "skip {}",
            argv.join(" ")
        );
    }
}

/// A request longer than the price grid's 2^31 tokens used to panic
/// inside the latency model (`seq_len must be positive`: the length's
/// power-of-two bucket wrapped to 0). All three serving fronts now reject
/// it up front with one message.
#[test]
fn overlong_requests_are_errors_not_panics_in_every_serving_front() {
    let want = "prompt plus output tokens must be at most 2147483648, got 3000000008";
    for argv in [
        &["serve", "--model", "gpt2", "--seq", "3000000000"][..],
        &[
            "serve",
            "--model",
            "gpt2",
            "--fleet",
            "gh200:1",
            "--seq",
            "3000000000",
        ],
        &["plan", "--model", "gpt2", "--seq", "3000000000"],
    ] {
        let got = skip_err(argv);
        assert!(
            got.starts_with("error: ") && got.contains(want) && !got.contains("panicked"),
            "skip {}: {got}",
            argv.join(" ")
        );
    }
}

/// `skip serve --fleet` names the flag behind the rule that failed: a bad
/// arrival process names `--qps` and the process's own flags, a zero chunk
/// budget names `--chunk-tokens`. The message before the hint is the
/// library's own.
#[test]
fn fleet_validation_errors_name_the_flag_at_fault() {
    let fleet = ["serve", "--model", "gpt2", "--fleet", "gh200:1"];
    for (extra, want) in [
        (
            &["--qps", "0"][..],
            "error: bad arrival process: rate must be positive and finite, got 0 (check --qps)",
        ),
        (
            &["--arrivals", "diurnal", "--peak-qps", "inf"],
            "error: bad arrival process: peak rate must be positive and finite, got inf \
             (check --qps / --peak-qps / --period-ms)",
        ),
        (
            &["--policy", "chunked", "--chunk-tokens", "0"],
            "error: chunked-prefill chunk_tokens must be at least 1 (check --chunk-tokens)",
        ),
    ] {
        let argv: Vec<&str> = fleet.iter().chain(extra).copied().collect();
        assert_eq!(skip_err(&argv), want, "skip {}", argv.join(" "));
    }
}

/// Single-node `skip serve` names the flag behind the rule that failed,
/// where it once printed one fixed hint for every rule. The hint names only
/// flags the sub-mode reads: under `--policy static` the batch size, which
/// defaults to `--max-batch`, and no KV pool. The message before the hint
/// is the library's own.
#[test]
fn serve_validation_errors_name_the_flag_at_fault() {
    for (extra, want) in [
        (
            &["--policy", "chunked", "--chunk-tokens", "0"][..],
            "chunked-prefill chunk_tokens must be at least 1 (check --chunk-tokens)",
        ),
        (
            &["--qps", "0"],
            "arrival rate must be positive and finite, got 0 (check --qps)",
        ),
        (
            &["--requests", "0"],
            "simulate at least one request (check --requests)",
        ),
        (
            &["--max-batch", "0"],
            "continuous max_batch must be at least 1 (check --max-batch)",
        ),
        (
            &["--kv-blocks", "1"],
            "KV pool of 1 blocks cannot hold one full request (9 blocks); no schedule can \
             complete it — raise the budget to at least 9 blocks (check --kv-blocks / --seq / \
             --tokens)",
        ),
        (
            &["--policy", "static", "--max-batch", "0"],
            "static batch_size must be at least 1 (check --batch-size / --max-batch)",
        ),
        (
            &["--policy", "chunked", "--max-batch", "0"],
            "chunked-prefill max_batch must be at least 1 (check --max-batch)",
        ),
        (
            &["--seq", "0"],
            "prompt_len must be at least 1 (check --seq)",
        ),
        (
            &["--tokens", "0"],
            "new_tokens must be at least 1 (check --tokens)",
        ),
        (
            &["--seq", "3000000000"],
            "prompt plus output tokens must be at most 2147483648, got 3000000008 \
             (check --seq / --tokens)",
        ),
    ] {
        let mut argv = vec!["serve", "--model", "gpt2"];
        argv.extend(extra);
        assert_eq!(
            skip_err(&argv),
            format!("error: {want}"),
            "skip {}",
            argv.join(" ")
        );
    }
}

/// A zero-length prompt used to pass validation and corrupt the run: the
/// fleet's chunked prefill never stamped a first token (TTFT printed 0ns),
/// single-node chunked prefill advanced such a request two tokens in its
/// first iteration, and the planner printed a frontier. A zero-output
/// request was likewise served and billed as a one-token request, and the
/// planner planned it. Every serving front now rejects both up front,
/// naming the field.
#[test]
fn zero_length_prompts_are_errors_not_panics_in_every_serving_front() {
    for (argv, field) in [
        (
            &["serve", "--model", "gpt2", "--seq", "0"][..],
            "prompt_len",
        ),
        (
            &[
                "serve", "--model", "gpt2", "--policy", "chunked", "--seq", "0",
            ],
            "prompt_len",
        ),
        (
            &[
                "serve",
                "--model",
                "gpt2",
                "--fleet",
                "gh200:1",
                "--policy",
                "chunked",
                "--seq",
                "0",
                "--tokens",
                "8",
                "--requests",
                "20",
            ],
            "prompt_len",
        ),
        (&["plan", "--model", "gpt2", "--seq", "0"], "prompt_len"),
        (
            &[
                "serve",
                "--model",
                "gpt2",
                "--tokens",
                "0",
                "--requests",
                "20",
            ],
            "new_tokens",
        ),
        (
            &[
                "serve",
                "--model",
                "gpt2",
                "--fleet",
                "gh200:1",
                "--tokens",
                "0",
                "--requests",
                "20",
            ],
            "new_tokens",
        ),
        (&["plan", "--model", "gpt2", "--tokens", "0"], "new_tokens"),
    ] {
        let got = skip_err(argv);
        assert!(
            got.starts_with("error: ")
                && got.contains(&format!("{field} must be at least 1"))
                && !got.contains("panicked"),
            "skip {}: {got}",
            argv.join(" ")
        );
    }
}

/// Planner inputs its sweep cannot build used to pass validation: a zero
/// batch cap and an infinite peak load panicked inside a sweep worker,
/// and a NaN peak silently planned Poisson traffic. All three are now
/// errors before any candidate runs, and like every planner error they
/// name the flag at fault.
#[test]
fn degenerate_planner_inputs_are_errors_not_panics() {
    for (flag, value, want) in [
        (
            "--max-batch",
            "0",
            "max_batch must be at least 1 (check --max-batch)",
        ),
        (
            "--peak-qps",
            "inf",
            "peak offered load must be positive and finite, got inf (check --peak-qps)",
        ),
        (
            "--peak-qps",
            "nan",
            "peak offered load must be positive and finite, got NaN (check --peak-qps)",
        ),
        ("--seq", "0", "prompt_len must be at least 1 (check --seq)"),
        (
            "--requests",
            "0",
            "simulate at least one request (check --requests)",
        ),
        (
            "--qps",
            "0",
            "offered load must be positive and finite, got 0 (check --qps)",
        ),
    ] {
        let got = skip_err(&["plan", "--model", "gpt2", flag, value]);
        assert!(!got.contains("panicked"), "skip plan {flag} {value}: {got}");
        assert_eq!(got, format!("error: skip plan: {want}"));
    }
}

#[test]
fn zero_replica_counts_print_the_canonical_wording_in_both_clis() {
    let serve = skip_err(&["serve", "--model", "gpt2", "--replicas", "0"]);
    let plan = skip_err(&["plan", "--model", "gpt2", "--max-replicas", "0"]);
    assert_eq!(serve, "error: --replicas must be at least 1");
    assert_eq!(plan, "error: --max-replicas must be at least 1");
    // Same sentence, differing only in which flag is named.
    let sans_flag = |s: &str| s.splitn(3, ' ').nth(2).unwrap().to_owned();
    assert_eq!(sans_flag(&serve), sans_flag(&plan));
}

#[test]
fn library_validators_share_the_cli_wording() {
    use skip_serve::{
        ArrivalProcess, ConfigError, FleetBatchPolicy, FleetConfig, FleetRouterPolicy, FleetSpec,
        PlannerConfig, Policy, RouterPolicy, ServingConfig, SloTargets, TrafficEnvelope,
    };

    let serve = ServingConfig {
        platform: skip_hw::Platform::intel_h100(),
        model: skip_llm::zoo::gpt2(),
        policy: Policy::Continuous { max_batch: 8 },
        requests: 0,
        arrival_rate_per_s: 20.0,
        prompt_len: 64,
        new_tokens: 4,
        seed: 1,
        kv: None,
        slo: SloTargets::default(),
        router: RouterPolicy::SharedQueue,
    };
    let fleet = FleetConfig {
        spec: FleetSpec::homogeneous(skip_hw::Platform::intel_h100(), 1),
        model: skip_llm::zoo::gpt2(),
        max_batch: 8,
        requests: 0,
        arrivals: ArrivalProcess::Poisson { rate_per_s: 20.0 },
        prompt_len: 64,
        new_tokens: 4,
        seed: 1,
        slo: SloTargets::default(),
        router: FleetRouterPolicy::RoundRobin,
        policy: FleetBatchPolicy::Continuous,
        autoscale: None,
    };
    let mut planner = PlannerConfig::new(TrafficEnvelope {
        model: skip_llm::zoo::gpt2(),
        qps: 20.0,
        peak_qps: None,
        requests: 0,
        prompt_len: 64,
        new_tokens: 4,
        seed: 1,
        slo: SloTargets::default(),
    });

    // Zero requests: one error value, hence one message, three validators.
    let serve_err = serve.validate().unwrap_err();
    assert_eq!(serve_err, ConfigError::ZeroRequests);
    assert_eq!(fleet.validate(), Err(serve_err.clone()));
    assert_eq!(planner.validate(), Err(serve_err.clone()));
    assert_eq!(serve_err.to_string(), "simulate at least one request");

    // Non-positive rates: same sentence shape, differing only in the
    // knob's name.
    let mut serve = serve;
    serve.requests = 1;
    serve.arrival_rate_per_s = 0.0;
    let mut fleet = fleet;
    fleet.requests = 1;
    fleet.arrivals = ArrivalProcess::Poisson { rate_per_s: 0.0 };
    planner.envelope.requests = 1;
    planner.envelope.qps = 0.0;
    assert_eq!(
        serve.validate().unwrap_err().to_string(),
        "arrival rate must be positive and finite, got 0"
    );
    assert!(fleet
        .validate()
        .unwrap_err()
        .to_string()
        .ends_with("rate must be positive and finite, got 0"));
    assert_eq!(
        planner.validate().unwrap_err().to_string(),
        "offered load must be positive and finite, got 0"
    );

    // Requests longer than the price grid: one message, three validators.
    serve.arrival_rate_per_s = 20.0;
    fleet.arrivals = ArrivalProcess::Poisson { rate_per_s: 20.0 };
    planner.envelope.qps = 20.0;
    serve.prompt_len = u32::MAX;
    fleet.prompt_len = u32::MAX;
    planner.envelope.prompt_len = u32::MAX;
    let serve_err = serve.validate().unwrap_err();
    assert_eq!(serve_err, ConfigError::RequestTooLong(4_294_967_299));
    assert_eq!(fleet.validate(), Err(serve_err.clone()));
    assert_eq!(planner.validate(), Err(serve_err.clone()));
    assert_eq!(
        serve_err.to_string(),
        "prompt plus output tokens must be at most 2147483648, got 4294967299"
    );
}

/// A flag the subcommand does not read is an error with one message
/// shape, never a silently ignored knob: single-node flags under `skip
/// serve --fleet`, fleet flags without `--fleet`, flags of another `skip
/// serve` sub-mode, and a stray flag on every other subcommand. (A typo'd
/// name is `every_read_list_is_pinned_in_full`'s `--zz`.)
#[test]
fn unread_flags_are_rejected_by_every_subcommand() {
    let mut cases: Vec<(Vec<&str>, &str, &str)> = Vec::new();
    for flag in [
        "platform",
        "replicas",
        "router",
        "kv-blocks",
        "offload",
        "batch-size",
        "max-wait-ms",
    ] {
        cases.push((
            vec!["serve", "--model", "gpt2", "--fleet", "gh200:2"],
            "serve --fleet",
            flag,
        ));
    }
    for flag in [
        "fleet-router",
        "disagg",
        "autoscale",
        "arrivals",
        "peak-qps",
        "period-ms",
        "burst-ms",
        "lull-ms",
    ] {
        cases.push((vec!["serve", "--model", "gpt2"], "serve", flag));
    }
    // Flags a sub-mode never reads: batch sizing outside static batching,
    // a chunk budget outside chunked prefill, the KV pool under static
    // batching (which never consults it), an offload policy without a
    // pool, and arrival-shape flags of another arrival process.
    let poisson = ["peak-qps", "period-ms", "burst-ms", "lull-ms"];
    for (mode, command, flags) in [
        (
            &[][..],
            "serve",
            &["batch-size", "max-wait-ms", "chunk-tokens", "offload"][..],
        ),
        (
            &["--policy", "chunked"],
            "serve --policy chunked",
            &["batch-size", "max-wait-ms", "offload"],
        ),
        (
            &["--policy", "static"],
            "serve --policy static",
            &["chunk-tokens", "kv-blocks", "offload"],
        ),
        (&["--kv-blocks", "0"], "serve --kv-blocks 0", &["offload"]),
        (&["--fleet", "gh200:2"], "serve --fleet", &poisson),
        (
            &["--fleet", "gh200:2", "--policy", "continuous"],
            "serve --fleet --policy continuous",
            &["chunk-tokens"],
        ),
        (
            &["--fleet", "gh200:2", "--arrivals", "poisson"],
            "serve --fleet --arrivals poisson",
            &poisson,
        ),
        (
            &["--fleet", "gh200:2", "--arrivals", "diurnal"],
            "serve --fleet --arrivals diurnal",
            &["burst-ms", "lull-ms"],
        ),
        (
            &["--fleet", "gh200:2", "--arrivals", "bursty"],
            "serve --fleet --arrivals bursty",
            &["period-ms"],
        ),
    ] {
        for &flag in flags {
            let mut argv = vec!["serve", "--model", "gpt2"];
            argv.extend(mode);
            cases.push((argv, command, flag));
        }
    }
    for (command, flag) in [
        ("profile", "tokens"),
        ("sweep", "batch"),
        ("fuse", "seq"),
        ("generate", "qps"),
        ("plan", "replicas"),
    ] {
        cases.push((vec![command, "--model", "gpt2"], command, flag));
    }
    for (mut argv, command, flag) in cases {
        let named = format!("--{flag}");
        argv.push(&named);
        if !["disagg", "autoscale"].contains(&flag) {
            argv.push("3");
        }
        let want = format!("error: `skip {command}` does not read --{flag} (it reads --model");
        let got = skip_err(&argv);
        assert!(got.starts_with(&want), "skip {}: {got}", argv.join(" "));
    }
    for command in ["models", "platforms"] {
        assert_eq!(
            skip_err(&[command, "--model", "gpt2"]),
            format!("error: `skip {command}` does not read --model (it reads no flags)")
        );
    }
}
