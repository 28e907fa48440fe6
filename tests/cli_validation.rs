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
/// errors before any candidate runs.
#[test]
fn degenerate_planner_inputs_are_errors_not_panics() {
    for (flag, value, want) in [
        ("--max-batch", "0", "max_batch must be at least 1"),
        (
            "--peak-qps",
            "inf",
            "peak offered load must be positive and finite, got inf",
        ),
        (
            "--peak-qps",
            "nan",
            "peak offered load must be positive and finite, got NaN",
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
/// shape, never a silently ignored knob: a typo'd name, single-node
/// flags under `skip serve --fleet`, fleet flags without `--fleet`, flags
/// of another `skip serve` sub-mode, and a stray flag on every other
/// subcommand.
#[test]
fn unread_flags_are_rejected_by_every_subcommand() {
    assert_eq!(
        skip_err(&["serve", "--model", "gpt2", "--qsp", "500"]),
        "error: `skip serve` does not read --qsp (it reads --model --platform --qps --requests \
         --max-batch --replicas --policy --router --seq --tokens --kv-blocks --trace-out \
         --slo-ttft-ms --slo-e2e-ms)"
    );
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
