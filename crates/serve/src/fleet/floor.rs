//! The fleet serving front: a config lowered to the unified floor.
//!
//! This module owns the public fleet API — [`simulate_fleet`],
//! [`simulate_fleet_traced`], and the bounded variant. It describes a
//! fleet as one floor description (`FloorSpec`), and `crate::unified`
//! builds and runs it. The description carries what a single-node
//! endpoint leaves out:
//!
//! * each replica prices iterations through its **own platform's**
//!   [`LatencyModel`](crate::LatencyModel), so a gh200 and an amd_a100
//!   replica in one fleet charge different prefill/decode costs (deduped
//!   by platform name, so a 4-replica group prices through one model);
//! * a disaggregated fleet splits replicas into a prefill pool and a
//!   decode pool, connected by per-destination **handoff links**: a
//!   finished prefill's KV blocks queue on the destination's link and
//!   occupy it for `src.kv_handoff_time(dst, bytes)` — one transfer at a
//!   time per destination, so the interconnect itself can back up;
//! * an optional **autoscaler** ticks on a fixed interval and
//!   launches/drains replicas against load watermarks, with launch cost
//!   priced as provisioning delay plus the coupling-derived weight load.

use skip_des::{percentile, SimDuration};

use crate::fleet::observe::{FleetReport, FleetTrace};
use crate::fleet::spec::FleetConfig;
use crate::stop::StopCondition;
use crate::unified::{FloorObs, FloorRun, FloorSpec};

/// Runs the fleet simulation, returning the scalar report.
///
/// # Panics
///
/// Panics if the configuration fails [`FleetConfig::validate`] — front
/// ends wanting a graceful error path validate first.
#[must_use]
pub fn simulate_fleet(cfg: &FleetConfig) -> FleetReport {
    run_fleet(cfg, StopCondition::UNBOUNDED, false).0
}

/// Runs the fleet simulation under `stop`, aborting the moment a budget
/// is blown. An aborted run returns the truncated-but-honest report of
/// the simulated prefix with [`FleetReport::aborted`] set; a run no
/// budget stops is byte-identical to [`simulate_fleet`].
///
/// # Panics
///
/// Panics if the configuration fails [`FleetConfig::validate`].
#[must_use]
pub fn simulate_fleet_bounded(cfg: &FleetConfig, stop: StopCondition) -> FleetReport {
    run_fleet(cfg, stop, false).0
}

/// Runs the fleet simulation and additionally returns the full
/// [`FleetTrace`] recording (lifecycles, conservation-checked samples,
/// scaling events).
///
/// # Panics
///
/// Panics if the configuration fails [`FleetConfig::validate`].
#[must_use]
pub fn simulate_fleet_traced(cfg: &FleetConfig) -> (FleetReport, FleetTrace) {
    let (report, obs, _) = run_fleet(cfg, StopCondition::UNBOUNDED, true);
    let FloorObs::Fleet(trace) = obs else {
        unreachable!("a traced fleet run records a FleetTrace")
    };
    (report, trace)
}

/// Runs the fleet floor under `stop`, recording a [`FleetTrace`] when
/// `traced` and nothing otherwise; the report is the same either way. Also
/// returns how many events the floor handled.
pub(crate) fn run_fleet(
    cfg: &FleetConfig,
    stop: StopCondition,
    traced: bool,
) -> (FleetReport, FloorObs, u64) {
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
    let obs = if traced {
        // Preallocate the whole-run recording: every request's lifecycle
        // takes a bounded number of events (arrive/admit/first
        // token/complete, plus the three handoff events when
        // disaggregated), so the recording hot path never reallocates
        // mid-simulation.
        let mut t = FleetTrace::new(cfg.model.name.clone(), cfg.spec.label());
        t.reserve(
            cfg.requests,
            if cfg.spec.is_disaggregated() { 7 } else { 4 },
        );
        FloorObs::Fleet(t)
    } else {
        FloorObs::Lean
    };
    let run = FloorSpec {
        groups: &cfg.spec.groups,
        model: &cfg.model,
        arrivals: Box::new(
            cfg.arrivals
                .stream(cfg.prompt_len, cfg.new_tokens, cfg.seed)
                .take(cfg.requests as usize),
        ),
        requests: cfg.requests,
        prompt_len: cfg.prompt_len,
        new_tokens: cfg.new_tokens,
        max_batch: cfg.max_batch,
        policy: cfg.policy.build(cfg.max_batch),
        arrival_router: cfg.router.build(),
        handoff_router: cfg.router.build(),
        mem: None,
        autoscale: cfg.autoscale,
        obs,
        slo: cfg.slo,
        stop,
    }
    .run();
    let report = fleet_report(&run);
    (report, run.floor.obs, run.events)
}

/// A finished floor's fleet report: the shared latency summary plus the
/// handoff, scaling and billing telemetry of its replica set.
pub(crate) fn fleet_report(run: &FloorRun) -> FleetReport {
    let (l, set) = (&run.latency, &run.floor.set);
    let d = |v: f64| SimDuration::from_nanos_f64(v);
    FleetReport {
        completed: l.completed,
        ttft_p50: l.ttft_p50,
        ttft_p95: l.ttft_p95,
        ttft_p99: l.ttft_p99,
        e2e_p50: l.e2e_p50,
        e2e_p95: l.e2e_p95,
        throughput_tok_s: l.throughput_tok_s,
        makespan: l.makespan,
        slo: l.slo,
        handoffs: set.handoffs,
        handoff_bytes: set.handoff_bytes,
        handoff_wait_p50: d(percentile(&set.handoff_waits, 50.0)),
        handoff_wait_p95: d(percentile(&set.handoff_waits, 95.0)),
        handoff_transfer_total: d(set.handoff_transfer_ns),
        scale_ups: set.scale_ups,
        scale_downs: set.scale_downs,
        peak_replicas: set.peak_live,
        replica_seconds: set.replica_ns / 1e9,
        aborted: run.aborted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::arrivals::ArrivalProcess;
    use crate::fleet::autoscale::{AutoscaleConfig, ScaleAction};
    use crate::fleet::spec::{FleetBatchPolicy, FleetRouterPolicy, FleetSpec, PoolRole};
    use crate::observe::{LifecycleKind, SloTargets};
    use skip_hw::{Coupling, Interconnect, Platform};
    use skip_llm::zoo;
    use skip_mem::KvSpec;

    fn base(spec: FleetSpec) -> FleetConfig {
        FleetConfig {
            spec,
            model: zoo::gpt2(),
            max_batch: 8,
            requests: 40,
            arrivals: ArrivalProcess::Poisson { rate_per_s: 60.0 },
            prompt_len: 128,
            new_tokens: 6,
            seed: 13,
            slo: SloTargets::default(),
            router: FleetRouterPolicy::CostModelJsq,
            policy: FleetBatchPolicy::Continuous,
            autoscale: None,
        }
    }

    #[test]
    fn homogeneous_unified_fleet_completes_and_conserves() {
        let cfg = base(FleetSpec::homogeneous(Platform::intel_h100(), 3));
        let (report, trace) = simulate_fleet_traced(&cfg);
        assert_eq!(report.completed, 40);
        assert!(trace.conserves_requests());
        assert_eq!(report.handoffs, 0, "unified fleets never hand off");
        assert_eq!(report.handoff_bytes, 0);
        assert!(report.ttft_p50 > SimDuration::ZERO);
        assert!(report.e2e_p50 >= report.ttft_p50);
        assert_eq!(report.peak_replicas, 3);
        assert!(report.replica_seconds > 0.0);
    }

    #[test]
    fn disaggregated_fleet_hands_off_every_multi_token_request() {
        let cfg = base(FleetSpec::disaggregated(
            Platform::gh200(),
            2,
            Platform::intel_h100(),
            2,
        ));
        let (report, trace) = simulate_fleet_traced(&cfg);
        assert_eq!(report.completed, 40);
        assert!(trace.conserves_requests());
        // new_tokens > 1, so every request crosses the handoff link once.
        assert_eq!(report.handoffs, 40);
        let spec = KvSpec::for_model(&cfg.model, KvSpec::DEFAULT_BLOCK_TOKENS);
        assert_eq!(
            report.handoff_bytes,
            40 * spec.handoff_bytes(u64::from(cfg.prompt_len) + 1),
            "handoff bytes must be block-granular KV for prompt + first token"
        );
        assert!(report.handoff_transfer_total > SimDuration::ZERO);
        // Lifecycles show the full disaggregated path.
        let lc = &trace.lifecycles[0];
        assert!(lc
            .events
            .iter()
            .any(|e| matches!(e.kind, LifecycleKind::HandoffQueued { .. })));
        assert!(lc
            .events
            .iter()
            .any(|e| matches!(e.kind, LifecycleKind::DecodeAdmitted { .. })));
    }

    #[test]
    fn single_token_requests_complete_at_the_prefill_pool() {
        let mut cfg = base(FleetSpec::disaggregated(
            Platform::gh200(),
            1,
            Platform::intel_h100(),
            1,
        ));
        cfg.new_tokens = 1;
        let (report, trace) = simulate_fleet_traced(&cfg);
        assert_eq!(report.completed, 40);
        assert_eq!(report.handoffs, 0, "nothing to decode, nothing to move");
        assert!(trace.conserves_requests());
    }

    /// The KV handoff is priced by the coupling model: the same topology
    /// with the prefill side's link degraded from NVLink-C2C to PCIe Gen4
    /// must spend strictly more time on the interconnect and finish no
    /// sooner.
    #[test]
    fn handoff_cost_follows_the_coupling() {
        let cc = base(FleetSpec::disaggregated(
            Platform::gh200(),
            1,
            Platform::intel_h100(),
            1,
        ));
        let mut lc = cc.clone();
        lc.spec.groups[0].platform = Platform {
            name: "gh200_pcie".into(),
            interconnect: Interconnect::pcie_gen4(),
            coupling: Coupling::Loose,
            ..Platform::gh200()
        };
        let r_cc = simulate_fleet(&cc);
        let r_lc = simulate_fleet(&lc);
        assert_eq!(r_cc.handoff_bytes, r_lc.handoff_bytes, "same bytes moved");
        assert!(
            r_lc.handoff_transfer_total > r_cc.handoff_transfer_total,
            "PCIe Gen4 drain must occupy the link longer than NVLink-C2C \
             ({} vs {})",
            r_lc.handoff_transfer_total,
            r_cc.handoff_transfer_total
        );
    }

    /// Satellite regression: on a *heterogeneous* fleet the load-aware
    /// routers must diverge from round-robin — the serving_policies
    /// finding (JSQ ≡ RR) was an artifact of identical replicas.
    #[test]
    fn jsq_beats_round_robin_on_a_heterogeneous_fleet() {
        let spec = FleetSpec {
            groups: vec![
                super::super::spec::ReplicaGroup {
                    platform: Platform::intel_h100(),
                    count: 1,
                    role: PoolRole::Unified,
                },
                super::super::spec::ReplicaGroup {
                    platform: Platform::gh200(),
                    count: 1,
                    role: PoolRole::Unified,
                },
            ],
        };
        let mut cfg = base(spec);
        cfg.requests = 60;
        cfg.arrivals = ArrivalProcess::Poisson { rate_per_s: 120.0 };
        cfg.router = FleetRouterPolicy::RoundRobin;
        let rr = simulate_fleet(&cfg);
        cfg.router = FleetRouterPolicy::JoinShortestQueue;
        let jsq = simulate_fleet(&cfg);
        cfg.router = FleetRouterPolicy::CostModelJsq;
        let cost = simulate_fleet(&cfg);
        assert_ne!(
            rr.e2e_p50, jsq.e2e_p50,
            "JSQ must not degenerate to round-robin when replicas differ"
        );
        assert!(
            cost.e2e_p50 <= rr.e2e_p50,
            "cost-model JSQ must not lose to blind rotation: {} vs {}",
            cost.e2e_p50,
            rr.e2e_p50
        );
    }

    /// The PR 5 finding still holds where it should: on a homogeneous
    /// fleet the cost model is a constant factor, so cost-JSQ and plain
    /// JSQ pick identical replicas and produce identical reports.
    #[test]
    fn cost_jsq_degenerates_to_jsq_on_a_homogeneous_fleet() {
        let mut cfg = base(FleetSpec::homogeneous(Platform::amd_a100(), 4));
        cfg.requests = 50;
        cfg.router = FleetRouterPolicy::JoinShortestQueue;
        let (r_jsq, t_jsq) = simulate_fleet_traced(&cfg);
        cfg.router = FleetRouterPolicy::CostModelJsq;
        let (r_cost, t_cost) = simulate_fleet_traced(&cfg);
        assert_eq!(r_jsq, r_cost);
        assert_eq!(t_jsq.lifecycles, t_cost.lifecycles);
    }

    #[test]
    fn autoscaler_grows_under_burst_and_drains_after() {
        let mut cfg = base(FleetSpec::homogeneous(Platform::intel_h100(), 1));
        cfg.requests = 120;
        cfg.arrivals = ArrivalProcess::Bursty {
            base_rate_per_s: 5.0,
            burst_rate_per_s: 400.0,
            burst_len: SimDuration::from_millis(500),
            lull_len: SimDuration::from_secs(2),
        };
        cfg.autoscale = Some(AutoscaleConfig {
            interval: SimDuration::from_millis(100),
            high_load: 4.0,
            low_load: 1.0,
            min_per_pool: 1,
            max_per_pool: 6,
            provision_delay: SimDuration::from_millis(200),
        });
        let (report, trace) = simulate_fleet_traced(&cfg);
        assert_eq!(report.completed, 120);
        assert!(trace.conserves_requests());
        assert!(report.scale_ups > 0, "the burst must trigger scale-up");
        assert!(
            report.peak_replicas > 1,
            "launched replicas must have come up"
        );
        assert!(
            trace
                .scaling
                .iter()
                .any(|e| e.action == ScaleAction::LaunchRequested),
            "scaling events must be recorded"
        );
        assert!(report.replica_seconds > 0.0);
    }

    /// Launch cost is coupling-derived: the same scale-up on gh200 pays a
    /// C2C weight load, on amd_a100 a PCIe Gen4 one — visible in when the
    /// first replica comes up.
    #[test]
    fn replica_launch_pays_the_weight_load_over_the_interconnect() {
        let model = zoo::gpt2();
        let weights = model.weight_bytes_fp16();
        let gh = Platform::gh200().h2d_transfer(weights);
        let amd = Platform::amd_a100().h2d_transfer(weights);
        assert!(
            amd > gh * 5,
            "PCIe Gen4 weight load must dwarf NVLink-C2C: {amd} vs {gh}"
        );
    }

    #[test]
    fn fleet_simulation_is_deterministic() {
        let mut cfg = base(FleetSpec::disaggregated(
            Platform::gh200(),
            2,
            Platform::amd_a100(),
            2,
        ));
        cfg.arrivals = ArrivalProcess::Diurnal {
            base_rate_per_s: 20.0,
            peak_rate_per_s: 200.0,
            period: SimDuration::from_secs(2),
        };
        cfg.autoscale = Some(AutoscaleConfig::default());
        let (ra, ta) = simulate_fleet_traced(&cfg);
        let (rb, tb) = simulate_fleet_traced(&cfg);
        assert_eq!(ra, rb);
        assert_eq!(ta, tb);
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn invalid_config_panics_with_the_validation_message() {
        let mut cfg = base(FleetSpec::homogeneous(Platform::gh200(), 1));
        cfg.max_batch = 0;
        let _ = simulate_fleet(&cfg);
    }

    /// Chunked prefill on a disaggregated fleet: every multi-token
    /// request still crosses the handoff link exactly once — the chunk
    /// plan must trigger the same handoff-aware retire as continuous
    /// batching once the final chunk lands.
    #[test]
    fn chunked_prefill_composes_with_disaggregation() {
        let mut cfg = base(FleetSpec::disaggregated(
            Platform::gh200(),
            2,
            Platform::intel_h100(),
            2,
        ));
        cfg.policy = FleetBatchPolicy::ChunkedPrefill { chunk_tokens: 32 };
        let (report, trace) = simulate_fleet_traced(&cfg);
        assert_eq!(report.completed, 40);
        assert!(trace.conserves_requests());
        assert_eq!(report.handoffs, 40);
        assert!(report.ttft_p50 > SimDuration::ZERO);
        assert!(report.e2e_p50 >= report.ttft_p50);
        // Every lifecycle emits exactly one first token.
        for lc in &trace.lifecycles {
            let firsts = lc
                .events
                .iter()
                .filter(|e| matches!(e.kind, LifecycleKind::FirstToken))
                .count();
            assert_eq!(firsts, 1, "request {} first-token count", lc.id);
        }
    }

    /// A prompt that fits one chunk budget prefills in a single
    /// iteration; slicing the same prompt into eight chunks serializes
    /// eight budgeted iterations, so the first token must come later.
    #[test]
    fn tighter_chunk_budgets_delay_the_first_token() {
        let mut wide = base(FleetSpec::homogeneous(Platform::intel_h100(), 2));
        wide.policy = FleetBatchPolicy::ChunkedPrefill { chunk_tokens: 1024 };
        let mut narrow = wide.clone();
        narrow.policy = FleetBatchPolicy::ChunkedPrefill { chunk_tokens: 16 };
        let w = simulate_fleet(&wide);
        let n = simulate_fleet(&narrow);
        assert_eq!(w.completed, 40);
        assert_eq!(n.completed, 40);
        assert!(
            n.ttft_p50 > w.ttft_p50,
            "16-token chunks must stretch TTFT past one-shot prefill: {} vs {}",
            n.ttft_p50,
            w.ttft_p50
        );
    }

    #[test]
    fn chunked_fleet_simulation_is_deterministic() {
        let mut cfg = base(FleetSpec::disaggregated(
            Platform::gh200(),
            1,
            Platform::amd_a100(),
            2,
        ));
        cfg.policy = FleetBatchPolicy::ChunkedPrefill { chunk_tokens: 48 };
        cfg.autoscale = Some(AutoscaleConfig::default());
        let (ra, ta) = simulate_fleet_traced(&cfg);
        let (rb, tb) = simulate_fleet_traced(&cfg);
        assert_eq!(ra, rb);
        assert_eq!(ta, tb);
    }
}
