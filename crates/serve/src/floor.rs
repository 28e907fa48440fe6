//! The single-node serving front: a config lowered to the unified floor.
//!
//! This module owns the public single-node API — [`simulate`],
//! [`simulate_replicas`] and [`simulate_traced`] — plus the
//! [`ServingReport`] shape. It describes a single-node endpoint as one
//! [`FloorSpec`](crate::unified::FloorSpec): one homogeneous group of
//! always-up replicas in one unified pool, Poisson arrivals, the
//! configured policy and router, and a KV layer when a budget is set.
//! Building, running and summarising the floor happen in
//! `crate::unified`; what is left here is the report's memory-pressure
//! fields.

use serde::{Deserialize, Serialize};
use skip_des::SimDuration;

use crate::config::ServingConfig;
use crate::fleet::spec::{PoolRole, ReplicaGroup};
use crate::memctx::MemoryLayer;
use crate::observe::{ServingTrace, SloReport};
use crate::request::RequestStream;
use crate::stop::StopCondition;
use crate::unified::{FloorObs, FloorSpec, LatencySummary};

/// Measured serving behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingReport {
    /// Requests completed (equals the configured count for every
    /// well-formed run).
    pub completed: u32,
    /// Median time-to-first-token.
    pub ttft_p50: SimDuration,
    /// 95th-percentile time-to-first-token.
    pub ttft_p95: SimDuration,
    /// 99th-percentile time-to-first-token.
    pub ttft_p99: SimDuration,
    /// Median end-to-end latency.
    pub e2e_p50: SimDuration,
    /// 95th-percentile end-to-end latency.
    pub e2e_p95: SimDuration,
    /// Output tokens per second over the simulation span, counting only
    /// completed requests.
    pub throughput_tok_s: f64,
    /// Wall-clock span from first arrival to last completion.
    pub makespan: SimDuration,
    /// KV-pool preemptions (0 without a memory budget).
    pub preemptions: u64,
    /// Preemptions resolved by swapping blocks to host memory.
    pub swap_outs: u64,
    /// KV bytes moved host-ward by those swaps (the same amount returns
    /// on resume).
    pub swapped_bytes: u64,
    /// Context tokens re-prefilled because their blocks were dropped.
    pub recomputed_tokens: u64,
    /// High-water fraction of the per-replica KV pool in use (0 without a
    /// memory budget).
    pub kv_peak_occupancy: f64,
    /// SLO attainment against [`ServingConfig::slo`] (vacuous when no
    /// target is configured).
    pub slo: SloReport,
}

/// Runs the serving simulation on a single replica.
///
/// Deterministic for a fixed config (seeded arrivals, memoized engine).
///
/// # Panics
///
/// Panics if the configuration fails [`ServingConfig::validate`] — front
/// ends wanting a graceful error path validate first.
#[must_use]
pub fn simulate(cfg: &ServingConfig) -> ServingReport {
    simulate_replicas(cfg, 1)
}

/// Runs the serving simulation across `replicas` identical instances of
/// the platform — endpoint fleet sizing. Arrivals are dispatched by the
/// configured [`RouterPolicy`](crate::RouterPolicy): one shared queue idle
/// replicas pull from, or partitioned per-replica queues.
///
/// # Panics
///
/// Panics if `replicas` is zero or the configuration fails
/// [`ServingConfig::validate`].
#[must_use]
pub fn simulate_replicas(cfg: &ServingConfig, replicas: u32) -> ServingReport {
    run_floor(cfg, replicas, false).0
}

/// Runs the serving simulation and additionally returns the full
/// observability recording: per-request lifecycle records and the counter
/// tracks sampled at every iteration boundary.
///
/// The [`ServingTrace`] exports to the Chrome-trace timeline via
/// [`ServingTrace::to_trace`] and `skip_trace::chrome::to_chrome_trace`.
///
/// # Panics
///
/// Panics if `replicas` is zero or the configuration fails
/// [`ServingConfig::validate`] (an invalid config is a caller bug here;
/// validate first for a graceful error path).
#[must_use]
pub fn simulate_traced(cfg: &ServingConfig, replicas: u32) -> (ServingReport, ServingTrace) {
    let (report, obs, _) = run_floor(cfg, replicas, true);
    let FloorObs::Serve(trace) = obs else {
        unreachable!("a traced single-node run records a ServingTrace")
    };
    (report, trace)
}

/// Runs the single-node floor, recording a [`ServingTrace`] when `traced`
/// and nothing otherwise; the report is the same either way. Also returns
/// how many events the floor handled.
pub(crate) fn run_floor(
    cfg: &ServingConfig,
    replicas: u32,
    traced: bool,
) -> (ServingReport, FloorObs, u64) {
    assert!(replicas > 0, "need at least one replica");
    if let Err(e) = cfg.validate() {
        panic!("{e}");
    }
    let obs = if traced {
        let mut t = ServingTrace::new(cfg.model.name.clone(), cfg.platform.name.clone(), replicas);
        // Every request records at least arrive/admit/first-token/complete;
        // memory pressure adds preempt/resume pairs.
        t.reserve(cfg.requests, if cfg.kv.is_some() { 6 } else { 4 });
        FloorObs::Serve(t)
    } else {
        FloorObs::Lean
    };
    let group = [ReplicaGroup {
        platform: cfg.platform.clone(),
        count: replicas,
        role: PoolRole::Unified,
    }];
    let run = FloorSpec {
        groups: &group,
        model: &cfg.model,
        arrivals: Box::new(
            RequestStream::poisson(
                cfg.arrival_rate_per_s,
                cfg.prompt_len,
                cfg.new_tokens,
                cfg.seed,
            )
            .take(cfg.requests as usize),
        ),
        requests: cfg.requests,
        prompt_len: cfg.prompt_len,
        new_tokens: cfg.new_tokens,
        max_batch: 0,
        policy: cfg.policy.build(),
        arrival_router: cfg.router.build(),
        handoff_router: cfg.router.build(),
        mem: cfg
            .kv
            .map(|kv| MemoryLayer::new(cfg, kv, replicas as usize)),
        autoscale: None,
        obs,
        slo: cfg.slo,
        stop: StopCondition::UNBOUNDED,
    }
    .run();
    let report = serving_report(run.latency, run.floor.mem.as_ref());
    (report, run.floor.obs, run.events)
}

/// The shared latency summary plus the memory layer's pressure counters
/// (all zero without a KV budget).
pub(crate) fn serving_report(l: LatencySummary, mem: Option<&MemoryLayer>) -> ServingReport {
    ServingReport {
        completed: l.completed,
        ttft_p50: l.ttft_p50,
        ttft_p95: l.ttft_p95,
        ttft_p99: l.ttft_p99,
        e2e_p50: l.e2e_p50,
        e2e_p95: l.e2e_p95,
        throughput_tok_s: l.throughput_tok_s,
        makespan: l.makespan,
        preemptions: mem.map_or(0, |m| m.counters().preemptions),
        swap_outs: mem.map_or(0, |m| m.counters().swap_outs),
        swapped_bytes: mem.map_or(0, |m| m.counters().swapped_bytes),
        recomputed_tokens: mem.map_or(0, |m| m.counters().recomputed_tokens),
        kv_peak_occupancy: mem.map_or(0.0, MemoryLayer::peak_occupancy),
        slo: l.slo,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{KvCacheConfig, Policy, RouterPolicy};
    use crate::latency::LatencyModel;
    use crate::observe::SloTargets;
    use skip_des::{percentile, SimTime};
    use skip_hw::Platform;
    use skip_llm::zoo;
    use skip_mem::{KvSpec, OffloadPolicy};

    fn base_cfg(policy: Policy) -> ServingConfig {
        ServingConfig {
            platform: Platform::intel_h100(),
            model: zoo::gpt2(),
            policy,
            requests: 30,
            arrival_rate_per_s: 20.0,
            prompt_len: 128,
            new_tokens: 4,
            seed: 11,
            kv: None,
            slo: SloTargets::default(),
            router: RouterPolicy::SharedQueue,
        }
    }

    /// A config under enough memory pressure to force preemptions:
    /// Llama-2-7B with 1024-token prompts and 128 output tokens, and a
    /// pool that admits two prompts but cannot hold two full lifetimes. A
    /// victim holds 1024–1152 tokens (512–576 MiB of KV). On this
    /// intel_h100 its PCIe gen5 swap round trip prices at ~17–19 ms
    /// (`swap_cost`), well under a ~55–67 ms re-prefill
    /// (`LatencyModel::prefill` at batch 1), so `OffloadPolicy::Auto`
    /// resolves every eviction to a swap until the link is slowed
    /// (`auto_recomputes_when_the_link_is_slow`).
    fn pressured_cfg(offload: OffloadPolicy) -> ServingConfig {
        let mut cfg = base_cfg(Policy::Continuous { max_batch: 4 });
        cfg.model = zoo::llama2_7b();
        cfg.requests = 12;
        cfg.arrival_rate_per_s = 50.0;
        cfg.prompt_len = 1024;
        cfg.new_tokens = 128;
        let spec = KvSpec::for_model(&cfg.model, KvSpec::DEFAULT_BLOCK_TOKENS);
        let full = spec.blocks_for(u64::from(cfg.prompt_len) + u64::from(cfg.new_tokens));
        cfg.kv = Some(KvCacheConfig::with_blocks(full * 2 - 2, offload));
        cfg
    }

    #[test]
    fn continuous_serving_completes_every_request() {
        let r = simulate(&base_cfg(Policy::Continuous { max_batch: 8 }));
        assert_eq!(r.completed, 30);
        assert!(r.ttft_p50 > SimDuration::ZERO);
        assert!(r.e2e_p50 >= r.ttft_p50);
        assert!(r.ttft_p95 >= r.ttft_p50);
        assert!(r.throughput_tok_s > 0.0);
        assert_eq!(r.preemptions, 0);
        assert_eq!(r.kv_peak_occupancy, 0.0);
    }

    #[test]
    fn static_serving_completes_every_request() {
        let r = simulate(&base_cfg(Policy::Static {
            batch_size: 8,
            max_wait: SimDuration::from_millis(50),
        }));
        assert_eq!(r.completed, 30);
        assert!(r.e2e_p95 >= r.e2e_p50);
    }

    #[test]
    fn simulation_is_deterministic() {
        let cfg = base_cfg(Policy::Continuous { max_batch: 4 });
        assert_eq!(simulate(&cfg), simulate(&cfg));
        assert_eq!(simulate_replicas(&cfg, 3), simulate_replicas(&cfg, 3));
    }

    #[test]
    fn continuous_batching_beats_static_ttft_under_load() {
        // The vLLM/Orca claim: joining at iteration boundaries avoids
        // waiting for a full static batch.
        let cont = simulate(&base_cfg(Policy::Continuous { max_batch: 8 }));
        let stat = simulate(&base_cfg(Policy::Static {
            batch_size: 8,
            max_wait: SimDuration::from_millis(200),
        }));
        assert!(
            cont.ttft_p95 < stat.ttft_p95,
            "continuous {} vs static {}",
            cont.ttft_p95,
            stat.ttft_p95
        );
    }

    #[test]
    fn higher_load_raises_tail_latency() {
        let mut light = base_cfg(Policy::Continuous { max_batch: 8 });
        light.arrival_rate_per_s = 5.0;
        let mut heavy = light.clone();
        heavy.arrival_rate_per_s = 200.0;
        let l = simulate(&light);
        let h = simulate(&heavy);
        assert!(h.ttft_p95 >= l.ttft_p95);
    }

    #[test]
    fn more_replicas_cut_tail_latency_under_heavy_load() {
        let mut cfg = base_cfg(Policy::Continuous { max_batch: 4 });
        cfg.arrival_rate_per_s = 400.0;
        cfg.requests = 80;
        let one = simulate_replicas(&cfg, 1);
        let four = simulate_replicas(&cfg, 4);
        assert_eq!(four.completed, 80);
        assert!(
            four.ttft_p95 < one.ttft_p95,
            "4 replicas {} vs 1 replica {}",
            four.ttft_p95,
            one.ttft_p95
        );
    }

    #[test]
    fn replicas_also_help_static_batching() {
        let mut cfg = base_cfg(Policy::Static {
            batch_size: 4,
            max_wait: SimDuration::from_millis(20),
        });
        cfg.arrival_rate_per_s = 400.0;
        cfg.requests = 80;
        let one = simulate_replicas(&cfg, 1);
        let four = simulate_replicas(&cfg, 4);
        assert_eq!(four.completed, 80);
        assert!(four.e2e_p95 <= one.e2e_p95);
    }

    #[test]
    #[should_panic(expected = "at least one request")]
    fn zero_requests_rejected() {
        let mut cfg = base_cfg(Policy::Continuous { max_batch: 1 });
        cfg.requests = 0;
        let _ = simulate(&cfg);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_rejected() {
        let _ = simulate_replicas(&base_cfg(Policy::Continuous { max_batch: 1 }), 0);
    }

    #[test]
    #[should_panic(expected = "cannot hold one full request")]
    fn undersized_kv_pool_rejected() {
        let mut cfg = base_cfg(Policy::Continuous { max_batch: 4 });
        cfg.kv = Some(KvCacheConfig::with_blocks(1, OffloadPolicy::Auto));
        let _ = simulate(&cfg);
    }

    #[test]
    #[should_panic(expected = "arrival rate must be positive")]
    fn bad_arrival_rate_rejected_up_front() {
        // Used to surface as a panic deep inside `RequestStream`; now the
        // validation layer catches it at the entry point.
        let mut cfg = base_cfg(Policy::Continuous { max_batch: 1 });
        cfg.arrival_rate_per_s = 0.0;
        let _ = simulate(&cfg);
    }

    #[test]
    fn roomy_kv_pool_matches_infinite_cache() {
        // A pool big enough for the whole workload never preempts, so the
        // latency metrics must be identical to the unbounded simulation.
        let unbounded = base_cfg(Policy::Continuous { max_batch: 8 });
        let mut bounded = unbounded.clone();
        bounded.kv = Some(KvCacheConfig::with_blocks(1 << 20, OffloadPolicy::Auto));
        let a = simulate(&unbounded);
        let b = simulate(&bounded);
        assert_eq!(b.preemptions, 0);
        assert!(b.kv_peak_occupancy > 0.0);
        assert_eq!(
            (a.ttft_p50, a.e2e_p95, a.makespan),
            (b.ttft_p50, b.e2e_p95, b.makespan)
        );
    }

    #[test]
    fn memory_pressure_forces_preemptions_but_completes() {
        let r = simulate(&pressured_cfg(OffloadPolicy::Auto));
        assert_eq!(r.completed, 12);
        assert!(r.preemptions > 0, "overcommitted pool must preempt");
        assert!(r.kv_peak_occupancy > 0.5);
    }

    #[test]
    fn offload_policies_route_evictions_differently() {
        let swap = simulate(&pressured_cfg(OffloadPolicy::SwapToHost));
        assert!(swap.swap_outs > 0 && swap.swap_outs == swap.preemptions);
        assert_eq!(swap.recomputed_tokens, 0);
        assert!(swap.swapped_bytes > 0);

        let rec = simulate(&pressured_cfg(OffloadPolicy::Recompute));
        assert_eq!(rec.swap_outs, 0);
        assert!(rec.recomputed_tokens > 0);
    }

    /// `Auto` prices both resolutions of each eviction and takes the
    /// cheaper: over a 1 GB/s link a swap round trip costs more than the
    /// re-prefill, so every eviction recomputes, exactly as `Recompute`.
    #[test]
    fn auto_recomputes_when_the_link_is_slow() {
        let slow_link = |offload| {
            let mut cfg = pressured_cfg(offload);
            cfg.platform.interconnect.bandwidth_gbps = 1.0;
            simulate(&cfg)
        };
        let auto = slow_link(OffloadPolicy::Auto);
        assert!(auto.preemptions > 0, "overcommitted pool must preempt");
        assert_eq!(auto.swap_outs, 0);
        assert!(auto.recomputed_tokens > 0);
        assert_eq!(auto, slow_link(OffloadPolicy::Recompute));
    }

    #[test]
    fn swap_penalty_follows_the_coupling() {
        // In this engine's calibration a swap round-trip undercuts a full
        // re-prefill everywhere (prefill pays the launch floor plus
        // quadratic attention), so Auto resolves every eviction to a swap —
        // but the *price* of each swap is set by the coupling: ~14x between
        // PCIe gen4 and NVLink-C2C for the same bytes. To isolate that
        // term from platform compute differences, run the same pressured
        // workload on the same platform with only the interconnect
        // replaced, and normalize each variant by its own unpressured
        // makespan (cancelling the launch-path difference the interconnect
        // also carries).
        use skip_hw::Interconnect;
        let slowdown = |interconnect: Interconnect| {
            let mut tight = pressured_cfg(OffloadPolicy::Auto);
            tight.platform = Platform::amd_a100();
            tight.platform.interconnect = interconnect;
            let mut roomy = tight.clone();
            roomy.kv = Some(KvCacheConfig::with_blocks(1 << 20, OffloadPolicy::Auto));
            let t = simulate(&tight);
            let r = simulate(&roomy);
            assert!(t.preemptions > 0, "pressure must preempt");
            assert_eq!(t.swap_outs, t.preemptions, "auto swaps in this regime");
            assert_eq!(r.preemptions, 0, "roomy pool must not preempt");
            t.makespan.as_nanos_f64() / r.makespan.as_nanos_f64()
        };
        let loose = slowdown(Interconnect::pcie_gen4());
        let close = slowdown(Interconnect::nvlink_c2c());
        assert!(
            loose > close,
            "PCIe swaps should hurt more than C2C swaps: {loose:.4} vs {close:.4}"
        );
    }

    #[test]
    fn memory_aware_runs_are_deterministic() {
        let cfg = pressured_cfg(OffloadPolicy::Auto);
        assert_eq!(simulate(&cfg), simulate(&cfg));
        assert_eq!(simulate_replicas(&cfg, 2), simulate_replicas(&cfg, 2));
    }

    #[test]
    fn empty_finished_set_yields_zeroed_report() {
        // Defensive: percentile collection must tolerate zero completions.
        let cfg = base_cfg(Policy::Continuous { max_batch: 1 });
        let summary = LatencySummary::of(&[], None, SimTime::ZERO, cfg.new_tokens, cfg.slo);
        let r = serving_report(summary, None);
        assert_eq!(r.completed, 0);
        assert_eq!(r.ttft_p99, SimDuration::ZERO);
        assert_eq!(r.throughput_tok_s, 0.0);
        assert_eq!(r.slo.ttft_attainment, 1.0);
    }

    /// Regression for the sliding flush timer: the pre-fix scheduler
    /// re-armed the static-batch timer on every arrival, so under a steady
    /// trickle that never fills the batch the oldest request's wait grew
    /// with the queue. The timer must bound the oldest wait by `max_wait`
    /// plus at most one in-flight job (the replica may be busy when the
    /// deadline hits).
    #[test]
    fn static_oldest_waiter_flushes_within_max_wait() {
        let max_wait = SimDuration::from_millis(50);
        let mut cfg = base_cfg(Policy::Static {
            batch_size: 64, // never fills: every flush is timer-driven
            max_wait,
        });
        cfg.arrival_rate_per_s = 100.0;
        let (_, strace) = simulate_traced(&cfg, 1);
        // Longest a flush can be delayed past the deadline: the job
        // occupying the replica when the timer fires. Bound it by the
        // largest batch this run can form.
        let lat = LatencyModel::new(cfg.platform.clone(), cfg.model.clone());
        let mut job_bound = lat.prefill(cfg.requests, cfg.prompt_len);
        for step in 1..cfg.new_tokens.max(1) {
            job_bound += lat.decode_step(cfg.requests, cfg.prompt_len + step);
        }
        let bound = max_wait + job_bound;
        for lc in &strace.lifecycles {
            let waited = lc
                .admitted_at()
                .expect("all requests admitted")
                .saturating_duration_since(lc.arrived_at().expect("all requests arrived"));
            assert!(
                waited <= bound,
                "request {} waited {waited}, bound {bound}",
                lc.id
            );
        }
    }

    /// Regression for the zero-arrival-stream flush interaction: a static
    /// batch holding one lone straggler — the stream ends and the batch
    /// can never fill — must still flush exactly when the configured
    /// timeout expires, not hang waiting for more arrivals.
    #[test]
    fn static_lone_straggler_flushes_at_timeout() {
        let max_wait = SimDuration::from_millis(40);
        let mut cfg = base_cfg(Policy::Static {
            batch_size: 8,
            max_wait,
        });
        cfg.requests = 1;
        let (report, strace) = simulate_traced(&cfg, 1);
        assert_eq!(report.completed, 1);
        let lc = &strace.lifecycles[0];
        let waited = lc
            .admitted_at()
            .expect("straggler admitted")
            .saturating_duration_since(lc.arrived_at().expect("straggler arrived"));
        assert_eq!(
            waited, max_wait,
            "lone straggler must flush exactly at the timeout"
        );
    }

    #[test]
    fn counters_conserve_requests_at_every_sample() {
        for cfg in [
            base_cfg(Policy::Continuous { max_batch: 8 }),
            base_cfg(Policy::Static {
                batch_size: 8,
                max_wait: SimDuration::from_millis(50),
            }),
            base_cfg(Policy::ChunkedPrefill {
                max_batch: 8,
                chunk_tokens: 64,
            }),
            pressured_cfg(OffloadPolicy::Auto),
        ] {
            let (report, strace) = simulate_traced(&cfg, 2);
            assert_eq!(report.completed, cfg.requests);
            assert!(!strace.samples.is_empty());
            assert!(strace.conserves_requests(), "violated for {:?}", cfg.policy);
        }
    }

    #[test]
    fn lifecycles_agree_with_the_scalar_report() {
        let cfg = pressured_cfg(OffloadPolicy::Auto);
        let (report, strace) = simulate_traced(&cfg, 1);
        assert_eq!(strace.lifecycles.len() as u32, cfg.requests);
        assert_eq!(strace.completed_total(), report.completed);
        let preemptions: usize = strace.lifecycles.iter().map(|lc| lc.preemptions()).sum();
        assert_eq!(preemptions as u64, report.preemptions);
        // Per-request latencies reproduce the report percentiles.
        let mut e2es: Vec<f64> = strace
            .lifecycles
            .iter()
            .map(|lc| lc.e2e().expect("completed").as_nanos_f64())
            .collect();
        e2es.sort_by(f64::total_cmp);
        assert_eq!(
            SimDuration::from_nanos_f64(percentile(&e2es, 50.0)),
            report.e2e_p50
        );
    }

    #[test]
    fn serving_trace_round_trips_through_chrome_format() {
        let cfg = pressured_cfg(OffloadPolicy::Auto);
        let (_, strace) = simulate_traced(&cfg, 1);
        let t = strace.to_trace();
        t.validate().expect("exported trace must validate");
        assert!(!t.cpu_ops().is_empty(), "lifecycle slices present");
        assert!(!t.counters().is_empty(), "counter tracks present");
        assert!(!t.launches().is_empty(), "preempt→resume flows present");
        let json = skip_trace::chrome::to_chrome_trace(&t);
        let back = skip_trace::chrome::from_chrome_trace(&json).expect("import");
        assert_eq!(back.cpu_ops().len(), t.cpu_ops().len());
        assert_eq!(back.counters().len(), t.counters().len());
        assert_eq!(back.kernels().len(), t.kernels().len());
    }

    #[test]
    fn slo_report_reflects_configured_targets() {
        let mut cfg = base_cfg(Policy::Continuous { max_batch: 8 });
        cfg.slo = SloTargets {
            ttft: Some(SimDuration::from_secs(3600)),
            e2e: Some(SimDuration::from_secs(3600)),
        };
        let generous = simulate(&cfg);
        assert_eq!(generous.slo.slo_completions, generous.completed);
        assert_eq!(generous.slo.ttft_attainment, 1.0);
        assert!(generous.slo.goodput_tok_s > 0.0);

        cfg.slo = SloTargets {
            ttft: Some(SimDuration::from_nanos(1)),
            e2e: None,
        };
        let strict = simulate(&cfg);
        assert_eq!(strict.slo.slo_completions, 0);
        assert_eq!(strict.slo.goodput_req_s, 0.0);
        assert_eq!(strict.slo.e2e_attainment, 1.0, "unset target is vacuous");
    }

    #[test]
    fn chunked_prefill_completes_and_is_deterministic() {
        let mut cfg = base_cfg(Policy::ChunkedPrefill {
            max_batch: 8,
            chunk_tokens: 64,
        });
        cfg.prompt_len = 160; // 3 chunks per prompt
        let r = simulate(&cfg);
        assert_eq!(r.completed, 30);
        assert!(r.ttft_p50 > SimDuration::ZERO);
        assert!(r.e2e_p50 >= r.ttft_p50);
        assert_eq!(simulate(&cfg), simulate(&cfg));
        assert_eq!(simulate_replicas(&cfg, 4).completed, 30);
    }

    /// Chunking splits each prompt's prefill across several iterations, so
    /// the same workload must produce strictly more iteration boundaries
    /// (counter samples) than whole-prompt continuous batching.
    #[test]
    fn chunked_prefill_runs_more_iterations_than_continuous() {
        let mut chunked = base_cfg(Policy::ChunkedPrefill {
            max_batch: 4,
            chunk_tokens: 128,
        });
        chunked.prompt_len = 512; // 4 chunks per prompt
        let mut cont = chunked.clone();
        cont.policy = Policy::Continuous { max_batch: 4 };
        let (rc, tc) = simulate_traced(&chunked, 1);
        let (rn, tn) = simulate_traced(&cont, 1);
        assert_eq!(rc.completed, rn.completed);
        assert!(
            tc.samples.len() > tn.samples.len(),
            "chunked {} samples vs continuous {}",
            tc.samples.len(),
            tn.samples.len()
        );
    }

    #[test]
    fn chunked_prefill_survives_memory_pressure() {
        let mut cfg = pressured_cfg(OffloadPolicy::Auto);
        cfg.policy = Policy::ChunkedPrefill {
            max_batch: 4,
            chunk_tokens: 256,
        };
        let r = simulate(&cfg);
        assert_eq!(r.completed, 12);
        assert!(r.kv_peak_occupancy > 0.5);
        assert_eq!(simulate(&cfg), simulate(&cfg));
        let (_, strace) = simulate_traced(&cfg, 2);
        assert!(strace.conserves_requests());
    }

    #[test]
    fn partitioned_routers_complete_and_stay_deterministic() {
        for router in [RouterPolicy::RoundRobin, RouterPolicy::JoinShortestQueue] {
            let mut cfg = base_cfg(Policy::Continuous { max_batch: 4 });
            cfg.router = router;
            cfg.arrival_rate_per_s = 200.0;
            cfg.requests = 60;
            let r = simulate_replicas(&cfg, 4);
            assert_eq!(r.completed, 60, "{router}");
            assert_eq!(simulate_replicas(&cfg, 4), simulate_replicas(&cfg, 4));
            let (_, strace) = simulate_traced(&cfg, 4);
            assert!(strace.conserves_requests(), "{router}");
        }
    }

    #[test]
    fn single_replica_routers_agree_with_shared_queue() {
        // With one replica there is nothing to route: every policy
        // degenerates to the shared queue and must price identically.
        let shared = base_cfg(Policy::Continuous { max_batch: 4 });
        for router in [RouterPolicy::RoundRobin, RouterPolicy::JoinShortestQueue] {
            let mut cfg = shared.clone();
            cfg.router = router;
            assert_eq!(simulate(&cfg), simulate(&shared), "{router}");
        }
    }
}
