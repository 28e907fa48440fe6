//! Property tests over the scheduler seams: any batching policy behind
//! any router, with or without KV pressure, must complete every request
//! and keep the counter conservation law at every iteration boundary.
//!
//! These are the invariants the golden fixtures cannot cover — fixtures
//! pin a handful of known configurations byte-for-byte, while these
//! properties sweep the policy × router × replica × memory cross product
//! the composable floor makes reachable. The untraced floor, which runs
//! unchanged decode batches as decode windows, must report what the traced
//! floor, which takes one event per iteration, reports.

use proptest::prelude::*;
use skip_des::SimDuration;
use skip_hw::Platform;
use skip_llm::zoo;
use skip_mem::{KvSpec, OffloadPolicy};
use skip_serve::{
    simulate_replicas, simulate_traced, KvCacheConfig, Policy, RouterPolicy, ServingConfig,
    SloTargets,
};

fn arb_policy() -> impl Strategy<Value = Policy> {
    (
        0usize..3,
        1u32..10,
        5u64..80,
        prop::sample::select(vec![32u32, 64, 128, 256]),
    )
        .prop_map(|(kind, batch, wait_ms, chunk_tokens)| match kind {
            0 => Policy::Static {
                batch_size: batch.min(5),
                max_wait: SimDuration::from_millis(wait_ms),
            },
            1 => Policy::Continuous { max_batch: batch },
            _ => Policy::ChunkedPrefill {
                max_batch: batch,
                chunk_tokens,
            },
        })
}

fn arb_router() -> impl Strategy<Value = RouterPolicy> {
    prop::sample::select(vec![
        RouterPolicy::SharedQueue,
        RouterPolicy::RoundRobin,
        RouterPolicy::JoinShortestQueue,
    ])
}

fn arb_platform() -> impl Strategy<Value = Platform> {
    prop::sample::select(vec![
        Platform::amd_a100(),
        Platform::intel_h100(),
        Platform::gh200(),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every policy × router × replica-count combination completes all
    /// requests, conserves them at every counter sample, and reports
    /// sane latency orderings.
    #[test]
    fn any_policy_router_combo_conserves_requests(
        policy in arb_policy(),
        router in arb_router(),
        platform in arb_platform(),
        replicas in 1u32..5,
        requests in 1u32..25,
        rate in prop::sample::select(vec![5.0f64, 50.0, 400.0]),
        prompt_len in prop::sample::select(vec![16u32, 96, 384]),
        new_tokens in 1u32..6,
        // 0 => no KV bound; otherwise blocks above the one-request floor.
        kv_slack in prop::sample::select(vec![0u32, 2, 16, 256]),
    ) {
        let kv = (kv_slack > 0).then(|| {
            let spec = KvSpec::for_model(&zoo::gpt2(), KvSpec::DEFAULT_BLOCK_TOKENS);
            let floor = spec.blocks_for(u64::from(prompt_len) + u64::from(new_tokens));
            KvCacheConfig::with_blocks(floor + kv_slack, OffloadPolicy::Auto)
        });
        let cfg = ServingConfig {
            platform,
            model: zoo::gpt2(),
            policy,
            requests,
            arrival_rate_per_s: rate,
            prompt_len,
            new_tokens,
            seed: 7,
            kv,
            slo: SloTargets::default(),
            router,
        };
        prop_assert!(cfg.validate().is_ok(), "generated config must be valid");
        let (report, trace) = simulate_traced(&cfg, replicas);

        prop_assert_eq!(report.completed, requests, "every request completes");
        prop_assert!(
            trace.conserves_requests(),
            "admitted = completed + running + parked must hold at every sample"
        );
        prop_assert_eq!(trace.lifecycles.len() as u32, requests);
        prop_assert!(report.ttft_p50 <= report.ttft_p95);
        prop_assert!(report.ttft_p95 <= report.ttft_p99);
        prop_assert!(report.e2e_p50 <= report.e2e_p95);
        prop_assert!(
            report.ttft_p99 <= report.makespan,
            "no first token lands after the run ends"
        );
        // Without a KV bound there is nothing to preempt or park.
        if kv.is_none() {
            prop_assert_eq!(report.preemptions, 0);
            prop_assert_eq!(report.kv_peak_occupancy, 0.0);
        }
    }

    /// The untraced floor reports what the traced floor reports, byte for
    /// byte, over any policy × router × replica count × KV pressure, with
    /// up to 128 new tokens so long runs of unchanged decode steps occur.
    #[test]
    fn lean_report_is_the_traced_report(
        policy in arb_policy(),
        router in arb_router(),
        platform in arb_platform(),
        replicas in 1u32..4,
        requests in 1u32..20,
        rate in prop::sample::select(vec![2.0f64, 20.0, 200.0]),
        prompt_len in prop::sample::select(vec![16u32, 96, 384]),
        new_tokens in 1u32..129,
        // Half the cases have no KV bound: only those may use windows.
        kv_slack in prop::sample::select(vec![0u32, 0, 16, 256]),
        seed in 0u64..1_000,
    ) {
        let kv = (kv_slack > 0).then(|| {
            let spec = KvSpec::for_model(&zoo::gpt2(), KvSpec::DEFAULT_BLOCK_TOKENS);
            let floor = spec.blocks_for(u64::from(prompt_len) + u64::from(new_tokens));
            KvCacheConfig::with_blocks(floor + kv_slack, OffloadPolicy::Auto)
        });
        let cfg = ServingConfig {
            platform,
            model: zoo::gpt2(),
            policy,
            requests,
            arrival_rate_per_s: rate,
            prompt_len,
            new_tokens,
            seed,
            kv,
            slo: SloTargets {
                ttft: Some(SimDuration::from_millis(50)),
                e2e: Some(SimDuration::from_millis(400)),
            },
            router,
        };
        prop_assert!(cfg.validate().is_ok(), "generated config must be valid");
        let lean = simulate_replicas(&cfg, replicas);
        let (traced, _) = simulate_traced(&cfg, replicas);
        prop_assert_eq!(
            serde_json::to_string(&lean).unwrap(),
            serde_json::to_string(&traced).unwrap()
        );
    }

    /// The same config simulated twice is bitwise-identical — the floor
    /// stays deterministic under every seam combination.
    #[test]
    fn any_policy_router_combo_is_deterministic(
        policy in arb_policy(),
        router in arb_router(),
        replicas in 1u32..4,
        requests in 1u32..15,
    ) {
        let cfg = ServingConfig {
            platform: Platform::intel_h100(),
            model: zoo::gpt2(),
            policy,
            requests,
            arrival_rate_per_s: 80.0,
            prompt_len: 64,
            new_tokens: 4,
            seed: 11,
            kv: None,
            slo: SloTargets::default(),
            router,
        };
        let (ra, ta) = simulate_traced(&cfg, replicas);
        let (rb, tb) = simulate_traced(&cfg, replicas);
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(ta, tb);
    }
}
