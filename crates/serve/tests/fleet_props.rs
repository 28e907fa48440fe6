//! Property tests over the fleet floor: any platform mix, disaggregated
//! or unified, autoscaled or fixed, under any arrival process, must
//! complete every request, satisfy the fleet conservation law (arrivals =
//! completions + queued + running + in-handoff) at every event boundary,
//! and be bitwise deterministic.
//!
//! These sweep the configuration space the two golden fixtures cannot:
//! fixtures pin known shapes byte-for-byte, properties guarantee nothing
//! leaks anywhere in the fleet-mix × disagg × autoscale cross product. The
//! untraced floor, which runs unchanged decode batches as decode windows,
//! must report what the traced floor, which takes one event per iteration,
//! reports.

use proptest::prelude::*;
use skip_des::SimDuration;
use skip_hw::Platform;
use skip_llm::zoo;
use skip_serve::{
    simulate_fleet, simulate_fleet_traced, ArrivalProcess, AutoscaleConfig, FleetBatchPolicy,
    FleetConfig, FleetRouterPolicy, FleetSpec, PoolRole, ReplicaGroup, SloTargets,
};

fn arb_platform() -> impl Strategy<Value = Platform> {
    prop::sample::select(vec![
        Platform::amd_a100(),
        Platform::intel_h100(),
        Platform::gh200(),
        Platform::mi300a(),
    ])
}

/// Any fleet shape: a unified fleet of 1–2 heterogeneous groups, or a
/// disaggregated prefill/decode split (possibly cross-platform).
fn arb_spec() -> impl Strategy<Value = FleetSpec> {
    (
        0usize..2,
        prop::collection::vec((arb_platform(), 1u32..3), 1..3),
        arb_platform(),
        1u32..3,
        arb_platform(),
        1u32..3,
    )
        .prop_map(|(kind, unified, pf, pc, dec, dc)| {
            if kind == 0 {
                FleetSpec {
                    groups: unified
                        .into_iter()
                        .map(|(platform, count)| ReplicaGroup {
                            platform,
                            count,
                            role: PoolRole::Unified,
                        })
                        .collect(),
                }
            } else {
                FleetSpec::disaggregated(pf, pc, dec, dc)
            }
        })
}

fn arb_router() -> impl Strategy<Value = FleetRouterPolicy> {
    prop::sample::select(vec![
        FleetRouterPolicy::RoundRobin,
        FleetRouterPolicy::JoinShortestQueue,
        FleetRouterPolicy::CostModelJsq,
    ])
}

fn arb_policy() -> impl Strategy<Value = FleetBatchPolicy> {
    (0usize..2, 16u32..512).prop_map(|(kind, chunk_tokens)| {
        if kind == 0 {
            FleetBatchPolicy::Continuous
        } else {
            FleetBatchPolicy::ChunkedPrefill { chunk_tokens }
        }
    })
}

fn arb_arrivals() -> impl Strategy<Value = ArrivalProcess> {
    (
        0usize..3,
        20.0f64..200.0,
        5.0f64..40.0,
        100.0f64..400.0,
        100u64..600,
        500u64..2000,
    )
        .prop_map(|(kind, rate, base, peak, a_ms, b_ms)| match kind {
            0 => ArrivalProcess::Poisson { rate_per_s: rate },
            1 => ArrivalProcess::Diurnal {
                base_rate_per_s: base,
                peak_rate_per_s: peak,
                period: SimDuration::from_millis(a_ms * 4),
            },
            _ => ArrivalProcess::Bursty {
                base_rate_per_s: base,
                burst_rate_per_s: peak,
                burst_len: SimDuration::from_millis(a_ms),
                lull_len: SimDuration::from_millis(b_ms),
            },
        })
}

fn arb_autoscale() -> impl Strategy<Value = Option<AutoscaleConfig>> {
    (
        0usize..2,
        50u64..400,
        2.0f64..10.0,
        1u32..3,
        3u32..8,
        50u64..600,
    )
        .prop_map(|(kind, interval_ms, high, min, max, provision_ms)| {
            if kind == 0 {
                None
            } else {
                Some(AutoscaleConfig {
                    interval: SimDuration::from_millis(interval_ms),
                    high_load: high,
                    low_load: high / 8.0,
                    min_per_pool: min,
                    max_per_pool: max.max(min),
                    provision_delay: SimDuration::from_millis(provision_ms),
                })
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Any fleet mix × disagg × autoscale × arrival process completes
    /// every request and conserves them at every event boundary, and the
    /// whole recording is bitwise deterministic.
    #[test]
    fn any_fleet_conserves_requests_and_is_deterministic(
        spec in arb_spec(),
        router in arb_router(),
        policy in arb_policy(),
        arrivals in arb_arrivals(),
        autoscale in arb_autoscale(),
        requests in 1u32..40,
        max_batch in 1u32..10,
        prompt_len in 16u32..256,
        new_tokens in 1u32..8,
        seed in 0u64..1_000,
    ) {
        let cfg = FleetConfig {
            spec,
            model: zoo::gpt2(),
            max_batch,
            requests,
            arrivals,
            prompt_len,
            new_tokens,
            seed,
            slo: SloTargets::default(),
            router,
            policy,
            autoscale,
        };
        prop_assert_eq!(cfg.validate(), Ok(()));
        let (report, trace) = simulate_fleet_traced(&cfg);

        prop_assert_eq!(report.completed, requests, "every request completes");
        prop_assert_eq!(trace.arrived_total(), requests);
        prop_assert_eq!(trace.completed_total(), requests);
        prop_assert!(trace.conserves_requests(), "conservation law violated");
        prop_assert_eq!(trace.lifecycles.len(), requests as usize);

        // Disaggregated fleets hand off exactly the multi-token requests;
        // unified fleets never touch the links.
        if cfg.spec.is_disaggregated() && new_tokens > 1 {
            prop_assert_eq!(report.handoffs, u64::from(requests));
            prop_assert!(report.handoff_bytes > 0);
        } else {
            prop_assert_eq!(report.handoffs, 0);
            prop_assert_eq!(report.handoff_bytes, 0);
        }

        // Latency sanity: first token can't follow completion.
        prop_assert!(report.e2e_p50 >= report.ttft_p50);
        prop_assert!(report.e2e_p95 >= report.ttft_p95);

        // Autoscaling never exceeds its ceiling.
        if let Some(auto) = &cfg.autoscale {
            let base = cfg.spec.total_replicas();
            let pools = if cfg.spec.is_disaggregated() { 2 } else { 1 };
            prop_assert!(
                report.peak_replicas <= base + auto.max_per_pool * pools,
                "peak {} above ceiling", report.peak_replicas
            );
        } else {
            prop_assert_eq!(report.scale_ups, 0);
            prop_assert_eq!(report.peak_replicas, cfg.spec.total_replicas());
        }

        // Bitwise determinism: the same config reproduces the entire
        // recording, not just the scalars.
        let (report2, trace2) = simulate_fleet_traced(&cfg);
        prop_assert_eq!(report, report2);
        prop_assert_eq!(trace, trace2);
    }

    /// The untraced floor reports what the traced floor reports, byte for
    /// byte, over any fleet mix × disagg × autoscale × arrival process ×
    /// policy × router, with up to 128 new tokens so long runs of
    /// unchanged decode steps occur.
    #[test]
    fn lean_report_is_the_traced_report(
        spec in arb_spec(),
        router in arb_router(),
        policy in arb_policy(),
        arrivals in arb_arrivals(),
        autoscale in arb_autoscale(),
        requests in 1u32..30,
        max_batch in 1u32..10,
        prompt_len in 16u32..256,
        new_tokens in 1u32..129,
        seed in 0u64..1_000,
    ) {
        let cfg = FleetConfig {
            spec,
            model: zoo::gpt2(),
            max_batch,
            requests,
            arrivals,
            prompt_len,
            new_tokens,
            seed,
            slo: SloTargets {
                ttft: Some(SimDuration::from_millis(50)),
                e2e: Some(SimDuration::from_millis(400)),
            },
            router,
            policy,
            autoscale,
        };
        prop_assert_eq!(cfg.validate(), Ok(()));
        let lean = simulate_fleet(&cfg);
        let (traced, _) = simulate_fleet_traced(&cfg);
        prop_assert_eq!(
            serde_json::to_string(&lean).unwrap(),
            serde_json::to_string(&traced).unwrap()
        );
    }
}
