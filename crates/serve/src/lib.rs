//! # skip-serve — online serving simulation
//!
//! The paper's batch-size story is ultimately about *serving*: §II-A frames
//! everything in user-visible latency under ~200 ms SLOs, cites vLLM's
//! continuous batching and Orca's iteration-level scheduling, and concludes
//! that each application–system pair has a balanced batch-size region.
//! This crate closes that loop: it simulates an online serving endpoint —
//! Poisson request arrivals, a batching policy, the platform executing each
//! iteration at the cost the `skip-runtime` engine reports — and measures
//! what the user actually sees: TTFT/end-to-end percentiles and sustained
//! throughput as functions of offered load.
//!
//! The simulator is layered: a slim DES core (the *floor*) dispatches
//! events and prices iterations via the [`LatencyModel`], while every
//! scheduling decision flows through three seams — a `BatchPolicy` (which
//! requests run next iteration: [`Policy`]), a `Router` (which replica an
//! arrival joins: [`RouterPolicy`]), and a memory layer wrapping the
//! `skip-mem` paged KV-cache ([`KvCacheConfig`]). New policies plug into
//! the seams without touching the event loop.
//!
//! Components:
//!
//! * [`RequestStream`] — seeded Poisson arrivals with configurable prompt
//!   and output lengths.
//! * [`LatencyModel`] — memoized per-iteration latencies from the engine
//!   (prefill and decode, bucketed by batch size and context length).
//! * [`Policy`] — static batching (collect B requests or time out),
//!   continuous iteration-level batching, or chunked prefill
//!   (fixed-token prompt chunks co-scheduled with decode steps).
//! * [`RouterPolicy`] — multi-replica dispatch: one shared queue,
//!   round-robin dealing, or join-shortest-queue.
//! * [`KvCacheConfig`] — optional paged KV-cache budget (from `skip-mem`);
//!   when set, iteration-level batching becomes memory-aware: admission
//!   reserves prompt blocks, decode grows tables, and exhaustion preempts
//!   the newest request, resolving each victim by recompute or
//!   coupling-priced swap-to-host.
//! * [`ServingConfig::validate`] — up-front configuration checking with
//!   actionable [`ConfigError`]s; the `simulate*` entry points panic on
//!   invalid configs, so graceful front ends validate first.
//! * [`simulate`] — the discrete-event serving loop, returning a
//!   [`ServingReport`] of latency percentiles, throughput, memory-pressure
//!   counters, and SLO attainment.
//! * [`simulate_traced`] — the same loop, additionally returning the full
//!   [`ServingTrace`] observability recording: per-request lifecycle
//!   records, counter tracks sampled at iteration boundaries, all
//!   exportable to the Perfetto/Chrome timeline via `skip-trace`.
//!
//! # Example
//!
//! ```
//! use skip_des::SimDuration;
//! use skip_hw::Platform;
//! use skip_llm::zoo;
//! use skip_serve::{simulate_traced, Policy, RouterPolicy, ServingConfig, SloTargets};
//!
//! let (report, trace) = simulate_traced(
//!     &ServingConfig {
//!         platform: Platform::gh200(),
//!         model: zoo::gpt2(),
//!         policy: Policy::Continuous { max_batch: 16 },
//!         requests: 40,
//!         arrival_rate_per_s: 20.0,
//!         prompt_len: 128,
//!         new_tokens: 8,
//!         seed: 7,
//!         kv: None, // infinite KV cache; Some(..) bounds it
//!         slo: SloTargets {
//!             ttft: Some(SimDuration::from_millis(200)),
//!             e2e: None,
//!         },
//!         router: RouterPolicy::SharedQueue,
//!     },
//!     1,
//! );
//! assert_eq!(report.completed, 40);
//! assert!(report.ttft_p50.as_millis_f64() > 0.0);
//! assert!(report.slo.ttft_attainment > 0.0);
//! assert_eq!(trace.lifecycles.len(), 40);
//! assert!(trace.conserves_requests());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod fleet;
mod floor;
mod latency;
#[cfg(test)]
mod legacy;
mod memctx;
mod observe;
mod policy;
mod request;
mod router;
mod stop;
mod unified;

pub use config::{ConfigError, KvCacheConfig, Policy, RouterPolicy, ServingConfig};
pub use fleet::{
    simulate_fleet, simulate_fleet_bounded, simulate_fleet_traced, ArrivalProcess, AutoscaleConfig,
    FleetBatchPolicy, FleetConfig, FleetError, FleetReport, FleetRouterPolicy, FleetSample,
    FleetSpec, FleetTrace, PlanCandidate, PlanError, PlanOutcome, PlanSweep, PlannerConfig,
    PoolRole, ReplicaGroup, Resolution, ScaleAction, ScalingEvent, SweepBounds, SweepStats,
    TrafficEnvelope,
};
pub use floor::{simulate, simulate_replicas, simulate_traced, ServingReport};
pub use latency::LatencyModel;
pub use observe::{
    CounterSample, LifecycleEvent, LifecycleKind, RequestLifecycle, ResumeAction, ServingTrace,
    SloReport, SloTargets,
};
pub use request::{Request, RequestStream};
pub use skip_mem::OffloadPolicy;
pub use stop::{allowed_misses, StopCondition};
