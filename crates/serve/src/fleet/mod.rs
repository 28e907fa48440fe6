//! # skip-fleet — heterogeneous replica fleets
//!
//! The single-platform floor answers "what does one endpoint do"; this
//! module answers the capacity-planning questions the paper's coupling
//! taxonomy raises at fleet scale:
//!
//! * **Heterogeneous fleets** ([`spec`]) — a [`FleetSpec`] mixes
//!   platforms (amd_a100 / intel_h100 / gh200 / mi300a) in one fleet;
//!   each replica prices its iterations through its own platform's
//!   latency model, and routers either ignore that (round-robin, plain
//!   JSQ) or weigh queue depth by the platform's per-request cost
//!   (cost-model JSQ).
//! * **Prefill/decode disaggregation** ([`floor`]) — prefill and decode
//!   pools on different platforms, connected by KV handoff links priced
//!   from KV block bytes over the source *and* destination coupling.
//!   This is the fleet-level consequence of the paper's launch-cost
//!   asymmetry: prefill is compute-bound (GH200's fast kernels win),
//!   decode is launch-bound (GH200's 2.8 µs launches lose), so the
//!   pairing that splits them beats any homogeneous fleet — until the
//!   interconnect eats the margin.
//! * **Arrival-driven autoscaling** ([`autoscale`], [`arrivals`]) —
//!   diurnal and bursty arrival processes drive watermark scaling with
//!   coupling-priced replica launches (provision delay + weight load over
//!   the platform's interconnect).
//! * **Capacity planning** ([`plan`]) — enumerate fleet compositions
//!   (platform mixes, disaggregation splits, autoscale on/off) against a
//!   traffic envelope and keep the cost-optimal frontier by
//!   replica-seconds billing; the candidate list is index-ordered so any
//!   in-order executor reproduces it byte for byte.

pub mod arrivals;
pub mod autoscale;
pub mod floor;
pub mod observe;
pub mod plan;
pub mod spec;

pub use arrivals::ArrivalProcess;
pub use autoscale::{AutoscaleConfig, ScaleAction, ScalingEvent};
pub use floor::{simulate_fleet, simulate_fleet_bounded, simulate_fleet_traced};
pub use observe::{FleetReport, FleetSample, FleetTrace};
pub use plan::{
    PlanCandidate, PlanError, PlanOutcome, PlanSweep, PlannerConfig, Resolution, SweepBounds,
    SweepStats, TrafficEnvelope,
};
pub use spec::{
    FleetBatchPolicy, FleetConfig, FleetError, FleetRouterPolicy, FleetSpec, PoolRole, ReplicaGroup,
};
