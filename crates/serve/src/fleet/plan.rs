//! Capacity-frontier planner: which fleet, at what cost, for this traffic?
//!
//! The paper's north-star question — *how many of which platform for a
//! given user population at SLO X?* — is a search over fleet compositions,
//! and every point in that search is one fleet simulation. This module
//! owns the search space and the scoring; it deliberately does **not** own
//! the fan-out. [`enumerate`] produces a deterministic, index-ordered
//! candidate list and [`evaluate`] scores one candidate independently of
//! every other, so any executor that maps `evaluate` over the list in
//! input order — serially, or through `skip-bench`'s deterministic
//! harness at any worker count — produces byte-identical outcomes.
//!
//! Scoring is **billing-first**: every candidate that clears the SLO
//! attainment floor is *feasible*, and feasible candidates compete on
//! [`FleetReport::replica_seconds`] — the integral of live replicas over
//! the makespan, i.e. what the deployment actually rents. [`frontier`]
//! keeps the Pareto set over (replica-seconds, p95 end-to-end latency):
//! the fleets for which spending less means waiting longer. [`cheapest`]
//! is the frontier's economical end — the planner's one-line answer.
//!
//! At larger ceilings the exhaustive sweep is dominated by candidates
//! whose outcome is already decided, so the production path is the
//! **pruned generational sweep** ([`plan_pruned`] / [`sweep_with`]):
//! candidates run in waves of ascending provisioned-replica count, and
//! [`SweepBounds`] — analytic per-candidate lower bounds plus the
//! feasible incumbents of completed waves — resolves a candidate without
//! a full simulation whenever arithmetic already knows the answer
//! ([`Resolution::PrunedInfeasible`], [`Resolution::PrunedDominated`]) or
//! an early-aborted run decides it mid-flight ([`Resolution::Aborted`]).
//! Pruning never touches [`frontier`]/[`cheapest`]: every skipped or
//! aborted candidate is provably infeasible or provably dominated by a
//! fully-simulated incumbent, so the pruned sweep's frontier is
//! byte-identical to the exhaustive one (see DESIGN.md §2.4).

use serde::{Deserialize, Serialize};
use skip_des::SimDuration;
use skip_hw::Platform;
use skip_llm::ModelConfig;
use skip_mem::KvSpec;

use crate::config::{check_positive, ConfigError};
use crate::fleet::arrivals::ArrivalProcess;
use crate::fleet::autoscale::AutoscaleConfig;
use crate::fleet::floor::{simulate_fleet, simulate_fleet_bounded};
use crate::fleet::observe::FleetReport;
use crate::fleet::spec::{FleetBatchPolicy, FleetConfig, FleetRouterPolicy, FleetSpec, PoolRole};
use crate::latency::LatencyModel;
use crate::observe::{SloReport, SloTargets};
use crate::request::Request;
use crate::stop::{allowed_misses, StopCondition};

/// Period of the diurnal arrival cycle a peaked envelope simulates. Long
/// enough that an autoscaled candidate sees several scale decisions per
/// cycle, short enough that a few hundred simulated requests span one.
pub const DIURNAL_PERIOD: SimDuration = SimDuration::from_secs(8);

/// Relative slack applied wherever an analytic bound is compared against
/// a simulated quantity, absorbing the f64 rounding of unit-price
/// divisions so a borderline candidate is simulated rather than
/// mis-pruned.
const BOUND_SLACK: f64 = 1e-9;

/// The traffic a candidate fleet must absorb: workload shape, offered
/// load, and the SLO the deployment is contractually scored against.
#[derive(Debug, Clone)]
pub struct TrafficEnvelope {
    /// The model every replica serves.
    pub model: ModelConfig,
    /// Mean offered load, requests/second.
    pub qps: f64,
    /// Peak offered load; `Some` turns the arrivals diurnal (base
    /// [`qps`](Self::qps), peak `peak_qps`, period [`DIURNAL_PERIOD`]),
    /// `None` keeps them Poisson at the mean.
    pub peak_qps: Option<f64>,
    /// Requests per evaluation — the sample the envelope is scored on.
    pub requests: u32,
    /// Prompt length of every request, tokens.
    pub prompt_len: u32,
    /// Output tokens per request.
    pub new_tokens: u32,
    /// Arrival-process seed shared by every candidate, so candidates are
    /// scored on the *same* request stream.
    pub seed: u64,
    /// The latency targets feasibility is judged against.
    pub slo: SloTargets,
}

impl TrafficEnvelope {
    /// The arrival process the envelope prescribes.
    #[must_use]
    pub fn arrivals(&self) -> ArrivalProcess {
        match self.peak_qps {
            Some(peak) if peak > self.qps => ArrivalProcess::Diurnal {
                base_rate_per_s: self.qps,
                peak_rate_per_s: peak,
                period: DIURNAL_PERIOD,
            },
            _ => ArrivalProcess::Poisson {
                rate_per_s: self.qps,
            },
        }
    }
}

/// The planner's search space and scoring knobs.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// The traffic every candidate is scored against.
    pub envelope: TrafficEnvelope,
    /// Platform menu; candidates draw homogeneous fleets and
    /// prefill/decode pairings from this list, in order.
    pub platforms: Vec<Platform>,
    /// Ceiling on a candidate's *provisioned* replicas (autoscaled
    /// candidates may grow past it at their own billing peril).
    pub max_replicas: u32,
    /// Concurrent-request cap per replica.
    pub max_batch: u32,
    /// Minimum TTFT *and* e2e attainment a feasible fleet must reach.
    pub attainment_floor: f64,
    /// How arrivals and handoffs are dispatched in every candidate.
    pub router: FleetRouterPolicy,
    /// Iteration-forming policy every candidate's replicas run.
    pub policy: FleetBatchPolicy,
}

impl PlannerConfig {
    /// A planner over the paper-trio platform menu with the defaults the
    /// experiments use: up to 4 provisioned replicas, batch cap 8, a 95%
    /// attainment floor, cost-model JSQ routing, continuous batching.
    #[must_use]
    pub fn new(envelope: TrafficEnvelope) -> Self {
        PlannerConfig {
            envelope,
            platforms: Platform::paper_trio(),
            max_replicas: 4,
            max_batch: 8,
            attainment_floor: 0.95,
            router: FleetRouterPolicy::CostModelJsq,
            policy: FleetBatchPolicy::Continuous,
        }
    }

    /// Checks the planner for configurations no candidate could be built
    /// from, so front ends get an actionable error instead of a panic
    /// deep inside [`fleet_config`]. `Ok` means every candidate
    /// [`fleet_config`] builds is valid.
    ///
    /// # Errors
    ///
    /// The first [`ConfigError`] found: the planner's own knobs in
    /// declaration order, then the first candidate's fleet error as
    /// [`FleetConfig::validate`] reports it.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_replicas == 0 {
            return Err(ConfigError::AtLeastOne("max replicas"));
        }
        if !(self.attainment_floor > 0.0 && self.attainment_floor <= 1.0) {
            return Err(ConfigError::BadAttainmentFloor(self.attainment_floor));
        }
        check_positive("offered load", self.envelope.qps)?;
        if let Some(peak) = self.envelope.peak_qps {
            check_positive("peak offered load", peak)?;
        }
        if self.platforms.is_empty() {
            return Err(ConfigError::NoPlatforms);
        }
        // Candidates differ only in topology and autoscaling, which
        // `enumerate` builds valid, so checking its first candidate checks
        // every knob they share.
        let first = PlanCandidate {
            spec: FleetSpec::homogeneous(self.platforms[0].clone(), 1),
            autoscaled: false,
        };
        fleet_config(self, &first).validate()
    }
}

/// One point of the search space: a replica topology plus whether the
/// arrival-driven autoscaler is on.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCandidate {
    /// The provisioned topology.
    pub spec: FleetSpec,
    /// `true` runs the candidate under [`AutoscaleConfig::default`].
    pub autoscaled: bool,
}

impl PlanCandidate {
    /// Canonical candidate label: the spec label, `+auto` when autoscaled.
    #[must_use]
    pub fn label(&self) -> String {
        if self.autoscaled {
            format!("{}+auto", self.spec.label())
        } else {
            self.spec.label()
        }
    }
}

/// Enumerates the candidate fleet compositions for `cfg`, in a fixed
/// deterministic order: homogeneous fleets first (platform-menu order ×
/// ascending replica count), then every prefill×decode platform pairing ×
/// every split summing to at most `max_replicas` — each in a fixed and an
/// autoscaled variant. The order is part of the planner's contract: any
/// in-order map of [`evaluate`] over this list yields identical output.
#[must_use]
pub fn enumerate(cfg: &PlannerConfig) -> Vec<PlanCandidate> {
    let mut out = Vec::new();
    let mut push_both = |spec: FleetSpec| {
        out.push(PlanCandidate {
            spec: spec.clone(),
            autoscaled: false,
        });
        out.push(PlanCandidate {
            spec,
            autoscaled: true,
        });
    };
    for p in &cfg.platforms {
        for count in 1..=cfg.max_replicas {
            push_both(FleetSpec::homogeneous(p.clone(), count));
        }
    }
    for pf in &cfg.platforms {
        for dec in &cfg.platforms {
            for p_count in 1..cfg.max_replicas {
                for d_count in 1..=(cfg.max_replicas - p_count) {
                    push_both(FleetSpec::disaggregated(
                        pf.clone(),
                        p_count,
                        dec.clone(),
                        d_count,
                    ));
                }
            }
        }
    }
    out
}

/// The fleet configuration [`evaluate`] simulates for one candidate.
#[must_use]
pub fn fleet_config(cfg: &PlannerConfig, cand: &PlanCandidate) -> FleetConfig {
    FleetConfig {
        spec: cand.spec.clone(),
        model: cfg.envelope.model.clone(),
        max_batch: cfg.max_batch,
        requests: cfg.envelope.requests,
        arrivals: cfg.envelope.arrivals(),
        prompt_len: cfg.envelope.prompt_len,
        new_tokens: cfg.envelope.new_tokens,
        seed: cfg.envelope.seed,
        slo: cfg.envelope.slo,
        router: cfg.router,
        policy: cfg.policy,
        autoscale: cand.autoscaled.then(AutoscaleConfig::default),
    }
}

/// How the sweep resolved one candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Resolution {
    /// Fully simulated over the whole envelope — the only resolution that
    /// can be feasible, and the one every exhaustive [`evaluate`] reports.
    #[default]
    Simulated,
    /// Simulation started but a [`StopCondition`] budget blew mid-run:
    /// the candidate provably misses the attainment floor or provably
    /// out-bills a dominating incumbent.
    Aborted,
    /// Rejected by the analytic service-demand bound without simulating:
    /// the envelope's SLO-met work cannot fit the candidate's capacity.
    PrunedInfeasible,
    /// Skipped without simulating: a feasible incumbent dominates the
    /// candidate's best-possible (cost, e2e p95) point.
    PrunedDominated,
}

/// One scored candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanOutcome {
    /// [`PlanCandidate::label`] of the candidate behind this outcome.
    pub label: String,
    /// `true` for split prefill/decode pools.
    pub disagg: bool,
    /// `true` when the candidate ran autoscaled.
    pub autoscaled: bool,
    /// Provisioned replicas (before any autoscaling).
    pub base_replicas: u32,
    /// Every request completed *and* both attainment axes cleared the
    /// planner's floor — the candidate can legally serve the envelope.
    pub feasible: bool,
    /// The full measurement, including the `replica_seconds` bill. For
    /// non-[`Simulated`](Resolution::Simulated) resolutions this is a
    /// truncated or empty report with its `aborted` flag set.
    pub report: FleetReport,
    /// How the sweep resolved this candidate.
    #[serde(default)]
    pub resolution: Resolution,
}

impl PlanOutcome {
    /// The capacity bill this outcome competes on.
    #[must_use]
    pub fn cost(&self) -> f64 {
        self.report.replica_seconds
    }
}

/// Scores one candidate against the envelope: simulates the fleet and
/// applies the feasibility floor. Pure in the candidate — evaluations of
/// distinct candidates share no state, which is what lets an executor
/// fan them out in any order.
///
/// # Panics
///
/// Panics if the resulting [`FleetConfig`] is invalid — [`enumerate`]
/// never produces such a candidate, so this only fires on hand-built ones.
#[must_use]
pub fn evaluate(cfg: &PlannerConfig, cand: &PlanCandidate) -> PlanOutcome {
    let fleet = fleet_config(cfg, cand);
    let report = simulate_fleet(&fleet);
    outcome_of(cfg, cand, report)
}

/// Scores one candidate under the sweep's accumulated `bounds`: skips it
/// outright when the bounds already decide it, otherwise simulates with
/// the bounds' [`StopCondition`] armed. Pure in (candidate, bounds) —
/// a wave's candidates share one frozen `bounds`, so an executor can fan
/// them out in any order and still match the serial sweep byte for byte.
///
/// # Panics
///
/// Panics if the resulting [`FleetConfig`] is invalid (hand-built
/// candidates only, as with [`evaluate`]).
#[must_use]
pub fn evaluate_bounded(
    cfg: &PlannerConfig,
    cand: &PlanCandidate,
    bounds: &SweepBounds,
) -> PlanOutcome {
    match bounds.decide(cand) {
        Decision::Skip(resolution) => PlanOutcome {
            label: cand.label(),
            disagg: cand.spec.is_disaggregated(),
            autoscaled: cand.autoscaled,
            base_replicas: cand.spec.total_replicas(),
            feasible: false,
            report: skipped_report(cfg),
            resolution,
        },
        Decision::Simulate(stop) => {
            let fleet = fleet_config(cfg, cand);
            let report = simulate_fleet_bounded(&fleet, stop);
            outcome_of(cfg, cand, report)
        }
    }
}

/// Folds a (possibly aborted) report into a [`PlanOutcome`]. An aborted
/// report is never feasible: its metrics cover only a prefix of the
/// envelope.
fn outcome_of(cfg: &PlannerConfig, cand: &PlanCandidate, report: FleetReport) -> PlanOutcome {
    let feasible = !report.aborted
        && report.completed == cfg.envelope.requests
        && report.slo.ttft_attainment >= cfg.attainment_floor
        && report.slo.e2e_attainment >= cfg.attainment_floor;
    let resolution = if report.aborted {
        Resolution::Aborted
    } else {
        Resolution::Simulated
    };
    PlanOutcome {
        label: cand.label(),
        disagg: cand.spec.is_disaggregated(),
        autoscaled: cand.autoscaled,
        base_replicas: cand.spec.total_replicas(),
        feasible,
        report,
        resolution,
    }
}

/// The empty, `aborted`-flagged report a pruned candidate carries: zero
/// completions, zero bill — honest about having simulated nothing.
fn skipped_report(cfg: &PlannerConfig) -> FleetReport {
    FleetReport {
        completed: 0,
        ttft_p50: SimDuration::ZERO,
        ttft_p95: SimDuration::ZERO,
        ttft_p99: SimDuration::ZERO,
        e2e_p50: SimDuration::ZERO,
        e2e_p95: SimDuration::ZERO,
        throughput_tok_s: 0.0,
        makespan: SimDuration::ZERO,
        slo: SloReport::evaluate(
            cfg.envelope.slo,
            &[],
            cfg.envelope.new_tokens.max(1),
            SimDuration::ZERO,
        ),
        handoffs: 0,
        handoff_bytes: 0,
        handoff_wait_p50: SimDuration::ZERO,
        handoff_wait_p95: SimDuration::ZERO,
        handoff_transfer_total: SimDuration::ZERO,
        scale_ups: 0,
        scale_downs: 0,
        peak_replicas: 0,
        replica_seconds: 0.0,
        aborted: true,
    }
}

/// How many candidates the pruned sweep resolved each way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct SweepStats {
    /// Candidates enumerated.
    pub candidates: u32,
    /// Fully simulated over the whole envelope.
    pub simulated: u32,
    /// Simulations stopped early by a blown budget.
    pub aborted: u32,
    /// Skipped by the analytic service-demand bound.
    pub pruned_infeasible: u32,
    /// Skipped by bound-point dominance against an incumbent.
    pub pruned_dominated: u32,
}

impl SweepStats {
    /// Candidates resolved without running the full envelope — the
    /// pruning win the sweep reports.
    #[must_use]
    pub fn resolved_without_full_simulation(&self) -> u32 {
        self.aborted + self.pruned_infeasible + self.pruned_dominated
    }

    fn count(&mut self, r: Resolution) {
        match r {
            Resolution::Simulated => self.simulated += 1,
            Resolution::Aborted => self.aborted += 1,
            Resolution::PrunedInfeasible => self.pruned_infeasible += 1,
            Resolution::PrunedDominated => self.pruned_dominated += 1,
        }
    }
}

/// A pruned generational sweep's full result: one outcome per enumerated
/// candidate (in enumeration order, exactly like [`plan`]) plus the
/// resolution tally.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanSweep {
    /// One outcome per candidate, in [`enumerate`] order.
    pub outcomes: Vec<PlanOutcome>,
    /// How the sweep resolved them.
    pub stats: SweepStats,
}

/// What [`SweepBounds::decide`] concluded for one candidate.
enum Decision {
    /// Resolved without simulating; carries the resolution to record.
    Skip(Resolution),
    /// Simulate under this stop condition.
    Simulate(StopCondition),
}

/// A feasible incumbent's scoring point.
#[derive(Debug, Clone, Copy)]
struct Incumbent {
    cost_s: f64,
    e2e_ns: f64,
}

/// Per-platform unit prices for the analytic bounds, all in nanoseconds.
#[derive(Debug, Clone)]
struct PlatformPrice {
    name: String,
    /// Cheapest per-request share of any prefill iteration:
    /// `min_b prefill(b, prompt) / b`.
    prefill_unit_ns: f64,
    /// Cheapest per-token share of any decode step:
    /// `min_{b, ctx} decode_step(b, ctx) / b` over the envelope's context
    /// range.
    decode_unit_ns: f64,
    /// Cheapest whole prefill iteration — a request waits at least this
    /// long for its first token.
    prefill_iter_min_ns: f64,
    /// Cheapest whole decode step — each subsequent token waits at least
    /// this long.
    decode_iter_min_ns: f64,
}

/// One pool's capacity and cheapest unit prices, in nanoseconds: each
/// price is the minimum over the pool's members on its own axis, so it
/// lower-bounds every member even when no member is cheapest on both.
struct PoolPrices {
    /// Replicas the pool can bring to bear.
    replicas: f64,
    /// Cheapest member `prefill_unit_ns`.
    prefill_unit_ns: f64,
    /// Cheapest member `decode_unit_ns`.
    decode_unit_ns: f64,
}

/// Analytic lower bounds plus the feasible incumbents of completed waves
/// — everything [`evaluate_bounded`] consults before (and while)
/// simulating a candidate.
///
/// Frozen within a wave and updated only at wave boundaries
/// ([`absorb`](Self::absorb)), which is what keeps the pruned sweep
/// byte-identical at any worker count: a candidate's fate depends only on
/// the envelope and on *completed* waves, never on in-flight siblings.
#[derive(Debug, Clone)]
pub struct SweepBounds {
    /// Last arrival instant, seconds — the bill window every feasible
    /// fixed fleet must at least rent (billing runs from time zero).
    t_last_s: f64,
    /// Arrival span `t_last - t_first`, nanoseconds.
    span_ns: f64,
    /// Fewest requests that must meet each set SLO axis for feasibility.
    met_min: u32,
    /// Decode steps after the prefill-produced first token.
    steps: u32,
    slo_ttft_ns: Option<f64>,
    slo_e2e_ns: Option<f64>,
    /// Service-demand bounds apply only to continuous batching, whose
    /// iteration prices the unit prices provably under-estimate.
    analytic: bool,
    /// Miss budgets every bounded simulation runs under.
    stop_base: StopCondition,
    /// Autoscaler pool limits (from [`AutoscaleConfig::default`], which
    /// is what autoscaled candidates run).
    min_per_pool: u32,
    max_per_pool: u32,
    /// KV bytes one handoff moves (prompt + first token, whole blocks).
    handoff_bytes: u64,
    prices: Vec<PlatformPrice>,
    incumbents: Vec<Incumbent>,
}

impl SweepBounds {
    /// Prices the envelope and the platform menu. One pass over the
    /// arrival stream and `O(platforms × max_batch × new_tokens)` memoized
    /// latency-table lookups — negligible next to a single candidate
    /// simulation.
    #[must_use]
    pub fn new(cfg: &PlannerConfig) -> Self {
        let env = &cfg.envelope;
        let mut arrivals = env
            .arrivals()
            .stream(env.prompt_len, env.new_tokens, env.seed)
            .take(env.requests as usize);
        let first = arrivals.next();
        let last = arrivals.last().or(first);
        let at_ns = |r: Option<Request>| r.map_or(0.0, |r| r.arrival.as_nanos() as f64);
        let (t_first_ns, t_last_ns) = (at_ns(first), at_ns(last));
        let allowed = allowed_misses(env.requests, cfg.attainment_floor);
        let auto = AutoscaleConfig::default();
        let kv = KvSpec::for_model(&env.model, KvSpec::DEFAULT_BLOCK_TOKENS);
        SweepBounds {
            t_last_s: t_last_ns / 1e9,
            span_ns: t_last_ns - t_first_ns,
            met_min: env.requests - allowed,
            steps: env.new_tokens.max(1) - 1,
            slo_ttft_ns: env.slo.ttft.map(|t| t.as_nanos_f64()),
            slo_e2e_ns: env.slo.e2e.map(|t| t.as_nanos_f64()),
            analytic: matches!(cfg.policy, FleetBatchPolicy::Continuous),
            stop_base: StopCondition::for_attainment(env.requests, cfg.attainment_floor, env.slo),
            min_per_pool: auto.min_per_pool,
            max_per_pool: auto.max_per_pool,
            handoff_bytes: kv.handoff_bytes(u64::from(env.prompt_len).saturating_add(1)),
            prices: cfg
                .platforms
                .iter()
                .scan(Vec::new(), |seen: &mut Vec<String>, p| {
                    if seen.contains(&p.name) {
                        Some(None)
                    } else {
                        seen.push(p.name.clone());
                        Some(Some(price_platform(p, cfg)))
                    }
                })
                .flatten()
                .collect(),
            incumbents: Vec::new(),
        }
    }

    /// Folds a completed wave's outcomes into the incumbent set. Called
    /// once per wave boundary by [`sweep_with`]; only feasible outcomes
    /// matter, and weakly-dominated points are dropped (they add no
    /// pruning power).
    pub fn absorb(&mut self, outcomes: &[PlanOutcome]) {
        for o in outcomes.iter().filter(|o| o.feasible) {
            let cost_s = o.cost();
            let e2e_ns = o.report.e2e_p95.as_nanos_f64();
            if self
                .incumbents
                .iter()
                .any(|i| i.cost_s <= cost_s && i.e2e_ns <= e2e_ns)
            {
                continue;
            }
            self.incumbents
                .retain(|i| !(cost_s <= i.cost_s && e2e_ns <= i.e2e_ns));
            self.incumbents.push(Incumbent { cost_s, e2e_ns });
        }
    }

    fn decide(&self, cand: &PlanCandidate) -> Decision {
        if self.utilization_infeasible(cand) {
            return Decision::Skip(Resolution::PrunedInfeasible);
        }
        let lb_cost_s = self.cost_floor_s(cand);
        let lb_e2e_ns = self.e2e_floor_ns(cand);
        if let Some(e2e_lb) = lb_e2e_ns {
            // A feasible incumbent dominating the candidate's *best
            // possible* point dominates its true point too (true cost and
            // true p95 both sit at or above their bounds).
            let dominated = self.incumbents.iter().any(|i| {
                i.cost_s <= lb_cost_s
                    && i.e2e_ns <= e2e_lb
                    && (i.cost_s < lb_cost_s || i.e2e_ns < e2e_lb)
            });
            if dominated {
                return Decision::Skip(Resolution::PrunedDominated);
            }
        }
        let mut stop = self.stop_base;
        // In-flight cost cap: the cheapest incumbent at least as fast as
        // the candidate can ever be. Once the accrued bill exceeds it the
        // incumbent strictly dominates on cost, so the run may stop.
        stop.cost_ceiling = lb_e2e_ns.and_then(|e2e_lb| {
            self.incumbents
                .iter()
                .filter(|i| i.e2e_ns <= e2e_lb)
                .map(|i| i.cost_s)
                .fold(None, |m: Option<f64>, c| Some(m.map_or(c, |m| m.min(c))))
        });
        Decision::Simulate(stop)
    }

    /// The pool serving `role`: its effective size for capacity (autoscale
    /// can grow a pool to `max_per_pool`) and its cheapest unit price on
    /// each axis, each minimised over the members on its own. Returns
    /// `None` when the pool is empty or any member is missing from the
    /// price table — hand-built candidates off the menu are simply not
    /// pruned.
    fn pool_prices(&self, cand: &PlanCandidate, role: PoolRole) -> Option<PoolPrices> {
        let base = cand.spec.replicas_in(role);
        let capacity = if cand.autoscaled {
            base.max(self.max_per_pool)
        } else {
            base
        };
        Some(PoolPrices {
            replicas: f64::from(capacity),
            prefill_unit_ns: self.cheapest(cand, role, |p| p.prefill_unit_ns)?,
            decode_unit_ns: self.cheapest(cand, role, |p| p.decode_unit_ns)?,
        })
    }

    /// The analytic service-demand bound: if the work the SLO-met share
    /// of the envelope *must* perform cannot fit the candidate's
    /// replica-time inside the deadline window, no schedule is feasible.
    fn utilization_infeasible(&self, cand: &PlanCandidate) -> bool {
        if !self.analytic || self.met_min == 0 {
            return false;
        }
        let met = f64::from(self.met_min);
        let steps = f64::from(self.steps);
        // Per-request latency floors: when even the cheapest possible
        // iteration chain overshoots a target, every request misses it,
        // and the floor (which needs `met_min >= 1`) is unreachable.
        let first_token_role = if cand.spec.is_disaggregated() {
            PoolRole::Prefill
        } else {
            PoolRole::Unified
        };
        if let (Some(ttft), Some(pf_iter)) = (
            self.slo_ttft_ns,
            self.cheapest(cand, first_token_role, |p| p.prefill_iter_min_ns),
        ) {
            if pf_iter * (1.0 - BOUND_SLACK) > ttft {
                return true;
            }
        }
        if let (Some(e2e), Some(lb)) = (self.slo_e2e_ns, self.e2e_floor_ns(cand)) {
            if lb > e2e {
                return true;
            }
        }
        // `met` requests each fit inside `[first_arrival, own_arrival +
        // slo]`, so their work fits `replicas × (span + slo)`.
        let exceeds = |work_ns: f64, replicas: f64, slo_ns: f64| {
            work_ns > replicas * (self.span_ns + slo_ns) * (1.0 + BOUND_SLACK)
        };
        if cand.spec.is_disaggregated() {
            let Some(pf) = self.pool_prices(cand, PoolRole::Prefill) else {
                return false;
            };
            let Some(dec) = self.pool_prices(cand, PoolRole::Decode) else {
                return false;
            };
            if let Some(ttft) = self.slo_ttft_ns {
                if exceeds(met * pf.prefill_unit_ns, pf.replicas, ttft) {
                    return true;
                }
            }
            if let Some(e2e) = self.slo_e2e_ns {
                if exceeds(met * pf.prefill_unit_ns, pf.replicas, e2e) {
                    return true;
                }
                if self.steps > 0 {
                    if exceeds(met * steps * dec.decode_unit_ns, dec.replicas, e2e) {
                        return true;
                    }
                    // Each handoff serializes on its destination link;
                    // the decode pool owns one link per replica.
                    if let Some(transfer) = self.min_transfer_ns(cand) {
                        if exceeds(met * transfer, dec.replicas, e2e) {
                            return true;
                        }
                    }
                }
            }
        } else {
            let Some(p) = self.pool_prices(cand, PoolRole::Unified) else {
                return false;
            };
            if let Some(ttft) = self.slo_ttft_ns {
                if exceeds(met * p.prefill_unit_ns, p.replicas, ttft) {
                    return true;
                }
            }
            if let Some(e2e) = self.slo_e2e_ns {
                let work = p.prefill_unit_ns + steps * p.decode_unit_ns;
                if exceeds(met * work, p.replicas, e2e) {
                    return true;
                }
            }
        }
        false
    }

    /// Cheapest handoff transfer across the candidate's prefill×decode
    /// platform pairings, `None` for unified fleets.
    fn min_transfer_ns(&self, cand: &PlanCandidate) -> Option<f64> {
        let mut best: Option<f64> = None;
        for pf in cand
            .spec
            .groups
            .iter()
            .filter(|g| g.role == PoolRole::Prefill)
        {
            for dec in cand
                .spec
                .groups
                .iter()
                .filter(|g| g.role == PoolRole::Decode)
            {
                let t = pf
                    .platform
                    .kv_handoff_time(&dec.platform, self.handoff_bytes)
                    .as_nanos_f64();
                best = Some(best.map_or(t, |b: f64| b.min(t)));
            }
        }
        best
    }

    /// Replica-seconds any feasible run of the candidate must bill:
    /// billing runs from time zero through at least the last arrival, and
    /// each pool keeps at least its drain floor live the whole way.
    fn cost_floor_s(&self, cand: &PlanCandidate) -> f64 {
        let mut floor_replicas = 0u32;
        for g in &cand.spec.groups {
            floor_replicas += if cand.autoscaled {
                g.count.min(self.min_per_pool)
            } else {
                g.count
            };
        }
        f64::from(floor_replicas) * self.t_last_s * (1.0 - BOUND_SLACK)
    }

    /// The fastest any request can traverse the candidate — whole
    /// cheapest iterations, ignoring every queue — which lower-bounds
    /// every e2e sample and hence the report's p95. `None` when the bound
    /// does not apply (chunked policy, or off-menu platforms).
    fn e2e_floor_ns(&self, cand: &PlanCandidate) -> Option<f64> {
        if !self.analytic {
            return None;
        }
        let steps = f64::from(self.steps);
        let lb = if cand.spec.is_disaggregated() {
            let pf = self.cheapest(cand, PoolRole::Prefill, |p| p.prefill_iter_min_ns)?;
            let mut lb = pf;
            if self.steps > 0 {
                let dec = self.cheapest(cand, PoolRole::Decode, |p| p.decode_iter_min_ns)?;
                lb += steps * dec + self.min_transfer_ns(cand).unwrap_or(0.0);
            }
            lb
        } else {
            let pf = self.cheapest(cand, PoolRole::Unified, |p| p.prefill_iter_min_ns)?;
            let dec = self.cheapest(cand, PoolRole::Unified, |p| p.decode_iter_min_ns)?;
            pf + steps * dec
        };
        Some(lb * (1.0 - BOUND_SLACK))
    }

    /// Minimum of `pick` over the priced platforms serving `role`: the
    /// cheapest member on that one axis, which lower-bounds every member
    /// there. `None` when the pool is empty or holds an off-menu platform.
    fn cheapest(
        &self,
        cand: &PlanCandidate,
        role: PoolRole,
        pick: impl Fn(&PlatformPrice) -> f64,
    ) -> Option<f64> {
        let mut best: Option<f64> = None;
        for g in cand.spec.groups.iter().filter(|g| g.role == role) {
            let p = self.prices.iter().find(|p| p.name == g.platform.name)?;
            let v = pick(p);
            best = Some(best.map_or(v, |b: f64| b.min(v)));
        }
        best
    }
}

/// Prices one platform for the analytic bounds: minimum whole-iteration
/// and per-request-share costs over every batch size up to the planner's
/// cap and every decode context the envelope can produce. Minima (not
/// point samples) because the interpolated price table is not assumed
/// monotone in batch or context — the bound must under-estimate every
/// iteration the simulator could price.
fn price_platform(platform: &Platform, cfg: &PlannerConfig) -> PlatformPrice {
    let env = &cfg.envelope;
    let lat = LatencyModel::new(platform.clone(), env.model.clone());
    let prompt = env.prompt_len;
    let max_batch = cfg.max_batch.max(1);
    let mut prefill_unit = f64::INFINITY;
    let mut prefill_iter = f64::INFINITY;
    for b in 1..=max_batch {
        let d = lat.prefill(b, prompt).as_nanos_f64();
        prefill_iter = prefill_iter.min(d);
        prefill_unit = prefill_unit.min(d / f64::from(b));
    }
    let mut decode_unit = f64::INFINITY;
    let mut decode_iter = f64::INFINITY;
    let ctx_lo = prompt.saturating_add(1);
    let ctx_hi = prompt.saturating_add(env.new_tokens.max(1));
    for b in 1..=max_batch {
        for ctx in ctx_lo..=ctx_hi {
            let d = lat.decode_step(b, ctx).as_nanos_f64();
            decode_iter = decode_iter.min(d);
            decode_unit = decode_unit.min(d / f64::from(b));
        }
    }
    PlatformPrice {
        name: platform.name.clone(),
        prefill_unit_ns: prefill_unit,
        decode_unit_ns: decode_unit,
        prefill_iter_min_ns: prefill_iter,
        decode_iter_min_ns: decode_iter,
    }
}

/// Runs the whole plan serially and exhaustively: [`enumerate`], then
/// [`evaluate`] each candidate in order — the reference the pruned sweep
/// is differentially tested against. Production front ends use
/// [`plan_pruned`] (serial) or [`sweep_with`] (fanned out); both produce
/// the same [`frontier`]/[`cheapest`] as this function.
#[must_use]
pub fn plan(cfg: &PlannerConfig) -> Vec<PlanOutcome> {
    enumerate(cfg).iter().map(|c| evaluate(cfg, c)).collect()
}

/// The pruned generational sweep, serial form: waves of ascending replica
/// count, each wave's candidates scored by [`evaluate_bounded`] under the
/// bounds absorbed from completed waves.
#[must_use]
pub fn plan_pruned(cfg: &PlannerConfig) -> PlanSweep {
    sweep_with(cfg, |wave, bounds| {
        wave.iter()
            .map(|c| evaluate_bounded(cfg, c, bounds))
            .collect()
    })
}

/// The pruned generational sweep with a pluggable wave executor: the
/// planner owns wave order and bound accumulation, `run_wave` owns the
/// fan-out (serial map, `skip-bench` harness, anything that maps
/// [`evaluate_bounded`] over the wave *in order*). Outcomes are returned
/// in [`enumerate`] order regardless of wave grouping, so the sweep is
/// byte-identical to [`plan_pruned`] at any worker count.
///
/// # Panics
///
/// Panics if `run_wave` returns a different number of outcomes than the
/// wave it was given.
#[must_use]
pub fn sweep_with<F>(cfg: &PlannerConfig, mut run_wave: F) -> PlanSweep
where
    F: FnMut(Vec<PlanCandidate>, &SweepBounds) -> Vec<PlanOutcome>,
{
    let cands = enumerate(cfg);
    let total = cands.len();
    let buckets = cfg.max_replicas.max(1) as usize;
    let mut index_waves: Vec<Vec<usize>> = (0..buckets).map(|_| Vec::new()).collect();
    for (i, c) in cands.iter().enumerate() {
        let n = (c.spec.total_replicas().max(1) as usize).min(buckets);
        index_waves[n - 1].push(i);
    }
    let mut bounds = SweepBounds::new(cfg);
    let mut outcomes: Vec<Option<PlanOutcome>> = (0..total).map(|_| None).collect();
    let mut stats = SweepStats {
        candidates: total as u32,
        ..SweepStats::default()
    };
    for wave in &index_waves {
        if wave.is_empty() {
            continue;
        }
        let batch: Vec<PlanCandidate> = wave.iter().map(|&i| cands[i].clone()).collect();
        let outs = run_wave(batch, &bounds);
        assert_eq!(outs.len(), wave.len(), "wave executor must map 1:1");
        bounds.absorb(&outs);
        for (&i, o) in wave.iter().zip(outs) {
            stats.count(o.resolution);
            outcomes[i] = Some(o);
        }
    }
    PlanSweep {
        outcomes: outcomes
            .into_iter()
            .map(|o| o.expect("every candidate resolved"))
            .collect(),
        stats,
    }
}

/// The cost-optimal frontier: feasible outcomes not dominated on the
/// (replica-seconds, p95 e2e) plane — an outcome is dropped only when
/// another feasible outcome is at least as cheap *and* at least as fast,
/// and strictly better on one axis. Returned sorted by ascending cost
/// (ties by ascending p95, then enumeration order), so the first entry is
/// [`cheapest`] and the last is the latency-optimal end.
///
/// Sort-then-scan, `O(n log n)`: after sorting by (cost, p95), an outcome
/// survives iff it has its equal-cost group's minimum p95 *and* that p95
/// strictly undercuts everything strictly cheaper.
#[must_use]
pub fn frontier(outcomes: &[PlanOutcome]) -> Vec<&PlanOutcome> {
    let mut front: Vec<&PlanOutcome> = outcomes.iter().filter(|o| o.feasible).collect();
    // Stable sort: equal (cost, p95) outcomes keep enumeration order.
    front.sort_by(|a, b| {
        a.cost()
            .total_cmp(&b.cost())
            .then(a.report.e2e_p95.cmp(&b.report.e2e_p95))
    });
    let mut kept: Vec<&PlanOutcome> = Vec::with_capacity(front.len());
    let mut best_cheaper = SimDuration::MAX;
    let mut i = 0;
    while i < front.len() {
        let mut j = i + 1;
        while j < front.len() && front[j].cost() == front[i].cost() {
            j += 1;
        }
        // Sorted within the group, so the first member holds its min p95;
        // equal-point duplicates are mutually non-dominating and all kept.
        let group_min = front[i].report.e2e_p95;
        if group_min < best_cheaper {
            kept.extend(
                front[i..j]
                    .iter()
                    .filter(|o| o.report.e2e_p95 == group_min)
                    .copied(),
            );
            best_cheaper = group_min;
        }
        i = j;
    }
    kept
}

/// The cheapest feasible outcome — minimum replica-seconds, ties broken
/// by p95 e2e and then by enumeration order. `None` when no candidate
/// clears the floor (the envelope needs a bigger `max_replicas`).
#[must_use]
pub fn cheapest(outcomes: &[PlanOutcome]) -> Option<&PlanOutcome> {
    outcomes
        .iter()
        .filter(|o| o.feasible)
        .fold(None, |best, o| match best {
            Some(b) if (b.cost(), b.report.e2e_p95) <= (o.cost(), o.report.e2e_p95) => Some(b),
            _ => Some(o),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skip_llm::zoo;

    fn small_planner() -> PlannerConfig {
        let mut cfg = PlannerConfig::new(TrafficEnvelope {
            model: zoo::gpt2(),
            qps: 60.0,
            peak_qps: None,
            requests: 24,
            prompt_len: 128,
            new_tokens: 4,
            seed: 7,
            slo: SloTargets {
                ttft: Some(SimDuration::from_millis(400)),
                e2e: Some(SimDuration::from_millis(2000)),
            },
        });
        cfg.max_replicas = 3;
        cfg
    }

    #[test]
    fn enumeration_is_deterministic_ordered_and_valid() {
        let cfg = small_planner();
        let cands = enumerate(&cfg);
        assert_eq!(cands, enumerate(&cfg), "same config, same candidate list");
        // 3 platforms × 3 counts × 2 variants homogeneous, plus
        // 9 pairings × 3 splits (1+1, 1+2, 2+1) × 2 variants disaggregated.
        assert_eq!(cands.len(), 3 * 3 * 2 + 9 * 3 * 2);
        for c in &cands {
            assert!(c.spec.total_replicas() <= cfg.max_replicas, "{}", c.label());
            assert_eq!(fleet_config(&cfg, c).validate(), Ok(()), "{}", c.label());
        }
        // Labels are unique — every candidate is a distinct fleet.
        let mut labels: Vec<String> = cands.iter().map(PlanCandidate::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), cands.len());
    }

    #[test]
    fn sweep_with_runs_ascending_waves_and_returns_enumeration_order() {
        let cfg = small_planner();
        let order: Vec<String> = enumerate(&cfg).iter().map(PlanCandidate::label).collect();
        let mut waves: Vec<Vec<PlanCandidate>> = Vec::new();
        let sweep = sweep_with(&cfg, |wave, _| {
            let outs = wave
                .iter()
                .map(|c| PlanOutcome {
                    label: c.label(),
                    disagg: c.spec.is_disaggregated(),
                    autoscaled: c.autoscaled,
                    base_replicas: c.spec.total_replicas(),
                    feasible: false,
                    report: skipped_report(&cfg),
                    resolution: Resolution::PrunedInfeasible,
                })
                .collect();
            waves.push(wave);
            outs
        });
        // Waves arrive in ascending total-replica order, one size each.
        let sizes: Vec<u32> = waves.iter().map(|w| w[0].spec.total_replicas()).collect();
        assert_eq!(sizes, (1..=cfg.max_replicas).collect::<Vec<_>>());
        for (wave, &n) in waves.iter().zip(&sizes) {
            assert!(wave.iter().all(|c| c.spec.total_replicas() == n));
        }
        // Each wave keeps enumeration order.
        let pos = |c: &PlanCandidate| order.iter().position(|l| *l == c.label()).unwrap();
        for wave in &waves {
            assert!(wave.windows(2).all(|p| pos(&p[0]) < pos(&p[1])));
        }
        // Every candidate appears in exactly one wave, exactly once.
        let mut seen: Vec<usize> = waves.iter().flatten().map(pos).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..order.len()).collect::<Vec<_>>());
        // Outcomes come back in enumeration order, not wave order.
        let labels: Vec<&str> = sweep.outcomes.iter().map(|o| o.label.as_str()).collect();
        assert_eq!(labels, order);
        assert_eq!(sweep.stats.pruned_infeasible as usize, order.len());
    }

    #[test]
    fn validate_rejects_degenerate_planners() {
        let ok = small_planner();
        assert_eq!(ok.validate(), Ok(()));
        let mut bad = ok.clone();
        bad.max_replicas = 0;
        assert_eq!(bad.validate(), Err(ConfigError::AtLeastOne("max replicas")));
        let mut bad = ok.clone();
        bad.attainment_floor = 0.0;
        assert_eq!(bad.validate(), Err(ConfigError::BadAttainmentFloor(0.0)));
        let mut bad = ok.clone();
        bad.attainment_floor = 1.5;
        assert_eq!(bad.validate(), Err(ConfigError::BadAttainmentFloor(1.5)));
        let mut bad = ok.clone();
        bad.envelope.requests = 0;
        assert_eq!(bad.validate(), Err(ConfigError::ZeroRequests));
        let mut bad = ok.clone();
        bad.envelope.prompt_len = 0;
        assert_eq!(bad.validate(), Err(ConfigError::AtLeastOne("prompt_len")));
        let mut bad = ok.clone();
        bad.envelope.new_tokens = 0;
        assert_eq!(bad.validate(), Err(ConfigError::AtLeastOne("new_tokens")));
        let mut bad = ok.clone();
        bad.envelope.prompt_len = 3_000_000_000;
        bad.envelope.new_tokens = 8;
        assert_eq!(
            bad.validate(),
            Err(ConfigError::RequestTooLong(3_000_000_008))
        );
        let mut bad = ok.clone();
        bad.envelope.qps = 0.0;
        assert_eq!(
            bad.validate(),
            Err(ConfigError::NotPositive("offered load", 0.0))
        );
        for peak in [f64::INFINITY, f64::NAN, -5.0, 0.0] {
            let mut bad = ok.clone();
            bad.envelope.peak_qps = Some(peak);
            let got = bad.validate();
            assert!(
                matches!(got, Err(ConfigError::NotPositive("peak offered load", v)) if v.total_cmp(&peak).is_eq()),
                "{got:?}"
            );
        }
        // A positive peak at or below the mean is valid (it plans Poisson).
        let mut flat = ok.clone();
        flat.envelope.peak_qps = Some(flat.envelope.qps);
        assert_eq!(flat.validate(), Ok(()));
        let mut bad = ok.clone();
        bad.max_batch = 0;
        assert_eq!(bad.validate(), Err(ConfigError::AtLeastOne("max_batch")));
        let mut bad = ok.clone();
        bad.policy = FleetBatchPolicy::ChunkedPrefill { chunk_tokens: 0 };
        assert_eq!(
            bad.validate(),
            Err(ConfigError::AtLeastOne("chunked-prefill chunk_tokens"))
        );
        let mut bad = ok;
        bad.platforms.clear();
        assert_eq!(bad.validate(), Err(ConfigError::NoPlatforms));
        // Errors render actionable messages.
        assert!(ConfigError::AtLeastOne("max replicas")
            .to_string()
            .contains("at least 1"));
    }

    #[test]
    fn peaked_envelopes_turn_diurnal() {
        let mut cfg = small_planner();
        assert!(matches!(
            cfg.envelope.arrivals(),
            ArrivalProcess::Poisson { .. }
        ));
        cfg.envelope.peak_qps = Some(cfg.envelope.qps * 4.0);
        assert!(matches!(
            cfg.envelope.arrivals(),
            ArrivalProcess::Diurnal { .. }
        ));
        // A "peak" at or below the mean degenerates back to Poisson.
        cfg.envelope.peak_qps = Some(cfg.envelope.qps);
        assert!(matches!(
            cfg.envelope.arrivals(),
            ArrivalProcess::Poisson { .. }
        ));
    }

    #[test]
    fn attainment_floor_separates_feasible_from_infeasible() {
        let cfg = small_planner();
        let starved = PlanCandidate {
            spec: FleetSpec::homogeneous(Platform::amd_a100(), 1),
            autoscaled: false,
        };
        let mut strict = cfg.clone();
        strict.envelope.slo = SloTargets {
            ttft: Some(SimDuration::from_nanos(1)),
            e2e: None,
        };
        assert!(
            !evaluate(&strict, &starved).feasible,
            "a 1ns TTFT target is unattainable"
        );
        let mut generous = cfg;
        generous.envelope.slo = SloTargets {
            ttft: Some(SimDuration::from_secs(3600)),
            e2e: Some(SimDuration::from_secs(3600)),
        };
        let o = evaluate(&generous, &starved);
        assert!(o.feasible, "an hour-long target is trivially met");
        assert!(o.cost() > 0.0, "completed runs bill replica-seconds");
    }

    #[test]
    fn plan_finds_a_feasible_fleet_and_prices_it() {
        let cfg = small_planner();
        let outcomes = plan(&cfg);
        assert_eq!(outcomes.len(), enumerate(&cfg).len());
        let best = cheapest(&outcomes).expect("some fleet serves this envelope");
        assert!(best.feasible);
        // Minimality: nothing feasible is strictly cheaper.
        for o in outcomes.iter().filter(|o| o.feasible) {
            assert!(
                best.cost() <= o.cost(),
                "{} undercut {}",
                o.label,
                best.label
            );
        }
    }

    #[test]
    fn pruned_sweep_matches_the_exhaustive_frontier() {
        let cfg = small_planner();
        let exhaustive = plan(&cfg);
        let pruned = plan_pruned(&cfg);
        assert_eq!(pruned.outcomes.len(), exhaustive.len());
        assert_eq!(
            pruned.stats.candidates as usize,
            exhaustive.len(),
            "stats cover the whole space"
        );
        assert_eq!(
            pruned.stats.simulated
                + pruned.stats.aborted
                + pruned.stats.pruned_infeasible
                + pruned.stats.pruned_dominated,
            pruned.stats.candidates,
            "every candidate resolved exactly once"
        );
        assert_eq!(frontier(&pruned.outcomes), frontier(&exhaustive));
        assert_eq!(
            cheapest(&pruned.outcomes).map(|o| &o.label),
            cheapest(&exhaustive).map(|o| &o.label)
        );
        // Feasible outcomes are always full simulations and identical to
        // the exhaustive sweep's.
        for (p, e) in pruned.outcomes.iter().zip(&exhaustive) {
            if p.feasible {
                assert_eq!(p.resolution, Resolution::Simulated);
                assert_eq!(p, e, "{}", p.label);
            }
            if p.resolution != Resolution::Simulated {
                assert!(
                    p.report.aborted,
                    "{}: non-simulated must be aborted",
                    p.label
                );
                assert!(!p.feasible, "{}: non-simulated is never feasible", p.label);
            }
        }
    }

    #[test]
    fn frontier_is_sorted_feasible_and_mutually_nondominated() {
        let cfg = small_planner();
        let outcomes = plan(&cfg);
        let front = frontier(&outcomes);
        assert!(!front.is_empty(), "a feasible plan implies a frontier");
        assert_eq!(
            front[0].label,
            cheapest(&outcomes).expect("feasible").label,
            "the frontier starts at the cheapest feasible fleet"
        );
        for w in front.windows(2) {
            assert!(w[0].cost() <= w[1].cost(), "frontier sorted by cost");
            assert!(
                w[1].report.e2e_p95 <= w[0].report.e2e_p95,
                "paying more must buy latency on the frontier: {} vs {}",
                w[0].label,
                w[1].label
            );
        }
        for a in &front {
            assert!(a.feasible);
            for b in &front {
                let strictly_better = b.cost() < a.cost() && b.report.e2e_p95 < a.report.e2e_p95;
                assert!(
                    !strictly_better,
                    "{} strictly dominates {} on the frontier",
                    b.label, a.label
                );
            }
        }
    }

    #[test]
    fn infeasible_sets_have_no_frontier() {
        let mut cfg = small_planner();
        cfg.envelope.slo = SloTargets {
            ttft: Some(SimDuration::from_nanos(1)),
            e2e: None,
        };
        cfg.platforms.truncate(1);
        cfg.max_replicas = 1;
        let outcomes = plan(&cfg);
        assert!(cheapest(&outcomes).is_none());
        assert!(frontier(&outcomes).is_empty());
        // The pruned sweep agrees, and its analytic bound fires: a 1ns
        // TTFT window cannot absorb any prefill work.
        let pruned = plan_pruned(&cfg);
        assert!(cheapest(&pruned.outcomes).is_none());
        assert!(
            pruned.stats.pruned_infeasible > 0,
            "the service-demand bound rejects candidates without simulating: {:?}",
            pruned.stats
        );
    }

    #[test]
    fn cost_ceiling_aborts_cap_a_provably_worse_run() {
        // Force a tiny ceiling through a hand-built bounds object by
        // planting an absurdly good incumbent, then check the bounded
        // evaluation aborts instead of finishing.
        let cfg = small_planner();
        let mut bounds = SweepBounds::new(&cfg);
        let good = Incumbent {
            cost_s: 1e-6,
            e2e_ns: 0.0,
        };
        bounds.incumbents.push(good);
        let cand = PlanCandidate {
            spec: FleetSpec::homogeneous(Platform::intel_h100(), 2),
            autoscaled: false,
        };
        let o = evaluate_bounded(&cfg, &cand, &bounds);
        assert!(!o.feasible);
        assert!(
            matches!(
                o.resolution,
                Resolution::Aborted | Resolution::PrunedDominated
            ),
            "{:?}",
            o.resolution
        );
        assert!(o.report.aborted);
    }

    /// A mixed pool is charged its cheapest member on each axis, not one
    /// member on both: llama-3.2-1b at a 512-token prompt prefills
    /// cheapest on gh200 but decodes cheapest on intel_h100, so a bound
    /// that charged either member on both axes would over-estimate the
    /// pool's work.
    #[test]
    fn pool_bound_charges_each_axis_its_cheapest_member() {
        let mut cfg = PlannerConfig::new(TrafficEnvelope {
            model: zoo::llama32_1b(),
            qps: 10.0,
            peak_qps: None,
            requests: 24,
            prompt_len: 512,
            new_tokens: 8,
            seed: 7,
            slo: SloTargets::default(),
        });
        cfg.platforms = vec![Platform::intel_h100(), Platform::gh200()];
        let bounds = SweepBounds::new(&cfg);
        let price = |name: &str| {
            let p = bounds.prices.iter().find(|p| p.name == name);
            p.expect("priced").clone()
        };
        let (gh, h100) = (price("gh200"), price("intel_h100"));
        assert!(gh.prefill_unit_ns < h100.prefill_unit_ns, "{gh:?} {h100:?}");
        assert!(h100.decode_unit_ns < gh.decode_unit_ns, "{gh:?} {h100:?}");
        let cand = PlanCandidate {
            spec: FleetSpec::parse("gh200:1,intel_h100:1").unwrap(),
            autoscaled: false,
        };
        let pool = bounds.pool_prices(&cand, PoolRole::Unified).unwrap();
        assert_eq!(
            pool.prefill_unit_ns,
            gh.prefill_unit_ns.min(h100.prefill_unit_ns)
        );
        assert_eq!(
            pool.decode_unit_ns,
            gh.decode_unit_ns.min(h100.decode_unit_ns)
        );
        assert_eq!(pool.replicas, 2.0);
    }
}
