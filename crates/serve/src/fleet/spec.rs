//! Fleet topology: which platforms, how many replicas, which pool.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};
use skip_hw::Platform;
use skip_llm::ModelConfig;

use crate::config::check;
use crate::fleet::arrivals::ArrivalProcess;
use crate::fleet::autoscale::AutoscaleConfig;
use crate::observe::SloTargets;

/// Which pool a replica group serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PoolRole {
    /// Runs both phases with continuous batching (the PR 5 floor's
    /// behaviour) — the homogeneous/heterogeneous *non*-disaggregated
    /// case.
    Unified,
    /// Runs prompt prefills only, then hands the KV cache off.
    Prefill,
    /// Receives prefilled KV caches and runs decode steps to completion.
    Decode,
}

impl PoolRole {
    /// Short label used in spec strings and experiment tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            PoolRole::Unified => "unified",
            PoolRole::Prefill => "prefill",
            PoolRole::Decode => "decode",
        }
    }
}

/// A group of identical replicas: one platform, one pool, `count` copies.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaGroup {
    /// The platform every replica in the group runs on.
    pub platform: Platform,
    /// Number of replicas.
    pub count: u32,
    /// The pool the group serves.
    pub role: PoolRole,
}

/// A deployment's replica topology: one or more [`ReplicaGroup`]s,
/// possibly mixing platforms and pools.
///
/// # Example
///
/// ```
/// use skip_serve::FleetSpec;
///
/// let hom = FleetSpec::parse("intel_h100:4").unwrap();
/// assert!(!hom.is_disaggregated());
/// let dis = FleetSpec::parse("prefill=gh200:2,decode=intel_h100:2").unwrap();
/// assert!(dis.is_disaggregated());
/// assert_eq!(dis.total_replicas(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    /// The replica groups, in declaration order.
    pub groups: Vec<ReplicaGroup>,
}

impl FleetSpec {
    /// A fleet of `count` identical unified replicas.
    #[must_use]
    pub fn homogeneous(platform: Platform, count: u32) -> Self {
        FleetSpec {
            groups: vec![ReplicaGroup {
                platform,
                count,
                role: PoolRole::Unified,
            }],
        }
    }

    /// A disaggregated fleet: `prefill_count` prefill replicas on
    /// `prefill` and `decode_count` decode replicas on `decode`.
    #[must_use]
    pub fn disaggregated(
        prefill: Platform,
        prefill_count: u32,
        decode: Platform,
        decode_count: u32,
    ) -> Self {
        FleetSpec {
            groups: vec![
                ReplicaGroup {
                    platform: prefill,
                    count: prefill_count,
                    role: PoolRole::Prefill,
                },
                ReplicaGroup {
                    platform: decode,
                    count: decode_count,
                    role: PoolRole::Decode,
                },
            ],
        }
    }

    /// Parses a CLI fleet spec: comma-separated
    /// `[prefill=|decode=]<platform>:<count>` entries, e.g.
    /// `gh200:2,intel_h100:2` (unified heterogeneous) or
    /// `prefill=gh200:2,decode=intel_h100:2` (disaggregated). Platforms
    /// are `amd_a100`, `intel_h100`, `gh200`, or `mi300a`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed entry.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut groups = Vec::new();
        for entry in s.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                return Err("empty fleet entry".into());
            }
            let (role, rest) = match entry.split_once('=') {
                Some(("prefill", rest)) => (PoolRole::Prefill, rest),
                Some(("decode", rest)) => (PoolRole::Decode, rest),
                Some((other, _)) => {
                    return Err(format!(
                        "unknown pool '{other}' in '{entry}' (expected prefill= or decode=)"
                    ))
                }
                None => (PoolRole::Unified, entry),
            };
            let (name, count) = rest
                .split_once(':')
                .ok_or_else(|| format!("'{entry}' is not <platform>:<count>"))?;
            let platform = match name {
                "amd_a100" => Platform::amd_a100(),
                "intel_h100" => Platform::intel_h100(),
                "gh200" => Platform::gh200(),
                "mi300a" => Platform::mi300a(),
                other => return Err(format!("unknown platform '{other}' in '{entry}'")),
            };
            let count: u32 = count
                .parse()
                .map_err(|_| format!("bad replica count in '{entry}'"))?;
            groups.push(ReplicaGroup {
                platform,
                count,
                role,
            });
        }
        Ok(FleetSpec { groups })
    }

    /// `true` when the spec declares prefill/decode pools.
    #[must_use]
    pub fn is_disaggregated(&self) -> bool {
        self.groups.iter().any(|g| g.role != PoolRole::Unified)
    }

    /// Replicas across all groups.
    #[must_use]
    pub fn total_replicas(&self) -> u32 {
        self.groups.iter().map(|g| g.count).sum()
    }

    /// Replicas serving `role`.
    #[must_use]
    pub fn replicas_in(&self, role: PoolRole) -> u32 {
        self.groups
            .iter()
            .filter(|g| g.role == role)
            .map(|g| g.count)
            .sum()
    }

    /// Canonical spec string (inverse of [`parse`](Self::parse) up to
    /// whitespace).
    #[must_use]
    pub fn label(&self) -> String {
        self.groups
            .iter()
            .map(|g| match g.role {
                PoolRole::Unified => format!("{}:{}", g.platform.name, g.count),
                role => format!("{}={}:{}", role.label(), g.platform.name, g.count),
            })
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Rewrites an untagged multi-group spec into a disaggregated one:
    /// the first group prefills, the remaining groups decode. Specs that
    /// already carry roles are returned unchanged.
    ///
    /// # Errors
    ///
    /// Returns a message when the spec has only one untagged group, so
    /// there is nothing to split into two pools.
    pub fn into_disaggregated(mut self) -> Result<Self, String> {
        if self.is_disaggregated() {
            return Ok(self);
        }
        if self.groups.len() < 2 {
            return Err(
                "disaggregation needs at least two groups (or explicit prefill=/decode= roles)"
                    .into(),
            );
        }
        for (i, g) in self.groups.iter_mut().enumerate() {
            g.role = if i == 0 {
                PoolRole::Prefill
            } else {
                PoolRole::Decode
            };
        }
        Ok(self)
    }
}

impl fmt::Display for FleetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Replica-routing policy for fleet dispatch (arrivals onto the prefill
/// or unified pool, handoffs onto the decode pool).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FleetRouterPolicy {
    /// Deal to eligible replicas in rotation, blind to load and platform.
    RoundRobin,
    /// Join the eligible replica with the least outstanding work (queued +
    /// running + inbound handoffs), ties to the lowest index.
    JoinShortestQueue,
    /// Join the replica with the least outstanding *time*: outstanding
    /// work weighted by the platform's per-request service estimate from
    /// its [`LatencyModel`](crate::LatencyModel), so a gh200 queue of 3
    /// and an amd_a100 queue of 3 are not the same thing. Degenerates to
    /// [`JoinShortestQueue`](Self::JoinShortestQueue) on a homogeneous
    /// fleet.
    CostModelJsq,
}

impl FleetRouterPolicy {
    /// Parses a CLI spelling: `rr`/`round-robin`,
    /// `jsq`/`join-shortest-queue`, `cost`/`cost-jsq`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted spellings on anything else.
    pub fn parse(s: &str) -> Result<Self, String> {
        Ok(match s {
            "rr" | "round-robin" => FleetRouterPolicy::RoundRobin,
            "jsq" | "join-shortest-queue" => FleetRouterPolicy::JoinShortestQueue,
            "cost" | "cost-jsq" => FleetRouterPolicy::CostModelJsq,
            other => {
                return Err(format!(
                    "unknown fleet router '{other}' (expected rr, jsq, or cost)"
                ))
            }
        })
    }

    /// Short label used in experiment tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FleetRouterPolicy::RoundRobin => "rr",
            FleetRouterPolicy::JoinShortestQueue => "jsq",
            FleetRouterPolicy::CostModelJsq => "cost-jsq",
        }
    }
}

impl fmt::Display for FleetRouterPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Iteration-forming policy every replica in the fleet runs — the PR 5
/// batching-policy seam carried over to the fleet floor. Static batching
/// has no fleet analogue (its flush timers belong to the single-platform
/// floor), so the fleet menu is continuous vs. chunked prefill.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum FleetBatchPolicy {
    /// Prefill-priority continuous batching (the PR 6 behaviour): when
    /// any admitted request still needs its prompt, the iteration
    /// prefills those requests whole while decoders idle.
    #[default]
    Continuous,
    /// Sarathi-style chunked prefill: each iteration spends at most
    /// `chunk_tokens` prompt tokens (split across requests) and
    /// co-schedules a decode step for every prefilled request, so long
    /// prompts stop stalling decode. On a disaggregated fleet the prefill
    /// pool chunks prompts and hands off exactly as the continuous floor
    /// does once the final chunk lands.
    ChunkedPrefill {
        /// Prefill-token budget per iteration.
        chunk_tokens: u32,
    },
}

impl FleetBatchPolicy {
    /// Short label used in experiment tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FleetBatchPolicy::Continuous => "continuous",
            FleetBatchPolicy::ChunkedPrefill { .. } => "chunked",
        }
    }
}

impl fmt::Display for FleetBatchPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetBatchPolicy::Continuous => f.write_str("continuous"),
            FleetBatchPolicy::ChunkedPrefill { chunk_tokens } => {
                write!(f, "chunked:{chunk_tokens}")
            }
        }
    }
}

/// One fleet simulation's configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The replica topology.
    pub spec: FleetSpec,
    /// The model every replica serves.
    pub model: ModelConfig,
    /// Continuous-batching cap per replica.
    pub max_batch: u32,
    /// Number of requests to simulate.
    pub requests: u32,
    /// The arrival process.
    pub arrivals: ArrivalProcess,
    /// Prompt length of every request, tokens.
    pub prompt_len: u32,
    /// Output tokens per request.
    pub new_tokens: u32,
    /// RNG seed for the arrival process.
    pub seed: u64,
    /// Latency SLO targets the run is scored against.
    pub slo: SloTargets,
    /// How arrivals and handoffs are dispatched.
    pub router: FleetRouterPolicy,
    /// How each replica forms iterations.
    pub policy: FleetBatchPolicy,
    /// Arrival-driven scaling; `None` keeps the fleet fixed.
    pub autoscale: Option<AutoscaleConfig>,
}

/// Why a [`FleetConfig`] cannot be simulated.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// The spec has no groups.
    EmptyFleet,
    /// A group with zero replicas.
    ZeroCountGroup(
        /// The offending group's platform name.
        String,
    ),
    /// Prefill and Unified (or Decode and Unified) groups in one spec.
    MixedUnifiedAndPools,
    /// A disaggregated spec missing one of the two pools.
    MissingPool(
        /// The absent pool.
        PoolRole,
    ),
    /// `requests` was zero.
    ZeroRequests,
    /// `prompt_len` was zero: an empty prompt never prefills, so no first
    /// token is ever stamped.
    ZeroPromptLen,
    /// `new_tokens` was zero: every request emits at least its first token,
    /// so a zero-output request would be served and billed as a one-token
    /// one.
    ZeroNewTokens,
    /// `prompt_len + new_tokens` is longer than the price grid's `2^31`
    /// tokens.
    RequestTooLong(
        /// The offending prompt plus output tokens.
        u64,
    ),
    /// `max_batch` was zero.
    ZeroMaxBatch,
    /// Chunked prefill with a zero token budget.
    ZeroChunkTokens,
    /// The arrival process has a non-positive or non-finite rate.
    BadArrivals(
        /// What is wrong with it.
        String,
    ),
    /// The autoscaler config is self-contradictory.
    BadAutoscale(
        /// What is wrong with it.
        String,
    ),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::EmptyFleet => write!(f, "fleet spec must declare at least one group"),
            FleetError::ZeroCountGroup(p) => {
                write!(f, "group '{p}' has zero replicas")
            }
            FleetError::MixedUnifiedAndPools => write!(
                f,
                "cannot mix unified groups with prefill=/decode= pools in one fleet"
            ),
            FleetError::MissingPool(role) => {
                write!(f, "disaggregated fleet needs a {} pool", role.label())
            }
            FleetError::ZeroRequests => f.write_str(check::ZERO_REQUESTS),
            FleetError::ZeroPromptLen => f.write_str(&check::at_least_one("prompt_len")),
            FleetError::ZeroNewTokens => f.write_str(&check::at_least_one("new_tokens")),
            FleetError::RequestTooLong(tokens) => f.write_str(&check::too_long(*tokens)),
            FleetError::ZeroMaxBatch => f.write_str(&check::at_least_one("max_batch")),
            FleetError::ZeroChunkTokens => {
                f.write_str(&check::at_least_one("chunked-prefill chunk_tokens"))
            }
            FleetError::BadArrivals(msg) => write!(f, "bad arrival process: {msg}"),
            FleetError::BadAutoscale(msg) => write!(f, "bad autoscale config: {msg}"),
        }
    }
}

impl Error for FleetError {}

impl FleetConfig {
    /// Checks every knob the fleet simulator depends on, returning the
    /// first violation. The `simulate_fleet*` entry points panic on an
    /// invalid config; front ends wanting a graceful error path (the CLI
    /// does) validate first.
    ///
    /// # Errors
    ///
    /// Returns the first [`FleetError`] the configuration violates.
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.spec.groups.is_empty() {
            return Err(FleetError::EmptyFleet);
        }
        if let Some(g) = self.spec.groups.iter().find(|g| g.count == 0) {
            return Err(FleetError::ZeroCountGroup(g.platform.name.clone()));
        }
        if self.spec.is_disaggregated() {
            if self.spec.groups.iter().any(|g| g.role == PoolRole::Unified) {
                return Err(FleetError::MixedUnifiedAndPools);
            }
            for role in [PoolRole::Prefill, PoolRole::Decode] {
                if self.spec.replicas_in(role) == 0 {
                    return Err(FleetError::MissingPool(role));
                }
            }
        }
        if self.requests == 0 {
            return Err(FleetError::ZeroRequests);
        }
        if self.prompt_len == 0 {
            return Err(FleetError::ZeroPromptLen);
        }
        if self.new_tokens == 0 {
            return Err(FleetError::ZeroNewTokens);
        }
        if let Some(tokens) = check::overlong(self.prompt_len, self.new_tokens) {
            return Err(FleetError::RequestTooLong(tokens));
        }
        if self.max_batch == 0 {
            return Err(FleetError::ZeroMaxBatch);
        }
        if self.policy == (FleetBatchPolicy::ChunkedPrefill { chunk_tokens: 0 }) {
            return Err(FleetError::ZeroChunkTokens);
        }
        self.arrivals.validate().map_err(FleetError::BadArrivals)?;
        if let Some(a) = &self.autoscale {
            a.validate().map_err(FleetError::BadAutoscale)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skip_llm::zoo;

    fn valid() -> FleetConfig {
        FleetConfig {
            spec: FleetSpec::disaggregated(Platform::gh200(), 2, Platform::intel_h100(), 2),
            model: zoo::gpt2(),
            max_batch: 8,
            requests: 10,
            arrivals: ArrivalProcess::Poisson { rate_per_s: 40.0 },
            prompt_len: 128,
            new_tokens: 8,
            seed: 1,
            slo: SloTargets::default(),
            router: FleetRouterPolicy::CostModelJsq,
            policy: FleetBatchPolicy::default(),
            autoscale: None,
        }
    }

    #[test]
    fn parse_round_trips_labels() {
        for s in [
            "intel_h100:4",
            "gh200:2,amd_a100:2",
            "prefill=gh200:2,decode=intel_h100:2",
            "prefill=mi300a:1,decode=amd_a100:3",
        ] {
            let spec = FleetSpec::parse(s).unwrap();
            assert_eq!(spec.label(), s);
            assert_eq!(FleetSpec::parse(&spec.label()).unwrap(), spec);
        }
    }

    #[test]
    fn parse_rejects_malformed_entries() {
        assert!(FleetSpec::parse("").is_err());
        assert!(FleetSpec::parse("intel_h100").is_err());
        assert!(FleetSpec::parse("b200:4").is_err());
        assert!(FleetSpec::parse("gh200:two").is_err());
        assert!(FleetSpec::parse("encode=gh200:1").is_err());
    }

    #[test]
    fn untagged_spec_splits_into_pools() {
        let spec = FleetSpec::parse("gh200:2,intel_h100:2")
            .unwrap()
            .into_disaggregated()
            .unwrap();
        assert_eq!(spec.groups[0].role, PoolRole::Prefill);
        assert_eq!(spec.groups[1].role, PoolRole::Decode);
        // Already-tagged specs pass through; single groups cannot split.
        assert!(FleetSpec::parse("gh200:4")
            .unwrap()
            .into_disaggregated()
            .is_err());
    }

    #[test]
    fn valid_config_passes() {
        assert_eq!(valid().validate(), Ok(()));
    }

    #[test]
    fn each_violation_maps_to_its_error() {
        let mut c = valid();
        c.spec.groups.clear();
        assert_eq!(c.validate(), Err(FleetError::EmptyFleet));

        let mut c = valid();
        c.spec.groups[0].count = 0;
        assert!(matches!(c.validate(), Err(FleetError::ZeroCountGroup(_))));

        let mut c = valid();
        c.spec.groups[0].role = PoolRole::Unified;
        assert_eq!(c.validate(), Err(FleetError::MixedUnifiedAndPools));

        let mut c = valid();
        c.spec.groups[1].role = PoolRole::Prefill;
        assert_eq!(c.validate(), Err(FleetError::MissingPool(PoolRole::Decode)));

        let mut c = valid();
        c.requests = 0;
        assert_eq!(c.validate(), Err(FleetError::ZeroRequests));

        let mut c = valid();
        c.prompt_len = 0;
        assert_eq!(c.validate(), Err(FleetError::ZeroPromptLen));

        let mut c = valid();
        c.new_tokens = 0;
        assert_eq!(c.validate(), Err(FleetError::ZeroNewTokens));

        let mut c = valid();
        c.prompt_len = 3_000_000_000;
        assert_eq!(
            c.validate(),
            Err(FleetError::RequestTooLong(
                3_000_000_000 + u64::from(c.new_tokens)
            ))
        );

        let mut c = valid();
        c.max_batch = 0;
        assert_eq!(c.validate(), Err(FleetError::ZeroMaxBatch));

        let mut c = valid();
        c.policy = FleetBatchPolicy::ChunkedPrefill { chunk_tokens: 0 };
        assert_eq!(c.validate(), Err(FleetError::ZeroChunkTokens));

        let mut c = valid();
        c.arrivals = ArrivalProcess::Poisson { rate_per_s: 0.0 };
        assert!(matches!(c.validate(), Err(FleetError::BadArrivals(_))));

        let mut c = valid();
        c.autoscale = Some(AutoscaleConfig {
            min_per_pool: 5,
            max_per_pool: 2,
            ..AutoscaleConfig::default()
        });
        assert!(matches!(c.validate(), Err(FleetError::BadAutoscale(_))));
    }

    #[test]
    fn router_parse_round_trips_labels() {
        for r in [
            FleetRouterPolicy::RoundRobin,
            FleetRouterPolicy::JoinShortestQueue,
            FleetRouterPolicy::CostModelJsq,
        ] {
            assert_eq!(FleetRouterPolicy::parse(r.label()), Ok(r));
        }
        assert!(FleetRouterPolicy::parse("nope").is_err());
    }

    #[test]
    fn errors_render_actionable_messages() {
        assert!(FleetError::MixedUnifiedAndPools
            .to_string()
            .contains("cannot mix"));
        assert!(FleetError::MissingPool(PoolRole::Decode)
            .to_string()
            .contains("decode pool"));
    }
}
