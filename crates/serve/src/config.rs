//! Serving configuration: batching policy, KV budget, replica routing,
//! and up-front validation.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};
use skip_des::SimDuration;
use skip_hw::Platform;
use skip_llm::ModelConfig;
use skip_mem::{KvSpec, OffloadPolicy};

use crate::fleet::PoolRole;
use crate::latency::MAX_PRICED_LEN;
use crate::observe::SloTargets;

/// Batching policy of the serving endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Policy {
    /// Classic static batching: wait until `batch_size` requests are
    /// queued (or `max_wait` has passed since the oldest arrival), then
    /// run the whole batch to completion as one job.
    Static {
        /// Target batch size.
        batch_size: u32,
        /// Longest a request may wait for the batch to fill.
        max_wait: SimDuration,
    },
    /// Iteration-level continuous batching (Orca/vLLM style): new requests
    /// join at the next iteration boundary; each iteration is either a
    /// prefill for the newcomers or one decode step for the running batch.
    /// With [`ServingConfig::kv`] set, the batch is additionally bounded by
    /// the paged KV-cache pool: admission reserves prompt blocks, decode
    /// steps grow tables, and exhaustion preempts the newest request.
    Continuous {
        /// Maximum concurrent requests in the running batch.
        max_batch: u32,
    },
    /// Chunked prefill (Sarathi/vLLM style): prompts are split into
    /// fixed-token chunks and each iteration co-schedules at most
    /// `chunk_tokens` of prefill work with one decode step for every
    /// request already generating. Long prompts no longer monopolize the
    /// engine for a full-prompt prefill, bounding the per-iteration stall
    /// decode-phase requests see.
    ChunkedPrefill {
        /// Maximum concurrent requests in the running batch.
        max_batch: u32,
        /// Prefill-token budget per iteration.
        chunk_tokens: u32,
    },
}

/// Replica-routing policy of a multi-replica endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouterPolicy {
    /// One shared pending queue; idle replicas pull from it at iteration
    /// boundaries (the single-queue M/G/k discipline — the pre-router
    /// behaviour).
    SharedQueue,
    /// Arrivals are dealt to per-replica queues in rotation, blind to
    /// load.
    RoundRobin,
    /// Each arrival joins the replica with the least outstanding work
    /// (queued + running + parked), ties to the lowest replica index.
    JoinShortestQueue,
}

impl RouterPolicy {
    /// Parses a CLI spelling: `shared`, `rr`/`round-robin`,
    /// `jsq`/`join-shortest-queue`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted spellings on anything else.
    pub fn parse(s: &str) -> Result<Self, String> {
        Ok(match s {
            "shared" | "shared-queue" => RouterPolicy::SharedQueue,
            "rr" | "round-robin" => RouterPolicy::RoundRobin,
            "jsq" | "join-shortest-queue" => RouterPolicy::JoinShortestQueue,
            other => {
                return Err(format!(
                    "unknown router '{other}' (expected shared, rr, or jsq)"
                ))
            }
        })
    }

    /// Short label used in experiment tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RouterPolicy::SharedQueue => "shared",
            RouterPolicy::RoundRobin => "rr",
            RouterPolicy::JoinShortestQueue => "jsq",
        }
    }
}

impl fmt::Display for RouterPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Paged KV-cache budget and eviction policy for continuous batching and
/// chunked prefill.
///
/// `None` in [`ServingConfig::kv`] models an infinite cache (the
/// pre-memory-subsystem behaviour); `Some` bounds each replica to a block
/// pool and makes the scheduler memory-aware. [`Policy::Static`] never
/// consults the memory layer: it reserves, evicts and resumes nothing, so
/// under static batching a budget only sets the pool size a trace reports
/// (`skip serve` rejects `--kv-blocks` with `--policy static`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KvCacheConfig {
    /// Device KV blocks available per replica, each of
    /// [`KvSpec::DEFAULT_BLOCK_TOKENS`] token slots (vLLM's default).
    pub blocks_per_replica: u32,
    /// What to do with a preemption victim's blocks.
    pub offload: OffloadPolicy,
}

impl KvCacheConfig {
    /// A budget of `blocks` pages with the given offload policy.
    #[must_use]
    pub fn with_blocks(blocks: u32, offload: OffloadPolicy) -> Self {
        KvCacheConfig {
            blocks_per_replica: blocks,
            offload,
        }
    }
}

/// One serving experiment's configuration.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// The platform serving the model.
    pub platform: Platform,
    /// The model being served.
    pub model: ModelConfig,
    /// Batching policy.
    pub policy: Policy,
    /// Number of requests to simulate.
    pub requests: u32,
    /// Poisson arrival rate, requests per second.
    pub arrival_rate_per_s: f64,
    /// Prompt length of every request, tokens.
    pub prompt_len: u32,
    /// Output tokens per request.
    pub new_tokens: u32,
    /// RNG seed for the arrival process.
    pub seed: u64,
    /// Paged KV-cache budget; `None` simulates an infinite cache. Static
    /// batching never consults the memory layer, so it ignores the budget.
    pub kv: Option<KvCacheConfig>,
    /// Latency SLO targets the run is scored against (all-`None` disables
    /// SLO accounting).
    pub slo: SloTargets,
    /// How arrivals are dispatched across replicas.
    pub router: RouterPolicy,
}

/// Why a serving configuration cannot be simulated or planned.
///
/// The one error of all three serving fronts: [`ServingConfig::validate`],
/// [`FleetConfig::validate`](crate::FleetConfig::validate) and
/// [`PlannerConfig::validate`](crate::PlannerConfig::validate) return it,
/// with one variant per rule, so the same mistake reads the same words on
/// every front and in the CLIs built on them. The `simulate*` entry points
/// treat an invalid config as a caller bug and panic with the same
/// message, so front ends that want a graceful error path (the CLI does)
/// validate first.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `requests` was zero.
    ZeroRequests,
    /// A count-like knob was zero: a request's prompt or output length, a
    /// batch cap, a chunk budget, a KV pool, or the planner's replica
    /// ceiling.
    AtLeastOne(
        /// The knob, as the message names it.
        &'static str,
    ),
    /// A rate-like knob was not positive and finite: the arrival rate or
    /// the planner's (peak) offered load.
    NotPositive(
        /// The knob, as the message names it.
        &'static str,
        /// The offending value.
        f64,
    ),
    /// `prompt_len + new_tokens` is longer than the price grid's `2^31`
    /// tokens.
    RequestTooLong(
        /// The offending prompt plus output tokens.
        u64,
    ),
    /// The KV pool cannot hold even one full request lifetime, so no
    /// schedule could ever complete it.
    KvPoolTooSmall {
        /// Configured blocks per replica.
        blocks: u32,
        /// Blocks one full request (prompt + all generated tokens) needs.
        needed: u32,
    },
    /// The fleet spec has no groups.
    EmptyFleet,
    /// A fleet group with zero replicas.
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
    /// The fleet's arrival process has a non-positive or non-finite rate.
    BadArrivals(
        /// What is wrong with it.
        String,
    ),
    /// The fleet's autoscaler config is self-contradictory.
    BadAutoscale(
        /// What is wrong with it.
        String,
    ),
    /// The planner's attainment floor was outside `(0, 1]` (a zero floor
    /// makes every candidate vacuously feasible; above 1 none can ever be).
    BadAttainmentFloor(
        /// The offending floor.
        f64,
    ),
    /// The planner's platform menu is empty, so no candidate can be
    /// enumerated.
    NoPlatforms,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroRequests => f.write_str("simulate at least one request"),
            ConfigError::AtLeastOne(knob) => write!(f, "{knob} must be at least 1"),
            ConfigError::NotPositive(knob, v) => {
                write!(f, "{knob} must be positive and finite, got {v}")
            }
            ConfigError::RequestTooLong(tokens) => write!(
                f,
                "prompt plus output tokens must be at most {MAX_PRICED_LEN}, got {tokens}"
            ),
            ConfigError::KvPoolTooSmall { blocks, needed } => write!(
                f,
                "KV pool of {blocks} blocks cannot hold one full request ({needed} blocks); \
                 no schedule can complete it — raise the budget to at least {needed} blocks"
            ),
            ConfigError::EmptyFleet => f.write_str("fleet spec must declare at least one group"),
            ConfigError::ZeroCountGroup(p) => write!(f, "group '{p}' has zero replicas"),
            ConfigError::MixedUnifiedAndPools => {
                f.write_str("cannot mix unified groups with prefill=/decode= pools in one fleet")
            }
            ConfigError::MissingPool(role) => {
                write!(f, "disaggregated fleet needs a {} pool", role.label())
            }
            ConfigError::BadArrivals(msg) => write!(f, "bad arrival process: {msg}"),
            ConfigError::BadAutoscale(msg) => write!(f, "bad autoscale config: {msg}"),
            ConfigError::BadAttainmentFloor(v) => {
                write!(f, "attainment floor must be in (0, 1], got {v}")
            }
            ConfigError::NoPlatforms => f.write_str("the platform menu is empty"),
        }
    }
}

impl Error for ConfigError {}

/// Rejects a rate-like knob that is not positive and finite.
pub(crate) fn check_positive(knob: &'static str, v: f64) -> Result<(), ConfigError> {
    if v.is_finite() && v > 0.0 {
        Ok(())
    } else {
        Err(ConfigError::NotPositive(knob, v))
    }
}

/// The request-shape rules both config validators share. An empty prompt
/// never prefills, so no first token is ever stamped; a zero-output
/// request would still emit its first token and be billed as a one-token
/// one; and a decode step prices the context `prompt_len + new_tokens`,
/// which the price grid must cover.
pub(crate) fn check_request_shape(prompt_len: u32, new_tokens: u32) -> Result<(), ConfigError> {
    if prompt_len == 0 {
        return Err(ConfigError::AtLeastOne("prompt_len"));
    }
    if new_tokens == 0 {
        return Err(ConfigError::AtLeastOne("new_tokens"));
    }
    let tokens = u64::from(prompt_len) + u64::from(new_tokens);
    if tokens > MAX_PRICED_LEN {
        return Err(ConfigError::RequestTooLong(tokens));
    }
    Ok(())
}

impl ServingConfig {
    /// Checks every knob the simulator depends on, returning the first
    /// violation.
    ///
    /// The `simulate*` entry points call this and panic on `Err` (an
    /// invalid config is a caller bug there); call it yourself first to
    /// turn bad input into an actionable message instead — see
    /// [`ConfigError`].
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] the configuration violates.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.requests == 0 {
            return Err(ConfigError::ZeroRequests);
        }
        check_positive("arrival rate", self.arrival_rate_per_s)?;
        check_request_shape(self.prompt_len, self.new_tokens)?;
        let zero_knob = match self.policy {
            Policy::Static { batch_size: 0, .. } => Some("static batch_size"),
            Policy::Continuous { max_batch: 0 } => Some("continuous max_batch"),
            Policy::ChunkedPrefill { max_batch: 0, .. } => Some("chunked-prefill max_batch"),
            Policy::ChunkedPrefill {
                chunk_tokens: 0, ..
            } => Some("chunked-prefill chunk_tokens"),
            _ => None,
        };
        if let Some(knob) = zero_knob {
            return Err(ConfigError::AtLeastOne(knob));
        }
        if let Some(kv) = self.kv {
            if kv.blocks_per_replica == 0 {
                return Err(ConfigError::AtLeastOne("KV pool blocks"));
            }
            let spec = KvSpec::for_model(&self.model, KvSpec::DEFAULT_BLOCK_TOKENS);
            let needed = spec.blocks_for(u64::from(self.prompt_len) + u64::from(self.new_tokens));
            if kv.blocks_per_replica < needed {
                return Err(ConfigError::KvPoolTooSmall {
                    blocks: kv.blocks_per_replica,
                    needed,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skip_llm::zoo;

    fn valid() -> ServingConfig {
        ServingConfig {
            platform: Platform::intel_h100(),
            model: zoo::gpt2(),
            policy: Policy::Continuous { max_batch: 8 },
            requests: 10,
            arrival_rate_per_s: 20.0,
            prompt_len: 128,
            new_tokens: 4,
            seed: 1,
            kv: None,
            slo: SloTargets::default(),
            router: RouterPolicy::SharedQueue,
        }
    }

    #[test]
    fn valid_config_passes() {
        assert_eq!(valid().validate(), Ok(()));
    }

    #[test]
    fn each_violation_maps_to_its_error() {
        let mut c = valid();
        c.requests = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroRequests));

        let mut c = valid();
        c.arrival_rate_per_s = 0.0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::NotPositive("arrival rate", 0.0))
        );
        c.arrival_rate_per_s = f64::INFINITY;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::NotPositive("arrival rate", _))
        ));

        let mut c = valid();
        c.prompt_len = 0;
        assert_eq!(c.validate(), Err(ConfigError::AtLeastOne("prompt_len")));

        let mut c = valid();
        c.new_tokens = 0;
        assert_eq!(c.validate(), Err(ConfigError::AtLeastOne("new_tokens")));

        // The price grid's top point is fine; one token past it is not.
        let mut c = valid();
        c.prompt_len = (1 << 31) - 4;
        assert_eq!(c.validate(), Ok(()));
        c.prompt_len = 3_000_000_000;
        assert_eq!(
            c.validate(),
            Err(ConfigError::RequestTooLong(3_000_000_004))
        );
        c.prompt_len = 1 << 31;
        c.new_tokens = 1;
        assert_eq!(
            c.validate(),
            Err(ConfigError::RequestTooLong((1 << 31) + 1))
        );

        let mut c = valid();
        c.policy = Policy::Static {
            batch_size: 0,
            max_wait: SimDuration::from_millis(10),
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::AtLeastOne("static batch_size"))
        );

        let mut c = valid();
        c.policy = Policy::Continuous { max_batch: 0 };
        assert_eq!(
            c.validate(),
            Err(ConfigError::AtLeastOne("continuous max_batch"))
        );

        let mut c = valid();
        c.policy = Policy::ChunkedPrefill {
            max_batch: 0,
            chunk_tokens: 64,
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::AtLeastOne("chunked-prefill max_batch"))
        );
        c.policy = Policy::ChunkedPrefill {
            max_batch: 4,
            chunk_tokens: 0,
        };
        assert_eq!(
            c.validate(),
            Err(ConfigError::AtLeastOne("chunked-prefill chunk_tokens"))
        );

        let mut c = valid();
        c.kv = Some(KvCacheConfig::with_blocks(0, OffloadPolicy::Auto));
        assert_eq!(c.validate(), Err(ConfigError::AtLeastOne("KV pool blocks")));

        let mut c = valid();
        c.kv = Some(KvCacheConfig::with_blocks(1, OffloadPolicy::Auto));
        assert!(matches!(
            c.validate(),
            Err(ConfigError::KvPoolTooSmall { blocks: 1, .. })
        ));
    }

    #[test]
    fn errors_render_actionable_messages() {
        let msg = ConfigError::KvPoolTooSmall {
            blocks: 3,
            needed: 9,
        }
        .to_string();
        assert!(msg.contains("cannot hold one full request"));
        assert!(msg.contains("at least 9 blocks"));
        assert!(ConfigError::ZeroRequests
            .to_string()
            .contains("at least one request"));
    }

    /// Every message the three serving fronts render, word for word: one
    /// row per template (the missing pool once per role). The strings
    /// were captured from the per-front error enums this one merged, so
    /// front ends and the CLI print what they printed before.
    #[test]
    fn every_rule_keeps_its_wording() {
        let rows: Vec<(ConfigError, &str)> = vec![
            (ConfigError::ZeroRequests, "simulate at least one request"),
            (ConfigError::NotPositive("arrival rate", 0.0), "arrival rate must be positive and finite, got 0"),
            (ConfigError::AtLeastOne("prompt_len"), "prompt_len must be at least 1"),
            (ConfigError::AtLeastOne("new_tokens"), "new_tokens must be at least 1"),
            (ConfigError::RequestTooLong(4_294_967_299), "prompt plus output tokens must be at most 2147483648, got 4294967299"),
            (ConfigError::AtLeastOne("static batch_size"), "static batch_size must be at least 1"),
            (ConfigError::AtLeastOne("continuous max_batch"), "continuous max_batch must be at least 1"),
            (ConfigError::AtLeastOne("chunked-prefill max_batch"), "chunked-prefill max_batch must be at least 1"),
            (ConfigError::AtLeastOne("chunked-prefill chunk_tokens"), "chunked-prefill chunk_tokens must be at least 1"),
            (ConfigError::AtLeastOne("KV pool blocks"), "KV pool blocks must be at least 1"),
            (ConfigError::KvPoolTooSmall { blocks: 3, needed: 9 }, "KV pool of 3 blocks cannot hold one full request (9 blocks); no schedule can complete it — raise the budget to at least 9 blocks"),
            (ConfigError::EmptyFleet, "fleet spec must declare at least one group"),
            (ConfigError::ZeroCountGroup("gh200".into()), "group 'gh200' has zero replicas"),
            (ConfigError::MixedUnifiedAndPools, "cannot mix unified groups with prefill=/decode= pools in one fleet"),
            (ConfigError::MissingPool(PoolRole::Prefill), "disaggregated fleet needs a prefill pool"),
            (ConfigError::MissingPool(PoolRole::Decode), "disaggregated fleet needs a decode pool"),
            (ConfigError::AtLeastOne("max_batch"), "max_batch must be at least 1"),
            (ConfigError::BadArrivals("rate must be positive and finite, got 0".into()), "bad arrival process: rate must be positive and finite, got 0"),
            (ConfigError::BadAutoscale("interval must be positive".into()), "bad autoscale config: interval must be positive"),
            (ConfigError::AtLeastOne("max replicas"), "max replicas must be at least 1"),
            (ConfigError::BadAttainmentFloor(1.5), "attainment floor must be in (0, 1], got 1.5"),
            (ConfigError::NotPositive("offered load", f64::NAN), "offered load must be positive and finite, got NaN"),
            (ConfigError::NotPositive("peak offered load", f64::INFINITY), "peak offered load must be positive and finite, got inf"),
            (ConfigError::NoPlatforms, "the platform menu is empty"),
        ];
        assert_eq!(rows.len(), 24);
        for (err, want) in rows {
            assert_eq!(err.to_string(), want, "{err:?}");
        }
    }

    #[test]
    fn router_parse_round_trips_labels() {
        for r in [
            RouterPolicy::SharedQueue,
            RouterPolicy::RoundRobin,
            RouterPolicy::JoinShortestQueue,
        ] {
            assert_eq!(RouterPolicy::parse(r.label()), Ok(r));
        }
        assert_eq!(
            RouterPolicy::parse("round-robin"),
            Ok(RouterPolicy::RoundRobin)
        );
        assert!(RouterPolicy::parse("nope").is_err());
    }
}
