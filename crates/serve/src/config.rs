//! Serving configuration: batching policy, KV budget, replica routing,
//! and up-front validation.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};
use skip_des::SimDuration;
use skip_hw::Platform;
use skip_llm::ModelConfig;
use skip_mem::{KvSpec, OffloadPolicy};

use crate::observe::SloTargets;

/// Canonical wording for the checks every validator shares.
///
/// [`ConfigError`], [`FleetError`](crate::FleetError), and
/// [`PlanError`](crate::fleet::plan::PlanError) all reject the same
/// classes of mistake — zero requests, non-positive rates, zero batch and
/// replica counts, requests longer than the price grid — and historically
/// each spelled the message its own way. Routing every Display impl
/// through these helpers keeps the three validators (and the CLIs built
/// on them) word-for-word identical for identical mistakes.
pub(crate) mod check {
    use crate::latency::MAX_PRICED_LEN;

    /// A zero-request configuration: nothing to simulate.
    pub(crate) const ZERO_REQUESTS: &str = "simulate at least one request";

    /// A rate-like knob that must be positive and finite.
    pub(crate) fn positive_rate(label: &str, v: f64) -> String {
        format!("{label} must be positive and finite, got {v}")
    }

    /// A count-like knob that must be at least one.
    pub(crate) fn at_least_one(label: &str) -> String {
        format!("{label} must be at least 1")
    }

    /// A request's prompt plus output tokens, if longer than the price
    /// grid covers (the context a decode step prices reaches their sum).
    pub(crate) fn overlong(prompt_len: u32, new_tokens: u32) -> Option<u64> {
        let tokens = u64::from(prompt_len) + u64::from(new_tokens);
        (tokens > MAX_PRICED_LEN).then_some(tokens)
    }

    /// A request longer than the price grid covers.
    pub(crate) fn too_long(tokens: u64) -> String {
        format!("prompt plus output tokens must be at most {MAX_PRICED_LEN}, got {tokens}")
    }
}

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
    /// Device KV blocks available per replica.
    pub blocks_per_replica: u32,
    /// Token slots per block (16 is vLLM's default).
    pub block_tokens: u32,
    /// What to do with a preemption victim's blocks.
    pub offload: OffloadPolicy,
}

impl KvCacheConfig {
    /// A budget of `blocks` default-sized pages with the given offload
    /// policy.
    #[must_use]
    pub fn with_blocks(blocks: u32, offload: OffloadPolicy) -> Self {
        KvCacheConfig {
            blocks_per_replica: blocks,
            block_tokens: KvSpec::DEFAULT_BLOCK_TOKENS,
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

/// Why a [`ServingConfig`] cannot be simulated.
///
/// Returned by [`ServingConfig::validate`]; the `simulate*` entry points
/// treat an invalid config as a caller bug and panic with the same
/// message, so front ends that want a graceful error path (the CLI does)
/// validate first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `requests` was zero.
    ZeroRequests,
    /// `arrival_rate_per_s` was not positive and finite.
    BadArrivalRate(
        /// The offending rate.
        f64,
    ),
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
    /// A static policy with `batch_size` zero.
    ZeroStaticBatch,
    /// A continuous policy with `max_batch` zero.
    ZeroContinuousBatch,
    /// A chunked-prefill policy with `max_batch` zero.
    ZeroChunkedBatch,
    /// A chunked-prefill policy with `chunk_tokens` zero.
    ZeroChunkTokens,
    /// A KV budget with zero blocks.
    ZeroKvBlocks,
    /// A KV budget with zero tokens per block.
    ZeroBlockTokens,
    /// The KV pool cannot hold even one full request lifetime, so no
    /// schedule could ever complete it.
    KvPoolTooSmall {
        /// Configured blocks per replica.
        blocks: u32,
        /// Blocks one full request (prompt + all generated tokens) needs.
        needed: u32,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::ZeroRequests => f.write_str(check::ZERO_REQUESTS),
            ConfigError::BadArrivalRate(rate) => {
                f.write_str(&check::positive_rate("arrival rate", rate))
            }
            ConfigError::ZeroPromptLen => f.write_str(&check::at_least_one("prompt_len")),
            ConfigError::ZeroNewTokens => f.write_str(&check::at_least_one("new_tokens")),
            ConfigError::RequestTooLong(tokens) => f.write_str(&check::too_long(tokens)),
            ConfigError::ZeroStaticBatch => f.write_str(&check::at_least_one("static batch_size")),
            ConfigError::ZeroContinuousBatch => {
                f.write_str(&check::at_least_one("continuous max_batch"))
            }
            ConfigError::ZeroChunkedBatch => {
                f.write_str(&check::at_least_one("chunked-prefill max_batch"))
            }
            ConfigError::ZeroChunkTokens => {
                f.write_str(&check::at_least_one("chunked-prefill chunk_tokens"))
            }
            ConfigError::ZeroKvBlocks => f.write_str(&check::at_least_one("KV pool blocks")),
            ConfigError::ZeroBlockTokens => f.write_str(&check::at_least_one("KV block_tokens")),
            ConfigError::KvPoolTooSmall { blocks, needed } => write!(
                f,
                "KV pool of {blocks} blocks cannot hold one full request ({needed} blocks); \
                 no schedule can complete it — raise the budget to at least {needed} blocks"
            ),
        }
    }
}

impl Error for ConfigError {}

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
        if !(self.arrival_rate_per_s.is_finite() && self.arrival_rate_per_s > 0.0) {
            return Err(ConfigError::BadArrivalRate(self.arrival_rate_per_s));
        }
        if self.prompt_len == 0 {
            return Err(ConfigError::ZeroPromptLen);
        }
        if self.new_tokens == 0 {
            return Err(ConfigError::ZeroNewTokens);
        }
        if let Some(tokens) = check::overlong(self.prompt_len, self.new_tokens) {
            return Err(ConfigError::RequestTooLong(tokens));
        }
        match self.policy {
            Policy::Static { batch_size: 0, .. } => {
                return Err(ConfigError::ZeroStaticBatch);
            }
            Policy::Continuous { max_batch: 0 } => {
                return Err(ConfigError::ZeroContinuousBatch);
            }
            Policy::ChunkedPrefill {
                max_batch,
                chunk_tokens,
            } => {
                if max_batch == 0 {
                    return Err(ConfigError::ZeroChunkedBatch);
                }
                if chunk_tokens == 0 {
                    return Err(ConfigError::ZeroChunkTokens);
                }
            }
            _ => {}
        }
        if let Some(kv) = self.kv {
            if kv.blocks_per_replica == 0 {
                return Err(ConfigError::ZeroKvBlocks);
            }
            if kv.block_tokens == 0 {
                return Err(ConfigError::ZeroBlockTokens);
            }
            let spec = KvSpec::for_model(&self.model, kv.block_tokens);
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
        assert_eq!(c.validate(), Err(ConfigError::BadArrivalRate(0.0)));
        c.arrival_rate_per_s = f64::INFINITY;
        assert!(matches!(c.validate(), Err(ConfigError::BadArrivalRate(_))));

        let mut c = valid();
        c.prompt_len = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroPromptLen));

        let mut c = valid();
        c.new_tokens = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroNewTokens));

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
        assert_eq!(c.validate(), Err(ConfigError::ZeroStaticBatch));

        let mut c = valid();
        c.policy = Policy::Continuous { max_batch: 0 };
        assert_eq!(c.validate(), Err(ConfigError::ZeroContinuousBatch));

        let mut c = valid();
        c.policy = Policy::ChunkedPrefill {
            max_batch: 0,
            chunk_tokens: 64,
        };
        assert_eq!(c.validate(), Err(ConfigError::ZeroChunkedBatch));
        c.policy = Policy::ChunkedPrefill {
            max_batch: 4,
            chunk_tokens: 0,
        };
        assert_eq!(c.validate(), Err(ConfigError::ZeroChunkTokens));

        let mut c = valid();
        c.kv = Some(KvCacheConfig::with_blocks(0, OffloadPolicy::Auto));
        assert_eq!(c.validate(), Err(ConfigError::ZeroKvBlocks));

        let mut c = valid();
        c.kv = Some(KvCacheConfig {
            blocks_per_replica: 8,
            block_tokens: 0,
            offload: OffloadPolicy::Auto,
        });
        assert_eq!(c.validate(), Err(ConfigError::ZeroBlockTokens));

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
