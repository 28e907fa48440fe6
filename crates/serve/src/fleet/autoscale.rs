//! Arrival-driven fleet scaling.
//!
//! A reactive autoscaler samples per-pool pressure (outstanding requests
//! per up replica) on a fixed tick and launches or drains replicas
//! against watermarks. Launching is not free: a new replica pays a
//! provisioning delay plus the time to load the model weights over its
//! platform's interconnect — the same coupling-priced `h2d_transfer`
//! every other byte in the simulator pays, which is why a gh200 replica
//! comes up faster than a PCIe-attached one despite identical weights.

use serde::{Deserialize, Serialize};
use skip_des::{SimDuration, SimTime};

use crate::config::ConfigError;
use crate::fleet::spec::PoolRole;

/// Autoscaler knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoscaleConfig {
    /// Time between scaling decisions.
    pub interval: SimDuration,
    /// Outstanding requests per up replica above which a pool scales up.
    pub high_load: f64,
    /// Outstanding requests per up replica below which a pool scales
    /// down.
    pub low_load: f64,
    /// Replicas a pool never drains below.
    pub min_per_pool: u32,
    /// Replicas a pool never grows beyond.
    pub max_per_pool: u32,
    /// Fixed provisioning delay before a launching replica starts its
    /// weight load (container start, scheduling, etc.).
    pub provision_delay: SimDuration,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            interval: SimDuration::from_millis(250),
            high_load: 8.0,
            low_load: 1.0,
            min_per_pool: 1,
            max_per_pool: 8,
            provision_delay: SimDuration::from_millis(500),
        }
    }
}

impl AutoscaleConfig {
    /// Checks the knobs for self-consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first bad knob.
    pub fn validate(&self) -> Result<(), String> {
        if self.interval.is_zero() {
            return Err("interval must be positive".into());
        }
        if !(self.high_load.is_finite() && self.high_load > 0.0) {
            return Err(format!(
                "high_load must be positive, got {}",
                self.high_load
            ));
        }
        if !(self.low_load.is_finite() && self.low_load >= 0.0) {
            return Err(format!(
                "low_load must be non-negative, got {}",
                self.low_load
            ));
        }
        if self.low_load >= self.high_load {
            return Err(format!(
                "low_load {} must sit below high_load {}",
                self.low_load, self.high_load
            ));
        }
        if self.min_per_pool == 0 {
            return Err(ConfigError::AtLeastOne("min_per_pool").to_string());
        }
        if self.max_per_pool < self.min_per_pool {
            return Err(format!(
                "max_per_pool {} below min_per_pool {}",
                self.max_per_pool, self.min_per_pool
            ));
        }
        Ok(())
    }
}

/// What a scaling decision did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleAction {
    /// A new replica started provisioning (delay + weight load pending).
    LaunchRequested,
    /// The replica finished its weight load and joined the pool.
    Up,
    /// The replica stopped accepting work and is finishing its backlog.
    DrainRequested,
    /// The drained replica left the pool.
    Down,
}

/// One autoscaler decision, recorded in the fleet trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalingEvent {
    /// When the decision landed.
    pub at: SimTime,
    /// The pool it affected.
    pub pool: PoolRole,
    /// The replica index it affected.
    pub replica: u32,
    /// What happened.
    pub action: ScaleAction,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(AutoscaleConfig::default().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_inconsistent_knobs() {
        let ok = AutoscaleConfig::default();
        let cases: Vec<(AutoscaleConfig, &str)> = vec![
            (
                AutoscaleConfig {
                    interval: SimDuration::ZERO,
                    ..ok
                },
                "interval",
            ),
            (
                AutoscaleConfig {
                    high_load: 0.0,
                    ..ok
                },
                "high_load",
            ),
            (
                AutoscaleConfig {
                    low_load: 9.0,
                    ..ok
                },
                "below high_load",
            ),
            (
                AutoscaleConfig {
                    min_per_pool: 0,
                    ..ok
                },
                "min_per_pool",
            ),
            (
                AutoscaleConfig {
                    max_per_pool: 0,
                    ..ok
                },
                "max_per_pool",
            ),
        ];
        for (cfg, needle) in cases {
            let err = cfg.validate().unwrap_err();
            assert!(err.contains(needle), "'{err}' should mention {needle}");
        }
    }
}
