//! Non-stationary arrival processes for fleet simulations.
//!
//! The homogeneous floor only knows stationary Poisson arrivals; an
//! autoscaler is pointless against those. This module adds the two load
//! shapes capacity planning actually faces — a diurnal swell and an
//! on/off bursty trace — implemented by *thinning*: candidate arrivals
//! are drawn from a homogeneous Poisson process at the peak rate and
//! accepted with probability `rate(t) / peak`, which realizes any
//! bounded time-varying rate exactly and keeps the stream seeded and
//! reproducible.

use std::f64::consts::TAU;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use skip_des::{SimDuration, SimTime};

use crate::config::check_positive;
use crate::request::Request;

/// A seeded request arrival process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Stationary Poisson arrivals (the PR 5 floor's process).
    Poisson {
        /// Mean arrival rate, requests per second.
        rate_per_s: f64,
    },
    /// A sinusoidal day/night swell: the rate oscillates between
    /// `base_rate_per_s` (trough) and `peak_rate_per_s` (crest) with the
    /// given period, starting at the trough.
    Diurnal {
        /// Trough rate, requests per second.
        base_rate_per_s: f64,
        /// Crest rate, requests per second.
        peak_rate_per_s: f64,
        /// One full day/night cycle.
        period: SimDuration,
    },
    /// An on/off trace: `burst_len` at `burst_rate_per_s`, then
    /// `lull_len` at `base_rate_per_s`, repeating. The square wave is the
    /// adversarial input for reactive autoscaling — the load doubles
    /// faster than any provisioning delay.
    Bursty {
        /// Rate during lulls, requests per second.
        base_rate_per_s: f64,
        /// Rate during bursts, requests per second.
        burst_rate_per_s: f64,
        /// Burst duration.
        burst_len: SimDuration,
        /// Lull duration.
        lull_len: SimDuration,
    },
}

impl ArrivalProcess {
    /// The highest instantaneous rate the process reaches (the thinning
    /// envelope).
    #[must_use]
    pub fn peak_rate(&self) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_s } => rate_per_s,
            ArrivalProcess::Diurnal {
                base_rate_per_s,
                peak_rate_per_s,
                ..
            } => base_rate_per_s.max(peak_rate_per_s),
            ArrivalProcess::Bursty {
                base_rate_per_s,
                burst_rate_per_s,
                ..
            } => base_rate_per_s.max(burst_rate_per_s),
        }
    }

    /// The instantaneous rate at `t` seconds.
    #[must_use]
    pub fn rate_at(&self, t_s: f64) -> f64 {
        match *self {
            ArrivalProcess::Poisson { rate_per_s } => rate_per_s,
            ArrivalProcess::Diurnal {
                base_rate_per_s,
                peak_rate_per_s,
                period,
            } => {
                let phase = TAU * (t_s / period.as_secs_f64());
                // Starts at the trough, crests half a period in.
                base_rate_per_s + (peak_rate_per_s - base_rate_per_s) * 0.5 * (1.0 - phase.cos())
            }
            ArrivalProcess::Bursty {
                base_rate_per_s,
                burst_rate_per_s,
                burst_len,
                lull_len,
            } => {
                let cycle = burst_len.as_secs_f64() + lull_len.as_secs_f64();
                let into = t_s % cycle;
                if into < burst_len.as_secs_f64() {
                    burst_rate_per_s
                } else {
                    base_rate_per_s
                }
            }
        }
    }

    /// Checks rates and durations.
    ///
    /// The *trough* rates (diurnal base, bursty lull) may be exactly zero —
    /// a dead lull is a legitimate load shape and the thinning sampler
    /// handles it — but the envelope rates must be positive or the
    /// candidate process would never advance.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first bad knob.
    pub fn validate(&self) -> Result<(), String> {
        let pos = |label, v| check_positive(label, v).map_err(|e| e.to_string());
        let non_neg = |label: &str, v: f64| {
            if v.is_finite() && v >= 0.0 {
                Ok(())
            } else {
                Err(format!("{label} must be non-negative and finite, got {v}"))
            }
        };
        match *self {
            ArrivalProcess::Poisson { rate_per_s } => pos("rate", rate_per_s),
            ArrivalProcess::Diurnal {
                base_rate_per_s,
                peak_rate_per_s,
                period,
            } => {
                non_neg("base rate", base_rate_per_s)?;
                pos("peak rate", peak_rate_per_s)?;
                if peak_rate_per_s < base_rate_per_s {
                    return Err("peak rate must be at least the base rate".into());
                }
                if period.is_zero() {
                    return Err("diurnal period must be positive".into());
                }
                Ok(())
            }
            ArrivalProcess::Bursty {
                base_rate_per_s,
                burst_rate_per_s,
                burst_len,
                lull_len,
            } => {
                non_neg("base rate", base_rate_per_s)?;
                pos("burst rate", burst_rate_per_s)?;
                if burst_len.is_zero() || lull_len.is_zero() {
                    return Err("burst and lull durations must be positive".into());
                }
                Ok(())
            }
        }
    }

    /// Generates the first `n` arrivals, each with the given request
    /// shape. Deterministic for a fixed seed.
    ///
    /// # Panics
    ///
    /// Panics if the process fails [`validate`](Self::validate).
    #[must_use]
    pub fn generate(&self, n: usize, prompt_len: u32, new_tokens: u32, seed: u64) -> Vec<Request> {
        self.stream(prompt_len, new_tokens, seed).take(n).collect()
    }

    /// The arrivals of [`generate`](Self::generate), drawn one at a time:
    /// an endless stream whose first `n` items are `generate(n, ..)`.
    ///
    /// # Panics
    ///
    /// Panics if the process fails [`validate`](Self::validate).
    pub(crate) fn stream(&self, prompt_len: u32, new_tokens: u32, seed: u64) -> ArrivalStream {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        ArrivalStream {
            process: *self,
            peak: self.peak_rate(),
            rng: SmallRng::seed_from_u64(seed),
            clock: SimTime::ZERO,
            next_id: 0,
            prompt_len,
            new_tokens,
        }
    }
}

/// A seeded [`ArrivalProcess`] as an endless iterator of requests.
#[derive(Debug, Clone)]
pub(crate) struct ArrivalStream {
    process: ArrivalProcess,
    /// The thinning envelope's rate.
    peak: f64,
    rng: SmallRng,
    clock: SimTime,
    next_id: u64,
    prompt_len: u32,
    new_tokens: u32,
}

impl Iterator for ArrivalStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        loop {
            // Candidate gap from the peak-rate envelope process…
            let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            let gap_s = -u.ln() / self.peak;
            self.clock += SimDuration::from_nanos_f64(gap_s * 1e9);
            // …thinned down to the instantaneous rate. The acceptance
            // draw happens for stationary Poisson too (it always
            // accepts), so all three processes share one stream shape.
            let accept: f64 = self.rng.gen_range(0.0..1.0);
            let rate = self.process.rate_at(self.clock.as_millis_f64() / 1e3);
            if thin_accepts(accept, self.peak, rate) {
                let id = self.next_id;
                self.next_id += 1;
                return Some(Request {
                    id,
                    arrival: self.clock,
                    prompt_len: self.prompt_len,
                    new_tokens: self.new_tokens,
                });
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (usize::MAX, None)
    }
}

/// The thinning acceptance predicate: keep the candidate iff
/// `accept * peak < rate`, where `accept` is drawn uniformly from
/// `[0, 1)`.
///
/// The comparison is *strict*: the draw's range includes 0.0, so the
/// pre-fix `<=` accepted a candidate at `accept == 0.0` even when the
/// instantaneous rate was exactly zero — a Bursty lull with
/// `base_rate_per_s = 0` could still emit arrivals. With `<`, a zero rate
/// never accepts, while a full-rate instant (`rate == peak`) still accepts
/// every draw because `accept < 1.0` by construction — stationary Poisson
/// streams are unchanged.
///
/// The fix can only flip a decision where `accept * peak == rate` exactly;
/// no committed fixture or experiment configuration has a seeded draw
/// landing on that boundary, so the golden fleet fixtures did *not* shift
/// (the byte-identity suite pins this). Had a stream shifted, the affected
/// fixtures would have been re-pinned under this documented fix.
fn thin_accepts(accept: f64, peak: f64, rate: f64) -> bool {
    accept * peak < rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_monotone() {
        let p = ArrivalProcess::Diurnal {
            base_rate_per_s: 10.0,
            peak_rate_per_s: 100.0,
            period: SimDuration::from_secs(10),
        };
        let a = p.generate(200, 128, 8, 42);
        let b = p.generate(200, 128, 8, 42);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[1].arrival >= w[0].arrival));
        assert_eq!(a.last().unwrap().id, 199);
    }

    /// The lazy stream the fleet front consumes draws exactly what
    /// `generate` collects, for every process shape.
    #[test]
    fn stream_yields_what_generate_collects() {
        for p in [
            ArrivalProcess::Poisson { rate_per_s: 50.0 },
            ArrivalProcess::Diurnal {
                base_rate_per_s: 10.0,
                peak_rate_per_s: 100.0,
                period: SimDuration::from_secs(10),
            },
            ArrivalProcess::Bursty {
                base_rate_per_s: 0.0,
                burst_rate_per_s: 200.0,
                burst_len: SimDuration::from_secs(2),
                lull_len: SimDuration::from_secs(8),
            },
        ] {
            let lazy: Vec<Request> = p.stream(128, 8, 7).take(300).collect();
            assert_eq!(lazy, p.generate(300, 128, 8, 7), "{p:?}");
        }
    }

    #[test]
    fn poisson_generation_approximates_rate() {
        let p = ArrivalProcess::Poisson { rate_per_s: 100.0 };
        let reqs = p.generate(20_000, 64, 4, 9);
        let span_s = reqs.last().unwrap().arrival.as_millis_f64() / 1e3;
        let rate = reqs.len() as f64 / span_s;
        assert!((rate - 100.0).abs() / 100.0 < 0.05, "rate {rate}");
    }

    #[test]
    fn diurnal_rate_oscillates_between_base_and_peak() {
        let p = ArrivalProcess::Diurnal {
            base_rate_per_s: 10.0,
            peak_rate_per_s: 90.0,
            period: SimDuration::from_secs(20),
        };
        assert!((p.rate_at(0.0) - 10.0).abs() < 1e-9, "starts at trough");
        assert!((p.rate_at(10.0) - 90.0).abs() < 1e-9, "crests mid-period");
        assert!((p.rate_at(20.0) - 10.0).abs() < 1e-9, "periodic");
        // The crest half of the cycle actually arrives denser than the
        // trough half.
        let reqs = p.generate(4_000, 64, 4, 3);
        let (mut crest, mut trough) = (0u32, 0u32);
        for r in &reqs {
            let into = (r.arrival.as_millis_f64() / 1e3) % 20.0;
            if (5.0..15.0).contains(&into) {
                crest += 1;
            } else {
                trough += 1;
            }
        }
        assert!(
            crest > 3 * trough,
            "crest half must dominate: {crest} vs {trough}"
        );
    }

    #[test]
    fn bursty_rate_is_a_square_wave() {
        let p = ArrivalProcess::Bursty {
            base_rate_per_s: 5.0,
            burst_rate_per_s: 200.0,
            burst_len: SimDuration::from_secs(2),
            lull_len: SimDuration::from_secs(8),
        };
        assert!((p.rate_at(1.0) - 200.0).abs() < 1e-9);
        assert!((p.rate_at(3.0) - 5.0).abs() < 1e-9);
        assert!((p.rate_at(11.0) - 200.0).abs() < 1e-9, "cycle repeats");
        assert_eq!(p.peak_rate(), 200.0);
    }

    /// Regression for the thinning boundary bug: with the inclusive
    /// `accept * peak <= rate` comparison, a draw of exactly 0.0 accepted a
    /// candidate even at rate 0. The predicate must reject at zero rate
    /// for *any* draw, and still accept every draw at full rate.
    #[test]
    fn thinning_predicate_rejects_zero_rate_at_boundary_draw() {
        assert!(
            !thin_accepts(0.0, 200.0, 0.0),
            "the pre-fix bug: 0.0 draw accepted at rate 0"
        );
        assert!(!thin_accepts(0.5, 200.0, 0.0));
        // Full-rate instants accept every draw in [0, 1).
        assert!(thin_accepts(0.0, 200.0, 200.0));
        assert!(thin_accepts(0.999_999, 200.0, 200.0));
        // Half rate: accepts exactly the draws below 1/2.
        assert!(thin_accepts(0.499, 200.0, 100.0));
        assert!(!thin_accepts(0.5, 200.0, 100.0));
    }

    /// A bursty process with a *zero-rate* lull must emit every arrival
    /// inside a burst window — the lull is dead time by construction.
    #[test]
    fn zero_rate_lull_emits_no_arrivals() {
        let burst_s = 2.0;
        let lull_s = 8.0;
        let p = ArrivalProcess::Bursty {
            base_rate_per_s: 0.0,
            burst_rate_per_s: 200.0,
            burst_len: SimDuration::from_secs(2),
            lull_len: SimDuration::from_secs(8),
        };
        for seed in [1u64, 42, 2026] {
            let reqs = p.generate(500, 64, 4, seed);
            assert_eq!(reqs.len(), 500);
            for r in &reqs {
                let into = (r.arrival.as_millis_f64() / 1e3) % (burst_s + lull_s);
                assert!(
                    into < burst_s,
                    "seed {seed}: arrival {} fell {into:.3}s into the cycle — inside the dead lull",
                    r.id
                );
            }
        }
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        assert!(ArrivalProcess::Poisson { rate_per_s: 0.0 }
            .validate()
            .is_err());
        assert!(ArrivalProcess::Diurnal {
            base_rate_per_s: 50.0,
            peak_rate_per_s: 10.0,
            period: SimDuration::from_secs(1),
        }
        .validate()
        .is_err());
        assert!(ArrivalProcess::Bursty {
            base_rate_per_s: 5.0,
            burst_rate_per_s: 50.0,
            burst_len: SimDuration::ZERO,
            lull_len: SimDuration::from_secs(1),
        }
        .validate()
        .is_err());
    }
}
