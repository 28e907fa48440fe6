//! Small statistics helpers shared across the stack.
//!
//! The profiler and the experiment harness repeatedly need means and
//! percentiles of nanosecond samples; centralizing them here keeps the
//! implementations consistent (nearest-rank percentile, empty-input
//! behaviour) everywhere a figure is produced.

/// Arithmetic mean of `samples`; `0.0` for an empty slice.
///
/// # Example
///
/// ```
/// assert_eq!(skip_des::mean(&[1.0, 2.0, 3.0]), 2.0);
/// assert_eq!(skip_des::mean(&[]), 0.0);
/// ```
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Nearest-rank percentile of `samples` (``p`` in ``[0, 100]``).
///
/// Selects the nearest-rank element in O(n) expected time (one scratch
/// copy, no full sort); `0.0` for an empty slice. `p = 0` yields the
/// minimum and `p = 100` the maximum.
///
/// # Example
///
/// ```
/// let xs = [10.0, 20.0, 30.0, 40.0];
/// assert_eq!(skip_des::percentile(&xs, 50.0), 20.0);
/// assert_eq!(skip_des::percentile(&xs, 100.0), 40.0);
/// ```
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut scratch = samples.to_vec();
    let idx = nearest_rank_index(scratch.len(), p);
    let (_, nth, _) = scratch.select_nth_unstable_by(idx, |a, b| {
        a.partial_cmp(b).expect("NaN sample in percentile")
    });
    *nth
}

/// Nearest-rank index for `p` percent of `len` samples.
fn nearest_rank_index(len: usize, p: f64) -> usize {
    let p = p.clamp(0.0, 100.0);
    if p == 0.0 {
        return 0;
    }
    let rank = ((p / 100.0) * len as f64).ceil() as usize;
    rank.saturating_sub(1).min(len - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn percentile_bounds() {
        let xs = [5.0, 1.0, 9.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 9.0);
        assert_eq!(percentile(&xs, 50.0), 5.0);
    }

    #[test]
    fn percentile_clamps_out_of_range() {
        let xs = [1.0, 2.0];
        assert_eq!(percentile(&xs, -10.0), 1.0);
        assert_eq!(percentile(&xs, 400.0), 2.0);
    }

    /// The sorted-oracle implementation `percentile` replaced: full sort,
    /// then nearest-rank index. Kept here as the differential reference.
    fn percentile_sorted_oracle(samples: &[f64], p: f64) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample in percentile"));
        let p = p.clamp(0.0, 100.0);
        if p == 0.0 {
            return sorted[0];
        }
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.saturating_sub(1)]
    }

    #[test]
    fn selection_matches_sorted_oracle_at_every_percentile() {
        // Deterministic LCG samples, including duplicates and a broad value
        // range; every integer percentile plus fractional edge cases must
        // agree bit-for-bit with the clone-and-sort oracle.
        let mut state = 0x2545F4914F6CDD1Du64;
        for len in [1usize, 2, 3, 7, 100, 1023] {
            let samples: Vec<f64> = (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) % 997) as f64 / 7.0
                })
                .collect();
            for p in 0..=100 {
                let p = f64::from(p);
                assert_eq!(
                    percentile(&samples, p),
                    percentile_sorted_oracle(&samples, p),
                    "len={len} p={p}"
                );
            }
            for p in [0.001, 0.5, 33.3, 49.999, 50.001, 98.9, 99.99] {
                assert_eq!(
                    percentile(&samples, p),
                    percentile_sorted_oracle(&samples, p),
                    "len={len} p={p}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "NaN sample in percentile")]
    fn percentile_still_panics_on_nan() {
        let _ = percentile(&[1.0, f64::NAN, 2.0], 50.0);
    }
}
