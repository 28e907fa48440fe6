//! Vectorized 8-lane chunked scans over SoA timestamp columns.
//!
//! The trace stores launch/kernel timestamps as contiguous `SimTime`
//! columns (struct-of-arrays), so every profiler pass that reduces a
//! column — total kernel time, last kernel end, per-kernel durations — is
//! a linear scan over dense `u64` data. These helpers phrase those scans
//! the way LLVM's autovectorizer likes them: fixed 8-wide lane
//! accumulators fed by `chunks_exact(8)`, with a scalar tail for the
//! remainder and a single lane reduction at the end. Stable Rust, no
//! intrinsics, no `unsafe` — on x86-64 the lane loops compile to packed
//! SIMD; on other targets they degrade to the scalar loop they replace.
//!
//! Every helper is differential-tested against the straightforward scalar
//! sweep in this module's tests; the metric/attribution equation tests
//! pin the end-to-end results on top.

use skip_des::{SimDuration, SimTime};
use skip_trace::CorrelationId;

/// Lane width of the chunked scans. Eight 64-bit lanes fill one 64-byte
/// cache line per step and map onto AVX-512 (one register) or AVX2 (two).
pub const LANES: usize = 8;

/// Sum of `ends[i] - begins[i]` over paired timestamp columns.
///
/// Inverted pairs (`end < begin`) saturate to zero rather than panicking —
/// the branch-free form the vectorizer needs; well-formed traces never hit
/// it, so the result equals the scalar `duration_since` sweep.
///
/// # Panics
///
/// Panics if the columns differ in length.
#[must_use]
pub fn sum_deltas(ends: &[SimTime], begins: &[SimTime]) -> SimDuration {
    assert_eq!(
        ends.len(),
        begins.len(),
        "paired columns must be equal length"
    );
    let mut lanes = [0u64; LANES];
    let mut end_chunks = ends.chunks_exact(LANES);
    let mut begin_chunks = begins.chunks_exact(LANES);
    for (e, b) in (&mut end_chunks).zip(&mut begin_chunks) {
        for i in 0..LANES {
            lanes[i] += e[i].as_nanos().saturating_sub(b[i].as_nanos());
        }
    }
    let mut total: u64 = lanes.iter().sum();
    for (e, b) in end_chunks.remainder().iter().zip(begin_chunks.remainder()) {
        total += e.as_nanos().saturating_sub(b.as_nanos());
    }
    SimDuration::from_nanos(total)
}

/// Writes `ends[i] - begins[i]` per element into `out` (cleared first),
/// saturating inverted pairs to zero.
///
/// Callers that index durations repeatedly (operator attribution gathers
/// by kernel index) precompute the column once here instead of paying a
/// scalar `duration_since` per lookup. Reusing `out` across calls keeps
/// the pass allocation-free once the buffer has grown to column size.
///
/// # Panics
///
/// Panics if the columns differ in length.
pub fn deltas_into(ends: &[SimTime], begins: &[SimTime], out: &mut Vec<SimDuration>) {
    assert_eq!(
        ends.len(),
        begins.len(),
        "paired columns must be equal length"
    );
    out.clear();
    out.extend(
        ends.iter()
            .zip(begins)
            .map(|(e, b)| SimDuration::from_nanos(e.as_nanos().saturating_sub(b.as_nanos()))),
    );
}

/// Maximum of a timestamp column; `None` when empty.
#[must_use]
pub fn max_time(column: &[SimTime]) -> Option<SimTime> {
    if column.is_empty() {
        return None;
    }
    let mut lanes = [0u64; LANES];
    let mut chunks = column.chunks_exact(LANES);
    for c in &mut chunks {
        for i in 0..LANES {
            lanes[i] = lanes[i].max(c[i].as_nanos());
        }
    }
    let mut best = lanes.into_iter().max().unwrap_or(0);
    for t in chunks.remainder() {
        best = best.max(t.as_nanos());
    }
    Some(SimTime::from_nanos(best))
}

/// Minimum of a timestamp column; `None` when empty.
#[must_use]
pub fn min_time(column: &[SimTime]) -> Option<SimTime> {
    if column.is_empty() {
        return None;
    }
    let mut lanes = [u64::MAX; LANES];
    let mut chunks = column.chunks_exact(LANES);
    for c in &mut chunks {
        for i in 0..LANES {
            lanes[i] = lanes[i].min(c[i].as_nanos());
        }
    }
    let mut best = lanes.into_iter().min().unwrap_or(u64::MAX);
    for t in chunks.remainder() {
        best = best.min(t.as_nanos());
    }
    Some(SimTime::from_nanos(best))
}

/// Whether a correlation column is strictly ascending.
///
/// Engine-generated traces assign correlation IDs monotonically, so the
/// dependency graph can pair kernels by a cursor over the column (with a
/// binary-search fallback) instead of building a `BTreeMap` — this scan is
/// the O(n) gate for that fast path.
/// Each chunk checks eight adjacent pairs with branch-free lane compares
/// and reduces once per chunk.
#[must_use]
pub fn is_strictly_ascending(column: &[CorrelationId]) -> bool {
    if column.len() < 2 {
        return true;
    }
    // Compare column[i] < column[i+1] over the shifted pair of views.
    let heads = &column[..column.len() - 1];
    let tails = &column[1..];
    let mut head_chunks = heads.chunks_exact(LANES);
    let mut tail_chunks = tails.chunks_exact(LANES);
    for (h, t) in (&mut head_chunks).zip(&mut tail_chunks) {
        let mut ok = true;
        for i in 0..LANES {
            ok &= h[i].get() < t[i].get();
        }
        if !ok {
            return false;
        }
    }
    head_chunks
        .remainder()
        .iter()
        .zip(tail_chunks.remainder())
        .all(|(h, t)| h.get() < t.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> SimTime {
        SimTime::from_nanos(v)
    }

    /// Deterministic LCG column generator (no RNG deps).
    fn columns(len: usize, seed: u64) -> (Vec<SimTime>, Vec<SimTime>) {
        let mut state = seed;
        let mut next = move |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut begins = Vec::with_capacity(len);
        let mut ends = Vec::with_capacity(len);
        for _ in 0..len {
            let b = next(1_000_000);
            let d = next(10_000);
            begins.push(ns(b));
            ends.push(ns(b + d));
        }
        (begins, ends)
    }

    /// Lengths straddling the 8-lane chunk boundary, plus empty.
    const LENS: [usize; 8] = [0, 1, 7, 8, 9, 16, 63, 1000];

    #[test]
    fn sum_deltas_matches_scalar_sweep() {
        for len in LENS {
            let (begins, ends) = columns(len, 0xB0B + len as u64);
            let scalar: SimDuration = ends
                .iter()
                .zip(&begins)
                .map(|(&e, &b)| e.duration_since(b))
                .sum();
            assert_eq!(sum_deltas(&ends, &begins), scalar, "len={len}");
        }
    }

    #[test]
    fn sum_deltas_saturates_inverted_pairs() {
        let begins = [ns(100), ns(50)];
        let ends = [ns(90), ns(80)]; // first pair inverted
        assert_eq!(sum_deltas(&ends, &begins), SimDuration::from_nanos(30));
    }

    #[test]
    fn deltas_into_matches_scalar_and_reuses_buffer() {
        let mut out = Vec::new();
        for len in LENS {
            let (begins, ends) = columns(len, 0xCAFE + len as u64);
            deltas_into(&ends, &begins, &mut out);
            assert_eq!(out.len(), len);
            for (i, d) in out.iter().enumerate() {
                assert_eq!(*d, ends[i].duration_since(begins[i]), "len={len} i={i}");
            }
        }
    }

    #[test]
    fn min_max_match_scalar_sweeps() {
        for len in LENS {
            let (begins, _) = columns(len, 0xD00D + len as u64);
            assert_eq!(max_time(&begins), begins.iter().max().copied(), "len={len}");
            assert_eq!(min_time(&begins), begins.iter().min().copied(), "len={len}");
        }
    }

    #[test]
    fn ascending_scan_agrees_with_windows_check() {
        for len in LENS {
            // Strictly ascending column: detector must accept.
            let asc: Vec<CorrelationId> = (0..len as u64)
                .map(|i| CorrelationId::new(3 * i + 1))
                .collect();
            assert!(is_strictly_ascending(&asc), "len={len}");
            // Perturb one adjacent pair (needs ≥ 2 elements): must reject.
            if len >= 2 {
                let mut broken = asc.clone();
                broken.swap(len / 2, len / 2 - 1);
                assert!(!is_strictly_ascending(&broken), "len={len}");
                let dup: Vec<CorrelationId> =
                    (0..len as u64).map(|_| CorrelationId::new(7)).collect();
                assert!(!is_strictly_ascending(&dup), "duplicates len={len}");
            }
        }
    }
}
