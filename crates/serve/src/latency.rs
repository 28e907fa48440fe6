//! Memoized per-iteration latencies from the execution engine.
//!
//! A serving simulation executes thousands of scheduler iterations; running
//! the full operator-graph simulation for each would be wasteful when the
//! result is fully determined by (phase, batch size, context length). This
//! model memoizes engine runs at power-of-two context lengths and prices an
//! arbitrary length by interpolating linearly between the two surrounding
//! memoized runs, so the charged latency is monotone in the actual length
//! instead of jumping to the next bucket's price (a 520-token prompt used
//! to be charged as 1024 tokens — up to ~2× TTFT error that also corrupted
//! the recompute-vs-swap break-even of the offload policy).
//!
//! Prices live in one process-global table per *shape signature*: the
//! canonical serialization of (platform, model). A batch's price is fully
//! determined by the signature plus (phase, batch, power-of-two length);
//! nothing else about a serving simulation reaches the engine. So every
//! [`LatencyModel`] over one signature — every floor, sweep candidate and
//! fleet replica — holds the same table, and a key one of them has priced
//! is a lookup for all the others. The signature is the *full* serialized
//! string, not a hash of it, so distinct platforms or models can never
//! collide into each other's prices.
//!
//! The table is a dense array of cells indexed by (phase, batch, grid
//! point) for batches up to [`DENSE_BATCH`], so a warm price is an index
//! and one atomic load. Larger batches — a static job over a long queue, a
//! large `--max-batch` — go to one locked map of cells inside the same
//! table. Cold cells are priced through [`Engine::run_summary`], which
//! aggregates in place instead of materializing a trace that would be
//! reduced to one number and dropped, and are *single-flight*: each cell
//! is a [`OnceLock`], so concurrent sweep workers racing on the same cold
//! key perform exactly one engine run between them (the losers block on
//! the cell instead of burning milliseconds on a duplicate simulation).

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use skip_des::SimDuration;
#[cfg(test)]
use skip_des::SimTime;
use skip_hw::Platform;
use skip_llm::{ModelConfig, Phase, Workload};
use skip_runtime::{Engine, ExecMode};
#[cfg(test)]
use skip_trace::Trace;

/// The longest context the price grid covers: its top grid point, `2^31`
/// tokens. Every longer length would round up past `u32`.
pub(crate) const MAX_PRICED_LEN: u64 = 1 << 31;

/// Batches priced through the dense array; larger ones use the table's
/// map.
const DENSE_BATCH: u32 = 64;

/// Power-of-two grid points per (phase, batch): lengths `2^0..=2^31`.
const GRID_POINTS: usize = MAX_PRICED_LEN.trailing_zeros() as usize + 1;

/// Cells of batches above [`DENSE_BATCH`], keyed by (phase, batch, grid
/// length). The `Arc` lets a cell outlive the map's lock, so its engine
/// run happens outside it.
type WideCells = HashMap<(u8, u32, u32), Arc<OnceLock<SimDuration>>>;

/// Every price of one shape signature, shared by all models over it.
struct PriceTable {
    /// Batches `1..=DENSE_BATCH`, laid out by [`dense_index`].
    dense: Box<[OnceLock<SimDuration>]>,
    wide: Mutex<WideCells>,
}

impl PriceTable {
    fn new() -> Self {
        PriceTable {
            dense: (0..2 * DENSE_BATCH as usize * GRID_POINTS)
                .map(|_| OnceLock::new())
                .collect(),
            wide: Mutex::default(),
        }
    }

    /// Number of cells priced so far.
    fn priced(&self) -> usize {
        let wide = self.wide.lock().expect("price table poisoned");
        self.dense.iter().filter(|c| c.get().is_some()).count()
            + wide.values().filter(|c| c.get().is_some()).count()
    }
}

impl fmt::Debug for PriceTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PriceTable")
            .field("priced", &self.priced())
            .finish()
    }
}

/// Cell of a dense key; `len` is a power of two.
fn dense_index(phase: u8, batch: u32, len: u32) -> usize {
    debug_assert!(len.is_power_of_two(), "{len} is not a grid point");
    let row = usize::from(phase) * DENSE_BATCH as usize + (batch - 1) as usize;
    row * GRID_POINTS + len.trailing_zeros() as usize
}

/// The one price table of `signature`, created on first use.
fn table_for(signature: String) -> Arc<PriceTable> {
    static TABLES: Mutex<BTreeMap<String, Arc<PriceTable>>> = Mutex::new(BTreeMap::new());
    let mut tables = TABLES.lock().expect("price tables poisoned");
    Arc::clone(
        tables
            .entry(signature)
            .or_insert_with(|| Arc::new(PriceTable::new())),
    )
}

/// Memoizing wrapper around [`Engine`] for serving simulations.
///
/// `Sync`: concurrent sweep workers share one model, and every model over
/// the same (platform, model) signature shares one price table, so a key
/// costs one engine run per process no matter how many workers or models
/// race on it.
#[derive(Debug)]
pub struct LatencyModel {
    engine: Engine,
    model: ModelConfig,
    table: Arc<PriceTable>,
    engine_runs: AtomicU64,
}

/// Inference latency of one trace (Eq. 4: last kernel end − first operator
/// begin). The latency model itself prices through the summary sink; this
/// reduction is kept as the reference the summary path is asserted against.
#[cfg(test)]
fn latency(trace: &Trace) -> SimDuration {
    let first = trace
        .cpu_ops()
        .iter()
        .map(|o| o.begin)
        .min()
        .unwrap_or(SimTime::ZERO);
    match trace.kernels().iter().map(|k| k.end).max() {
        Some(end) => end.saturating_duration_since(first),
        None => trace.span(),
    }
}

/// The grid point at or above `len`.
///
/// # Panics
///
/// Panics above [`MAX_PRICED_LEN`]; the config validators reject such
/// lengths first.
fn bucket(len: u32) -> u32 {
    len.max(1)
        .checked_next_power_of_two()
        .expect("length above the price grid's 2^31 tokens")
}

impl LatencyModel {
    /// Creates a latency model for `model` on `platform`.
    ///
    /// Prices resolve through the process-global table of the (platform,
    /// model) signature: keys another model over the same signature has
    /// already priced are looked up instead of re-simulated.
    #[must_use]
    pub fn new(platform: Platform, model: ModelConfig) -> Self {
        let signature =
            serde_json::to_string(&(&platform, &model)).expect("platform and model serialize");
        LatencyModel {
            engine: Engine::new(platform),
            model,
            table: table_for(signature),
            engine_runs: AtomicU64::new(0),
        }
    }

    /// The model being served.
    #[must_use]
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// Latency of a prefill pass over `prompt_len` tokens at `batch`.
    ///
    /// Interpolated between the surrounding power-of-two engine runs, so
    /// the price is monotone in `prompt_len` (exact at powers of two).
    #[must_use]
    pub fn prefill(&self, batch: u32, prompt_len: u32) -> SimDuration {
        self.interpolated(0, batch, prompt_len, |len| {
            Workload::new(self.model.clone(), Phase::Prefill, batch, len)
        })
    }

    /// Latency of one decode step at `batch` with `ctx` cached tokens.
    ///
    /// Interpolated between the surrounding power-of-two engine runs, so
    /// the price is monotone in `ctx` (exact at powers of two).
    #[must_use]
    pub fn decode_step(&self, batch: u32, ctx: u32) -> SimDuration {
        self.interpolated(1, batch, ctx, |len| {
            Workload::new(
                self.model.clone(),
                Phase::DecodeStep { past_len: len },
                batch,
                len,
            )
        })
    }

    /// Number of distinct keys priced so far over this model's shape
    /// signature, by any model.
    #[must_use]
    pub fn cache_entries(&self) -> usize {
        self.table.priced()
    }

    /// Number of engine runs actually performed *by this instance*.
    /// Single-flight coalescing makes this at most one per key no matter
    /// how many workers raced on the same cold keys; it is zero for keys
    /// another model over the same signature had already priced.
    #[must_use]
    pub fn engine_runs(&self) -> u64 {
        self.engine_runs.load(Ordering::Relaxed)
    }

    /// Prices `len` by linear interpolation between the memoized engine
    /// runs at the surrounding powers of two (one run when `len` is itself
    /// a power of two).
    fn interpolated<F: Fn(u32) -> Workload>(
        &self,
        phase: u8,
        batch: u32,
        len: u32,
        wl: F,
    ) -> SimDuration {
        let len = len.max(1);
        let hi = bucket(len);
        if hi == len {
            return self.cached(phase, batch, hi, &wl);
        }
        let lo = hi / 2;
        let d_lo = self.cached(phase, batch, lo, &wl).as_nanos_f64();
        let d_hi = self.cached(phase, batch, hi, &wl).as_nanos_f64();
        let frac = f64::from(len - lo) / f64::from(hi - lo);
        SimDuration::from_nanos_f64(d_lo + (d_hi - d_lo) * frac)
    }

    /// The price of one grid key, running the engine only if no model
    /// over this signature has priced it yet.
    fn cached<F: Fn(u32) -> Workload>(
        &self,
        phase: u8,
        batch: u32,
        len: u32,
        wl: F,
    ) -> SimDuration {
        let run = || {
            self.engine_runs.fetch_add(1, Ordering::Relaxed);
            self.engine.run_summary(&wl(len), ExecMode::Eager).latency()
        };
        if (1..=DENSE_BATCH).contains(&batch) {
            return *self.table.dense[dense_index(phase, batch, len)].get_or_init(run);
        }
        // One lock acquisition resolves the key to its cell; cloning the
        // Arc lets the lock drop before any simulation work starts.
        let cell = Arc::clone(
            self.table
                .wide
                .lock()
                .expect("price table poisoned")
                .entry((phase, batch, len))
                .or_default(),
        );
        *cell.get_or_init(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use skip_llm::zoo;

    /// The exact pricer the table is checked against: one engine run at
    /// the true length, where the table interpolates between grid points.
    fn exact(
        engine: &Engine,
        model: &ModelConfig,
        decode: bool,
        batch: u32,
        len: u32,
    ) -> SimDuration {
        let phase = if decode {
            Phase::DecodeStep { past_len: len }
        } else {
            Phase::Prefill
        };
        engine
            .run_summary(
                &Workload::new(model.clone(), phase, batch, len),
                ExecMode::Eager,
            )
            .latency()
    }

    #[test]
    fn memoization_hits_after_first_run() {
        // A uniquely named config: the exact engine-run counts below must
        // not depend on what other tests have fed the shared price table.
        let mut cfg = zoo::gpt2();
        cfg.name = "gpt2/memoization-test".to_owned();
        let m = LatencyModel::new(Platform::intel_h100(), cfg);
        let a = m.prefill(2, 128); // exact power of two: one engine run
        assert_eq!(m.cache_entries(), 1);
        let b = m.prefill(2, 100); // interpolates between 64 and 128
        assert_eq!(m.cache_entries(), 2, "only the 64-run is new");
        assert!(b < a, "interpolated 100 must undercut the 128 run");
        let c = m.prefill(2, 100);
        assert_eq!(m.cache_entries(), 2, "repeat lengths hit the memo");
        assert_eq!(b, c);
        let _ = m.decode_step(2, 128);
        assert_eq!(m.cache_entries(), 3);
        assert_eq!(m.engine_runs(), 3, "one engine run per distinct key");
    }

    /// Regression test for the power-of-two overcharge: a 520-token prompt
    /// used to be priced as a 1024-token one. The charge must now sit
    /// strictly between the surrounding bucket runs and be monotone in the
    /// actual prompt length.
    #[test]
    fn charged_latency_is_monotone_in_prompt_length() {
        let m = LatencyModel::new(Platform::intel_h100(), zoo::gpt2());
        let at_512 = m.prefill(1, 512);
        let at_520 = m.prefill(1, 520);
        let at_1024 = m.prefill(1, 1024);
        assert!(
            at_520 > at_512 && at_520 < at_1024,
            "520 tokens must price between the 512 and 1024 runs, \
             got {at_512} / {at_520} / {at_1024}"
        );
        let lens = [1u32, 37, 64, 100, 128, 129, 200, 512, 520, 900, 1024];
        let mut prev = SimDuration::ZERO;
        for len in lens {
            let d = m.prefill(1, len);
            assert!(d >= prev, "prefill({len}) = {d} undercuts {prev}");
            prev = d;
        }
        let mut prev = SimDuration::ZERO;
        for len in lens {
            let d = m.decode_step(1, len);
            assert!(d >= prev, "decode_step({len}) = {d} undercuts {prev}");
            prev = d;
        }
    }

    #[test]
    fn decode_steps_are_cheaper_than_prefill() {
        let m = LatencyModel::new(Platform::gh200(), zoo::gpt2());
        assert!(m.decode_step(4, 512) < m.prefill(4, 512));
    }

    #[test]
    fn bucket_rounds_up_to_power_of_two() {
        assert_eq!(bucket(1), 1);
        assert_eq!(bucket(100), 128);
        assert_eq!(bucket(128), 128);
        assert_eq!(bucket(129), 256);
        assert_eq!(bucket(0), 1);
        assert_eq!(bucket((1 << 30) + 1), 1 << 31);
        assert_eq!(u64::from(bucket(1 << 31)), MAX_PRICED_LEN);
    }

    #[test]
    #[should_panic(expected = "above the price grid")]
    fn lengths_above_the_grid_panic_instead_of_wrapping() {
        let _ = bucket((1 << 31) + 1);
    }

    /// Around the dense array's edge (batch 64) and far past it, in both
    /// phases: a grid-point price is exactly the engine's run, and an
    /// off-grid price is exactly the interpolation of the two surrounding
    /// runs. Uses a uniquely named config so every key here is cold.
    #[test]
    fn dense_and_wide_batches_price_like_the_engine() {
        let mut cfg = zoo::gpt2();
        cfg.name = "gpt2/dense-edge-test".to_owned();
        let platform = Platform::gh200();
        let engine = Engine::new(platform.clone());
        let m = LatencyModel::new(platform, cfg.clone());
        let run = |decode, batch, len| exact(&engine, &cfg, decode, batch, len);
        for batch in [63u32, 64, 65, 200] {
            for decode in [false, true] {
                let price = |len| {
                    if decode {
                        m.decode_step(batch, len)
                    } else {
                        m.prefill(batch, len)
                    }
                };
                let (at_64, at_128) = (run(decode, batch, 64), run(decode, batch, 128));
                assert_eq!(price(64), at_64, "batch {batch} decode {decode} at 64");
                assert_eq!(price(128), at_128, "batch {batch} decode {decode} at 128");
                let (lo, hi) = (at_64.as_nanos_f64(), at_128.as_nanos_f64());
                let want = SimDuration::from_nanos_f64(lo + (hi - lo) * (100.0 - 64.0) / 64.0);
                assert_eq!(price(100), want, "batch {batch} decode {decode} at 100");
            }
        }
        assert_eq!(
            m.engine_runs(),
            16,
            "two grid points x two phases x four batches"
        );
        assert_eq!(m.cache_entries(), 16);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The interpolation error is bounded: against the engine run at
        /// the true length, over the paper's three platforms, three model
        /// sizes, both phases, batches 1..=64 and lengths 2..=4096, the
        /// table overcharges prefill by at most 35% and decode by at most
        /// 20%, and undercharges by at most 1 µs. A chord above a convex
        /// cost only overcharges; the undercharge allowance covers
        /// nanosecond rounding and the engine's small non-convex steps.
        #[test]
        fn interpolation_error_stays_within_its_bound(
            platform in prop::sample::select(vec![
                Platform::amd_a100(),
                Platform::intel_h100(),
                Platform::gh200(),
            ]),
            model in prop::sample::select(vec![zoo::gpt2(), zoo::llama32_1b(), zoo::llama2_7b()]),
            decode in prop::sample::select(vec![false, true]),
            batch in 1u32..65,
            len in 2u32..4097,
        ) {
            let want = exact(&Engine::new(platform.clone()), &model, decode, batch, len);
            let m = LatencyModel::new(platform, model);
            let got = if decode { m.decode_step(batch, len) } else { m.prefill(batch, len) };
            let (got_ns, want_ns) = (got.as_nanos_f64(), want.as_nanos_f64());
            let over = if decode { 0.20 } else { 0.35 };
            prop_assert!(
                got_ns <= want_ns * (1.0 + over),
                "overcharged {:+.1}%: {got} for {want}",
                (got_ns / want_ns - 1.0) * 100.0
            );
            prop_assert!(want_ns - got_ns <= 1e3, "undercharged: {got} for {want}");
        }
    }

    /// Single-flight: 8 workers hammering the same handful of keys must
    /// trigger exactly one engine run per distinct key — the losers of
    /// each race block on the key's cell instead of re-simulating.
    #[test]
    fn concurrent_hammer_runs_engine_once_per_key() {
        let mut cfg = zoo::qwen25_05b();
        cfg.name = "qwen2.5-0.5b/hammer-test".to_owned();
        let m = LatencyModel::new(Platform::intel_h100(), cfg);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..4 {
                        let _ = m.prefill(1, 64);
                        let _ = m.prefill(1, 100); // buckets 64 + 128
                        let _ = m.decode_step(2, 128);
                        let _ = m.decode_step(2, 37); // buckets 32 + 64
                        let _ = m.prefill(80, 64); // past the dense array
                    }
                });
            }
        });
        // Keys: prefill(1,{64,128}), decode(2,{128,32,64}), prefill(80,64).
        assert_eq!(m.cache_entries(), 6);
        assert_eq!(
            m.engine_runs(),
            6,
            "racing workers must coalesce onto one run per key"
        );
    }

    /// One table per shape signature: a second model over the same
    /// (platform, model) signature resolves already-priced keys by lookup —
    /// zero engine runs, identical prices — in the dense array and past
    /// it, while a different platform is a different signature and prices
    /// from scratch. Uses a uniquely-named config so other tests' keys
    /// can't leak in.
    #[test]
    fn pattern_table_shares_prices_across_instances() {
        let mut cfg = zoo::qwen25_05b();
        cfg.name = "qwen2.5-0.5b/pattern-sharing-test".to_owned();

        let first = LatencyModel::new(Platform::intel_h100(), cfg.clone());
        let a = first.prefill(3, 64);
        let b = first.decode_step(3, 128);
        let c = first.decode_step(96, 128);
        assert_eq!(
            first.engine_runs(),
            3,
            "cold signature: every key simulates"
        );

        let second = LatencyModel::new(Platform::intel_h100(), cfg.clone());
        assert_eq!(second.prefill(3, 64), a);
        assert_eq!(second.decode_step(3, 128), b);
        assert_eq!(second.decode_step(96, 128), c);
        assert_eq!(
            second.engine_runs(),
            0,
            "a priced signature must be a table lookup"
        );
        assert_eq!(second.cache_entries(), 3);

        let other = LatencyModel::new(Platform::gh200(), cfg);
        let _ = other.prefill(3, 64);
        assert_eq!(other.engine_runs(), 1);
        assert_eq!(other.cache_entries(), 1);
    }

    /// The serving experiments' key set, asserted (not sampled): every
    /// (phase, batch, bucketed length) the gpt2 serving sweeps can touch
    /// must price identically through the summary sink and the full-trace
    /// reduction.
    #[test]
    fn summary_pricing_matches_trace_reduction_on_serving_key_grid() {
        let engine = Engine::new(Platform::intel_h100());
        let model = zoo::gpt2();
        for phase_key in [0u8, 1] {
            for batch in [1u32, 2, 4, 8, 16] {
                for len in [32u32, 64, 128, 256, 512] {
                    let wl = if phase_key == 0 {
                        Workload::new(model.clone(), Phase::Prefill, batch, len)
                    } else {
                        Workload::new(
                            model.clone(),
                            Phase::DecodeStep { past_len: len },
                            batch,
                            len,
                        )
                    };
                    let summary = engine.run_summary(&wl, ExecMode::Eager).latency();
                    let full = latency(&engine.run(&wl, ExecMode::Eager));
                    assert_eq!(
                        summary, full,
                        "phase {phase_key} batch {batch} len {len} priced differently"
                    );
                }
            }
        }
    }
}
