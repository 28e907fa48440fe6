//! Allocation budget of the serving and fleet floors' hot paths.
//!
//! The population-scale allocation audit moved every per-event `Vec` off
//! the floors' hot paths: router load snapshots and flush-expiry masks
//! fill reused buffers, lifecycle records and counter samples are
//! preallocated from the request count, iteration scratch (chunk plans,
//! retire ping-pong buffers, handoff staging) is reused across events.
//! What remains per *request* is amortized growth of a few long-lived
//! vectors — so the marginal allocation cost of a request must be a
//! small constant, not a multiple of its event count.
//!
//! Observation is pay-for-what-you-use: an untraced run keeps no
//! lifecycle record and no counter sample, so its marginal *bytes* per
//! request are bounded by what the floor itself must hold for a request,
//! and the traced entry point on the same config must blow that bound.
//!
//! Every budget is measured differentially: the same configuration at two
//! request counts, bounding allocations (or bytes) per *additional*
//! request. The subtraction cancels the setup constant (latency-model
//! cold keys run engine simulations that allocate freely, but once per
//! shape signature, not per request).

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use skip_des::{SimDuration, SimTime};
use skip_hw::Platform;
use skip_llm::zoo;
use skip_serve::{
    simulate_fleet, simulate_fleet_traced, simulate_replicas, simulate_traced, ArrivalProcess,
    FleetBatchPolicy, FleetConfig, FleetRouterPolicy, FleetSpec, KvCacheConfig, OffloadPolicy,
    Policy, Request, RouterPolicy, ServingConfig, SloTargets,
};

/// System allocator wrapper counting every `alloc`/`realloc` call and
/// tracking live heap bytes with their high-water mark.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

/// The counters are process-wide, so measurements take turns.
static MEASURING: Mutex<()> = Mutex::new(());

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        grow(new_size);
        shrink(layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Marginal cost of one additional request.
struct PerRequest {
    allocs: f64,
    /// Peak live heap bytes held above the run's starting point.
    bytes: f64,
}

/// Runs `run` (which simulates the given request count and returns the
/// completions) at two sizes after a warm-up, and divides the difference
/// in allocation calls and in peak live bytes by the difference in
/// requests.
fn marginal(run: impl Fn(u32) -> u32) -> PerRequest {
    let _turn = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let (small, large) = (2_000u32, 6_000u32);
    // Warm-up run keeps one-time process setup out of both measurements.
    let _ = run(64);
    let measure = |requests: u32| {
        let allocs = ALLOCS.load(Ordering::Relaxed);
        let live = LIVE.load(Ordering::Relaxed);
        PEAK.store(live, Ordering::Relaxed);
        assert_eq!(run(requests), requests, "every request completes");
        (
            ALLOCS.load(Ordering::Relaxed) - allocs,
            PEAK.load(Ordering::Relaxed) - live,
        )
    };
    let (a0, b0) = measure(small);
    let (a1, b1) = measure(large);
    let extra = f64::from(large - small);
    PerRequest {
        allocs: a1.saturating_sub(a0) as f64 / extra,
        bytes: b1.saturating_sub(b0) as f64 / extra,
    }
}

fn serve_cfg(requests: u32) -> ServingConfig {
    ServingConfig {
        platform: Platform::intel_h100(),
        model: zoo::gpt2(),
        policy: Policy::Continuous { max_batch: 8 },
        requests,
        arrival_rate_per_s: 400.0,
        prompt_len: 128,
        new_tokens: 4,
        seed: 17,
        kv: None,
        slo: SloTargets::default(),
        router: RouterPolicy::JoinShortestQueue,
    }
}

/// Chunked prefill over a KV budget of four full lifetimes per replica
/// (320 tokens in 16-token blocks): every iteration plans chunks and
/// decode steps and reserves blocks.
fn chunked_kv_cfg(requests: u32) -> ServingConfig {
    ServingConfig {
        policy: Policy::ChunkedPrefill {
            max_batch: 8,
            chunk_tokens: 64,
        },
        prompt_len: 256,
        new_tokens: 64,
        arrival_rate_per_s: 50.0,
        kv: Some(KvCacheConfig::with_blocks(
            4 * 320 / 16,
            OffloadPolicy::Auto,
        )),
        ..serve_cfg(requests)
    }
}

fn fleet_cfg(requests: u32) -> FleetConfig {
    FleetConfig {
        spec: FleetSpec::disaggregated(Platform::gh200(), 1, Platform::intel_h100(), 2),
        model: zoo::gpt2(),
        max_batch: 8,
        requests,
        arrivals: ArrivalProcess::Poisson { rate_per_s: 400.0 },
        prompt_len: 128,
        new_tokens: 4,
        seed: 17,
        slo: SloTargets::default(),
        router: FleetRouterPolicy::CostModelJsq,
        policy: FleetBatchPolicy::Continuous,
        autoscale: None,
    }
}

/// The degenerate fleet the unified floor reduces to: one homogeneous
/// unified group, no handoff links exercised. Its hot path is the same
/// event loop as the serving floor's, so it must meet the same budget.
fn one_group_cfg(requests: u32) -> FleetConfig {
    FleetConfig {
        spec: FleetSpec::homogeneous(Platform::intel_h100(), 3),
        ..fleet_cfg(requests)
    }
}

/// Marginal allocations per additional request the serving floor may pay.
/// Each request records 4 lifecycle events and drives ~1.5 iterations; the
/// pre-audit floor paid 2 fresh `Vec`s per *event* (router snapshot +
/// flush mask) before any recording, so a budget of 8 both proves the
/// audit held and leaves room for amortized growth of the long vectors.
const SERVE_BUDGET_PER_REQUEST: f64 = 8.0;

/// The fleet floor adds handoff staging and per-pool routing to the same
/// per-request story (7 lifecycle events on a disaggregated fleet).
const FLEET_BUDGET_PER_REQUEST: f64 = 8.0;

/// Marginal allocations per request of chunked prefill under a KV budget.
/// A plan `Vec` allocated afresh per iteration costs ~28 allocations per
/// request on this config (4 chunk and 63 decode steps per request, in
/// small batches), and naming every KV block (a block table per request
/// and a free-list set) cost ~8 more. With the plan reused and the pool
/// counting blocks, about 0.5 remain: the priced `Vec` of each resume
/// cohort, at about one preemption per two requests on this config.
const CHUNKED_KV_BUDGET_PER_REQUEST: f64 = 2.0;

/// Marginal allocations per request of an untraced floor. Every
/// per-request vector is sized from the request count up front, arrivals
/// are drawn one at a time instead of queued, and the event queue stays as
/// deep as the replica count, so nothing grows with the population: the
/// floor measures 0.000. A bound of 0.05 fails on any per-request or
/// per-event allocation creeping back (an event queue holding every
/// arrival cost 1.5 allocations per request).
const UNTRACED_BUDGET_PER_REQUEST: f64 = 0.05;

/// Marginal peak bytes per request an untraced floor may hold: what it
/// must keep for a request — the request itself while it is in flight,
/// its first-token instant and its finished latency pair — up to twice
/// over, because the report's summary copies the latency pairs and
/// vectors carry growth slack. A recording adds a lifecycle of four or
/// more events and two or more counter samples per request, which no
/// longer fits.
fn untraced_bytes_budget() -> f64 {
    let kept = size_of::<Request>() + size_of::<SimTime>() + 2 * size_of::<SimDuration>();
    (2 * kept) as f64
}

#[test]
fn serving_floor_allocations_per_request_are_bounded() {
    let m = marginal(|n| simulate_traced(&serve_cfg(n), 4).0.completed);
    assert!(
        m.allocs < SERVE_BUDGET_PER_REQUEST,
        "serving floor: {:.2} allocations/request (budget {SERVE_BUDGET_PER_REQUEST})",
        m.allocs
    );
}

#[test]
fn one_group_fleet_allocations_per_request_are_bounded() {
    let m = marginal(|n| simulate_fleet_traced(&one_group_cfg(n)).0.completed);
    assert!(
        m.allocs < FLEET_BUDGET_PER_REQUEST,
        "one-group fleet: {:.2} allocations/request (budget {FLEET_BUDGET_PER_REQUEST})",
        m.allocs
    );
}

#[test]
fn fleet_floor_allocations_per_request_are_bounded() {
    let m = marginal(|n| simulate_fleet_traced(&fleet_cfg(n)).0.completed);
    assert!(
        m.allocs < FLEET_BUDGET_PER_REQUEST,
        "fleet floor: {:.2} allocations/request (budget {FLEET_BUDGET_PER_REQUEST})",
        m.allocs
    );
}

#[test]
fn chunked_prefill_under_kv_budget_reuses_its_plan() {
    let m = marginal(|n| simulate_replicas(&chunked_kv_cfg(n), 2).completed);
    assert!(
        m.allocs < CHUNKED_KV_BUDGET_PER_REQUEST,
        "chunked prefill with KV: {:.2} allocations/request (budget \
         {CHUNKED_KV_BUDGET_PER_REQUEST})",
        m.allocs
    );
}

#[test]
fn untraced_serving_floor_keeps_no_recording() {
    let budget = untraced_bytes_budget();
    let lean = marginal(|n| simulate_replicas(&serve_cfg(n), 4).completed);
    assert!(
        lean.bytes < budget,
        "untraced serving floor: {:.0} bytes/request (budget {budget})",
        lean.bytes
    );
    assert!(
        lean.allocs < UNTRACED_BUDGET_PER_REQUEST,
        "untraced serving floor: {:.3} allocations/request (budget \
         {UNTRACED_BUDGET_PER_REQUEST})",
        lean.allocs
    );
    let traced = marginal(|n| simulate_traced(&serve_cfg(n), 4).0.completed);
    assert!(
        traced.bytes > budget,
        "the recording must not fit the untraced budget: {:.0} bytes/request",
        traced.bytes
    );
}

#[test]
fn untraced_one_group_fleet_keeps_no_recording() {
    let budget = untraced_bytes_budget();
    let lean = marginal(|n| simulate_fleet(&one_group_cfg(n)).completed);
    assert!(
        lean.bytes < budget,
        "untraced one-group fleet: {:.0} bytes/request (budget {budget})",
        lean.bytes
    );
    assert!(
        lean.allocs < UNTRACED_BUDGET_PER_REQUEST,
        "untraced one-group fleet: {:.3} allocations/request (budget \
         {UNTRACED_BUDGET_PER_REQUEST})",
        lean.allocs
    );
    let traced = marginal(|n| simulate_fleet_traced(&one_group_cfg(n)).0.completed);
    assert!(
        traced.bytes > budget,
        "the recording must not fit the untraced budget: {:.0} bytes/request",
        traced.bytes
    );
}
