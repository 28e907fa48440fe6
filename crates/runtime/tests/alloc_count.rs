//! Allocation budget of the simulation hot path.
//!
//! The interned-trace refactor removed the per-event `format!`/`String`
//! clones from the engine: event names are `NameId`s, the runtime API
//! names (`cudaLaunchKernel`, `Memcpy HtoD`, `aten::to`) are interned once
//! per engine run, and kernel names hash-hit after their first layer. What
//! remains on the hot path is amortized `Vec` growth plus one interning
//! per *distinct* name — so a full prefill forward must heap-allocate
//! fewer times than it simulates kernels (the pre-interning engine paid
//! several allocations per kernel: a `String` clone per event name plus a
//! `format!` per launch).
//!
//! The summary sink stores and interns nothing, so a summary run on a warm
//! graph cache allocates only its fixed per-run setup: the same small
//! count for every model and phase, however many kernels the walk launches.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use skip_hw::Platform;
use skip_llm::{zoo, Phase, Workload};
use skip_runtime::{Engine, ExecMode};
use skip_trace::TraceMeta;

/// System allocator wrapper counting every `alloc`/`realloc` call made by
/// the calling thread, so tests running in parallel cannot inflate each
/// other's counts.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the calling thread.
fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn engine_allocates_less_than_once_per_kernel() {
    let engine = Engine::new(Platform::intel_h100());
    let wl = Workload::new(zoo::gpt2(), Phase::Prefill, 1, 512);
    // Build the operator graph outside the measured window: the budget
    // under test is the *simulation* path, not workload construction.
    let graph = wl.graph();
    let input_bytes = wl.input_bytes();

    let before = thread_allocs();
    let trace = engine.run_graph(&graph, input_bytes, TraceMeta::default());
    let allocs = thread_allocs() - before;

    let kernels = trace.kernels().len() as u64;
    assert!(kernels > 300, "expected a full prefill trace: {kernels}");
    assert!(
        allocs < kernels,
        "hot path allocated {allocs} times for {kernels} kernels \
         (pre-interning budget was >5 per kernel)"
    );
}

/// The serving latency model's cold-key path: one eager summary run per
/// priced key.
#[test]
fn summary_run_allocates_a_constant_independent_of_model_and_phase() {
    let engine = Engine::new(Platform::intel_h100());
    let mut runs = Vec::new();
    for model in [zoo::gpt2(), zoo::llama32_1b(), zoo::gemma_2b()] {
        for phase in [Phase::Prefill, Phase::DecodeStep { past_len: 512 }] {
            let wl = Workload::new(model.clone(), phase, 4, 512);
            // The first run builds the shared graph; the second is measured.
            let warm = engine.run_summary(&wl, ExecMode::Eager);
            let before = thread_allocs();
            let summary = engine.run_summary(&wl, ExecMode::Eager);
            let n = thread_allocs() - before;
            assert_eq!(summary, warm);
            runs.push((
                format!("{} {}", model.name, phase.label()),
                summary.kernels(),
                n,
            ));
        }
    }
    let first = runs[0].2;
    assert!(
        runs.iter()
            .all(|&(_, kernels, n)| n == first && kernels > 400),
        "summary runs must allocate one constant count: {runs:?}"
    );
    assert!(first <= 16, "{first} allocations per summary run: {runs:?}");
}
