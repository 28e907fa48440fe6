//! Criterion bench: the sink-generic execution core — full trace recording
//! vs the zero-allocation summary sink, both walking the operator tree, on
//! a GPU-bound BERT prefill workload.

use criterion::{criterion_group, criterion_main, Criterion};
use skip_hw::Platform;
use skip_llm::{zoo, Phase, Workload};
use skip_runtime::{Engine, ExecMode};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let engine = Engine::new(Platform::intel_h100());
    let wl = Workload::new(zoo::bert_base_uncased(), Phase::Prefill, 64, 512);

    let mut g = c.benchmark_group("run_summary");
    g.bench_function("trace_sink", |b| {
        b.iter(|| black_box(engine.run(black_box(&wl), ExecMode::Eager)))
    });
    g.bench_function("summary_sink", |b| {
        b.iter(|| black_box(engine.run_summary(black_box(&wl), ExecMode::Eager)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
