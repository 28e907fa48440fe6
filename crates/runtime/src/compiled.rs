//! `torch.compile` modelling: Inductor kernel-stream transformation and the
//! compile-time cost model (calibrated against the paper's Table I).

use skip_des::SimDuration;
use skip_hw::{KernelClass, KernelWork};
use skip_llm::{KernelSpec, OperatorGraph};

use crate::mode::CompileMode;

/// Per-forward Dynamo guard-evaluation + compiled-module entry cost, ns.
///
/// Calibrated jointly with the kernel improvements so the Table I speedups
/// (1.20×/1.24×/1.32× for Gemma-2B) land in the paper's bands.
pub(crate) const GUARD_EVAL_NS: f64 = 350_000.0;

/// Device-side overhead of replaying one captured CUDA-graph node, ns.
/// Graph replay is cheaper than a `cudaLaunchKernel` round trip but not
/// free; measured values on Hopper-class parts are around 1–2 µs/node.
pub(crate) const REPLAY_NODE_NS: f64 = 500.0;

/// Per-forward entry cost of the cudagraph-trees replay path, ns — much
/// lighter than the Inductor python wrapper: the whole callable is cached
/// and re-entered directly.
pub(crate) const CUDAGRAPH_ENTRY_NS: f64 = 100_000.0;

/// CPU cost of dispatching one kernel from Inductor's compiled wrapper
/// (Default mode) — far below eager ATen dispatch, ns.
pub(crate) const COMPILED_DISPATCH_NS: f64 = 2_000.0;

/// Longest run of non-GEMM kernels Inductor fuses into one generated
/// kernel.
const FUSION_WINDOW: usize = 12;

/// Fraction of the *non-dominant* memory traffic that survives fusion
/// (intermediates stay in registers/shared memory).
const FUSED_RESIDUAL_BYTES: f64 = 0.10;

/// One-time warmup cost of the eager path (module load + first dispatch) —
/// Table I's "Eager" compilation-time column, seconds.
const EAGER_WARMUP_S: f64 = 0.406_44;

/// Per-operator-node compilation cost by mode, seconds. Fitted so that
/// Gemma-2B (779 operator nodes) reproduces Table I's compile times:
/// 6.2844 s (default), 12.7469 s (reduce-overhead), 387.3 s (max-autotune).
fn per_node_compile_s(mode: CompileMode) -> f64 {
    match mode {
        CompileMode::Default => 7.546e-3,
        CompileMode::ReduceOverhead => 15.84e-3,
        CompileMode::MaxAutotune => 496.65e-3,
    }
}

/// Compile-time cost of preparing `graph` under `mode`, including the eager
/// warmup both paths share (paper Table I).
///
/// # Example
///
/// ```
/// use skip_llm::{zoo, Phase, Workload};
/// use skip_runtime::{compile_time, CompileMode};
///
/// let graph = Workload::new(zoo::gemma_2b(), Phase::Prefill, 1, 1024).graph();
/// let t = compile_time(&graph, CompileMode::MaxAutotune);
/// // Table I: 387.3 s for Gemma-2B under max-autotune.
/// assert!((t.as_secs_f64() - 387.3).abs() / 387.3 < 0.01);
/// ```
#[must_use]
pub fn compile_time(graph: &OperatorGraph, mode: CompileMode) -> SimDuration {
    let secs = EAGER_WARMUP_S + per_node_compile_s(mode) * graph.op_count() as f64;
    SimDuration::from_nanos_f64(secs * 1e9)
}

/// The eager path's "compile time": its warmup (Table I's Eager column).
#[must_use]
pub fn eager_warmup() -> SimDuration {
    SimDuration::from_nanos_f64(EAGER_WARMUP_S * 1e9)
}

fn is_fusible(class: KernelClass) -> bool {
    matches!(
        class,
        KernelClass::Elementwise
            | KernelClass::Reduction
            | KernelClass::Memory
            | KernelClass::Gather
    )
}

/// Transforms an eager kernel stream into the stream Inductor would
/// generate: runs of adjacent non-GEMM kernels fuse into single generated
/// kernels (bounded window), with intermediate tensors kept on chip so only
/// the dominant operand's traffic plus a residual survives.
///
/// GEMMs pass through unchanged — their *duration* improvement under
/// max-autotune is applied at execution time via
/// [`CompileMode::gemm_duration_factor`].
#[must_use]
pub fn inductor_stream(graph: &OperatorGraph) -> Vec<KernelSpec> {
    let kernels = graph.kernels_in_order();
    let mut out = Vec::with_capacity(kernels.len());
    let mut run: Vec<&KernelSpec> = Vec::new();

    let flush = |run: &mut Vec<&KernelSpec>, out: &mut Vec<KernelSpec>| {
        match run.len() {
            0 => {}
            1 => out.push(run[0].clone()),
            n => {
                let flops: f64 = run.iter().map(|k| k.work.flops).sum();
                let total_bytes: f64 = run.iter().map(|k| k.work.bytes).sum();
                let max_bytes = run.iter().map(|k| k.work.bytes).fold(0.0_f64, f64::max);
                let bytes = max_bytes + FUSED_RESIDUAL_BYTES * (total_bytes - max_bytes);
                out.push(KernelSpec::new(
                    format!("triton_fused_{}_{n}", run[0].name),
                    KernelWork {
                        class: KernelClass::FusedChain,
                        flops,
                        bytes,
                    },
                ));
            }
        }
        run.clear();
    };

    for k in kernels {
        if is_fusible(k.work.class) {
            run.push(k);
            if run.len() == FUSION_WINDOW {
                flush(&mut run, &mut out);
            }
        } else {
            flush(&mut run, &mut out);
            out.push(k.clone());
        }
    }
    flush(&mut run, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use skip_llm::{zoo, Phase, Workload};

    fn gemma_graph() -> OperatorGraph {
        Workload::new(zoo::gemma_2b(), Phase::Prefill, 1, 1024).graph()
    }

    #[test]
    fn compile_times_reproduce_table_i() {
        let g = gemma_graph();
        let cases = [
            (CompileMode::Default, 6.2844),
            (CompileMode::ReduceOverhead, 12.7469),
            (CompileMode::MaxAutotune, 387.3),
        ];
        for (mode, expect) in cases {
            let got = compile_time(&g, mode).as_secs_f64();
            assert!(
                (got - expect).abs() / expect < 0.02,
                "{}: got {got:.3}s, expected {expect}s",
                mode.label()
            );
        }
        assert!((eager_warmup().as_secs_f64() - 0.40644).abs() < 1e-6);
    }

    #[test]
    fn compile_time_ordering_matches_table_i() {
        let g = gemma_graph();
        let d = compile_time(&g, CompileMode::Default);
        let r = compile_time(&g, CompileMode::ReduceOverhead);
        let m = compile_time(&g, CompileMode::MaxAutotune);
        assert!(eager_warmup() < d && d < r && r < m);
    }

    #[test]
    fn fusion_reduces_kernel_count_and_bytes() {
        let g = Workload::new(zoo::gpt2(), Phase::Prefill, 1, 512).graph();
        let fused = inductor_stream(&g);
        assert!(fused.len() < g.kernel_count() / 2 + g.kernel_count() / 4);
        let eager_bytes: f64 = g.kernels_in_order().iter().map(|k| k.work.bytes).sum();
        let fused_bytes: f64 = fused.iter().map(|k| k.work.bytes).sum();
        assert!(fused_bytes < eager_bytes);
    }

    #[test]
    fn fusion_preserves_flops_and_gemms() {
        let g = Workload::new(zoo::gpt2(), Phase::Prefill, 2, 512).graph();
        let fused = inductor_stream(&g);
        let eager_flops: f64 = g.kernels_in_order().iter().map(|k| k.work.flops).sum();
        let fused_flops: f64 = fused.iter().map(|k| k.work.flops).sum();
        assert!((eager_flops - fused_flops).abs() / eager_flops < 1e-12);
        let gemms_eager = g
            .kernels_in_order()
            .iter()
            .filter(|k| k.work.class == KernelClass::Gemm)
            .count();
        let gemms_fused = fused
            .iter()
            .filter(|k| k.work.class == KernelClass::Gemm)
            .count();
        assert_eq!(gemms_eager, gemms_fused);
    }

    #[test]
    fn fusion_window_bounds_chain_length() {
        let g = Workload::new(zoo::bert_base_uncased(), Phase::Prefill, 1, 512).graph();
        for k in inductor_stream(&g) {
            if let Some(rest) = k.name.rfind('_') {
                if k.name.starts_with("triton_fused_") {
                    let n: usize = k.name[rest + 1..].parse().unwrap();
                    assert!(n <= FUSION_WINDOW);
                }
            }
        }
    }
}
