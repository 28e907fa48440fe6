//! # skip-runtime — the simulated inference execution engine
//!
//! This crate plays the role PyTorch + CUDA play in the paper: it *executes*
//! a workload's operator graph on a platform model and emits the
//! CUPTI-style trace the SKIP profiler consumes.
//!
//! The execution semantics follow the paper's Fig. 4/5 exactly:
//!
//! * A single CPU thread walks the operator tree, paying the framework
//!   dispatch cost of every operator node. Every eager-style pass performs
//!   this walk.
//! * Each kernel launch costs the CPU a `cudaLaunchKernel` call; the kernel
//!   becomes available to its stream one platform launch-overhead after the
//!   call begins.
//! * The GPU stream executes kernels FIFO: a kernel starts at the later of
//!   its availability and the previous kernel's completion.
//!
//! From these three rules the paper's central phenomenon *emerges*: while
//! kernel durations are short (small batches), every kernel starts exactly
//! one launch-overhead after its launch call — TKLQT is flat and the
//! workload is CPU-bound; once durations exceed the CPU's inter-launch gap,
//! kernels queue and TKLQT ramps — GPU-bound.
//!
//! Execution modes ([`ExecMode`]):
//!
//! * [`ExecMode::Eager`] — the baseline everywhere in the paper.
//! * [`ExecMode::FlashAttention2`] — domain-specific fusion (§II-C).
//! * [`ExecMode::TorchCompile`] — graph synthesis with
//!   [`CompileMode::Default`], [`CompileMode::ReduceOverhead`] (CUDA
//!   Graphs), or [`CompileMode::MaxAutotune`] (Triton-tuned kernels),
//!   including the compile-time cost model calibrated against Table I.
//!
//! # Example
//!
//! ```
//! use skip_hw::Platform;
//! use skip_llm::{zoo, Phase, Workload};
//! use skip_runtime::{Engine, ExecMode};
//!
//! let engine = Engine::new(Platform::intel_h100());
//! let wl = Workload::new(zoo::gpt2(), Phase::Prefill, 1, 512);
//! let trace = engine.run(&wl, ExecMode::Eager);
//! trace.validate().unwrap();
//! assert_eq!(trace.kernels().len(), 402); // eager GPT2 K_eager
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compiled;
mod engine;
mod generate;
mod mode;
mod nullkernel;

pub use compiled::{compile_time, eager_warmup, inductor_stream};
pub use engine::{kernel_class_tag, Engine};
pub use generate::GenerationReport;
pub use mode::{CompileMode, ExecMode};
pub use nullkernel::{nullkernel_microbench, NullKernelStats};
