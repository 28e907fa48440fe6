//! # skip-suite — umbrella crate for the `skip-rs` stack
//!
//! Re-exports the whole reproduction stack of *"Characterizing and Optimizing
//! LLM Inference Workloads on CPU-GPU Coupled Architectures"* (ISPASS 2025)
//! under one roof, hosting the runnable examples and the cross-crate
//! integration tests.
//!
//! See the individual crates for the interesting APIs:
//!
//! * [`des`] — deterministic discrete-event simulation core
//! * [`trace`] — operator/kernel trace data model
//! * [`hw`] — calibrated CPU/GPU/interconnect/platform models
//! * [`llm`] — transformer workload generator
//! * [`runtime`] — inference execution engine (eager / fused / compiled)
//! * [`profiler`] — the SKIP profiler (the paper's contribution)
//! * [`fusion`] — proximity-score kernel-fusion recommendation
//! * [`serve`] — online serving simulation (arrivals, batching policies)
//! * [`bench`](mod@bench) — experiment harness regenerating the paper's tables/figures

pub use skip_bench as bench;
pub use skip_core as profiler;
pub use skip_des as des;
pub use skip_fusion as fusion;
pub use skip_hw as hw;
pub use skip_llm as llm;
pub use skip_runtime as runtime;
pub use skip_serve as serve;
pub use skip_trace as trace;
