//! # skip-core — the SKIP profiler
//!
//! **S**ystem-Aware **K**ernel **I**nference **P**rofiler: the paper's
//! primary contribution, implemented exactly as specified in §III–§IV.
//!
//! SKIP consumes a CUPTI-style trace (from `skip-trace`) and:
//!
//! 1. Builds the **operator–kernel dependency graph** (§IV-A): an ATen
//!    operator is the parent of a child operator or runtime launch call if
//!    the child's start timestamp falls within the parent's duration on the
//!    same thread; kernels link to launch calls by CUDA correlation ID.
//! 2. Computes the **fine-grained metrics** of §III-A:
//!    * `TKLQT` — Total Kernel Launch and Queuing Time (Eqs. 1–2), the sum
//!      over kernels of `ts_b(kernel) − ts_b(launch)`;
//!    * `AKD` — Average Kernel Duration (Eq. 3);
//!    * `IL` — Inference Latency (Eq. 4), last kernel end minus first
//!      parent-operator begin;
//!    * GPU idle time (Eq. 5) and CPU idle time;
//!    * top-k kernel tracking.
//! 3. Classifies workloads as **CPU-bound or GPU-bound** (§III-B / §V-B):
//!    TKLQT is flat at small batch sizes (pure launch overhead — CPU-bound)
//!    and ramps once kernel queuing dominates (GPU-bound); the inflection
//!    point is the paper's star marker in Fig. 6.
//!
//! The profiler sees nothing but the trace — it works identically on traces
//! from the simulated runtime and would work on timestamp-faithful imports
//! of real PyTorch Profiler traces.
//!
//! # Example
//!
//! ```
//! use skip_hw::Platform;
//! use skip_llm::{zoo, Phase, Workload};
//! use skip_runtime::{Engine, ExecMode};
//! use skip_core::ProfileReport;
//!
//! let engine = Engine::new(Platform::intel_h100());
//! let wl = Workload::new(zoo::gpt2(), Phase::Prefill, 1, 512);
//! let trace = engine.run(&wl, ExecMode::Eager);
//! let report = ProfileReport::analyze(&trace);
//! // At batch 1 the GPU is mostly idle: the workload is CPU-bound.
//! assert!(report.gpu_idle > report.total_kernel_time);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attribution;
mod boundedness;
mod depgraph;
mod metrics;
mod topk;

pub use attribution::{attribute_to_operators, attribute_with_graph, OpStat};
pub use boundedness::{classify_sweep, Boundedness, SweepClassification, SweepPoint};
pub use depgraph::{DependencyGraph, LaunchLink, OpRef};
pub use metrics::ProfileReport;
pub use topk::{top_kernels, KernelStat};
