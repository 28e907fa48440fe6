//! # skip-trace — operator/kernel trace data model
//!
//! The paper's SKIP profiler consumes PyTorch-Profiler traces, which record
//! three kinds of timestamped events captured through CUPTI:
//!
//! 1. **CPU operator events** — ATen operators (`aten::linear`,
//!    `aten::softmax`, …) with a thread ID and a begin/end timestamp.
//!    Parent/child structure is *not* stored; SKIP derives it from time
//!    containment (§IV-A of the paper).
//! 2. **Runtime launch events** — `cudaLaunchKernel` (and friends) calls on
//!    the CPU, each carrying a CUDA *correlation ID*.
//! 3. **GPU kernel events** — kernel executions on a stream, carrying the
//!    same correlation ID as the launch call that triggered them.
//!
//! This crate defines exactly that data model ([`Trace`], [`CpuOpEvent`],
//! [`RuntimeLaunchEvent`], [`KernelEvent`]), trace-level invariant checking
//! ([`Trace::validate`]), and a Chrome-trace/Perfetto JSON exporter
//! ([`chrome::to_chrome_trace`]) so simulated traces can be inspected with
//! the same UI used for real PyTorch traces.
//!
//! The simulated runtime (`skip-runtime`) *produces* these traces and the
//! SKIP profiler (`skip-core`) *consumes* them; keeping the format in its own
//! crate enforces that the profiler never peeks at simulator internals — it
//! sees only what CUPTI would have shown it.
//!
//! # Example
//!
//! ```
//! use skip_des::SimTime;
//! use skip_trace::{
//!     CorrelationId, KernelEvent, RuntimeLaunchEvent, StreamId, ThreadId, Trace, TraceMeta,
//! };
//!
//! let mut trace = Trace::new(TraceMeta::default());
//! let launch = trace.intern("cudaLaunchKernel");
//! trace.push_launch(RuntimeLaunchEvent {
//!     name: launch,
//!     thread: ThreadId::MAIN,
//!     begin: SimTime::from_nanos(0),
//!     end: SimTime::from_nanos(500),
//!     correlation: CorrelationId::new(1),
//! });
//! let gemm = trace.intern("ampere_fp16_s16816gemm");
//! trace.push_kernel(KernelEvent {
//!     name: gemm,
//!     stream: StreamId::DEFAULT,
//!     begin: SimTime::from_nanos(1_000),
//!     end: SimTime::from_nanos(5_000),
//!     correlation: CorrelationId::new(1),
//! });
//! assert_eq!(trace.kernels().len(), 1);
//! assert_eq!(trace.name(trace.kernels()[0].name), "ampere_fp16_s16816gemm");
//! trace.validate().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
mod event;
mod ids;
mod names;
mod sink;
mod trace;

pub use event::{CounterEvent, CpuOpEvent, KernelEvent, RuntimeLaunchEvent};
pub use ids::{CorrelationId, NameId, OpId, StreamId, ThreadId};
pub use names::NameTable;
pub use sink::{summarize_trace, EventSink, KernelClassTag, RunSummary};
pub use trace::{Trace, TraceError, TraceMeta};
