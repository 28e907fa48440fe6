//! # skip-hw — calibrated CPU, GPU, interconnect and platform models
//!
//! The paper evaluates physical machines; this crate is the *simulated
//! substitute*: analytical performance models of the processing units and
//! interconnects of the three evaluation platforms (plus a tightly-coupled
//! MI300A-like platform from the paper's future-work list).
//!
//! The models capture exactly the effects the paper measures:
//!
//! * **CPU** ([`CpuModel`]) — serial operator-dispatch cost scaled by
//!   single-thread performance (the paper's key low-batch factor: the Grace
//!   CPU dispatches operators ~2.8× slower than the Xeon), plus the CPU-side
//!   cost of a `cudaLaunchKernel` call.
//! * **GPU** ([`GpuModel`]) — per-kernel duration from a roofline model with
//!   occupancy ramps: `t = overhead + max(flops/(peak·eff_c),
//!   bytes/(bw·eff_m))`, where the efficiencies saturate with work size.
//!   Small-batch kernels under-utilize the device; the GH200's doubled HBM3
//!   bandwidth shortens memory-bound kernels, which is what extends its
//!   CPU-bound region to 4× larger batch sizes.
//! * **Interconnect** ([`Interconnect`]) — PCIe generations vs NVLink-C2C vs
//!   on-package Infinity Fabric: launch-path latency and host↔device copy
//!   bandwidth.
//! * **Platform** ([`Platform`]) — the assembled systems with presets
//!   [`Platform::amd_a100`], [`Platform::intel_h100`], [`Platform::gh200`]
//!   and [`Platform::mi300a`], calibrated against the paper's own Table V
//!   launch-overhead measurements.
//!
//! # Example
//!
//! ```
//! use skip_hw::{KernelClass, KernelWork, Platform};
//!
//! let gh200 = Platform::gh200();
//! // Table V: GH200 measures ~2771.6 ns nullKernel launch overhead.
//! let t = gh200.launch_overhead();
//! assert!((t.as_nanos_f64() - 2771.6).abs() < 1.0);
//!
//! // A 512x768x768 FP16 GEMM runs faster on GH200's HBM3 than on the
//! // PCIe H100 because at this size it is memory-bandwidth-bound.
//! let gemm = KernelWork::gemm(512, 768, 768, 2);
//! let h100 = Platform::intel_h100();
//! assert!(gh200.gpu.kernel_duration(&gemm) < h100.gpu.kernel_duration(&gemm));
//! # assert!(matches!(gemm.class, KernelClass::Gemm));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coupling;
mod cpu;
mod gpu;
mod interconnect;
mod kernel;
mod platform;
mod power;

pub use coupling::Coupling;
pub use cpu::{CpuModel, OpComplexity};
pub use gpu::GpuModel;
pub use interconnect::{Interconnect, InterconnectKind};
pub use kernel::{KernelClass, KernelWork};
pub use platform::Platform;
pub use power::PowerModel;
