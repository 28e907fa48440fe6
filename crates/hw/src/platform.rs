//! Assembled evaluation platforms (paper Table IV).

use serde::{Deserialize, Serialize};
use skip_des::SimDuration;

use crate::coupling::Coupling;
use crate::cpu::CpuModel;
use crate::gpu::GpuModel;
use crate::interconnect::Interconnect;

/// A complete CPU-GPU system: the unit the paper benchmarks.
///
/// Every field is public, so a custom or ablation platform is a preset
/// with parts swapped by struct-update syntax ("what if Grace had a
/// Xeon-class CPU?").
///
/// # Example
///
/// ```
/// use skip_hw::{CpuModel, Platform};
///
/// // Launch overheads reproduce Table V exactly.
/// assert!((Platform::amd_a100().launch_overhead().as_nanos_f64() - 2260.5).abs() < 1.0);
/// assert!((Platform::intel_h100().launch_overhead().as_nanos_f64() - 2374.6).abs() < 1.0);
/// assert!((Platform::gh200().launch_overhead().as_nanos_f64() - 2771.6).abs() < 1.0);
///
/// let hypothetical = Platform {
///     name: "gh200_xeon_cpu".into(),
///     cpu: CpuModel::xeon_8468v(),
///     ..Platform::gh200()
/// };
/// assert_eq!(hypothetical.gpu, Platform::gh200().gpu);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    /// Short machine identifier used in figures, e.g. `"intel_h100"`.
    pub name: String,
    /// The host CPU.
    pub cpu: CpuModel,
    /// The accelerator.
    pub gpu: GpuModel,
    /// The CPU↔GPU link.
    pub interconnect: Interconnect,
    /// Coupling paradigm.
    pub coupling: Coupling,
}

impl Platform {
    /// LC platform 1 (Table IV): AMD EPYC 7313 + A100-SXM4-80GB over PCIe
    /// Gen4.
    #[must_use]
    pub fn amd_a100() -> Self {
        Platform {
            name: "amd_a100".into(),
            cpu: CpuModel::epyc_7313(),
            gpu: GpuModel::a100_sxm4(),
            interconnect: Interconnect::pcie_gen4(),
            coupling: Coupling::Loose,
        }
    }

    /// LC platform 2 (Table IV): 2P Intel Xeon Platinum 8468V + H100 PCIe
    /// over PCIe Gen5.
    #[must_use]
    pub fn intel_h100() -> Self {
        Platform {
            name: "intel_h100".into(),
            cpu: CpuModel::xeon_8468v(),
            gpu: GpuModel::h100_pcie(),
            interconnect: Interconnect::pcie_gen5(),
            coupling: Coupling::Loose,
        }
    }

    /// CC platform (Table IV): NVIDIA Grace Hopper Superchip — Grace CPU +
    /// Hopper GPU over NVLink-C2C with unified virtual memory.
    #[must_use]
    pub fn gh200() -> Self {
        Platform {
            name: "gh200".into(),
            cpu: CpuModel::grace(),
            gpu: GpuModel::h100_gh200(),
            interconnect: Interconnect::nvlink_c2c(),
            coupling: Coupling::Close,
        }
    }

    /// TC platform (paper §VI future work): AMD Instinct MI300A APU with
    /// physically unified HBM3.
    #[must_use]
    pub fn mi300a() -> Self {
        Platform {
            name: "mi300a".into(),
            cpu: CpuModel::zen4_mi300a(),
            gpu: GpuModel::mi300a_cdna3(),
            interconnect: Interconnect::infinity_fabric(),
            coupling: Coupling::Tight,
        }
    }

    /// The three platforms the paper evaluates, in Table IV order.
    #[must_use]
    pub fn paper_trio() -> Vec<Platform> {
        vec![
            Platform::amd_a100(),
            Platform::intel_h100(),
            Platform::gh200(),
        ]
    }

    /// End-to-end kernel launch overhead on an idle GPU: the CPU-side
    /// `cudaLaunchKernel` cost plus the interconnect's launch-path latency.
    /// This is the quantity the paper's nullKernel microbenchmark measures
    /// (Table V) and the constant floor of TKLQT in the CPU-bound region.
    #[must_use]
    pub fn launch_overhead(&self) -> SimDuration {
        self.cpu.launch_call_cost() + self.interconnect.launch_latency()
    }

    /// The platform's power model (for the energy-efficiency extension).
    /// Preset platforms get their Table IV envelopes; custom builds fall
    /// back to the Intel+H100 model.
    #[must_use]
    pub fn power(&self) -> crate::PowerModel {
        match self.name.as_str() {
            "amd_a100" => crate::PowerModel::amd_a100(),
            "gh200" => crate::PowerModel::gh200(),
            "mi300a" => crate::PowerModel::mi300a(),
            _ => crate::PowerModel::intel_h100(),
        }
    }

    /// Host→device transfer time for `bytes` of input data; zero on
    /// tightly-coupled platforms with unified physical memory.
    #[must_use]
    pub fn h2d_transfer(&self, bytes: u64) -> SimDuration {
        if self.coupling.requires_h2d_copy() {
            self.interconnect.transfer_time(bytes)
        } else {
            SimDuration::ZERO
        }
    }

    /// Device→host transfer time for `bytes`. The links in Table IV are
    /// symmetric, so this prices like [`h2d_transfer`](Self::h2d_transfer):
    /// the device side of a migration staged through host memory, zero
    /// under tight coupling where "device" and "host" share physical HBM.
    #[must_use]
    pub fn d2h_transfer(&self, bytes: u64) -> SimDuration {
        self.h2d_transfer(bytes)
    }

    /// Time to hand `bytes` of KV cache from this platform's device to
    /// `dst`'s device, staged through host memory: a D2H drain over the
    /// source coupling plus an H2D fill over the destination coupling.
    /// Each leg collapses to zero when its side is tightly coupled, so the
    /// handoff price is derived from the same LC/CC/TC coupling model that
    /// prices every other transfer in the simulator.
    #[must_use]
    pub fn kv_handoff_time(&self, dst: &Platform, bytes: u64) -> SimDuration {
        self.d2h_transfer(bytes) + dst.h2d_transfer(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_overheads_reproduce_table_v() {
        let cases = [
            (Platform::amd_a100(), 2_260.5),
            (Platform::intel_h100(), 2_374.6),
            (Platform::gh200(), 2_771.6),
        ];
        for (p, expect) in cases {
            let got = p.launch_overhead().as_nanos_f64();
            assert!(
                (got - expect).abs() < 1.0,
                "{}: got {got}, expected {expect}",
                p.name
            );
        }
    }

    #[test]
    fn gh200_has_highest_launch_overhead_but_fastest_nullkernel() {
        // The Table V trade-off the paper highlights.
        let trio = Platform::paper_trio();
        let gh = Platform::gh200();
        for p in &trio {
            if p.name != gh.name {
                assert!(gh.launch_overhead() > p.launch_overhead());
                assert!(gh.gpu.nullkernel_duration() < p.gpu.nullkernel_duration());
            }
        }
    }

    #[test]
    fn coupling_assignment_matches_table_iv() {
        assert_eq!(Platform::amd_a100().coupling, Coupling::Loose);
        assert_eq!(Platform::intel_h100().coupling, Coupling::Loose);
        assert_eq!(Platform::gh200().coupling, Coupling::Close);
        assert_eq!(Platform::mi300a().coupling, Coupling::Tight);
    }

    #[test]
    fn tight_coupling_skips_h2d() {
        assert_eq!(Platform::mi300a().h2d_transfer(1 << 20), SimDuration::ZERO);
        assert!(Platform::gh200().h2d_transfer(1 << 20) > SimDuration::ZERO);
        assert!(
            Platform::intel_h100().h2d_transfer(1 << 20) > Platform::gh200().h2d_transfer(1 << 20)
        );
    }

    /// KV handoff is the sum of a source-coupling drain and a
    /// destination-coupling fill: PCIe→PCIe pays both legs, C2C→PCIe is
    /// cheaper on the drain side, and a tightly-coupled endpoint
    /// contributes nothing at all.
    #[test]
    fn kv_handoff_prices_both_coupling_legs() {
        let bytes = 256u64 << 20;
        let amd = Platform::amd_a100();
        let gh = Platform::gh200();
        let mi = Platform::mi300a();
        assert_eq!(
            amd.kv_handoff_time(&gh, bytes),
            amd.d2h_transfer(bytes) + gh.h2d_transfer(bytes)
        );
        assert!(
            gh.kv_handoff_time(&amd, bytes) < amd.kv_handoff_time(&amd, bytes),
            "a C2C source must drain faster than a PCIe Gen4 source"
        );
        assert_eq!(
            mi.kv_handoff_time(&mi, bytes),
            SimDuration::ZERO,
            "tight coupling on both ends makes the handoff free"
        );
        assert_eq!(mi.kv_handoff_time(&gh, bytes), gh.h2d_transfer(bytes));
    }

    #[test]
    fn paper_trio_is_three_distinct_platforms() {
        let trio = Platform::paper_trio();
        assert_eq!(trio.len(), 3);
        assert_ne!(trio[0].name, trio[1].name);
        assert_ne!(trio[1].name, trio[2].name);
    }
}
