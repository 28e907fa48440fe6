//! Architecture what-if: how much of the GH200's low-batch latency penalty
//! is the Grace CPU?
//!
//! The paper's conclusion says addressing the CC bottleneck "requires
//! enhancing CPU performance or employing intelligent scheduling". The
//! public fields of [`Platform`] let us test that counterfactual directly:
//! swap the Grace CPU for the Xeon 8468V with struct-update syntax
//! (keeping the Hopper GPU, NVLink-C2C and coupling), and re-run the BERT
//! batch sweep.
//!
//! Run with: `cargo run --example what_if_grace`

use skip_core::ProfileReport;
use skip_hw::{CpuModel, Platform};
use skip_llm::{zoo, Phase, Workload};
use skip_runtime::{Engine, ExecMode};

fn main() {
    let gh200 = Platform::gh200();
    let hypothetical = Platform {
        name: "gh200_xeon_cpu".into(),
        cpu: CpuModel::xeon_8468v(),
        ..gh200.clone()
    };
    let intel = Platform::intel_h100();

    println!("BERT-base prefill TTFT (ms), seq=512:\n");
    println!(
        "{:>6} {:>12} {:>16} {:>12}",
        "batch", "gh200", "gh200+XeonCPU", "intel_h100"
    );
    for bs in [1u32, 2, 4, 8, 16, 32, 64] {
        let wl = Workload::new(zoo::bert_base_uncased(), Phase::Prefill, bs, 512);
        let t = |p: &Platform| {
            ProfileReport::analyze(&Engine::new(p.clone()).run(&wl, ExecMode::Eager))
                .inference_latency
                .as_millis_f64()
        };
        println!(
            "{:>6} {:>12.2} {:>16.2} {:>12.2}",
            bs,
            t(&gh200),
            t(&hypothetical),
            t(&intel)
        );
    }

    println!("\nWith a Xeon-class CPU the closely-coupled system dominates at *every* batch size:");
    println!("the low-batch penalty is a CPU artifact, not a property of close coupling.");
}
