//! Regenerates the extension experiments (beyond the paper's figures):
//! applied-fusion validation, decode-phase TPOT sweeps, and the ablation
//! suite.
use skip_bench::experiments::{
    ablations, capacity, decode, energy, fleet_disagg, fusion_applied, future_workloads,
    kv_capacity, seqlen, serving, serving_observability, serving_policies,
};

fn main() {
    skip_bench::harness::init(env!("CARGO_BIN_NAME"), &[]);
    println!("{}", fusion_applied::render(&fusion_applied::run()));
    println!("{}", decode::render(&decode::run()));
    println!("{}", ablations::render_all());
    println!("{}", future_workloads::render_all());
    println!("{}", energy::render(&energy::run()));
    println!("{}", serving::render(&serving::run()));
    println!(
        "{}",
        serving_observability::render(&serving_observability::run())
    );
    println!("{}", serving_policies::render(&serving_policies::run()));
    println!("{}", seqlen::render(&seqlen::run()));
    println!("{}", kv_capacity::render(&kv_capacity::run()));
    println!(
        "{}",
        fleet_disagg::render(&fleet_disagg::run(), &fleet_disagg::run_coupling())
    );
    println!("{}", capacity::render(&capacity::run()));
}
