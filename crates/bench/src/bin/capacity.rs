//! Regenerates the capacity-frontier sweep: the planner's cost-optimal
//! fleet for the reference traffic envelope. `--threads N` pins the
//! fan-out worker count; the rendered output is byte-identical at any.
//! `--max-replicas N` opens up the candidate space (default 4; the
//! EXPERIMENTS.md 12-replica frontier is `--max-replicas 12`).
use skip_bench::experiments::capacity;

fn main() {
    skip_bench::harness::init(env!("CARGO_BIN_NAME"), &["max-replicas"]);
    let max_replicas = skip_bench::harness::count_arg("max-replicas", 1u32).unwrap_or(4);
    let sweep = capacity::run_at(max_replicas, skip_bench::harness::threads());
    println!("{}", capacity::render(&sweep));
}
