//! Regenerates the paper's fig3 (see `skip_bench::experiments::fig3`).
fn main() {
    skip_bench::harness::init(env!("CARGO_BIN_NAME"), &[]);
    let results = skip_bench::experiments::fig3::run();
    println!("{}", skip_bench::experiments::fig3::render(&results));
}
