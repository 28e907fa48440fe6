//! Regenerates the paper's fig6 (see `skip_bench::experiments::fig6`).
fn main() {
    skip_bench::harness::init(env!("CARGO_BIN_NAME"), &[]);
    let results = skip_bench::experiments::fig6::run();
    println!("{}", skip_bench::experiments::fig6::render(&results));
}
