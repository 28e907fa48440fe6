//! Regenerates the paper's fig7 (see `skip_bench::experiments::fig7`).
fn main() {
    skip_bench::harness::init(env!("CARGO_BIN_NAME"), &[]);
    let results = skip_bench::experiments::fig7::run();
    println!("{}", skip_bench::experiments::fig7::render(&results));
}
