//! Regenerates the paper's fig10 (see `skip_bench::experiments::fig10`).
fn main() {
    skip_bench::harness::init(env!("CARGO_BIN_NAME"), &[]);
    let results = skip_bench::experiments::fig10::run();
    println!("{}", skip_bench::experiments::fig10::render(&results));
}
