//! Regenerates the paper's fig8 (see `skip_bench::experiments::fig8`).
fn main() {
    skip_bench::harness::init(env!("CARGO_BIN_NAME"), &[]);
    let results = skip_bench::experiments::fig8::run();
    println!("{}", skip_bench::experiments::fig8::render(&results));
}
