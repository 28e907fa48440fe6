//! Regenerates the paper's Fig. 9 (see `skip_bench::experiments::fig9`).
fn main() {
    skip_bench::harness::init(env!("CARGO_BIN_NAME"), &[]);
    let results = skip_bench::experiments::fig9::run();
    println!("{}", skip_bench::experiments::fig9::render(&results));
}
