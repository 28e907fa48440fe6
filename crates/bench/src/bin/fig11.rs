//! Regenerates the paper's fig11 (see `skip_bench::experiments::fig11`).
fn main() {
    skip_bench::harness::init(env!("CARGO_BIN_NAME"), &[]);
    let results = skip_bench::experiments::fig11::run();
    println!("{}", skip_bench::experiments::fig11::render(&results));
}
