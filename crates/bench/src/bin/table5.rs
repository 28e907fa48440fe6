//! Regenerates the paper's table5 (see `skip_bench::experiments::table5`).
fn main() {
    skip_bench::harness::init(env!("CARGO_BIN_NAME"), &[]);
    let results = skip_bench::experiments::table5::run();
    println!("{}", skip_bench::experiments::table5::render(&results));
}
