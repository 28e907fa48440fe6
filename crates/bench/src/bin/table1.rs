//! Regenerates the paper's table1 (see `skip_bench::experiments::table1`).
fn main() {
    skip_bench::harness::init(env!("CARGO_BIN_NAME"), &[]);
    let results = skip_bench::experiments::table1::run();
    println!("{}", skip_bench::experiments::table1::render(&results));
}
