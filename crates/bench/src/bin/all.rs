//! Regenerates every table and figure of the paper's evaluation in order.
use skip_bench::experiments::*;

fn main() {
    skip_bench::harness::init(env!("CARGO_BIN_NAME"), &[]);
    println!("{}", table1::render(&table1::run()));
    println!("{}", fig3::render(&fig3::run()));
    println!("{}", table5::render(&table5::run()));
    println!("{}", fig6::render(&fig6::run()));
    println!("{}", fig7::render(&fig7::run()));
    println!("{}", fig8::render(&fig8::run()));
    println!("{}", fig9::render(&fig9::run()));
    println!("{}", fig10::render(&fig10::run()));
    println!("{}", fig11::render(&fig11::run()));
}
