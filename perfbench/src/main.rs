//! Command-line entry of the benchmark; see the library docs and
//! `README.md` beside this crate.

use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match cfx_perfbench::parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cfx-perfbench: {e}\n{}", cfx_perfbench::USAGE);
            return ExitCode::from(2);
        }
    };
    let outcome = cfx_perfbench::run(&opts, started);
    println!("{}", outcome.to_json(opts.trace));
    ExitCode::SUCCESS
}
