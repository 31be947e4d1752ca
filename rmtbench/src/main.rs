//! `rmtbench --workload NAME --seed N --seconds S --trace 0|1`

use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match rmtbench::runner::parse_args(&argv) {
        Ok(args) => ExitCode::from(rmtbench::runner::run(args, started) as u8),
        Err(e) => {
            eprintln!("rmtbench: {e}\n{}", rmtbench::runner::USAGE);
            ExitCode::from(2)
        }
    }
}
