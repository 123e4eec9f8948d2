//! `perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Prints the host block, record digests and (traced) the layer ledger,
//! then one JSON result line. Exits 2 on bad arguments, 1 when the
//! workload fails or a correctness check does.

use lsbench_perfbench::workloads::Scale;
use lsbench_perfbench::{execute, Args, USAGE};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match execute(&args, Scale::full(args.workload)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &outcome.lines {
        println!("{line}");
    }
    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }
    match serde_json::to_string(&outcome.result) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
