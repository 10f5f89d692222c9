//! Benchmark helper for `perfbench/run.py`.
//!
//! ```text
//! perfbench-probe runner                       (co-process; see runner.rs)
//! perfbench-probe trace --spans OUT.json [--roi I:X,Y,W,H]... IMG.pgm...
//! ```

mod refkernel;
mod runner;
mod trace;

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("runner") => runner::serve().map_err(|e| e.to_string()),
        Some("trace") => trace::run(&args[1..]),
        _ => Err(
            "usage: perfbench-probe runner | trace --spans OUT [--roi I:X,Y,W,H]... IMG...".into(),
        ),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench-probe: {e}");
            ExitCode::FAILURE
        }
    }
}
