//! Runs `esa_bench` as the workspace builds it, passing every argument on.
//!
//! Started from the root of a checkout (where the pipeline starts it), so
//! the harness and the program under test are compiled by the root manifest:
//! its release profile, its lock file. Anywhere else — a directory holding
//! only the benchmark's files — cargo finds no such package and this exits
//! non-zero without printing a result.

use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    let status = Command::new("cargo")
        .args(["run", "--release", "--offline", "--quiet"])
        .args(["-p", "prochlo-bench", "--bin", "esa_bench", "--"])
        .args(std::env::args_os().skip(1))
        .status();
    match status {
        Ok(status) if status.success() => ExitCode::SUCCESS,
        // The harness exits 1 on a failed oracle and 2 on a usage error; a
        // signal has no code.
        Ok(status) => ExitCode::from(status.code().map_or(1, |code| code.clamp(1, 255) as u8)),
        Err(e) => {
            eprintln!("esa_bench_launch: cannot run cargo: {e}");
            ExitCode::FAILURE
        }
    }
}
