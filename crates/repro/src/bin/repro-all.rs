//! Regenerates every figure of the paper plus the ablations in one go.

use scp_repro::{Experiment, Opts};
use scp_sim::cli;
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = match cli::from_env(&Opts::flags()) {
        Ok(opts) => opts,
        Err(code) => return code,
    };
    // scp-allow(wall-clock): progress display only; never enters tables,
    // CSVs or journals, so replays stay bit-for-bit identical
    let started = std::time::Instant::now();
    // Every group runs even after an earlier one fails.
    let failures = Experiment::ALL
        .into_iter()
        .filter(|experiment| !experiment.report(&opts))
        .count();
    // scp-allow(wall-clock): progress display only; never enters tables,
    // CSVs or journals, so replays stay bit-for-bit identical
    println!("done in {:.1}s", started.elapsed().as_secs_f64());
    if failures > 0 {
        eprintln!("{failures} experiment group(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
