//! Bisection search for the empirical critical cache size `c*` — the
//! smallest cache at which the best-response attack gain drops to 1.0.
//!
//! Paper setup: 1000 back-end nodes, replication 3, 1e6 stored keys
//! (`--fast`: 100 nodes, 1e5 keys); 200 repetitions per probe.

use scp_repro::Opts;
use scp_sim::cli;
use scp_sim::config::SimConfig;
use scp_sim::critical::find_critical_cache_size;
use scp_sim::SimError;
use std::process::ExitCode;

fn run(opts: &Opts) -> Result<(), SimError> {
    let (nodes, items) = if opts.fast {
        (100, 100_000)
    } else {
        (1000, 1_000_000)
    };
    let base = SimConfig::builder()
        .nodes(nodes)
        .replication(3)
        .items(items)
        .rate(1e6)
        .cache_capacity(0)
        .attack_x(items)
        .partitioner(opts.common.partitioner)
        .selector(opts.common.selector)
        .seed(opts.common.seed)
        .build()?;
    let runs = opts.effective_runs(200);
    let point = find_critical_cache_size(&base, runs, opts.threads)?;
    println!(
        "empirical critical cache size: c* = {} (gain {:.4} there, {} probes, n={nodes}, m={items}, {runs} runs)",
        point.cache_size, point.gain_at, point.evaluations
    );
    for probe in &point.trace {
        println!("  probed c={:<8} gain {:.4}", probe.cache_size, probe.gain);
    }
    Ok(())
}

fn main() -> ExitCode {
    match cli::from_env(&Opts::flags()).map(|opts| run(&opts)) {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(e)) => {
            eprintln!("critical search failed: {e}");
            ExitCode::FAILURE
        }
        Err(code) => code,
    }
}
