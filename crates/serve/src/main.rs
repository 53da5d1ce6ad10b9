//! `scp-serve`: run the sharded serving engine from the command line.
//!
//! Three entry points:
//!
//! * default — one threaded run, printing a human summary (or `--json`);
//! * `--deterministic` — bit-reproducible single-threaded run(s); with
//!   `--runs N` the batch journals exactly like a simulation batch;
//! * `--smoke` — the CI acceptance gates of [`scp_serve::smoke`].
//!
//! The flags live in [`scp_serve::cli`]; `--help` lists them.

use scp_serve::{
    repeat_serve_journaled, run_deterministic, run_threaded, smoke_gates, ServeConfig, ServeOpts,
    ServeReport,
};
use scp_sim::cli;
use scp_sim::runner::StopRule;
use std::process::ExitCode;

fn print_summary(report: &ServeReport) {
    println!(
        "mode={} shards={} submitted={} hits={} processed={} shed={} (capacity={} backpressure={}) unserved={}",
        if report.deterministic { "deterministic" } else { "threaded" },
        report.shards.len(),
        report.submitted,
        report.cache_hits,
        report.processed(),
        report.shed(),
        report.shed_capacity(),
        report.shed_backpressure(),
        report.unserved,
    );
    println!(
        "gain={:.4} throughput={:.0} q/s ({:.0} q/min) duration={:.3}s conserved={} drained={}",
        report.gain(),
        report.throughput_qps(),
        report.throughput_qpm(),
        report.duration_secs,
        report.is_conserved(),
        report.is_drained(),
    );
    if report.pow_rejected > 0 || report.pow_attempts > 0 {
        println!(
            "pow_rejected={} pow_attempts={} legit(sub={} hits={} rej={}) attack(sub={} hits={} rej={})",
            report.pow_rejected,
            report.pow_attempts,
            report.legit.submitted,
            report.legit.hits,
            report.legit.pow_rejected,
            report.attack.submitted,
            report.attack.hits,
            report.attack.pow_rejected,
        );
    }
    if report.sketch_resets > 0 {
        println!(
            "sketch_resets={} cache_rejections={}",
            report.sketch_resets, report.cache_rejections
        );
    }
    if report.reshards > 0 {
        println!(
            "reshards={} epoch={} migrated={}",
            report.reshards, report.epoch, report.migrated
        );
    }
    if report.intake_batches > 0 {
        println!(
            "intake_batches={} recycled={}",
            report.intake_batches, report.intake_recycled
        );
    }
}

fn main() -> ExitCode {
    let opts = match cli::from_env(&ServeOpts::flags()) {
        Ok(opts) => opts,
        Err(code) => return code,
    };
    if opts.smoke {
        let gates = smoke_gates(opts.common.seed);
        for gate in &gates {
            let verdict = if gate.pass { "PASS" } else { "FAIL" };
            println!("{verdict} {}: {}", gate.name, gate.detail);
        }
        return if gates.iter().all(|g| g.pass) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let cfg = match opts.config() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = serve(&opts, &cfg) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// One run, or a journaled batch of `--runs` deterministic runs.
fn serve(opts: &ServeOpts, cfg: &ServeConfig) -> scp_serve::Result<()> {
    if opts.deterministic && opts.runs > 1 {
        let out = repeat_serve_journaled(cfg, &StopRule::fixed(opts.runs), opts.threads)?;
        if opts.json {
            println!("{}", out.journal.to_json().to_pretty_string());
            return Ok(());
        }
        for report in &out.reports {
            print_summary(report);
        }
        println!(
            "runs={} mean_gain={:.4} max_gain={:.4}",
            out.reports.len(),
            out.aggregate.mean_gain(),
            out.aggregate.max_gain()
        );
        return Ok(());
    }
    let report = if opts.deterministic {
        run_deterministic(cfg)?
    } else {
        run_threaded(cfg)?
    };
    if opts.json {
        println!("{}", report.to_json().to_pretty_string());
    } else {
        print_summary(&report);
    }
    Ok(())
}
