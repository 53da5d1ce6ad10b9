//! The repository benchmark: end-to-end throughput and answer time of the
//! `scp-serve` query path and the paper-scale figure pipeline, with a
//! traced stage-replay run that attributes the time to layers.
//!
//! ```text
//! perfbench --workload <serve-attack|serve-zipf|serve-live|figures|all>
//!           --seed <n> --seconds <s> --trace <0|1> [--commit <id>]
//! ```
//!
//! Human-readable lines come first; the last stdout line is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. A failed
//! output check prints `correct: false`, names the workload on stderr and
//! exits with status 1. See `README.md` for the workloads and metrics.

mod calib;
mod figures;
mod serve;
mod stats;
mod trace;

use scp_json::Json;
use std::time::Duration;

/// A second seed, fixed here, for re-checking a claim on inputs it was
/// not tuned on.
pub const RECHECK_SEED: u64 = 0x0005_EC0D;

/// What a workload run hands back for printing.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted (queries submitted, or grid-point runs).
    pub attempted: u64,
    /// Operations whose output failed a check (lost, mis-processed or
    /// not bit-equal to the reference).
    pub failed: u64,
    /// Failed output checks, each naming what went wrong.
    pub errors: Vec<String>,
    /// Metrics for the result line: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Extra human-readable result lines.
    pub notes: Vec<String>,
    /// The workload's shape, for the result header.
    pub shape: Json,
    /// Timed iterations the metrics summarize.
    pub iterations: usize,
}

impl Default for Outcome {
    fn default() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
            shape: Json::Null,
            iterations: 0,
        }
    }
}

impl Outcome {
    /// Records a failed check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.errors.push(what.into());
    }

    /// Adds a metric to the result line.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }
}

/// Every workload, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["serve-attack", "serve-zipf", "serve-live", "figures"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut commit) =
        (None, None, None, false, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {value} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                }
            }
            "--commit" => commit = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace,
        commit,
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set size of this process so far (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Worker threads the runner and the result header use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn run_workload(name: &str, args: &Args) -> Outcome {
    let budget = Duration::from_secs_f64(args.seconds);
    match (name, args.trace) {
        ("figures", false) => figures::measure(args.seed, budget),
        ("figures", true) => figures::traced(args.seed, budget),
        (_, false) => serve::measure(name, args.seed, budget),
        (_, true) => serve::traced(name, args.seed, budget),
    }
}

fn metrics_json(metrics: &[(String, f64, &'static str)]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Json::obj([
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str((*unit).to_owned())),
                    ]),
                )
            })
            .collect(),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            std::process::exit(2);
        }
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let mut all_metrics: Vec<(String, f64, &'static str)> = Vec::new();
    for name in &names {
        let out = run_workload(name, &args);
        let header = Json::obj([
            ("workload", Json::Str((*name).to_owned())),
            ("seed", Json::Str(args.seed.to_string())),
            ("recheck_seed", Json::Str(RECHECK_SEED.to_string())),
            ("seconds", Json::Num(args.seconds)),
            ("traced", Json::Bool(args.trace)),
            ("iterations", Json::Num(out.iterations as f64)),
            ("nproc", Json::Num(nproc() as f64)),
            ("cpu", Json::Str(cpu_model())),
            (
                "rustc",
                Json::Str(env!("PERFBENCH_RUSTC_VERSION").to_owned()),
            ),
            ("commit", args.commit.clone().map_or(Json::Null, Json::Str)),
            ("shape", out.shape.clone()),
        ]);
        println!("# {name} header {header}");
        for note in &out.notes {
            println!("# {name} {note}");
        }
        for (metric, value, unit) in &out.metrics {
            println!("# {name} {metric} = {value} {unit}");
        }
        for error in &out.errors {
            eprintln!("perfbench: {name}: check failed: {error}");
        }
        attempted += out.attempted;
        failed += out.failed;
        correct &= out.errors.is_empty() && out.failed == 0 && out.attempted > 0;
        for (metric, value, unit) in out.metrics {
            let key = if names.len() == 1 {
                metric.to_owned()
            } else {
                format!("{name}.{metric}")
            };
            all_metrics.push((key, value, unit));
        }
    }
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics_json(&all_metrics)),
    ]);
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}
