//! The `figures` workload: the paper-scale figure pipeline.
//!
//! n=1000, d=3, m=1e6, hash partitioner, least-loaded selector, runner
//! threads = available cores. One iteration is a journaled Fig-3(a)
//! sweep (c=200, the 60 log-spaced `x` of the figure, 12 runs) with its
//! journals encoded to JSON, then one `find_critical_cache_size` over 10
//! runs. Partition build (`RunSweep::new`) is most of the sweep; the grid
//! walk is about half of the critical search.

use crate::calib::{block_median, Speeds};
use crate::stats::{iqr_share, median, quartiles, slow_tail};
use crate::trace::{layer_totals, self_times, Span, Tracer};
use crate::{nproc, peak_rss_mb, Outcome};
use scp_cluster::{Cluster, KeyId};
use scp_core::bounds::{critical_cache_size, KParam};
use scp_json::Json;
use scp_repro::fig3::log_spaced;
use scp_sim::critical::{bisect_threshold, find_critical_cache_size, CriticalPoint};
use scp_sim::journal::RunJournal;
use scp_sim::rate_engine::run_rate_simulation;
use scp_sim::runner::StopRule;
use scp_sim::sweep::{
    effective_capacity, evaluate_many, repeat_sweep_journaled, RunSweep, SweepPoint, SweepRun,
};
use scp_sim::{LoadReport, SimConfig};
use scp_workload::permute::KeyMapping;
use scp_workload::rng::mix;
use std::hint::black_box;
use std::time::{Duration, Instant};

const NODES: usize = 1000;
const ITEMS: u64 = 1_000_000;
const CACHE: usize = 200;
const GRID_POINTS: usize = 60;
/// Runs per sweep and per critical search. Two runner threads interleave
/// unevenly, so one iteration varies by about 12%; 12 + 10 runs (about
/// 1.6 s an iteration) fit a dozen iterations in a 20 s run, where 40 + 20
/// fit four or five and left 10–13% between the medians of runs. A dozen
/// iterations also keep the per-run tail sample between 100 and 200, at
/// one tail percentile (p90), from a slow machine state to a fast one.
const SWEEP_RUNS: usize = 12;
const CRITICAL_RUNS: usize = 10;

/// Wall time spent timing set-up repetitions after each iteration.
const SETUP_BLOCK: Duration = Duration::from_millis(50);

/// The figure configuration and the Fig-3(a) grid.
struct Setup {
    base: SimConfig,
    points: Vec<SweepPoint>,
    theory_c: usize,
}

fn setup(seed: u64) -> Setup {
    let base = SimConfig::builder()
        .nodes(NODES)
        .replication(3)
        .items(ITEMS)
        .rate(1e5)
        .cache_capacity(CACHE)
        .seed(seed)
        .build()
        .expect("the paper's figure shape is valid");
    let points = log_spaced(CACHE as u64 + 1, ITEMS, GRID_POINTS)
        .into_iter()
        .map(|x| SweepPoint { cache: CACHE, x })
        .collect();
    let theory_c = critical_cache_size(base.nodes, base.replication, &KParam::theory());
    Setup {
        base,
        points,
        theory_c,
    }
}

fn shape_json(s: &Setup, threads: usize) -> Json {
    Json::obj([
        ("sim", s.base.describe_json()),
        ("cache", Json::Num(CACHE as f64)),
        ("grid_points", Json::Num(s.points.len() as f64)),
        ("sweep_runs", Json::Num(SWEEP_RUNS as f64)),
        ("critical_runs", Json::Num(CRITICAL_RUNS as f64)),
        ("runner_threads", Json::Num(threads as f64)),
    ])
}

/// Bit pattern of every (point, run) outcome, for exact comparison.
fn outcome_bits(runs: &[Vec<LoadReport>]) -> Vec<u64> {
    runs.iter()
        .flatten()
        .flat_map(|r| {
            [
                r.max_load().to_bits(),
                r.gain().value().to_bits(),
                r.cache_load.to_bits(),
            ]
        })
        .collect()
}

/// One timed iteration of the pipeline.
struct Iteration {
    /// Machine speed factors over the sweep and over the critical search.
    sweep_speed: f64,
    critical_speed: f64,
    sweep_secs: f64,
    encode_secs: f64,
    journal_bytes: usize,
    critical_secs: f64,
    run_secs: Vec<f64>,
    reports: Vec<Vec<LoadReport>>,
    critical: CriticalPoint,
}

fn iterate(s: &Setup, threads: usize, speeds: &mut Speeds) -> Result<Iteration, String> {
    let t = Instant::now();
    let runs: Vec<SweepRun> =
        repeat_sweep_journaled(&s.base, &s.points, &StopRule::fixed(SWEEP_RUNS), threads)
            .map_err(|e| e.to_string())?;
    let sweep_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let journal_bytes: usize = runs
        .iter()
        .map(|r| r.journaled.journal.to_json().to_string().len())
        .sum();
    let encode_secs = t.elapsed().as_secs_f64();
    speeds.sample();
    let t = Instant::now();
    let critical =
        find_critical_cache_size(&s.base, CRITICAL_RUNS, threads).map_err(|e| e.to_string())?;
    let critical_secs = t.elapsed().as_secs_f64();
    speeds.sample();
    let last = speeds.intervals();
    let (sweep_speed, critical_speed) = (speeds.around(last - 2, 0), speeds.around(last - 1, 0));
    let run_secs = runs
        .first()
        .map(|r| {
            r.journaled
                .journal
                .records
                .iter()
                .map(|rec| rec.duration_secs)
                .collect()
        })
        .unwrap_or_default();
    Ok(Iteration {
        sweep_speed,
        critical_speed,
        sweep_secs,
        encode_secs,
        journal_bytes,
        critical_secs,
        run_secs,
        reports: runs.into_iter().map(|r| r.journaled.reports).collect(),
        critical,
    })
}

/// Checks one iteration: every point journals every run, each run's
/// sampled grid point is bit-equal to the per-point engine (first
/// iteration), and outcomes and c* repeat exactly (later ones).
/// Returns the number of failed operations.
fn check(
    s: &Setup,
    it: &Iteration,
    first: Option<&(Vec<u64>, CriticalPoint)>,
    out: &mut Outcome,
) -> u64 {
    let mut failed = 0;
    for (point, reports) in s.points.iter().zip(&it.reports) {
        if reports.len() != SWEEP_RUNS {
            out.fail(format!(
                "x={} journaled {} of {SWEEP_RUNS} runs",
                point.x,
                reports.len()
            ));
            failed += SWEEP_RUNS as u64;
        }
    }
    match first {
        None => {
            for run in 0..SWEEP_RUNS {
                let index = (mix(&[s.base.seed, run as u64]) % s.points.len() as u64) as usize;
                let point = s.points[index];
                let reference = s
                    .base
                    .to_builder()
                    .attack_x(point.x)
                    .build()
                    .map(|cfg| cfg.for_run(run as u64))
                    .and_then(|cfg| run_rate_simulation(&cfg));
                let got = it.reports.get(index).and_then(|r| r.get(run));
                match reference {
                    Ok(want) if got == Some(&want) => {}
                    Ok(_) => {
                        failed += 1;
                        out.fail(format!(
                            "run {run} at x={} differs from run_rate_simulation",
                            point.x
                        ));
                    }
                    Err(e) => {
                        failed += 1;
                        out.fail(format!("reference run {run} at x={}: {e}", point.x));
                    }
                }
            }
        }
        Some((bits, critical)) => {
            if outcome_bits(&it.reports) != *bits {
                failed += (s.points.len() * SWEEP_RUNS) as u64;
                out.fail("sweep outcomes changed between iterations");
            }
            if it.critical != *critical {
                failed += 1;
                out.fail(format!(
                    "c* changed between iterations: {} vs {}",
                    it.critical.cache_size, critical.cache_size
                ));
            }
        }
    }
    failed
}

/// Runs checked, speed-bracketed iterations of the pipeline.
struct Checked<'a> {
    s: &'a Setup,
    threads: usize,
    speeds: Speeds,
    first: Option<(Vec<u64>, CriticalPoint)>,
}

impl<'a> Checked<'a> {
    fn new(s: &'a Setup, threads: usize) -> Self {
        Self {
            s,
            threads,
            speeds: Speeds::start(threads),
            first: None,
        }
    }

    /// One timed iteration with its output checks (`None` on an error).
    fn next(&mut self, out: &mut Outcome) -> Option<Iteration> {
        let it = match iterate(self.s, self.threads, &mut self.speeds) {
            Ok(it) => it,
            Err(e) => {
                out.fail(format!("figure pipeline: {e}"));
                return None;
            }
        };
        out.attempted += (self.s.points.len() * SWEEP_RUNS) as u64 + 1;
        out.failed += check(self.s, &it, self.first.as_ref(), out);
        if self.first.is_none() {
            self.first = Some((outcome_bits(&it.reports), it.critical.clone()));
        }
        Some(it)
    }
}

/// Runner busy time over runner capacity in the sweep.
fn utilization(it: &Iteration, threads: usize) -> f64 {
    it.run_secs.iter().sum::<f64>() / (it.sweep_secs * threads as f64)
}

/// The untraced run: every end-to-end metric of the figure pipeline.
pub fn measure(seed: u64, budget: Duration) -> Outcome {
    let threads = nproc();
    let s = setup(seed);
    let mut out = Outcome {
        shape: shape_json(&s, threads),
        ..Outcome::default()
    };
    let mut checked = Checked::new(&s, threads);
    let mut done: Vec<Iteration> = Vec::new();
    let (mut rss, mut setup_raw): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while out.errors.is_empty() && (done.is_empty() || started.elapsed() < budget) {
        match checked.next(&mut out) {
            Some(it) => done.push(it),
            None => break,
        }
        rss.push(peak_rss_mb());
        // Set-up: building the figure config and the Fig-3(a) grid.
        setup_raw.push(block_median(SETUP_BLOCK, || {
            black_box(setup(black_box(seed)));
        }));
    }
    out.iterations = done.len();
    let grid_runs = (s.points.len() * SWEEP_RUNS) as f64;
    let raw_rates: Vec<f64> = done
        .iter()
        .map(|it| grid_runs / (it.sweep_secs + it.encode_secs))
        .collect();
    let rates: Vec<f64> = done
        .iter()
        .zip(&raw_rates)
        .map(|(it, raw)| raw / it.sweep_speed)
        .collect();
    // Per-run rates scaled by the runner count: the pipeline rate if
    // every run were as slow as this one.
    let run_rates: Vec<f64> = done
        .iter()
        .flat_map(|it| it.run_secs.iter().map(|secs| secs * it.sweep_speed))
        .map(|secs| s.points.len() as f64 * threads as f64 / secs)
        .collect();
    let rate = median(&rates).unwrap_or(0.0);
    let tail = slow_tail(&run_rates, true);
    let (tail_level, tail_rate) = tail.unwrap_or((
        100.0,
        run_rates.iter().copied().fold(f64::INFINITY, f64::min),
    ));
    let critical: Vec<f64> = done
        .iter()
        .map(|it| it.critical_secs * it.critical_speed)
        .collect();
    let critical_raw: Vec<f64> = done.iter().map(|it| it.critical_secs).collect();
    let critical_s = median(&critical).unwrap_or(0.0);
    out.notes.push(format!(
        "fig3_points_per_s = {rate} 1/s at reference speed (raw {} 1/s; grid points x runs \
         per second, median of {} sweeps, quartiles {:?}, IQR/median {:?})",
        median(&raw_rates).unwrap_or(0.0),
        rates.len(),
        quartiles(&rates),
        iqr_share(&rates)
    ));
    out.notes.push(format!(
        "fig3_points_per_s_p{tail_level} = {tail_rate} 1/s (slow tail of {} per-run rates x {threads} threads)",
        run_rates.len()
    ));
    out.notes.push(format!(
        "critical_s = {critical_s} s at reference speed (raw {} s; median of {} searches; c* = {})",
        median(&critical_raw).unwrap_or(0.0),
        critical.len(),
        done.first().map_or(0, |it| it.critical.cache_size)
    ));
    let share = if out.attempted == 0 {
        0.0
    } else {
        1.0 - out.failed as f64 / out.attempted as f64
    };
    let setup_norm: Vec<f64> = done
        .iter()
        .zip(&setup_raw)
        .map(|(it, secs)| secs * it.critical_speed)
        .collect();
    out.notes.push(format!(
        "setup raw {} s (median of {} blocks)",
        median(&setup_raw).unwrap_or(0.0),
        setup_raw.len()
    ));
    out.metric("work_per_s", rate, "1/s");
    out.metric("work_per_s_tail", tail_rate, "1/s");
    out.metric("served_share", share, "ratio");
    out.metric("answer_s", critical_s, "s");
    out.metric("setup_s", median(&setup_norm).unwrap_or(0.0), "s");
    // Peak memory through the first iteration (see `serve::measure`).
    out.metric("peak_rss_mb", rss.first().copied().unwrap_or(0.0), "MB");
    out.notes
        .push(format!("peak_rss_mb after each iteration {rss:?}"));
    out
}

/// Where traced runner jobs run and record: the runner threads and the
/// trace epoch their spans use.
struct Runners {
    threads: usize,
    epoch: Instant,
}

impl Runners {
    /// Runs `job` for runs `0..runs` striped over the runner threads, each
    /// thread recording its own spans; returns the results in run order
    /// and every thread's spans.
    fn run<T: Send>(
        &self,
        runs: usize,
        job: impl Fn(usize, &mut Tracer) -> Result<T, String> + Sync,
    ) -> Result<(Vec<T>, Vec<Span>), String> {
        let threads = self.threads.max(1);
        let mut slots: Vec<Option<T>> = (0..runs).map(|_| None).collect();
        let mut spans = Vec::new();
        let mut first_err = None;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let job = &job;
                    scope.spawn(move || {
                        let mut tracer = Tracer::new(self.epoch);
                        let done: Vec<(usize, Result<T, String>)> = (t..runs)
                            .step_by(threads)
                            .map(|run| (run, job(run, &mut tracer)))
                            .collect();
                        (done, tracer.into_spans())
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok((done, mut thread_spans)) => {
                        spans.append(&mut thread_spans);
                        for (run, result) in done {
                            match result {
                                Ok(value) => slots[run] = Some(value),
                                Err(e) => {
                                    first_err.get_or_insert(e);
                                }
                            }
                        }
                    }
                    Err(_) => {
                        first_err.get_or_insert("runner thread panicked".to_owned());
                    }
                }
            }
        });
        if let Some(e) = first_err {
            return Err(e);
        }
        let values = slots
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or("a run produced no result")?;
        Ok((values, spans))
    }
}

/// What one traced replay iteration produced, to check against the
/// untraced pipeline.
struct Replay {
    reports: Vec<Vec<LoadReport>>,
    critical: CriticalPoint,
}

/// One traced iteration: the sweep (build and walk per run, on runner
/// threads, as `repeat_sweep_journaled` runs them), the journal encoding,
/// and the critical search driven through `bisect_threshold` with this
/// benchmark's own probe closure.
fn replay(
    s: &Setup,
    threads: usize,
    tracer: &mut Tracer,
    spans: &mut Vec<Span>,
    root: u64,
    iteration: u32,
) -> Result<Replay, String> {
    let runners = Runners {
        threads,
        epoch: tracer.epoch(),
    };
    let xs: Vec<u64> = s.points.iter().map(|p| p.x).collect();
    let x_max = xs.last().copied().unwrap_or(ITEMS);

    let sweep_span = tracer.open("sim.sweep", Some(root), iteration);
    let swept = runners.run(SWEEP_RUNS, |run, tr| {
        let (built, secs) = timed_span(tr, "sim.sweep_build", sweep_span, iteration, || {
            RunSweep::new(&s.base.for_run(run as u64), x_max)
        });
        let mut sweep = built.map_err(|e| e.to_string())?;
        let (walked, walk_secs) = timed_span(tr, "sim.sweep_walk", sweep_span, iteration, || {
            sweep.evaluate(CACHE, &xs)
        });
        Ok((walked.map_err(|e| e.to_string())?, secs + walk_secs))
    });
    tracer.close(sweep_span);
    let (per_run, mut built) = swept?;
    spans.append(&mut built);
    let durations: Vec<f64> = per_run.iter().map(|(_, secs)| *secs).collect();
    // Transpose to per-point report lists, as the journal stores them.
    let reports: Vec<Vec<LoadReport>> = (0..s.points.len())
        .map(|p| {
            per_run
                .iter()
                .filter_map(|(run, _)| run.get(p).cloned())
                .collect()
        })
        .collect();

    let encoded = tracer.span("sim.journal_encode", Some(root), iteration, || {
        let rule = StopRule::fixed(SWEEP_RUNS);
        s.points
            .iter()
            .zip(&reports)
            .map(|(point, reps)| {
                s.base
                    .to_builder()
                    .attack_x(point.x)
                    .build()
                    .map(|cfg| RunJournal::new(&cfg, &rule, reps, &durations, false, f64::INFINITY))
                    .map(|j| j.to_json().to_string().len())
                    .unwrap_or(0)
            })
            .sum::<usize>()
    });
    black_box(encoded);

    let critical_span = tracer.open("sim.critical", Some(root), iteration);
    let held = runners.run(CRITICAL_RUNS, |run, tr| {
        tr.span("sim.critical_build", Some(critical_span), iteration, || {
            RunSweep::new(&s.base.for_run(run as u64), s.base.items)
        })
        .map_err(|e| e.to_string())
    });
    let (mut held, mut built) = match held {
        Ok(h) => h,
        Err(e) => {
            tracer.close(critical_span);
            return Err(e);
        }
    };
    spans.append(&mut built);
    let hi = s
        .theory_c
        .saturating_mul(4)
        .min(s.base.items as usize)
        .max(s.base.nodes);
    let critical = bisect_threshold(
        |c| {
            tracer.span("sim.critical_probe", Some(critical_span), iteration, || {
                let effective = effective_capacity(&s.base, c)?;
                let mut plays = Vec::with_capacity(2);
                if (c as u64) + 1 < s.base.items {
                    plays.push(c as u64 + 1);
                }
                plays.push(s.base.items);
                let mut best = 0.0f64;
                for run in evaluate_many(&mut held, threads, effective, &plays) {
                    for report in run? {
                        best = best.max(report.gain().value());
                    }
                }
                Ok(best)
            })
        },
        0,
        hi,
        1.0,
    );
    tracer.close(critical_span);
    Ok(Replay {
        reports,
        critical: critical.map_err(|e| e.to_string())?,
    })
}

/// [`Tracer::span`] that also returns the span's wall seconds.
fn timed_span<T>(
    tracer: &mut Tracer,
    name: &'static str,
    parent: u64,
    iteration: u32,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let t = Instant::now();
    let out = tracer.span(name, Some(parent), iteration, f);
    (out, t.elapsed().as_secs_f64())
}

/// The partition lookups one sweep build is made of, replayed alone:
/// `Cluster::live_replicas` of every rank's key for one run.
fn lookup_replay(s: &Setup, tracer: &mut Tracer, iteration: u32) -> Result<u64, String> {
    let cfg = s.base.for_run(u64::from(iteration));
    let cluster = Cluster::new(
        cfg.build_partitioner().map_err(|e| e.to_string())?,
        cfg.build_selector(),
    );
    let mapping =
        KeyMapping::scattered(cfg.items, mix(&[cfg.seed, 3])).map_err(|e| e.to_string())?;
    let keys: Vec<u64> = (0..cfg.items).map(|rank| mapping.apply(rank)).collect();
    let sum = tracer.span("cluster.live_replicas", None, iteration, || {
        keys.iter()
            .map(|&k| u64::from(cluster.live_replicas(KeyId::new(k)).len() as u32))
            .sum::<u64>()
    });
    black_box(sum);
    Ok(cfg.items)
}

/// The traced run: untraced pipeline iterations alternate with traced
/// replays of the same work, so both see the same machine state.
pub fn traced(seed: u64, budget: Duration) -> Outcome {
    let threads = nproc();
    let s = setup(seed);
    let mut out = Outcome {
        shape: shape_json(&s, threads),
        ..Outcome::default()
    };
    let mut checked = Checked::new(&s, threads);
    let mut tracer = Tracer::new(Instant::now());
    let mut spans: Vec<Span> = Vec::new();
    let mut untraced: Vec<Iteration> = Vec::new();
    let (mut iterations, mut probes, mut lookups) = (0u32, 0usize, 0u64);
    let started = Instant::now();
    while out.errors.is_empty() && (iterations == 0 || started.elapsed() < budget) {
        let Some(reference) = checked.next(&mut out) else {
            break;
        };
        let root = tracer.open("figures.replay", None, iterations);
        let result = replay(&s, threads, &mut tracer, &mut spans, root, iterations);
        tracer.close(root);
        let replayed = match result {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("traced iteration {iterations}: {e}"));
                break;
            }
        };
        out.attempted += (s.points.len() * SWEEP_RUNS) as u64 + 1;
        if outcome_bits(&replayed.reports) != outcome_bits(&reference.reports) {
            out.failed += (s.points.len() * SWEEP_RUNS) as u64;
            out.fail(format!(
                "traced iteration {iterations}: sweep replay differs from repeat_sweep_journaled"
            ));
        }
        if replayed.critical != reference.critical {
            out.failed += 1;
            out.fail(format!(
                "traced iteration {iterations}: bisect replay found c*={} vs find_critical_cache_size {}",
                replayed.critical.cache_size, reference.critical.cache_size
            ));
        }
        probes += replayed.critical.evaluations;
        match lookup_replay(&s, &mut tracer, iterations) {
            Ok(n) => lookups += n,
            Err(e) => out.fail(format!("lookup replay: {e}")),
        }
        untraced.push(reference);
        iterations += 1;
    }
    out.iterations = iterations as usize;
    spans.extend(tracer.into_spans());
    let totals = layer_totals(&spans);
    let dur = |name: &str| totals.get(name).map_or(0, |t| t.0) as f64;
    let count = |name: &str| totals.get(name).map_or(0, |t| t.2) as f64;
    let per_iter = f64::from(iterations.max(1));

    // Per iteration: the replay's wall time and the part of it its stage
    // spans cover, each against the untraced iteration right before it.
    let selves = self_times(&spans);
    let (mut overhead, mut covered) = (Vec::new(), Vec::new());
    for root in spans.iter().filter(|s| s.name == "figures.replay") {
        let Some(it) = untraced.get(root.iteration as usize) else {
            continue;
        };
        let reference = it.sweep_secs + it.encode_secs + it.critical_secs;
        let wall = root.duration_ns() as f64 / 1e9;
        let own = selves.get(&root.id).copied().unwrap_or(0) as f64 / 1e9;
        overhead.push(wall / reference - 1.0);
        covered.push((wall - own) / reference);
    }

    for (name, unit) in [
        ("workload.next_key_ns", "ns"),
        ("cache.request_ns", "ns"),
        ("cache.hit_ratio", "ratio"),
        ("cache.rejections", "count"),
    ] {
        // The figure pipeline has no query stream and no front-end cache.
        out.metric(name, 0.0, unit);
    }
    out.metric(
        "cluster.live_replicas_ns",
        if lookups == 0 {
            0.0
        } else {
            dur("cluster.live_replicas") / lookups as f64
        },
        "ns",
    );
    for (name, unit) in [
        ("cluster.route_ns", "ns"),
        ("serve.bucket_ns", "ns"),
        ("serve.pow_solve_ns", "ns"),
        ("serve.pow_attempts_per_accept", "count"),
        ("serve.pow_verify_ns", "ns"),
        ("serve.pow_refused_share", "ratio"),
        ("serve.intake_ns", "ns"),
        ("serve.intake_recycle_ratio", "ratio"),
        ("serve.shard_ring_ns", "ns"),
        ("serve.queue_depth_p95", "batches"),
        ("serve.shed_backpressure", "count"),
        ("serve.batch_fill", "ratio"),
    ] {
        // No routing or serving stages run in the figure pipeline.
        out.metric(name, 0.0, unit);
    }
    out.metric(
        "sim.sweep_build_ms",
        dur("sim.sweep_build") / count("sim.sweep_build").max(1.0) / 1e6,
        "ms",
    );
    out.metric(
        "sim.sweep_walk_ms",
        dur("sim.critical_probe") / per_iter / 1e6,
        "ms",
    );
    out.metric("sim.critical_probes", probes as f64 / per_iter, "count");
    let util: Vec<f64> = untraced.iter().map(|it| utilization(it, threads)).collect();
    out.metric(
        "sim.runner_utilization",
        median(&util).unwrap_or(0.0),
        "ratio",
    );
    out.metric(
        "sim.journal_encode_ms",
        dur("sim.journal_encode") / per_iter / 1e6,
        "ms",
    );
    let bytes: Vec<f64> = untraced.iter().map(|it| it.journal_bytes as f64).collect();
    out.metric("sim.journal_bytes", median(&bytes).unwrap_or(0.0), "bytes");
    out.metric(
        "trace.unattributed_share",
        median(&covered).map_or(0.0, |c| 1.0 - c),
        "ratio",
    );
    out.metric(
        "trace.overhead_share",
        median(&overhead).unwrap_or(0.0),
        "ratio",
    );
    out.notes.push(format!(
        "untraced journal bytes {} per iteration; traced replay {} s per iteration",
        untraced.first().map_or(0, |it| it.journal_bytes),
        dur("figures.replay") / per_iter / 1e9
    ));
    for (name, (total, own, n)) in &totals {
        out.notes.push(format!(
            "layer {name}: {n} spans, {} ms total, {} ms self",
            *total as f64 / 1e6,
            *own as f64 / 1e6
        ));
    }
    match crate::trace::write_spans("figures", seed, &spans) {
        Ok(path) => out.notes.push(format!("spans written to {path}")),
        Err(e) => out.fail(format!("writing spans: {e}")),
    }
    out
}
