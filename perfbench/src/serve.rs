//! The three `scp-serve` workloads: untraced measurement and the traced
//! stage replay.
//!
//! * `serve-attack` — deterministic replay, n=8, d=3, m=1e5, c=64 under
//!   the optimal `x = c + 1` attack, oracle cache, headroom 1.5. About
//!   98.5% of queries hit the cache, so keygen and the cache read path
//!   are nearly all of the cost: the workload that *bypasses* routing.
//!   Same shape as the `serve/8_shards/deterministic` row of
//!   `BENCH_serve.json`, so that trajectory stays comparable.
//! * `serve-zipf` — deterministic replay of Zipf(0.99) over m=1e6, n=64,
//!   d=3, c=1000 with online W-TinyLFU admission, the default
//!   `PowShield::new(4)` at R=1e5 and headroom 1.5. About half the
//!   queries miss, so routing, the selector, token buckets, the cache's
//!   write side and PoW solve/verify all carry load. Known defect, kept
//!   visible on purpose: the shield's 65 536-entry replay window is
//!   smaller than the 100 000 arrivals of one 1 s window at R=1e5, so
//!   about a third of honest queries are refused as `Replayed`.
//! * `serve-live` — the threaded pipeline (`run_threaded`) under the
//!   `x = c + 1` attack with one client thread and one shard (client,
//!   admission and worker: three threads). The only workload that
//!   exercises the intake batch ring, the backoff ladder and the
//!   cross-thread handoff. One client and one shard on purpose: on a
//!   2-core machine 2 shards spread 18% run to run and 8 shards 28%,
//!   which measures the scheduler rather than the program.

use crate::calib::{block_median, Speeds};
use crate::stats::{iqr_share, median, quartiles, slow_tail};
use crate::trace::{layer_totals, self_times, Tracer};
use crate::{peak_rss_mb, Outcome};
use scp_cluster::{Cluster, KeyId, ReplicaGroup};
use scp_json::Json;
use scp_serve::batch_ring::intake_channel;
use scp_serve::pow::{scan_start, solve_from};
use scp_serve::{
    run_deterministic, run_threaded, PowShield, PowVerdict, PowVerifier, Request, ServeConfig,
    ServeReport, TokenBucket,
};
use scp_sim::{AdmissionKind, SimConfig};
use scp_workload::permute::KeyMapping;
use scp_workload::rng::mix;
use scp_workload::stream::QueryStream;
use scp_workload::AccessPattern;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Queries per stage span in the traced replay: large enough that the
/// two clock reads per span are noise and a 20 s trace stays a few MB,
/// small enough to give every iteration dozens of spans per stage.
const CHUNK: usize = 16_384;

/// Wall time spent timing one-query set-up runs after each iteration.
const SETUP_BLOCK: Duration = Duration::from_millis(4);

/// Wall time the speed-factor window of an iteration spans.
const SPEED_SPAN_SECS: f64 = 1.0;

/// The serve workload shapes; `seed` is the `SimConfig` master seed.
fn config(workload: &str, seed: u64) -> ServeConfig {
    let built = match workload {
        "serve-attack" => SimConfig::builder()
            .nodes(8)
            .replication(3)
            .cache_capacity(64)
            .items(100_000)
            .rate(1e5)
            .seed(seed)
            .build(),
        "serve-zipf" => AccessPattern::zipf(0.99, 1_000_000)
            .map_err(Into::into)
            .and_then(|zipf| {
                SimConfig::builder()
                    .nodes(64)
                    .replication(3)
                    .cache_capacity(1000)
                    .items(1_000_000)
                    .rate(1e5)
                    .pattern(zipf)
                    .admission(AdmissionKind::Online)
                    .seed(seed)
                    .build()
            }),
        _ => SimConfig::builder()
            .nodes(1)
            .replication(1)
            .cache_capacity(64)
            .items(100_000)
            .rate(1e5)
            .seed(seed)
            .build(),
    };
    let sim = built.expect("serve workload shapes are valid");
    let mut cfg = ServeConfig::new(sim);
    cfg.capacity_headroom = 1.5;
    match workload {
        "serve-attack" => cfg.total_queries = 2_000_000,
        "serve-zipf" => {
            // Three whole 1 s shield windows per iteration: short enough
            // for ~70 iterations in a 20 s run, which the slow-tail
            // percentile rule needs, and whole windows keep the refused
            // share at its steady-state value.
            cfg.total_queries = 300_000;
            cfg.pow = Some(PowShield::new(4));
        }
        _ => {
            // 4M queries (~160 ms) per iteration: each sample spans many
            // scheduler time slices of the three threads on two cores.
            cfg.total_queries = 4_000_000;
            cfg.clients = 1;
        }
    }
    cfg
}

fn threaded(workload: &str) -> bool {
    workload == "serve-live"
}

fn shape_json(workload: &str, cfg: &ServeConfig) -> Json {
    Json::obj([
        ("sim", cfg.sim.describe_json()),
        (
            "mode",
            Json::Str(
                if threaded(workload) {
                    "threaded"
                } else {
                    "deterministic"
                }
                .to_owned(),
            ),
        ),
        ("queries_per_iteration", Json::Num(cfg.total_queries as f64)),
        ("clients", Json::Num(cfg.clients as f64)),
        ("capacity_headroom", Json::Num(cfg.capacity_headroom)),
        (
            "pow",
            cfg.pow.as_ref().map_or(Json::Null, |p| {
                Json::obj([
                    ("difficulty", Json::Num(f64::from(p.difficulty))),
                    ("window_secs", Json::Num(p.window_secs)),
                    ("replay_capacity", Json::Num(p.replay_capacity as f64)),
                ])
            }),
        ),
        ("batch_size", Json::Num(cfg.batch_size as f64)),
        ("submit_batch", Json::Num(cfg.submit_batch as f64)),
        ("queue_capacity", Json::Num(cfg.queue_capacity as f64)),
    ])
}

fn run_once(workload: &str, cfg: &ServeConfig) -> Result<ServeReport, String> {
    let report = if threaded(workload) {
        run_threaded(cfg)
    } else {
        run_deterministic(cfg)
    };
    report.map_err(|e| e.to_string())
}

/// Output checks every serve report must pass; returns what failed.
fn check_report(cfg: &ServeConfig, r: &ServeReport) -> Vec<String> {
    let mut bad = Vec::new();
    if !r.is_conserved() {
        bad.push(format!("report not conserved: {}", r.to_json()));
    }
    if !r.is_drained() {
        bad.push("report not drained".to_owned());
    }
    for (i, shard) in r.shards.iter().enumerate() {
        if shard.checksum != shard.expected_checksum {
            bad.push(format!(
                "shard {i} checksum {:#x} != expected {:#x}",
                shard.checksum, shard.expected_checksum
            ));
        }
    }
    if r.submitted != cfg.total_queries {
        bad.push(format!(
            "submitted {} of a {}-query quota",
            r.submitted, cfg.total_queries
        ));
    }
    bad
}

/// The outcome fields that must repeat exactly across iterations of a
/// deterministic replay.
fn digest(r: &ServeReport) -> String {
    let routed: Vec<u64> = r.shards.iter().map(|s| s.routed).collect();
    let shed: Vec<u64> = r.shards.iter().map(|s| s.shed_capacity).collect();
    format!(
        "hits={} routed={routed:?} shed={shed:?} gain={:?} pow_rejected={} unserved={}",
        r.cache_hits,
        r.gain(),
        r.pow_rejected,
        r.unserved
    )
}

/// Refusal counters summed over iterations, split by cause and lane.
#[derive(Debug, Default)]
struct Refusals {
    submitted: u64,
    shed_capacity: u64,
    shed_backpressure: u64,
    unserved: u64,
    pow_rejected: u64,
    legit_submitted: u64,
    legit_pow_rejected: u64,
    attack_submitted: u64,
    attack_pow_rejected: u64,
}

impl Refusals {
    fn add(&mut self, r: &ServeReport) {
        self.submitted += r.submitted;
        self.shed_capacity += r.shed_capacity();
        self.shed_backpressure += r.shed_backpressure();
        self.unserved += r.unserved;
        self.pow_rejected += r.pow_rejected;
        self.legit_submitted += r.legit.submitted;
        self.legit_pow_rejected += r.legit.pow_rejected;
        self.attack_submitted += r.attack.submitted;
        self.attack_pow_rejected += r.attack.pow_rejected;
    }

    fn refused(&self) -> u64 {
        self.shed_capacity + self.shed_backpressure + self.unserved + self.pow_rejected
    }

    fn share(part: u64, base: u64) -> f64 {
        if base == 0 {
            0.0
        } else {
            part as f64 / base as f64
        }
    }

    fn note(&self) -> String {
        let s = |part| Self::share(part, self.submitted);
        format!(
            "refused_share = {} of submitted={} (capacity_shed={} backpressure_shed={} \
             unserved={} pow={}; legit lane pow {}/{} attack lane pow {}/{})",
            s(self.refused()),
            self.submitted,
            s(self.shed_capacity),
            s(self.shed_backpressure),
            s(self.unserved),
            s(self.pow_rejected),
            self.legit_pow_rejected,
            self.legit_submitted,
            self.attack_pow_rejected,
            self.attack_submitted,
        )
    }
}

/// Median wall seconds of a one-query serve run (mapping, sampler,
/// cache, partitioner and, for threaded mode, thread start-up) over one
/// short block.
fn setup_block(workload: &str, one: &ServeConfig, out: &mut Outcome) -> f64 {
    let mut error = None;
    let secs = block_median(SETUP_BLOCK, || {
        if let Err(e) = run_once(workload, one).map(black_box) {
            error.get_or_insert(e);
        }
    });
    if let Some(e) = error {
        out.fail(format!("one-query set-up run: {e}"));
    }
    secs
}

/// Runs and checks one timed iteration; returns the report and its wall
/// seconds. Deterministic workloads must repeat `digest` exactly.
fn timed_iteration(
    workload: &str,
    cfg: &ServeConfig,
    first_digest: &mut Option<String>,
    out: &mut Outcome,
) -> Option<(ServeReport, f64)> {
    let t = Instant::now();
    let report = match run_once(workload, cfg) {
        Ok(r) => r,
        Err(e) => {
            out.fail(format!("serve run: {e}"));
            return None;
        }
    };
    let secs = t.elapsed().as_secs_f64();
    out.attempted += report.submitted;
    let mut bad = check_report(cfg, &report);
    if !threaded(workload) {
        let d = digest(&report);
        match first_digest {
            None => *first_digest = Some(d),
            Some(first) if *first != d => {
                bad.push(format!("outcome digest changed: {d} vs first {first}"))
            }
            Some(_) => {}
        }
    }
    if !bad.is_empty() {
        out.failed += report.submitted;
        for b in bad {
            out.fail(b);
        }
    }
    Some((report, secs))
}

/// The untraced run: every end-to-end metric of a serve workload.
pub fn measure(workload: &str, seed: u64, budget: Duration) -> Outcome {
    let cfg = config(workload, seed);
    let mut out = Outcome {
        shape: shape_json(workload, &cfg),
        ..Outcome::default()
    };
    let mut one = cfg.clone();
    one.total_queries = 1;
    // One untimed warm-up run: page in the binary and let lazy set-up
    // finish before timing.
    if let Err(e) = run_once(workload, &cfg) {
        out.fail(format!("warm-up run: {e}"));
    }
    let mut first_digest = None;
    let (mut served, mut raw_secs, mut setup_raw) = (Vec::new(), Vec::new(), Vec::new());
    // Peak memory through set-up, warm-up and the first timed iteration:
    // later iterations only add allocator fragmentation, which varies
    // with thread timing.
    let mut peak_mb = 0.0;
    let mut refusals = Refusals::default();
    let mut speeds = Speeds::start(1);
    let started = Instant::now();
    while out.errors.is_empty() && (raw_secs.is_empty() || started.elapsed() < budget) {
        let Some((report, dt)) = timed_iteration(workload, &cfg, &mut first_digest, &mut out)
        else {
            break;
        };
        speeds.sample();
        if raw_secs.is_empty() {
            peak_mb = peak_rss_mb();
        }
        served.push(report.served() as f64);
        raw_secs.push(dt);
        refusals.add(&report);
        setup_raw.push(setup_block(workload, &one, &mut out));
    }
    let window = Speeds::half_window(median(&raw_secs).unwrap_or(0.0), SPEED_SPAN_SECS);
    let raw_rates: Vec<f64> = served.iter().zip(&raw_secs).map(|(n, t)| n / t).collect();
    let factors: Vec<f64> = (0..raw_secs.len())
        .map(|i| speeds.around(i, window))
        .collect();
    let rates: Vec<f64> = raw_rates.iter().zip(&factors).map(|(r, f)| r / f).collect();
    let secs: Vec<f64> = raw_secs.iter().zip(&factors).map(|(t, f)| t * f).collect();
    let setup: Vec<f64> = setup_raw.iter().zip(&factors).map(|(t, f)| t * f).collect();
    out.iterations = secs.len();
    let qps = median(&rates).unwrap_or(0.0);
    let tail = slow_tail(&rates, true);
    let (tail_level, tail_qps) =
        tail.unwrap_or_else(|| (100.0, rates.iter().copied().fold(f64::INFINITY, f64::min)));
    let refused_share = Refusals::share(refusals.refused(), refusals.submitted);
    if let Some(d) = first_digest {
        out.notes.push(format!("outcome digest {d}"));
    }
    out.notes.push(format!(
        "served_qps = {qps} 1/s at reference speed (raw {} 1/s; median of {} iterations, \
         quartiles {:?}, IQR/median {:?})",
        median(&raw_rates).unwrap_or(0.0),
        rates.len(),
        quartiles(&rates),
        iqr_share(&rates)
    ));
    out.notes.push(format!(
        "served_qps_p{tail_level} = {tail_qps} 1/s at reference speed (slow tail of {} samples{})",
        rates.len(),
        if tail.is_none() {
            ", too few for the 10-beyond rule: slowest sample"
        } else {
            ""
        }
    ));
    out.notes.push(refusals.note());
    out.notes.push(format!(
        "setup raw {} s (median of {} blocks)",
        median(&setup_raw).unwrap_or(0.0),
        setup_raw.len()
    ));
    out.metric("work_per_s", qps, "1/s");
    out.metric("work_per_s_tail", tail_qps, "1/s");
    out.metric("served_share", 1.0 - refused_share, "ratio");
    out.metric("answer_s", median(&secs).unwrap_or(0.0), "s");
    out.metric("setup_s", median(&setup).unwrap_or(0.0), "s");
    out.metric("peak_rss_mb", peak_mb, "MB");
    out
}

/// What the stage replay counted, to compare against the engine.
#[derive(Debug, Default)]
struct ReplayCounts {
    submitted: u64,
    hits: u64,
    pow_rejected: u64,
    pow_attempts: u64,
    routed: Vec<u64>,
    shed_capacity: Vec<u64>,
    cache_requests: u64,
    cache_rejections: u64,
}

impl ReplayCounts {
    fn matches(&self, r: &ServeReport) -> Result<(), String> {
        let routed: Vec<u64> = r.shards.iter().map(|s| s.routed).collect();
        let shed: Vec<u64> = r.shards.iter().map(|s| s.shed_capacity).collect();
        let engine = (r.submitted, r.cache_hits, r.pow_rejected, &routed, &shed);
        let replay = (
            self.submitted,
            self.hits,
            self.pow_rejected,
            &self.routed,
            &self.shed_capacity,
        );
        if engine == replay {
            Ok(())
        } else {
            Err(format!(
                "stage replay diverged from the engine: replay (submitted, hits, pow_rejected, \
                 routed, shed) = {replay:?}, engine = {engine:?}"
            ))
        }
    }
}

/// Replays one iteration's inputs stage by stage through the public
/// layer calls, one span per stage per chunk of [`CHUNK`] queries.
///
/// Inputs are regenerated from the seed with the engine's derivations:
/// `KeyMapping::scattered(m, mix(seed, 3))`, and the query stream
/// `mix(seed, 4)` (deterministic mode) or `mix(seed, 4, 1)` (threaded
/// client 0). Stages run in arrival order within each chunk, so every
/// stateful layer (shield replay sets, cache, selector, token buckets)
/// sees the same sequence the engine does and the counts must match.
fn replay(
    workload: &str,
    cfg: &ServeConfig,
    tracer: &mut Tracer,
    root: u64,
    iteration: u32,
) -> Result<ReplayCounts, String> {
    let sim = &cfg.sim;
    let live = threaded(workload);
    let mapping =
        KeyMapping::scattered(sim.items, mix(&[sim.seed, 3])).map_err(|e| e.to_string())?;
    let stream_seed = if live {
        mix(&[sim.seed, 4, 1])
    } else {
        mix(&[sim.seed, 4])
    };
    let mut stream = QueryStream::with_mapping(&sim.pattern, stream_seed, mapping.clone())
        .map_err(|e| e.to_string())?;
    let top = (sim.cache_capacity as u64).min(sim.items);
    let mut cache = sim.build_cache((0..top).map(|rank| mapping.apply(rank)));
    let mut cluster = Cluster::new(
        sim.build_partitioner().map_err(|e| e.to_string())?,
        sim.build_selector(),
    );
    let shards = sim.nodes;
    let mut buckets: Option<Vec<TokenBucket>> = cfg.shard_capacity().map(|r| {
        let burst = (r * 0.01).max(8.0);
        (0..shards).map(|_| TokenBucket::new(r, burst)).collect()
    });
    let mut verifier = cfg.pow.as_ref().map(|s| PowVerifier::new(s, sim.seed));
    let inv_rate = 1.0 / sim.rate;

    let (mut intake_tx, mut intake_rx) = intake_channel::<Request>(cfg.intake_depth);
    let mut rings: Vec<_> = (0..shards)
        .map(|_| scp_serve::spsc::channel::<Vec<Request>>(cfg.queue_capacity))
        .collect();
    let mut pending: Vec<Vec<Request>> = (0..shards)
        .map(|_| Vec::with_capacity(cfg.batch_size))
        .collect();

    let mut counts = ReplayCounts {
        routed: vec![0; shards],
        shed_capacity: vec![0; shards],
        ..ReplayCounts::default()
    };
    let mut keys: Vec<u64> = Vec::with_capacity(CHUNK);
    let mut proofs: Vec<Option<u64>> = Vec::with_capacity(CHUNK);
    let mut accepted: Vec<(u64, f64)> = Vec::with_capacity(CHUNK);
    let mut misses: Vec<(u64, f64)> = Vec::with_capacity(CHUNK);
    let mut groups: Vec<ReplicaGroup> = Vec::with_capacity(CHUNK);
    let mut routed: Vec<(u64, usize, f64)> = Vec::with_capacity(CHUNK);
    let mut admitted: Vec<(u64, usize)> = Vec::with_capacity(CHUNK);
    let mut drained: Vec<Request> = Vec::with_capacity(CHUNK);
    let mut swept: Vec<Vec<Request>> = Vec::with_capacity(1);
    let mut sink = 0u64;

    let mut base = 0u64;
    while base < cfg.total_queries {
        let take = (cfg.total_queries - base).min(CHUNK as u64) as usize;
        keys.clear();
        tracer.span("workload.next_key", Some(root), iteration, || {
            for _ in 0..take {
                keys.push(stream.next_key());
            }
        });
        if live {
            // Client → admission handoff: the client fills recycled
            // buffers of `submit_batch` keys; admission drains and
            // recycles them.
            drained.clear();
            tracer.span("serve.intake", Some(root), iteration, || {
                for batch in keys.chunks(cfg.submit_batch) {
                    let mut buf = intake_tx.buffer(cfg.submit_batch);
                    buf.extend(batch.iter().map(|&key| Request {
                        key,
                        client: 0,
                        pow: None,
                    }));
                    if intake_tx.send(buf).is_err() {
                        return;
                    }
                    intake_rx.drain(1, &mut |buf: Vec<Request>| swept.push(buf));
                    for buf in swept.drain(..) {
                        drained.extend_from_slice(&buf);
                        intake_rx.recycle(buf);
                    }
                }
            });
            if drained.iter().map(|r| r.key).ne(keys.iter().copied()) {
                return Err("intake ring lost or reordered a batch".to_owned());
            }
        }
        proofs.clear();
        if let Some(v) = &verifier {
            let (difficulty, mut attempts) = (v.difficulty(), 0u64);
            tracer.span("serve.pow_solve", Some(root), iteration, || {
                for (offset, &key) in keys.iter().enumerate() {
                    let at = base + offset as u64;
                    let server_nonce = v.server_nonce(v.window_at(at as f64 * inv_rate));
                    let (nonce, spent) =
                        solve_from(server_nonce, 0, key, difficulty, scan_start(0, at));
                    attempts += spent;
                    proofs.push(Some(nonce));
                }
            });
            counts.pow_attempts += attempts;
        }
        accepted.clear();
        match &mut verifier {
            Some(v) => {
                let mut rejected = 0u64;
                tracer.span("serve.pow_verify", Some(root), iteration, || {
                    for (offset, (&key, &proof)) in keys.iter().zip(&proofs).enumerate() {
                        let now = (base + offset as u64) as f64 * inv_rate;
                        if v.verify(now, 0, key, proof) == PowVerdict::Accepted {
                            accepted.push((key, now));
                        } else {
                            rejected += 1;
                        }
                    }
                });
                counts.pow_rejected += rejected;
            }
            None => accepted.extend(
                keys.iter()
                    .enumerate()
                    .map(|(offset, &key)| (key, (base + offset as u64) as f64 * inv_rate)),
            ),
        }
        misses.clear();
        let hits = tracer.span("cache.request", Some(root), iteration, || {
            let mut hits = 0u64;
            for &(key, now) in &accepted {
                if cache.request(key).is_hit() {
                    hits += 1;
                } else {
                    misses.push((key, now));
                }
            }
            hits
        });
        counts.hits += hits;
        counts.cache_requests += accepted.len() as u64;
        groups.clear();
        tracer.span("cluster.live_replicas", Some(root), iteration, || {
            for &(key, _) in &misses {
                groups.push(cluster.live_replicas(KeyId::new(key)));
            }
        });
        routed.clear();
        let route_err = tracer.span("cluster.route", Some(root), iteration, || {
            for (&(key, now), group) in misses.iter().zip(&groups) {
                match cluster.route_prefetched(KeyId::new(key), group) {
                    Ok(node) => routed.push((key, node.index(), now)),
                    Err(e) => return Some(e.to_string()),
                }
            }
            None
        });
        if let Some(e) = route_err {
            return Err(format!("route: {e}"));
        }
        admitted.clear();
        tracer.span("serve.bucket", Some(root), iteration, || {
            for &(key, shard, now) in &routed {
                counts.routed[shard] += 1;
                if let Some(b) = &mut buckets {
                    if !b[shard].try_take(now) {
                        counts.shed_capacity[shard] += 1;
                        continue;
                    }
                }
                admitted.push((key, shard));
            }
        });
        if live {
            // Admission → worker handoff over the shard rings.
            tracer.span("serve.shard_ring", Some(root), iteration, || {
                for &(key, shard) in &admitted {
                    let buf = &mut pending[shard];
                    buf.push(Request {
                        key,
                        client: 0,
                        pow: None,
                    });
                    if buf.len() >= cfg.batch_size {
                        let full = std::mem::take(buf);
                        let (tx, rx) = &mut rings[shard];
                        if tx.try_push(full).is_ok() {
                            rx.try_pop_many(8, &mut |batch: Vec<Request>| {
                                sink = batch.iter().fold(sink, |acc, r| acc.wrapping_add(r.key));
                            });
                        }
                    }
                }
            });
        }
        base += take as u64;
    }
    counts.submitted = base;
    counts.cache_rejections = cache.stats().rejections();
    black_box(sink);
    Ok(counts)
}

/// Per-item nanoseconds of a layer's spans (0 when it handled nothing).
fn per_item_ns(total_ns: u64, items: u64) -> f64 {
    if items == 0 {
        0.0
    } else {
        total_ns as f64 / items as f64
    }
}

/// The traced run: untraced engine iterations alternate with traced
/// stage replays of the same inputs, so both see the same machine state.
pub fn traced(workload: &str, seed: u64, budget: Duration) -> Outcome {
    let cfg = config(workload, seed);
    let mut out = Outcome {
        shape: shape_json(workload, &cfg),
        ..Outcome::default()
    };
    let mut tracer = Tracer::new(Instant::now());
    let mut sum = ReplayCounts::default();
    let mut reports: Vec<ServeReport> = Vec::new();
    let mut untraced_secs: Vec<f64> = Vec::new();
    let mut first_digest = None;
    let mut iterations = 0u32;
    let started = Instant::now();
    while out.errors.is_empty() && (iterations == 0 || started.elapsed() < budget) {
        let Some((report, dt)) = timed_iteration(workload, &cfg, &mut first_digest, &mut out)
        else {
            break;
        };
        let root = tracer.open("serve.replay", None, iterations);
        let counts = replay(workload, &cfg, &mut tracer, root, iterations);
        tracer.close(root);
        let counts = match counts.and_then(|c| c.matches(&report).map(|()| c)) {
            Ok(c) => c,
            Err(e) => {
                out.failed += cfg.total_queries;
                out.fail(format!("traced iteration {iterations}: {e}"));
                break;
            }
        };
        out.attempted += counts.submitted;
        sum.submitted += counts.submitted;
        sum.hits += counts.hits;
        sum.pow_rejected += counts.pow_rejected;
        sum.pow_attempts += counts.pow_attempts;
        sum.cache_requests += counts.cache_requests;
        sum.cache_rejections = counts.cache_rejections;
        sum.routed.push(counts.routed.iter().sum());
        sum.shed_capacity.push(counts.shed_capacity.iter().sum());
        reports.push(report);
        untraced_secs.push(dt);
        iterations += 1;
    }
    out.iterations = iterations as usize;
    let spans = tracer.into_spans();
    let totals = layer_totals(&spans);
    let dur = |name: &str| totals.get(name).map_or(0, |t| t.0);
    let routed: u64 = sum.routed.iter().sum();
    let admitted = routed - sum.shed_capacity.iter().sum::<u64>();
    let accepted = sum.submitted - sum.pow_rejected;
    let live = threaded(workload);

    // Per iteration: the replay's wall time and the part of it its stage
    // spans cover, each against the untraced run right before it.
    let selves = self_times(&spans);
    let (mut overhead, mut covered) = (Vec::new(), Vec::new());
    for root in spans.iter().filter(|s| s.name == "serve.replay") {
        let Some(&untraced) = untraced_secs.get(root.iteration as usize) else {
            continue;
        };
        let wall = root.duration_ns() as f64 / 1e9;
        let own = selves.get(&root.id).copied().unwrap_or(0) as f64 / 1e9;
        overhead.push(wall / untraced - 1.0);
        covered.push((wall - own) / untraced);
    }
    let untraced_ns = median(&untraced_secs).unwrap_or(0.0) * 1e9 / cfg.total_queries as f64;
    let traced_per_query = per_item_ns(dur("serve.replay"), sum.submitted);

    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let batches: u64 = reports
        .iter()
        .flat_map(|r| &r.shards)
        .map(|s| s.batches)
        .sum();
    let processed: u64 = reports.iter().map(ServeReport::processed).sum();
    let depth_p95: Vec<f64> = reports
        .iter()
        .map(|r| {
            r.shards
                .iter()
                .map(|s| s.queue_depth.p95)
                .max()
                .unwrap_or(0) as f64
        })
        .collect();
    let backpressure: u64 = reports.iter().map(ServeReport::shed_backpressure).sum();

    out.metric(
        "workload.next_key_ns",
        per_item_ns(dur("workload.next_key"), sum.submitted),
        "ns",
    );
    out.metric(
        "cache.request_ns",
        per_item_ns(dur("cache.request"), sum.cache_requests),
        "ns",
    );
    out.metric(
        "cache.hit_ratio",
        ratio(sum.hits, sum.cache_requests),
        "ratio",
    );
    out.metric("cache.rejections", sum.cache_rejections as f64, "count");
    out.metric(
        "cluster.live_replicas_ns",
        per_item_ns(dur("cluster.live_replicas"), routed),
        "ns",
    );
    out.metric(
        "cluster.route_ns",
        per_item_ns(dur("cluster.route"), routed),
        "ns",
    );
    out.metric(
        "serve.bucket_ns",
        per_item_ns(dur("serve.bucket"), routed),
        "ns",
    );
    out.metric(
        "serve.pow_solve_ns",
        per_item_ns(dur("serve.pow_solve"), sum.submitted),
        "ns",
    );
    out.metric(
        "serve.pow_attempts_per_accept",
        ratio(sum.pow_attempts, accepted),
        "count",
    );
    out.metric(
        "serve.pow_verify_ns",
        per_item_ns(dur("serve.pow_verify"), sum.submitted),
        "ns",
    );
    out.metric(
        "serve.pow_refused_share",
        ratio(sum.pow_rejected, sum.submitted),
        "ratio",
    );
    out.metric(
        "serve.intake_ns",
        per_item_ns(dur("serve.intake"), sum.submitted),
        "ns",
    );
    out.metric(
        "serve.intake_recycle_ratio",
        ratio(
            reports.iter().map(|r| r.intake_recycled).sum(),
            reports.iter().map(|r| r.intake_batches).sum(),
        ),
        "ratio",
    );
    out.metric(
        "serve.shard_ring_ns",
        per_item_ns(dur("serve.shard_ring"), admitted),
        "ns",
    );
    out.metric(
        "serve.queue_depth_p95",
        if live {
            median(&depth_p95).unwrap_or(0.0)
        } else {
            0.0
        },
        "batches",
    );
    out.metric(
        "serve.shed_backpressure",
        ratio(backpressure, reports.len() as u64),
        "count",
    );
    out.metric(
        "serve.batch_fill",
        ratio(processed, batches * cfg.batch_size as u64),
        "ratio",
    );
    for (name, unit) in [
        ("sim.sweep_build_ms", "ms"),
        ("sim.sweep_walk_ms", "ms"),
        ("sim.critical_probes", "count"),
        ("sim.runner_utilization", "ratio"),
        ("sim.journal_encode_ms", "ms"),
        ("sim.journal_bytes", "bytes"),
    ] {
        // The figure pipeline's layers are not on the serve path.
        out.metric(name, 0.0, unit);
    }
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
        "untraced {untraced_ns} ns/query; traced replay {traced_per_query} ns/query \
         (medians over {iterations} alternating untraced/traced iterations)"
    ));
    for (name, (total, own, count)) in &totals {
        out.notes.push(format!(
            "layer {name}: {count} spans, {} ms total, {} ms self",
            *total as f64 / 1e6,
            *own as f64 / 1e6
        ));
    }
    match crate::trace::write_spans(workload, seed, &spans) {
        Ok(path) => out.notes.push(format!("spans written to {path}")),
        Err(e) => out.fail(format!("writing spans: {e}")),
    }
    out
}
