//! The six acceptance gates behind `scp-serve --smoke`: sustained
//! throughput, shedding (not stalling) under the `x = c + 1` attack,
//! deterministic-mode gain agreeing with the rate engine, the PoW
//! shield, the online-admission gap and a live reshard.

use crate::{run_deterministic, run_threaded, PowShield, ServeConfig};
use scp_sim::config::{AdmissionKind, PartitionerKind};
use scp_sim::rate_engine::run_rate_simulation;
use scp_sim::{SimConfig, SimConfigBuilder};
use scp_workload::AccessPattern;
use std::error::Error;

/// One gate's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    /// Stable gate name, e.g. `shed-under-attack`.
    pub name: &'static str,
    /// Whether the gate held.
    pub pass: bool,
    /// The measured numbers behind the verdict (or the error).
    pub detail: String,
}

type Verdict = Result<(bool, String), Box<dyn Error>>;

/// Runs every gate at master seed `seed`, in order.
pub fn smoke_gates(seed: u64) -> Vec<Gate> {
    let gate = |name, verdict: Verdict| {
        let (pass, detail) = verdict.unwrap_or_else(|e| (false, format!("error: {e}")));
        Gate { name, pass, detail }
    };
    vec![
        gate("throughput", throughput(seed)),
        gate("shed-under-attack", shed_under_attack(seed)),
        gate("gain-vs-rate-engine", gain_vs_rate_engine(seed)),
        gate("pow-shield", pow_shield(seed)),
        gate("online-admission-gap", online_admission_gap(seed)),
        gate("live-reshard", live_reshard(seed)),
    ]
}

/// A serving run of `sim` (the paper baseline unless overridden) at
/// `seed` that stops after `queries`.
fn serve(sim: SimConfigBuilder, seed: u64, queries: u64) -> Result<ServeConfig, Box<dyn Error>> {
    let mut cfg = ServeConfig::new(sim.seed(seed).build()?);
    cfg.total_queries = queries;
    Ok(cfg)
}

/// The `c < c*` attack that gates 2 and 4 share: 50 shards, a 10-entry
/// cache, x = 11 keys out of 100k.
fn overdriven() -> SimConfigBuilder {
    SimConfig::builder()
        .nodes(50)
        .cache_capacity(10)
        .attack_x(11)
        .items(100_000)
}

/// Gate 1: ≥ 1M queries/minute sustained on 8 shards.
fn throughput(seed: u64) -> Verdict {
    let sim = SimConfig::builder().nodes(8).cache_capacity(100);
    let report = run_threaded(&serve(sim, seed, 500_000)?)?;
    let qpm = report.throughput_qpm();
    let (conserved, drained) = (report.is_conserved(), report.is_drained());
    Ok((
        qpm >= 1_000_000.0 && conserved && drained,
        format!("{qpm:.0} q/min over 8 shards (conserved={conserved}, drained={drained})"),
    ))
}

/// Gate 2: the x = c + 1 attack with c < c* sheds rather than stalls:
/// hot replicas exceed r_i, excess is refused, everything else drains.
fn shed_under_attack(seed: u64) -> Verdict {
    let mut cfg = serve(overdriven(), seed, 200_000)?;
    cfg.capacity_headroom = 1.2;
    let report = run_deterministic(&cfg)?;
    let (conserved, drained) = (report.is_conserved(), report.is_drained());
    Ok((
        report.shed_capacity() > 0 && conserved && drained,
        format!(
            "shed {} of {} (conserved={conserved}, drained={drained})",
            report.shed_capacity(),
            report.submitted,
        ),
    ))
}

/// Gate 3: deterministic-mode gain within 5% of the rate engine on the
/// paper baseline (n=1000, d=3, c=200, x=c+1).
fn gain_vs_rate_engine(seed: u64) -> Verdict {
    let cfg = serve(SimConfig::builder().cache_capacity(200), seed, 1_000_000)?;
    let exact = run_rate_simulation(&cfg.sim)
        .map_err(|e| format!("rate engine: {e}"))?
        .gain()
        .value();
    let report = run_deterministic(&cfg)?;
    let measured = report.gain();
    let rel = if exact > 0.0 {
        (measured - exact).abs() / exact
    } else {
        f64::INFINITY
    };
    Ok((
        rel <= 0.05 && report.is_conserved() && report.is_drained(),
        format!("serve {measured:.4} vs rate {exact:.4} (rel {rel:.4})"),
    ))
}

/// Gate 4: the PoW shield is transparent to solvers and a wall to
/// workless attackers on the same c < c* configuration.
fn pow_shield(seed: u64) -> Verdict {
    let mut cfg = serve(overdriven(), seed, 50_000)?;
    cfg.pow = Some(PowShield::new(4));
    let h = run_deterministic(&cfg)?;
    cfg.attack_clients = 1;
    let w = run_deterministic(&cfg)?;
    Ok((
        h.pow_rejected == 0
            && h.cache_hits > 0
            && w.pow_rejected == w.submitted
            && h.is_conserved()
            && w.is_conserved(),
        format!(
            "solver rejected {}/{} with {} hits; workless rejected {}/{}",
            h.pow_rejected, h.submitted, h.cache_hits, w.pow_rejected, w.submitted
        ),
    ))
}

/// Gate 5: online admission learns a static attack but loses ground
/// when the attacker rotates faster than the sketch adapts.
fn online_admission_gap(seed: u64) -> Verdict {
    let sim = SimConfig::builder()
        .nodes(50)
        .cache_capacity(100)
        .items(100_000)
        .admission(AdmissionKind::Online);
    let rotating = AccessPattern::rotating_subset(500, 100_000, 500)?;
    let s = run_deterministic(&serve(sim.clone().attack_x(500), seed, 300_000)?)?;
    let r = run_deterministic(&serve(sim.pattern(rotating), seed, 300_000)?)?;
    let s_hits = s.cache_hits as f64 / s.submitted.max(1) as f64;
    let r_hits = r.cache_hits as f64 / r.submitted.max(1) as f64;
    Ok((
        s.sketch_resets > 0 && s_hits > r_hits && s.is_conserved() && r.is_conserved(),
        format!(
            "static hit ratio {s_hits:.4} vs rotating {r_hits:.4} ({} sketch resets)",
            s.sketch_resets
        ),
    ))
}

/// Gate 6: a mid-traffic reshard — one join, then one leave — keeps
/// exact conservation (migrated is its own completion class), drains
/// cleanly, and the joiner actually serves traffic after its epoch.
fn live_reshard(seed: u64) -> Verdict {
    let sim = SimConfig::builder()
        .nodes(16)
        .cache_capacity(50)
        .items(100_000)
        // x ≫ c so cache misses spread over every shard: the joiner must
        // see traffic, and a leave must displace buffered requests.
        .attack_x(20_000)
        .partitioner(PartitionerKind::MultiProbe);
    let mut cfg = serve(sim, seed, 120_000)?;
    cfg.capacity_headroom = 2.0;
    cfg.membership = vec!["40000:join:16".parse()?, "80000:leave:3".parse()?];
    let report = run_deterministic(&cfg)?;
    let joiner_served = report.shards.get(16).map_or(0, |s| s.processed);
    let (conserved, drained) = (report.is_conserved(), report.is_drained());
    Ok((
        report.reshards == 2 && conserved && drained && joiner_served > 0,
        format!(
            "2 epochs applied={} migrated={} joiner_processed={joiner_served} \
             (conserved={conserved}, drained={drained})",
            report.reshards, report.migrated,
        ),
    ))
}
