//! Oracle-vs-online admission gap study plus the proof-of-work shield
//! curve (the `c < c*` regime).
//!
//! Three deterministic, seeded experiments:
//!
//! 1. **Stationary margin** — on fixed workloads the online W-TinyLFU
//!    admission should land within a modest margin of the PerfectCache
//!    oracle (rate engine, [`AdmissionKind`] toggled, everything else
//!    identical).
//! 2. **Rotation sweep** — the adversarial *rotating* attack re-draws
//!    its x-key working set every `period` queries, faster than the
//!    frequency sketch's halving window adapts. The online hit ratio
//!    collapses as the period shrinks while the static-attack baseline
//!    holds at `c/x`; the gap column is exactly what the oracle
//!    assumption hides.
//! 3. **PoW shield** — with the cache underprovisioned, the serving
//!    path's proof-of-work shield makes each admitted query cost
//!    `2^difficulty` hash attempts. A solving client pays the work
//!    factor but keeps its hits; a workless attacker is rejected at
//!    admission and its attack gain collapses to zero.

use crate::opts::Opts;
use crate::output::{fmt_f, Table};
use crate::Result;
use scp_serve::{run_deterministic, PowShield, ServeConfig, ServeError};
use scp_sim::config::{AdmissionKind, CacheKind, SimConfig};
use scp_sim::rate_engine::run_rate_simulation;
use scp_sim::SimError;
use scp_workload::AccessPattern;

/// Configuration of the three-part gap study.
#[derive(Debug, Clone, PartialEq)]
pub struct GapConfig {
    /// Back-end nodes `n`.
    pub nodes: usize,
    /// Replication factor `d`.
    pub replication: usize,
    /// Stored items `m`.
    pub items: u64,
    /// Client rate `R`.
    pub rate: f64,
    /// Cache size `c`.
    pub cache: usize,
    /// Zipf exponent of the organic workload.
    pub zipf_alpha: f64,
    /// Attacker working-set size `x` for the rotation sweep.
    pub attack_x: u64,
    /// Rotation periods to sweep (queries between re-draws).
    pub rotation_periods: Vec<u64>,
    /// Shield difficulties to sweep (leading zero bits; 0 = shield off).
    pub pow_difficulties: Vec<u32>,
    /// Queries per query-engine / serving run.
    pub queries: u64,
    /// Master seed.
    pub seed: u64,
}

impl GapConfig {
    /// The study's default configuration (`--fast` shrinks runs).
    pub fn paper(opts: &Opts) -> Self {
        let queries = if opts.fast { 200_000 } else { 600_000 };
        let rotation_periods = if opts.fast {
            vec![500, 2_000, 10_000]
        } else {
            vec![250, 500, 1_000, 2_000, 5_000, 10_000, 50_000]
        };
        let pow_difficulties = if opts.fast {
            vec![0, 2, 4, 6]
        } else {
            vec![0, 2, 4, 6, 8, 10]
        };
        Self {
            nodes: 50,
            replication: 3,
            items: 20_000,
            rate: 1e4,
            cache: 100,
            zipf_alpha: 1.01,
            attack_x: 500,
            rotation_periods,
            pow_difficulties,
            queries,
            seed: opts.common.seed,
        }
    }

    fn sim(
        &self,
        pattern: AccessPattern,
        admission: AdmissionKind,
        salt: u64,
    ) -> Result<SimConfig> {
        SimConfig::builder()
            .nodes(self.nodes)
            .replication(self.replication)
            .cache_kind(CacheKind::Perfect)
            .admission(admission)
            .cache_capacity(self.cache)
            .items(self.items)
            .rate(self.rate)
            .pattern(pattern)
            .seed(self.seed ^ (salt << 24))
            .build()
    }
}

/// One stationary-workload row: oracle vs online cache fractions.
#[derive(Debug, Clone, PartialEq)]
pub struct MarginRow {
    /// Workload label.
    pub pattern: String,
    /// Oracle (PerfectCache) cache fraction.
    pub oracle_hit: f64,
    /// Online (W-TinyLFU) cache fraction.
    pub online_hit: f64,
    /// Oracle attack gain.
    pub oracle_gain: f64,
    /// Online attack gain.
    pub online_gain: f64,
}

impl MarginRow {
    /// Online hit fraction over the oracle's (1.0 = no loss).
    pub fn margin(&self) -> f64 {
        if self.oracle_hit > 0.0 {
            self.online_hit / self.oracle_hit
        } else {
            1.0
        }
    }
}

/// One rotation-sweep row: online hit ratio under a rotating attacker.
#[derive(Debug, Clone, PartialEq)]
pub struct RotationRow {
    /// Queries between working-set re-draws (0 = static attack).
    pub period: u64,
    /// Online (W-TinyLFU) hit ratio.
    pub hit: f64,
    /// Frequency-sketch halving resets during the run.
    pub sketch_resets: u64,
    /// Attack gain of the run.
    pub gain: f64,
}

/// One shield row: the cost/benefit of a difficulty setting.
#[derive(Debug, Clone, PartialEq)]
pub struct PowRow {
    /// Difficulty in leading zero bits (0 = shield off).
    pub difficulty: u32,
    /// Measured hash attempts per solving-client query.
    pub work_factor: f64,
    /// Solving-client cache hit ratio (must not degrade).
    pub legit_hit: f64,
    /// Fraction of workless-attacker queries rejected at admission.
    pub attack_rejected: f64,
    /// Attack gain of the workless attacker under the shield.
    pub attack_gain: f64,
}

/// Everything the study produced.
#[derive(Debug, Clone, PartialEq)]
pub struct GapOutcome {
    /// Stationary oracle-vs-online margins.
    pub margins: Vec<MarginRow>,
    /// Rotation sweep (first row is the static baseline).
    pub rotations: Vec<RotationRow>,
    /// Shield difficulty sweep.
    pub pow: Vec<PowRow>,
}

fn serve_err(e: ServeError) -> SimError {
    match e {
        ServeError::Sim(inner) => inner,
        other => SimError::InvalidConfig {
            field: "serve",
            reason: other.to_string(),
        },
    }
}

fn margin_row(
    cfg: &GapConfig,
    label: &str,
    pattern: &AccessPattern,
    salt: u64,
) -> Result<MarginRow> {
    let oracle = run_rate_simulation(&cfg.sim(pattern.clone(), AdmissionKind::Oracle, salt)?)?;
    let online = run_rate_simulation(&cfg.sim(pattern.clone(), AdmissionKind::Online, salt)?)?;
    Ok(MarginRow {
        pattern: label.to_owned(),
        oracle_hit: oracle.cache_fraction(),
        online_hit: online.cache_fraction(),
        oracle_gain: oracle.gain().value(),
        online_gain: online.gain().value(),
    })
}

fn rotation_row(cfg: &GapConfig, period: u64) -> Result<RotationRow> {
    let pattern = if period == 0 {
        AccessPattern::uniform_subset(cfg.attack_x, cfg.items)?
    } else {
        AccessPattern::rotating_subset(cfg.attack_x, cfg.items, period)?
    };
    // The serving path draws the identical query stream as the query
    // engine and additionally reports the sketch's halving resets.
    let sim = cfg.sim(pattern, AdmissionKind::Online, 2)?;
    let mut serve = ServeConfig::new(sim);
    serve.total_queries = cfg.queries;
    let report = run_deterministic(&serve).map_err(serve_err)?;
    let hit = if report.submitted > 0 {
        report.cache_hits as f64 / report.submitted as f64
    } else {
        0.0
    };
    Ok(RotationRow {
        period,
        hit,
        sketch_resets: report.sketch_resets,
        gain: report.gain(),
    })
}

fn pow_serve(cfg: &GapConfig, difficulty: u32, attacker: bool) -> Result<scp_serve::ServeReport> {
    // The shield targets the underprovisioned regime: a concentrated
    // x = c + 1 attack that the cache cannot absorb.
    let pattern = AccessPattern::uniform_subset(cfg.cache as u64 + 1, cfg.items)?;
    let sim = cfg.sim(pattern, AdmissionKind::Oracle, 3)?;
    let mut serve = ServeConfig::new(sim);
    serve.total_queries = cfg.queries.min(100_000);
    serve.pow = (difficulty > 0).then(|| PowShield::new(difficulty));
    serve.attack_clients = usize::from(attacker);
    run_deterministic(&serve).map_err(serve_err)
}

fn pow_row(cfg: &GapConfig, difficulty: u32) -> Result<PowRow> {
    let legit = pow_serve(cfg, difficulty, false)?;
    let attack = pow_serve(cfg, difficulty, true)?;
    let work_factor = if difficulty == 0 {
        1.0
    } else if legit.submitted > 0 {
        legit.pow_attempts as f64 / legit.submitted as f64
    } else {
        0.0
    };
    let legit_hit = if legit.submitted > 0 {
        legit.cache_hits as f64 / legit.submitted as f64
    } else {
        0.0
    };
    let attack_rejected = if attack.submitted > 0 {
        attack.pow_rejected as f64 / attack.submitted as f64
    } else {
        0.0
    };
    Ok(PowRow {
        difficulty,
        work_factor,
        legit_hit,
        attack_rejected,
        attack_gain: attack.gain(),
    })
}

/// Runs all three experiments.
///
/// # Errors
///
/// Propagates simulation and serving errors.
pub fn run(cfg: &GapConfig) -> Result<GapOutcome> {
    let zipf = AccessPattern::zipf(cfg.zipf_alpha, cfg.items)?;
    let uniform = AccessPattern::uniform(cfg.items)?;
    let adversarial = AccessPattern::uniform_subset(cfg.attack_x, cfg.items)?;
    let margins = vec![
        margin_row(cfg, "zipf", &zipf, 0)?,
        margin_row(cfg, "uniform", &uniform, 0)?,
        margin_row(cfg, "adversarial", &adversarial, 1)?,
    ];

    let mut rotations = vec![rotation_row(cfg, 0)?];
    let mut periods = cfg.rotation_periods.clone();
    periods.sort_unstable_by(|a, b| b.cmp(a));
    for period in periods {
        rotations.push(rotation_row(cfg, period)?);
    }

    let mut pow = Vec::with_capacity(cfg.pow_difficulties.len());
    for &difficulty in &cfg.pow_difficulties {
        pow.push(pow_row(cfg, difficulty)?);
    }

    Ok(GapOutcome {
        margins,
        rotations,
        pow,
    })
}

/// Renders the stationary-margin table.
pub fn table_margin(cfg: &GapConfig, rows: &[MarginRow]) -> Table {
    let mut t = Table::new(
        format!(
            "Admission gap 1/3: oracle vs online on stationary workloads (c={}, m={}, n={})",
            cfg.cache, cfg.items, cfg.nodes
        ),
        &[
            "pattern",
            "oracle_hit",
            "online_hit",
            "margin",
            "oracle_gain",
            "online_gain",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.pattern.clone(),
            fmt_f(r.oracle_hit),
            fmt_f(r.online_hit),
            fmt_f(r.margin()),
            fmt_f(r.oracle_gain),
            fmt_f(r.online_gain),
        ]);
    }
    t
}

/// Renders the rotation-sweep table (`period = 0` is the static attack).
pub fn table_rotation(cfg: &GapConfig, rows: &[RotationRow]) -> Table {
    let static_hit = rows.first().map_or(0.0, |r| r.hit);
    let mut t = Table::new(
        format!(
            "Admission gap 2/3: rotating attacker vs online TinyLFU (x={}, c={}, {} queries)",
            cfg.attack_x, cfg.cache, cfg.queries
        ),
        &["period", "hit", "gap_vs_static", "sketch_resets", "gain"],
    );
    for r in rows {
        t.push_row(vec![
            if r.period == 0 {
                "static".to_owned()
            } else {
                r.period.to_string()
            },
            fmt_f(r.hit),
            fmt_f(static_hit - r.hit),
            r.sketch_resets.to_string(),
            fmt_f(r.gain),
        ]);
    }
    t
}

/// Renders the shield-difficulty table.
pub fn table_pow(cfg: &GapConfig, rows: &[PowRow]) -> Table {
    let mut t = Table::new(
        format!(
            "Admission gap 3/3: proof-of-work shield (x=c+1={}, {} queries/run)",
            cfg.cache + 1,
            cfg.queries.min(100_000)
        ),
        &[
            "difficulty",
            "work_factor",
            "ideal_2^d",
            "legit_hit",
            "attack_rejected",
            "attack_gain",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.difficulty.to_string(),
            fmt_f(r.work_factor),
            fmt_f(f64::from(2u32.pow(r.difficulty.min(30)))),
            fmt_f(r.legit_hit),
            fmt_f(r.attack_rejected),
            fmt_f(r.attack_gain),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> GapConfig {
        GapConfig {
            nodes: 20,
            replication: 3,
            items: 5_000,
            rate: 1e4,
            cache: 50,
            zipf_alpha: 1.01,
            attack_x: 250,
            rotation_periods: vec![500, 5_000],
            pow_difficulties: vec![0, 3],
            queries: 60_000,
            seed: 11,
        }
    }

    #[test]
    fn online_lands_within_margin_of_oracle_on_zipf() {
        let cfg = tiny();
        let row = margin_row(
            &cfg,
            "zipf",
            &AccessPattern::zipf(cfg.zipf_alpha, cfg.items).unwrap(),
            0,
        )
        .unwrap();
        assert!(row.oracle_hit > 0.1, "oracle hit {}", row.oracle_hit);
        assert!(
            row.margin() > 0.6,
            "online should be near-oracle on stationary Zipf, margin {}",
            row.margin()
        );
        assert!(
            row.margin() <= 1.05,
            "online cannot beat the oracle by much"
        );
    }

    #[test]
    fn rotation_degrades_hits_and_static_matches_c_over_x() {
        let cfg = tiny();
        let rows = run(&cfg).unwrap().rotations;
        let Some((stat, rest)) = rows.split_first() else {
            panic!("no rotation rows");
        };
        let ideal = cfg.cache as f64 / cfg.attack_x as f64;
        assert!(
            (stat.hit - ideal).abs() < 0.05,
            "static online hit {} vs ideal {ideal}",
            stat.hit
        );
        // Rows are ordered static, slow rotation, ..., fast rotation:
        // each step should lose hits, and the fastest rotation must cost
        // at least a third of the static baseline.
        for pair in rest.windows(2) {
            assert!(
                pair[1].hit <= pair[0].hit + 0.02,
                "period {} hit {} vs period {} hit {}",
                pair[1].period,
                pair[1].hit,
                pair[0].period,
                pair[0].hit
            );
        }
        let fastest = rows.last().unwrap();
        assert!(
            fastest.hit < stat.hit * 0.67,
            "fast rotation should collapse hits: {} vs static {}",
            fastest.hit,
            stat.hit
        );
        // Halving is paced by the sample count, so every run of the same
        // length resets the sketch; the point is that rotation outpaces
        // that adaptation, not that it changes the reset cadence.
        assert!(fastest.sketch_resets > 0);
        assert!(stat.sketch_resets > 0);
    }

    #[test]
    fn shield_costs_work_and_rejects_workless_attackers() {
        // A shape where the x = c + 1 attack actually overloads a shard:
        // gain ~ n / (x · d) needs n well above x · d.
        let mut cfg = tiny();
        cfg.cache = 10;
        cfg.nodes = 100;
        let off = pow_row(&cfg, 0).unwrap();
        let on = pow_row(&cfg, 3).unwrap();
        assert_eq!(off.attack_rejected, 0.0);
        assert!(
            off.attack_gain > 1.0,
            "unshielded attack gain {}",
            off.attack_gain
        );
        assert!((off.work_factor - 1.0).abs() < 1e-12);
        // Mean attempts to find a 3-bit-zero digest is 2^3 = 8.
        assert!(
            (4.0..16.0).contains(&on.work_factor),
            "work factor {} for difficulty 3",
            on.work_factor
        );
        assert_eq!(on.attack_rejected, 1.0);
        assert_eq!(on.attack_gain, 0.0);
        assert!(
            (on.legit_hit - off.legit_hit).abs() < 0.01,
            "shield must not cost legit hits: {} vs {}",
            on.legit_hit,
            off.legit_hit
        );
    }

    #[test]
    fn tables_cover_every_row_and_run_is_deterministic() {
        let cfg = tiny();
        let a = run(&cfg).unwrap();
        let b = run(&cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(table_margin(&cfg, &a.margins).len(), a.margins.len());
        assert_eq!(table_rotation(&cfg, &a.rotations).len(), a.rotations.len());
        assert_eq!(table_pow(&cfg, &a.pow).len(), a.pow.len());
    }

    #[test]
    fn paper_config_fast_mode_shrinks() {
        let fast = GapConfig::paper(&Opts {
            fast: true,
            ..Opts::default()
        });
        let full = GapConfig::paper(&Opts::default());
        assert!(fast.queries < full.queries);
        assert!(fast.rotation_periods.len() < full.rotation_periods.len());
        assert!(fast.pow_difficulties.len() < full.pow_difficulties.len());
    }
}
