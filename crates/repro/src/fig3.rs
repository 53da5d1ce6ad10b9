//! Figure 3: normalized max workload vs. number of queried keys.
//!
//! Paper setup: 1000 back-end nodes, replication 3, 1e6 stored keys,
//! clients at 1e5 qps; for each `x > c` the adversary queries `x` keys at
//! equal rates; 200 repetitions; the plot shows the max over runs of the
//! maximum normalized node load together with the Eq. (10) bound at
//! `k = 1.2`. Panel (a) uses `c = 200` (below the critical size), panel
//! (b) `c = 2000` (above it).

use crate::opts::{stop_rule, Opts};
use crate::output::{fmt_f, JournalBook, Table};
use crate::Result;
use scp_core::bounds::{attack_gain_bound, KParam};
use scp_sim::config::{CacheKind, PartitionerKind, SelectorKind, SimConfig};
use scp_sim::sweep::{repeat_sweep_journaled, SweepPoint};

/// Configuration of an x-sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Config {
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
    /// Sweep points (all must exceed `cache`).
    pub x_values: Vec<u64>,
    /// Repetitions per point.
    pub runs: usize,
    /// Target gain CI half-width for adaptive stopping (0 = fixed runs).
    pub ci_target: f64,
    /// Worker threads (0 = all).
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
    /// Bound constant for the reference curve.
    pub k: KParam,
    /// Front-end cache policy.
    pub cache_kind: CacheKind,
    /// Partitioning scheme.
    pub partitioner: PartitionerKind,
    /// Replica selection rule.
    pub selector: SelectorKind,
}

impl Fig3Config {
    /// The paper's configuration for the given cache size (`--fast`
    /// shrinks the cluster and key space by 10x).
    pub fn paper(cache: usize, opts: &Opts) -> Self {
        let (nodes, items, cache) = if opts.fast {
            (100, 100_000, cache / 10)
        } else {
            (1000, 1_000_000, cache)
        };
        Self {
            nodes,
            replication: 3,
            items,
            rate: 1e5,
            // 60 log-spaced points: with the incremental sweep engine an
            // additional grid point costs amortized O(Δx), so the curve
            // can afford to be dense (the per-point engine priced grids
            // at O(x) per point, which kept this at 15).
            x_values: log_spaced(cache as u64 + 1, items, 60),
            cache,
            runs: opts.effective_runs(200),
            ci_target: opts.ci_target,
            threads: opts.threads,
            seed: opts.common.seed,
            k: KParam::paper_fitted(),
            cache_kind: opts.common.cache,
            partitioner: opts.common.partitioner,
            selector: opts.common.selector,
        }
    }
}

/// One sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3Row {
    /// Number of queried keys.
    pub x: u64,
    /// Max over runs of the normalized max load (the paper's statistic).
    pub sim_max_gain: f64,
    /// Mean over runs.
    pub sim_mean_gain: f64,
    /// The Eq. (10) bound with the configured (fitted) `k`.
    pub bound: f64,
    /// The Eq. (10) bound with the theoretical `k = ln ln n / ln d`.
    pub bound_theory: f64,
}

/// Log-spaced integer grid from `lo` to `hi` inclusive (deduplicated).
pub fn log_spaced(lo: u64, hi: u64, points: usize) -> Vec<u64> {
    assert!(lo >= 1 && hi >= lo && points >= 2);
    let (flo, fhi) = (lo as f64, hi as f64);
    let last = points - 1;
    let mut out: Vec<u64> = (0..points)
        .map(|i| match i {
            0 => lo,
            i if i == last => hi,
            i => (flo * (fhi / flo).powf(i as f64 / last as f64)).round() as u64,
        })
        .collect();
    out.dedup();
    out
}

/// Runs the sweep, collecting one [`RunJournal`](scp_sim::journal::RunJournal)
/// per sweep point into `book` (labeled `x=<value>`).
///
/// All `x` grid points are evaluated against the *same* per-run
/// partitions in one incremental sweep pass ([`repeat_sweep_journaled`]);
/// with an adaptive rule the stop decision is joint across the grid.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_journaled(cfg: &Fig3Config, book: &mut JournalBook) -> Result<Vec<Fig3Row>> {
    let rule = stop_rule(cfg.runs, cfg.ci_target);
    let base = SimConfig::builder()
        .nodes(cfg.nodes)
        .replication(cfg.replication)
        .cache_kind(cfg.cache_kind)
        .cache_capacity(cfg.cache)
        .items(cfg.items)
        .rate(cfg.rate)
        .attack_x(
            *cfg.x_values
                .first()
                .ok_or_else(|| scp_sim::SimError::InvalidConfig {
                    field: "x_values",
                    reason: "empty sweep grid".to_owned(),
                })?,
        )
        .partitioner(cfg.partitioner)
        .selector(cfg.selector)
        .seed(cfg.seed)
        .build()?;
    let points: Vec<SweepPoint> = cfg
        .x_values
        .iter()
        .map(|&x| SweepPoint {
            cache: cfg.cache,
            x,
        })
        .collect();
    let swept = repeat_sweep_journaled(&base, &points, &rule, cfg.threads)?;
    let mut rows = Vec::with_capacity(cfg.x_values.len());
    for run in swept {
        let x = run.point.x;
        book.push(format!("x={x}"), run.journaled.journal);
        let params = base.to_builder().attack_x(x).build()?.system_params()?;
        rows.push(Fig3Row {
            x,
            sim_max_gain: run.journaled.aggregate.max_gain(),
            sim_mean_gain: run.journaled.aggregate.mean_gain(),
            bound: attack_gain_bound(&params, x, &cfg.k).value(),
            bound_theory: attack_gain_bound(&params, x, &KParam::theory()).value(),
        });
    }
    Ok(rows)
}

/// Renders the sweep as a table.
pub fn table(cfg: &Fig3Config, rows: &[Fig3Row]) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 3 (cache={}): normalized max load vs x (n={}, d={}, m={}, {} runs)",
            cfg.cache, cfg.nodes, cfg.replication, cfg.items, cfg.runs
        ),
        &[
            "x",
            "sim_max_gain",
            "sim_mean_gain",
            "bound_k1.2",
            "bound_theory",
            "effective",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.x.to_string(),
            fmt_f(r.sim_max_gain),
            fmt_f(r.sim_mean_gain),
            fmt_f(r.bound),
            fmt_f(r.bound_theory),
            (r.sim_max_gain > 1.0).to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(cache: usize) -> Fig3Config {
        Fig3Config {
            nodes: 50,
            replication: 3,
            items: 20_000,
            rate: 1e4,
            cache,
            x_values: log_spaced(cache as u64 + 1, 20_000, 6),
            runs: 8,
            ci_target: 0.0,
            threads: 0,
            seed: 1,
            k: KParam::paper_fitted(),
            cache_kind: CacheKind::Perfect,
            partitioner: PartitionerKind::Hash,
            selector: SelectorKind::LeastLoaded,
        }
    }

    #[test]
    fn log_spaced_grid_properties() {
        let g = log_spaced(201, 1_000_000, 15);
        assert_eq!(*g.first().unwrap(), 201);
        assert_eq!(*g.last().unwrap(), 1_000_000);
        assert!(g.windows(2).all(|w| w[0] < w[1]));
        assert!(g.len() <= 15);
    }

    #[test]
    fn small_cache_panel_shape() {
        // c far below c* (1.2*50+1 = 61): decreasing gains, effective at
        // x = c+1.
        let cfg = tiny(20);
        let rows = run_journaled(&cfg, &mut JournalBook::new()).unwrap();
        assert!(rows[0].sim_max_gain > 1.0, "x=c+1 must be effective");
        let last = rows.last().unwrap();
        assert!(
            rows[0].sim_max_gain > last.sim_max_gain,
            "gain should fall with x"
        );
    }

    #[test]
    fn large_cache_panel_shape() {
        // c above c*: gain below 1 everywhere, increasing toward x=m.
        let cfg = tiny(100);
        let rows = run_journaled(&cfg, &mut JournalBook::new()).unwrap();
        for r in &rows {
            assert!(r.sim_max_gain <= 1.05, "x={} gain {}", r.x, r.sim_max_gain);
        }
        assert!(rows.last().unwrap().sim_max_gain >= rows[0].sim_max_gain * 0.9);
    }

    #[test]
    fn theory_bound_dominates_mean_gain() {
        // Eq. (10) bounds the *expected* max load; the fitted k = 1.2 is
        // the paper's visual fit, the theoretical k must dominate the
        // mean across runs (the max-over-runs can poke slightly above).
        for cache in [20usize, 100] {
            let cfg = tiny(cache);
            for r in run_journaled(&cfg, &mut JournalBook::new()).unwrap() {
                assert!(
                    r.bound_theory >= r.sim_mean_gain - 0.1,
                    "theory bound {} below mean {} at x={} (c={cache})",
                    r.bound_theory,
                    r.sim_mean_gain,
                    r.x
                );
                assert!(r.bound_theory >= r.bound * 0.8, "sanity: theory vs fitted");
            }
        }
    }

    #[test]
    fn table_has_row_per_point() {
        let cfg = tiny(20);
        let rows = run_journaled(&cfg, &mut JournalBook::new()).unwrap();
        let t = table(&cfg, &rows);
        assert_eq!(t.len(), rows.len());
    }

    #[test]
    fn journal_has_one_entry_per_point_and_record_per_run() {
        let cfg = tiny(20);
        let mut book = JournalBook::new();
        let rows = run_journaled(&cfg, &mut book).unwrap();
        assert_eq!(book.len(), rows.len());
        for j in book.journals() {
            assert_eq!(j.len(), cfg.runs);
            assert!(!j.stopping.stopped_early);
        }
        let labels: Vec<&str> = book.labels().collect();
        assert_eq!(labels[0], format!("x={}", cfg.x_values[0]));
    }

    #[test]
    fn adaptive_stopping_caps_at_fixed_runs() {
        // A generous CI target lets most points stop early; every journal
        // must still hold at least the floor and at most the ceiling.
        let mut cfg = tiny(20);
        cfg.runs = 16;
        cfg.ci_target = 0.5;
        let mut book = JournalBook::new();
        run_journaled(&cfg, &mut book).unwrap();
        let floor = crate::opts::stop_rule(cfg.runs, cfg.ci_target).min_runs;
        for j in book.journals() {
            assert!(
                j.len() >= floor && j.len() <= cfg.runs,
                "{} runs kept",
                j.len()
            );
            assert_eq!(j.stopping.stopped_early, j.len() < cfg.runs);
        }
        assert!(
            book.journals().any(|j| j.stopping.stopped_early),
            "a 0.5 CI target should trigger early stops somewhere"
        );
    }

    #[test]
    fn paper_config_respects_fast_flag() {
        let fast = Fig3Config::paper(
            200,
            &Opts {
                fast: true,
                ..Opts::default()
            },
        );
        assert_eq!(fast.nodes, 100);
        assert_eq!(fast.cache, 20);
        let full = Fig3Config::paper(200, &Opts::default());
        assert_eq!(full.nodes, 1000);
        assert_eq!(full.runs, 200);
    }
}
