//! Figure 5: the best achievable attack vs. cache size.
//!
//! Panel (a): for each cache size `c`, the best normalized max workload an
//! adversary can reach (max over the two candidate plays `x = c + 1` and
//! `x = m`), with the critical point where it crosses 1.0 and the paper's
//! bound `c* = n·k + 1`. Panel (b): the number of keys the best adversary
//! queries — `c + 1` below the critical point, the whole key space above.

use crate::opts::{stop_rule, Opts};
use crate::output::{fmt_f, JournalBook, Table};
use crate::Result;
use scp_core::bounds::{critical_cache_size, KParam};
use scp_sim::config::{CacheKind, PartitionerKind, SelectorKind, SimConfig};
use scp_sim::sweep::{repeat_sweep_journaled, SweepPoint};

/// Configuration of the cache-size sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Config {
    /// Back-end nodes `n`.
    pub nodes: usize,
    /// Replication factor `d`.
    pub replication: usize,
    /// Stored items `m`.
    pub items: u64,
    /// Client rate `R`.
    pub rate: f64,
    /// Cache sizes to sweep.
    pub cache_sizes: Vec<usize>,
    /// Repetitions per point.
    pub runs: usize,
    /// Target gain CI half-width for adaptive stopping (0 = fixed runs).
    pub ci_target: f64,
    /// Worker threads (0 = all).
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
    /// Bound constant for the reference `c*`.
    pub k: KParam,
    /// Front-end cache policy.
    pub cache_kind: CacheKind,
    /// Partitioning scheme.
    pub partitioner: PartitionerKind,
    /// Replica selection rule.
    pub selector: SelectorKind,
}

impl Fig5Config {
    /// The paper's configuration (`--fast` shrinks everything 10x).
    pub fn paper(opts: &Opts) -> Self {
        let (nodes, items, cache_sizes) = if opts.fast {
            (
                100,
                100_000,
                vec![10, 20, 40, 60, 80, 100, 120, 140, 180, 250, 400, 1000],
            )
        } else {
            (
                1000,
                1_000_000,
                vec![
                    50, 100, 200, 400, 600, 800, 1000, 1100, 1200, 1300, 1400, 1600, 2000, 3000,
                    5000, 10_000,
                ],
            )
        };
        Self {
            nodes,
            replication: 3,
            items,
            rate: 1e5,
            cache_sizes,
            runs: opts.effective_runs(20),
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
pub struct Fig5Row {
    /// Cache size.
    pub cache: usize,
    /// Max-over-runs gain when the adversary queries `x = c + 1` keys.
    pub gain_small_x: f64,
    /// Max-over-runs gain when the adversary queries the whole key space.
    pub gain_all_keys: f64,
    /// The better of the two (panel a).
    pub best_gain: f64,
    /// The corresponding subset size (panel b).
    pub best_x: u64,
}

/// The sweep result plus derived critical points.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Outcome {
    /// Sweep rows in cache-size order.
    pub rows: Vec<Fig5Row>,
    /// Empirical critical cache size: first swept size with best gain
    /// `<= 1` (linear interpolation against the previous point).
    pub empirical_critical: Option<f64>,
    /// The paper's bound `c* = n·k + 1`.
    pub bound_critical: usize,
}

/// Runs the sweep, collecting one journal per `(c, x)` candidate play
/// into `book` (labeled `c=<size>/x=<keys>`).
///
/// Every candidate play of every cache size is evaluated against the
/// *same* per-run partitions in one incremental sweep pass
/// ([`repeat_sweep_journaled`]); with an adaptive rule the stop decision
/// is joint across the whole grid.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_journaled(cfg: &Fig5Config, book: &mut JournalBook) -> Result<Fig5Outcome> {
    let bound_critical = critical_cache_size(cfg.nodes, cfg.replication, &cfg.k);
    if cfg.cache_sizes.is_empty() {
        return Ok(Fig5Outcome {
            rows: Vec::new(),
            empirical_critical: None,
            bound_critical,
        });
    }
    let rule = stop_rule(cfg.runs, cfg.ci_target);
    let base = SimConfig::builder()
        .nodes(cfg.nodes)
        .replication(cfg.replication)
        .cache_kind(cfg.cache_kind)
        .cache_capacity(cfg.cache_sizes.first().copied().unwrap_or(0))
        .items(cfg.items)
        .rate(cfg.rate)
        .attack_x(cfg.items)
        .partitioner(cfg.partitioner)
        .selector(cfg.selector)
        .seed(cfg.seed)
        .build()?;
    // Per cache size: the `x = c + 1` play when it is a distinct subset,
    // then the whole-key-space play.
    let mut points = Vec::with_capacity(2 * cfg.cache_sizes.len());
    for &c in &cfg.cache_sizes {
        if (c as u64) + 1 < cfg.items {
            points.push(SweepPoint {
                cache: c,
                x: c as u64 + 1,
            });
        }
        points.push(SweepPoint {
            cache: c,
            x: cfg.items,
        });
    }
    let swept = repeat_sweep_journaled(&base, &points, &rule, cfg.threads)?;

    let mut plays = swept.into_iter();
    let mut next_play = || {
        plays
            .next()
            .ok_or_else(|| scp_sim::SimError::InvalidConfig {
                field: "points",
                reason: "internal: fewer sweep plays than candidate points".to_owned(),
            })
    };
    let mut rows = Vec::with_capacity(cfg.cache_sizes.len());
    for &c in &cfg.cache_sizes {
        let small_run = if (c as u64) + 1 < cfg.items {
            Some(next_play()?)
        } else {
            None
        };
        let all_run = next_play()?;
        let gain_all_keys = all_run.journaled.aggregate.max_gain();
        let gain_small_x = match &small_run {
            Some(run) => run.journaled.aggregate.max_gain(),
            // `x = c + 1` saturates to the whole key space: same play.
            None if (c as u64) < cfg.items => gain_all_keys,
            None => 0.0,
        };
        if let Some(run) = small_run {
            book.push(format!("c={c}/x={}", run.point.x), run.journaled.journal);
        }
        book.push(format!("c={c}/x={}", cfg.items), all_run.journaled.journal);
        let (best_gain, best_x) = if gain_small_x >= gain_all_keys {
            (gain_small_x, c as u64 + 1)
        } else {
            (gain_all_keys, cfg.items)
        };
        rows.push(Fig5Row {
            cache: c,
            gain_small_x,
            gain_all_keys,
            best_gain,
            best_x,
        });
    }

    let empirical_critical = find_crossing(&rows);
    Ok(Fig5Outcome {
        rows,
        empirical_critical,
        bound_critical,
    })
}

fn find_crossing(rows: &[Fig5Row]) -> Option<f64> {
    let below = rows.iter().position(|r| r.best_gain <= 1.0)?;
    if below == 0 {
        return Some(rows[0].cache as f64);
    }
    let (a, b) = (&rows[below - 1], &rows[below]);
    // Linear interpolation of the gain-1.0 crossing between the two sizes.
    let span = b.best_gain - a.best_gain;
    if span.abs() < 1e-12 {
        return Some(b.cache as f64);
    }
    let t = (1.0 - a.best_gain) / span;
    Some(a.cache as f64 + t * (b.cache as f64 - a.cache as f64))
}

/// Renders panel (a): best gain vs. cache size.
pub fn table_panel_a(cfg: &Fig5Config, outcome: &Fig5Outcome) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 5(a): best achievable normalized max load vs cache size \
             (n={}, d={}, m={}, {} runs; empirical critical ~ {}, bound c* = {})",
            cfg.nodes,
            cfg.replication,
            cfg.items,
            cfg.runs,
            outcome
                .empirical_critical
                .map(|c| format!("{c:.0}"))
                .unwrap_or_else(|| "none".to_owned()),
            outcome.bound_critical
        ),
        &[
            "cache",
            "gain_x_eq_c+1",
            "gain_x_eq_m",
            "best_gain",
            "effective",
        ],
    );
    for r in &outcome.rows {
        t.push_row(vec![
            r.cache.to_string(),
            fmt_f(r.gain_small_x),
            fmt_f(r.gain_all_keys),
            fmt_f(r.best_gain),
            (r.best_gain > 1.0).to_string(),
        ]);
    }
    t
}

/// Renders panel (b): the adversary's chosen subset size vs. cache size.
pub fn table_panel_b(cfg: &Fig5Config, outcome: &Fig5Outcome) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 5(b): keys queried by the best adversary vs cache size \
             (n={}, d={}, m={})",
            cfg.nodes, cfg.replication, cfg.items
        ),
        &["cache", "best_x"],
    );
    for r in &outcome.rows {
        t.push_row(vec![r.cache.to_string(), r.best_x.to_string()]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fig5Config {
        Fig5Config {
            nodes: 50,
            replication: 3,
            items: 20_000,
            rate: 1e4,
            // Theory c* (k=1.2) = 61.
            cache_sizes: vec![10, 30, 50, 70, 90, 120, 200],
            runs: 6,
            ci_target: 0.0,
            threads: 0,
            seed: 4,
            k: KParam::paper_fitted(),
            cache_kind: CacheKind::Perfect,
            partitioner: PartitionerKind::Hash,
            selector: SelectorKind::LeastLoaded,
        }
    }

    #[test]
    fn best_gain_decreases_with_cache_size() {
        let out = run_journaled(&tiny(), &mut JournalBook::new()).unwrap();
        let gains: Vec<f64> = out.rows.iter().map(|r| r.best_gain).collect();
        // Allow small local noise but require overall monotone decline.
        assert!(gains.first().unwrap() > gains.last().unwrap());
        assert!(gains[0] > 1.0, "tiny cache must be attackable");
        assert!(*gains.last().unwrap() < 1.0, "large cache must be safe");
    }

    #[test]
    fn adversary_switches_from_small_x_to_whole_space() {
        let out = run_journaled(&tiny(), &mut JournalBook::new()).unwrap();
        let first = &out.rows[0];
        let last = out.rows.last().unwrap();
        assert_eq!(first.best_x, first.cache as u64 + 1);
        assert_eq!(last.best_x, 20_000);
    }

    #[test]
    fn empirical_critical_is_near_bound() {
        let out = run_journaled(&tiny(), &mut JournalBook::new()).unwrap();
        let empirical = out.empirical_critical.expect("sweep crosses 1.0");
        let bound = out.bound_critical as f64; // 61
        assert!(
            empirical <= bound * 2.0 && empirical >= bound * 0.2,
            "empirical {empirical} vs bound {bound}"
        );
    }

    #[test]
    fn find_crossing_interpolates() {
        let rows = vec![
            Fig5Row {
                cache: 100,
                gain_small_x: 3.0,
                gain_all_keys: 0.9,
                best_gain: 3.0,
                best_x: 101,
            },
            Fig5Row {
                cache: 200,
                gain_small_x: 0.5,
                gain_all_keys: 0.9,
                best_gain: 0.9,
                best_x: 1000,
            },
        ];
        let c = find_crossing(&rows).unwrap();
        assert!(c > 100.0 && c < 200.0);
        assert!((c - (100.0 + 100.0 * (2.0 / 2.1))).abs() < 1e-9);
    }

    #[test]
    fn find_crossing_edge_cases() {
        assert_eq!(find_crossing(&[]), None);
        let all_high = vec![Fig5Row {
            cache: 10,
            gain_small_x: 2.0,
            gain_all_keys: 1.5,
            best_gain: 2.0,
            best_x: 11,
        }];
        assert_eq!(find_crossing(&all_high), None);
        let all_low = vec![Fig5Row {
            cache: 10,
            gain_small_x: 0.2,
            gain_all_keys: 0.5,
            best_gain: 0.5,
            best_x: 11,
        }];
        assert_eq!(find_crossing(&all_low), Some(10.0));
    }

    #[test]
    fn journal_records_both_candidate_plays() {
        let cfg = tiny();
        let mut book = JournalBook::new();
        let out = run_journaled(&cfg, &mut book).unwrap();
        // Two plays per swept size (every tiny() size is below items).
        assert_eq!(book.len(), 2 * out.rows.len());
        let labels: Vec<&str> = book.labels().collect();
        assert!(labels.contains(&"c=10/x=11"));
        assert!(labels.contains(&"c=10/x=20000"));
        for j in book.journals() {
            assert_eq!(j.len(), cfg.runs);
        }
    }

    #[test]
    fn tables_render() {
        let cfg = tiny();
        let out = run_journaled(&cfg, &mut JournalBook::new()).unwrap();
        assert_eq!(table_panel_a(&cfg, &out).len(), out.rows.len());
        assert_eq!(table_panel_b(&cfg, &out).len(), out.rows.len());
    }
}
