//! Figure 4: normalized max workload under uniform / Zipf(1.01) /
//! adversarial access patterns as the cluster grows.
//!
//! Paper setup: cache of 100 entries, varying the number of back-end
//! nodes. Zipf concentrates traffic on the cached head (best for the
//! cluster); uniform spreads evenly (stable as `n` grows); the adversarial
//! pattern (`x = c + 1` equal-rate keys) concentrates uncached load and
//! grows roughly linearly with `n`.

use crate::opts::{stop_rule, Opts};
use crate::output::{fmt_f, JournalBook, Table};
use crate::Result;
use scp_sim::config::{AdmissionKind, CacheKind, PartitionerKind, SelectorKind, SimConfig};
use scp_sim::runner::repeat_rate_simulation_journaled;
use scp_sim::sweep::{repeat_sweep_journaled, SweepPoint};
use scp_workload::AccessPattern;

/// Configuration of the n-sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Config {
    /// Node counts to sweep.
    pub node_counts: Vec<usize>,
    /// Replication factor `d`.
    pub replication: usize,
    /// Stored items `m`.
    pub items: u64,
    /// Client rate `R`.
    pub rate: f64,
    /// Cache size `c`.
    pub cache: usize,
    /// Zipf exponent for the organic workload.
    pub zipf_alpha: f64,
    /// Repetitions per point.
    pub runs: usize,
    /// Target gain CI half-width for adaptive stopping (0 = fixed runs).
    pub ci_target: f64,
    /// Worker threads (0 = all).
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
    /// Front-end cache policy.
    pub cache_kind: CacheKind,
    /// Oracle-informed vs online-learned cache admission.
    pub admission: AdmissionKind,
    /// Partitioning scheme.
    pub partitioner: PartitionerKind,
    /// Replica selection rule.
    pub selector: SelectorKind,
}

impl Fig4Config {
    /// The paper's configuration (`--fast` shrinks key space and sweep).
    pub fn paper(opts: &Opts) -> Self {
        let (node_counts, items) = if opts.fast {
            (vec![50, 100, 200, 400], 100_000)
        } else {
            (vec![100, 200, 500, 1000, 2000, 5000, 10_000], 1_000_000)
        };
        Self {
            node_counts,
            replication: 3,
            items,
            rate: 1e5,
            cache: 100,
            zipf_alpha: 1.01,
            runs: opts.effective_runs(20),
            ci_target: opts.ci_target,
            threads: opts.threads,
            seed: opts.common.seed,
            cache_kind: opts.common.cache,
            admission: opts.common.admission,
            partitioner: opts.common.partitioner,
            selector: opts.common.selector,
        }
    }
}

/// One sweep point: gains for all three access patterns.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Row {
    /// Number of back-end nodes.
    pub nodes: usize,
    /// Max-over-runs gain under uniform access to all keys.
    pub uniform: f64,
    /// Max-over-runs gain under Zipf(alpha).
    pub zipf: f64,
    /// Max-over-runs gain under the adversarial pattern (x = c + 1).
    pub adversarial: f64,
}

fn gain_for(
    base: &Fig4Config,
    n: usize,
    pattern: AccessPattern,
    salt: u64,
    label: &str,
    book: &mut JournalBook,
) -> Result<f64> {
    let sim = SimConfig::builder()
        .nodes(n)
        .replication(base.replication)
        .cache_kind(base.cache_kind)
        .admission(base.admission)
        .cache_capacity(base.cache)
        .items(base.items)
        .rate(base.rate)
        .pattern(pattern)
        .partitioner(base.partitioner)
        .selector(base.selector)
        .seed(base.seed ^ (n as u64) ^ (salt << 32))
        .build()?;
    let rule = stop_rule(base.runs, base.ci_target);
    let out = repeat_rate_simulation_journaled(&sim, &rule, base.threads)?;
    book.push(format!("n={n}/{label}"), out.journal);
    Ok(out.aggregate.max_gain())
}

/// Runs the sweep, collecting one journal per `(n, pattern)` data point
/// into `book` (labeled `n=<count>/<pattern>`).
///
/// The equal-rate rows (uniform = whole key space, adversarial
/// `x = c + 1`) of each cluster size share one incremental sweep over the
/// same per-run partitions; the Zipf row is not equal-rate and stays on
/// the per-point engine.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_journaled(cfg: &Fig4Config, book: &mut JournalBook) -> Result<Vec<Fig4Row>> {
    let rule = stop_rule(cfg.runs, cfg.ci_target);
    // The incremental sweep models the steady-state oracle; under online
    // admission the equal-rate rows fall back to the per-point rate
    // engine, whose online path measures the learned cache empirically.
    let online = cfg.admission == AdmissionKind::Online && cfg.cache_kind != CacheKind::None;
    let mut rows = Vec::with_capacity(cfg.node_counts.len());
    for &n in &cfg.node_counts {
        let adversarial_x = (cfg.cache as u64 + 1).min(cfg.items);
        if online {
            let uniform = gain_for(
                cfg,
                n,
                AccessPattern::uniform_subset(cfg.items, cfg.items)?,
                0,
                "uniform",
                book,
            )?;
            let zipf = gain_for(
                cfg,
                n,
                AccessPattern::zipf(cfg.zipf_alpha, cfg.items)?,
                2,
                "zipf",
                book,
            )?;
            let adversarial = gain_for(
                cfg,
                n,
                AccessPattern::uniform_subset(adversarial_x, cfg.items)?,
                1,
                "adversarial",
                book,
            )?;
            rows.push(Fig4Row {
                nodes: n,
                uniform,
                zipf,
                adversarial,
            });
            continue;
        }
        let base = SimConfig::builder()
            .nodes(n)
            .replication(cfg.replication)
            .cache_kind(cfg.cache_kind)
            .admission(cfg.admission)
            .cache_capacity(cfg.cache)
            .items(cfg.items)
            .rate(cfg.rate)
            .attack_x(cfg.items)
            .partitioner(cfg.partitioner)
            .selector(cfg.selector)
            .seed(cfg.seed ^ (n as u64))
            .build()?;
        let mut points = vec![SweepPoint {
            cache: cfg.cache,
            x: cfg.items,
        }];
        if adversarial_x < cfg.items {
            points.insert(
                0,
                SweepPoint {
                    cache: cfg.cache,
                    x: adversarial_x,
                },
            );
        }
        let mut swept = repeat_sweep_journaled(&base, &points, &rule, cfg.threads)?;
        let Some(uniform_run) = swept.pop() else {
            return Err(scp_sim::SimError::InvalidConfig {
                field: "points",
                reason: "internal: sweep returned no plays".to_owned(),
            });
        };
        let uniform = uniform_run.journaled.aggregate.max_gain();
        // `x = c + 1` saturates to the whole key space: same play.
        let (adversarial, adversarial_journal) = match swept.pop() {
            Some(run) => (run.journaled.aggregate.max_gain(), run.journaled.journal),
            None => (uniform, uniform_run.journaled.journal.clone()),
        };
        book.push(format!("n={n}/uniform"), uniform_run.journaled.journal);
        let zipf = gain_for(
            cfg,
            n,
            AccessPattern::zipf(cfg.zipf_alpha, cfg.items)?,
            2,
            "zipf",
            book,
        )?;
        book.push(format!("n={n}/adversarial"), adversarial_journal);
        rows.push(Fig4Row {
            nodes: n,
            uniform,
            zipf,
            adversarial,
        });
    }
    Ok(rows)
}

/// Renders the sweep as a table.
pub fn table(cfg: &Fig4Config, rows: &[Fig4Row]) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 4: normalized max load vs n (c={}, d={}, m={}, Zipf({}), {} runs)",
            cfg.cache, cfg.replication, cfg.items, cfg.zipf_alpha, cfg.runs
        ),
        &["n", "uniform", "zipf", "adversarial"],
    );
    for r in rows {
        t.push_row(vec![
            r.nodes.to_string(),
            fmt_f(r.uniform),
            fmt_f(r.zipf),
            fmt_f(r.adversarial),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Fig4Config {
        Fig4Config {
            node_counts: vec![50, 100, 200],
            replication: 3,
            items: 20_000,
            rate: 1e4,
            cache: 20,
            zipf_alpha: 1.01,
            runs: 5,
            ci_target: 0.0,
            threads: 0,
            seed: 2,
            cache_kind: CacheKind::Perfect,
            admission: AdmissionKind::Oracle,
            partitioner: PartitionerKind::Hash,
            selector: SelectorKind::LeastLoaded,
        }
    }

    #[test]
    fn online_admission_runs_through_the_rate_engine() {
        // The sweep cannot model online admission; the fallback must
        // produce clean, journaled rows for every pattern.
        let mut cfg = tiny();
        cfg.admission = AdmissionKind::Online;
        cfg.node_counts = vec![50];
        cfg.runs = 2;
        let mut book = JournalBook::new();
        let rows = run_journaled(&cfg, &mut book).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(book.len(), 3);
        let labels: Vec<&str> = book.labels().collect();
        assert!(labels.contains(&"n=50/uniform"));
        assert!(labels.contains(&"n=50/zipf"));
        assert!(labels.contains(&"n=50/adversarial"));
        for r in &rows {
            for gain in [r.uniform, r.zipf, r.adversarial] {
                assert!(gain.is_finite() && gain > 0.0, "gain {gain}");
            }
        }
    }

    #[test]
    fn adversarial_dominates_and_grows_with_n() {
        let rows = run_journaled(&tiny(), &mut JournalBook::new()).unwrap();
        for r in &rows {
            assert!(
                r.adversarial >= r.uniform,
                "n={}: adversarial {} < uniform {}",
                r.nodes,
                r.adversarial,
                r.uniform
            );
        }
        let first = &rows[0];
        let last = rows.last().unwrap();
        assert!(
            last.adversarial > first.adversarial * 2.0,
            "adversarial gain should scale with n: {} -> {}",
            first.adversarial,
            last.adversarial
        );
    }

    #[test]
    fn organic_patterns_stay_benign() {
        for r in run_journaled(&tiny(), &mut JournalBook::new()).unwrap() {
            assert!(
                r.uniform < 1.6,
                "uniform gain {} at n={}",
                r.uniform,
                r.nodes
            );
            assert!(r.zipf < 1.6, "zipf gain {} at n={}", r.zipf, r.nodes);
        }
    }

    #[test]
    fn zipf_offloads_more_than_uniform_on_backend_total() {
        // The table reports max gain; the stronger paper claim ("best
        // throughput under Zipf") is about cache offload. Verify via one
        // direct run that Zipf's backend fraction is smaller.
        let cfg = tiny();
        let mk = |pattern| {
            SimConfig::builder()
                .nodes(100)
                .cache_capacity(cfg.cache)
                .items(cfg.items)
                .rate(cfg.rate)
                .pattern(pattern)
                .seed(3)
                .build()
                .unwrap()
        };
        let zipf = scp_sim::rate_engine::run_rate_simulation(&mk(AccessPattern::zipf(
            1.01, cfg.items,
        )
        .unwrap()))
        .unwrap();
        let uniform = scp_sim::rate_engine::run_rate_simulation(&mk(AccessPattern::uniform(
            cfg.items,
        )
        .unwrap()))
        .unwrap();
        assert!(zipf.backend_fraction() < uniform.backend_fraction());
    }

    #[test]
    fn table_shape() {
        let cfg = tiny();
        let rows = run_journaled(&cfg, &mut JournalBook::new()).unwrap();
        assert_eq!(table(&cfg, &rows).len(), 3);
    }

    #[test]
    fn journal_covers_every_pattern_and_point() {
        let cfg = tiny();
        let mut book = JournalBook::new();
        let rows = run_journaled(&cfg, &mut book).unwrap();
        assert_eq!(book.len(), rows.len() * 3);
        let labels: Vec<&str> = book.labels().collect();
        assert!(labels.contains(&"n=50/uniform"));
        assert!(labels.contains(&"n=200/adversarial"));
        for j in book.journals() {
            assert_eq!(j.len(), cfg.runs);
        }
    }

    #[test]
    fn paper_config_fast_mode() {
        let fast = Fig4Config::paper(&Opts {
            fast: true,
            ..Opts::default()
        });
        assert!(fast.items < 1_000_000);
        assert!(fast.node_counts.len() < 7);
    }
}
