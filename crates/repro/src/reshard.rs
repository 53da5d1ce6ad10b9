//! Elastic-membership study: placement disruption and critical-cache
//! drift across topology epochs.
//!
//! Two questions, one per table:
//!
//! 1. **Disruption** — when one node joins or leaves an `n`-node
//!    cluster, what fraction of keys change placement under each
//!    partitioning scheme? Multi-probe consistent hashing (arXiv
//!    1505.00062) bounds the primary-move fraction by ≈ `1/(n+1)` on a
//!    join; mod-`n` hashing remaps nearly the whole key space. The table
//!    reports both the primary-move and any-replica-move fractions
//!    against that ideal, measured through the live
//!    [`Partitioner::rebuild`] seam (the same code path `scp-serve` uses
//!    mid-traffic) and summarized by a [`MigrationPlan`].
//!
//! 2. **`c*` drift** — the paper provisions the front-end cache at the
//!    critical size `c* ≈ k·n + 1`, which depends on the member count.
//!    During a migration window the cluster is transiently at `n+1` (or
//!    `n−1`) members, so the empirical `c*` drifts. The table bisects
//!    the empirical critical size at every epoch of a join→leave
//!    schedule and compares it with theory, quantifying how much cache
//!    headroom elasticity demands.
//!
//! [`Partitioner::rebuild`]: scp_cluster::Partitioner::rebuild

use crate::output::{fmt_f, Table};
use crate::{Opts, Result};
use scp_cluster::{KeyId, MigrationPlan, NodeId, PartitionerKind, PartitionerSpec, Topology};
use scp_core::bounds::{critical_cache_size, KParam};
use scp_sim::config::SimConfig;
use scp_sim::critical::find_critical_cache_size;
use scp_sim::SimError;

/// Configuration for the elastic-membership study.
#[derive(Debug, Clone)]
pub struct ReshardConfig {
    /// Member count before the membership event.
    pub nodes: usize,
    /// Replication factor `d`.
    pub replication: usize,
    /// Keys sampled when computing migration plans.
    pub keys: u64,
    /// Key-space size for the `c*` searches (and the range partitioner).
    pub items: u64,
    /// Repetitions per `c*` probe.
    pub runs: usize,
    /// Worker threads for the `c*` searches (0 = all cores).
    pub threads: usize,
    /// Placement / simulation master seed.
    pub seed: u64,
}

impl ReshardConfig {
    /// The default study: a 100-node cluster with `d = 3`, 200k sampled
    /// keys; `--fast` shrinks to 50 nodes and 50k keys.
    pub fn paper(opts: &Opts) -> Self {
        let fast = opts.fast;
        Self {
            nodes: if fast { 50 } else { 100 },
            replication: 3,
            keys: if fast { 50_000 } else { 200_000 },
            items: if fast { 50_000 } else { 100_000 },
            runs: opts.effective_runs(50),
            threads: opts.threads,
            seed: opts.common.seed,
        }
    }
}

/// One membership event applied to a dense `n`-node cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Node `n` joins (the cluster grows to `n + 1`).
    Join,
    /// Node `n / 2` leaves (the cluster shrinks to `n − 1`).
    Leave,
}

impl Event {
    /// Short lower-case label for tables and CSV.
    pub fn name(self) -> &'static str {
        match self {
            Event::Join => "join",
            Event::Leave => "leave",
        }
    }
}

/// Disruption of one (scheme, event) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct DisruptionRow {
    /// Partitioning scheme measured.
    pub kind: PartitionerKind,
    /// The membership event applied.
    pub event: Event,
    /// Member count before the event.
    pub n_before: usize,
    /// Member count after the event.
    pub n_after: usize,
    /// Fraction of sampled keys whose primary replica changed.
    pub primary_moved: f64,
    /// Fraction of sampled keys whose replica set changed at all.
    pub group_moved: f64,
    /// The minimal-disruption ideal for the primary fraction:
    /// `1/(n+1)` on a join, `1/n` on a leave.
    pub ideal_primary: f64,
}

impl DisruptionRow {
    /// `primary_moved / ideal_primary` — 1.0 is optimal, mod-`n`
    /// hashing scores `Θ(n)`.
    pub fn ratio(&self) -> f64 {
        if self.ideal_primary > 0.0 {
            self.primary_moved / self.ideal_primary
        } else {
            f64::INFINITY
        }
    }
}

/// Empirical and theoretical `c*` at one epoch of the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftRow {
    /// Epoch number (0 = before any event).
    pub epoch: u64,
    /// What produced this epoch (`"start"`, `"join"`, `"leave"`).
    pub label: &'static str,
    /// Member count at this epoch.
    pub members: usize,
    /// Theoretical `c* = ⌈k·n⌉ + 1` at this member count.
    pub theory: usize,
    /// Empirical critical cache size from the bisection.
    pub empirical: usize,
    /// Best-response attack gain measured at the empirical `c*`.
    pub gain_at: f64,
}

/// Everything the study produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Disruption rows, every scheme × {join, leave}.
    pub disruption: Vec<DisruptionRow>,
    /// `c*` at each epoch of the join→leave schedule.
    pub drift: Vec<DriftRow>,
}

fn spec(cfg: &ReshardConfig, kind: PartitionerKind, topology: Topology) -> PartitionerSpec {
    PartitionerSpec::new(kind)
        .topology(topology)
        .replication(cfg.replication)
        .items(cfg.items)
        .seed(cfg.seed)
}

/// Measures placement disruption for one scheme under one event, going
/// through the same [`rebuild`] seam the serving engine uses.
///
/// [`rebuild`]: scp_cluster::Partitioner::rebuild
///
/// # Errors
///
/// Propagates construction errors (e.g. `n < d`) from the spec.
pub fn measure_disruption(
    cfg: &ReshardConfig,
    kind: PartitionerKind,
    event: Event,
) -> Result<DisruptionRow> {
    let before = Topology::with_nodes(cfg.nodes).map_err(SimError::from)?;
    let mut after = before.clone();
    match event {
        Event::Join => after
            .join(NodeId::from_index(cfg.nodes))
            .map_err(SimError::from)?,
        Event::Leave => after
            .leave(NodeId::from_index(cfg.nodes / 2))
            .map_err(SimError::from)?,
    }
    let old = spec(cfg, kind, before.clone())
        .build()
        .map_err(SimError::from)?;
    // Rebuild (the live seam), not a fresh build: the serving engine
    // mutates its partitioner in place, so that is what we measure.
    let mut new = spec(cfg, kind, before.clone())
        .build()
        .map_err(SimError::from)?;
    new.rebuild(&after).map_err(SimError::from)?;
    let plan = MigrationPlan::between(
        old.as_ref(),
        before.epoch(),
        new.as_ref(),
        after.epoch(),
        (0..cfg.keys).map(KeyId::new),
    );
    let ideal_primary = match event {
        Event::Join => 1.0 / (cfg.nodes as f64 + 1.0),
        Event::Leave => 1.0 / cfg.nodes as f64,
    };
    Ok(DisruptionRow {
        kind,
        event,
        n_before: before.len(),
        n_after: after.len(),
        primary_moved: plan.primary_moved_fraction(),
        group_moved: plan.moved_key_fraction(),
        ideal_primary,
    })
}

/// Runs the disruption table: every scheme × {join, leave}.
///
/// # Errors
///
/// Propagates any scheme construction failure.
pub fn run_disruption(cfg: &ReshardConfig) -> Result<Vec<DisruptionRow>> {
    let mut rows = Vec::with_capacity(PartitionerKind::ALL.len() * 2);
    for kind in PartitionerKind::ALL {
        for event in [Event::Join, Event::Leave] {
            rows.push(measure_disruption(cfg, kind, event)?);
        }
    }
    Ok(rows)
}

/// Bisects the empirical `c*` at each epoch of a join→leave schedule
/// (`n → n+1 → n` members), with the adversarial `x = m` attack from
/// the critical-size study.
///
/// # Errors
///
/// Propagates simulation errors from the bisection probes.
pub fn run_drift(cfg: &ReshardConfig, partitioner: PartitionerKind) -> Result<Vec<DriftRow>> {
    let schedule: [(&'static str, usize); 3] = [
        ("start", cfg.nodes),
        ("join", cfg.nodes + 1),
        ("leave", cfg.nodes),
    ];
    let mut rows = Vec::with_capacity(schedule.len());
    for (epoch, (label, members)) in schedule.into_iter().enumerate() {
        let base = SimConfig::builder()
            .nodes(members)
            .replication(cfg.replication)
            .items(cfg.items)
            .rate(1e6)
            .cache_capacity(0)
            .attack_x(cfg.items)
            .partitioner(partitioner)
            // Same seed at every epoch: the member count is the *only*
            // variable, and equal-count epochs (start vs post-leave)
            // must reproduce the identical empirical c*.
            .seed(cfg.seed)
            .build()?;
        let point = find_critical_cache_size(&base, cfg.runs, cfg.threads)?;
        rows.push(DriftRow {
            epoch: epoch as u64,
            label,
            members,
            theory: critical_cache_size(members, cfg.replication, &KParam::theory()),
            empirical: point.cache_size,
            gain_at: point.gain_at,
        });
    }
    Ok(rows)
}

/// Runs the whole study (disruption for every scheme, drift under
/// `opts.common.partitioner`).
///
/// # Errors
///
/// Propagates any simulation or construction error.
pub fn run(cfg: &ReshardConfig, partitioner: PartitionerKind) -> Result<Outcome> {
    Ok(Outcome {
        disruption: run_disruption(cfg)?,
        drift: run_drift(cfg, partitioner)?,
    })
}

/// The disruption table.
pub fn table_disruption(cfg: &ReshardConfig, rows: &[DisruptionRow]) -> Table {
    let mut t = Table::new(
        format!(
            "placement disruption on one membership event (n={}, d={}, {} keys)",
            cfg.nodes, cfg.replication, cfg.keys
        ),
        &[
            "partitioner",
            "event",
            "n_before",
            "n_after",
            "primary_moved",
            "group_moved",
            "ideal_primary",
            "ratio",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.kind.name().to_string(),
            r.event.name().to_string(),
            r.n_before.to_string(),
            r.n_after.to_string(),
            fmt_f(r.primary_moved),
            fmt_f(r.group_moved),
            fmt_f(r.ideal_primary),
            fmt_f(r.ratio()),
        ]);
    }
    t
}

/// The `c*`-drift table.
pub fn table_drift(cfg: &ReshardConfig, partitioner: PartitionerKind, rows: &[DriftRow]) -> Table {
    let mut t = Table::new(
        format!(
            "critical cache size across epochs ({}, d={}, m={}, {} runs/probe)",
            partitioner.name(),
            cfg.replication,
            cfg.items,
            cfg.runs
        ),
        &[
            "epoch",
            "event",
            "members",
            "theory_cstar",
            "empirical_cstar",
            "gain_at_cstar",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.epoch.to_string(),
            r.label.to_string(),
            r.members.to_string(),
            r.theory.to_string(),
            r.empirical.to_string(),
            fmt_f(r.gain_at),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ReshardConfig {
        ReshardConfig {
            nodes: 50,
            replication: 3,
            keys: 40_000,
            items: 40_000,
            runs: 3,
            threads: 0,
            seed: 20130708,
        }
    }

    #[test]
    fn multiprobe_join_is_within_twice_the_ideal() {
        let row = measure_disruption(&cfg(), PartitionerKind::MultiProbe, Event::Join).unwrap();
        assert!(
            row.ratio() <= 2.0,
            "multi-probe primary disruption {} vs ideal {} (ratio {})",
            row.primary_moved,
            row.ideal_primary,
            row.ratio()
        );
        assert!(row.primary_moved > 0.0, "a join must move something");
    }

    #[test]
    fn multiprobe_leave_is_within_twice_the_ideal() {
        let row = measure_disruption(&cfg(), PartitionerKind::MultiProbe, Event::Leave).unwrap();
        assert!(row.ratio() <= 2.0, "leave ratio {}", row.ratio());
    }

    #[test]
    fn mod_n_hashing_remaps_nearly_everything() {
        let row = measure_disruption(&cfg(), PartitionerKind::Hash, Event::Join).unwrap();
        // With d = 3 a mod-n join disturbs ~0.88 of replica groups —
        // the "near-total" contrast the elastic redesign removes.
        assert!(
            row.group_moved > 0.8,
            "expected near-total disruption, got {}",
            row.group_moved
        );
        assert!(row.ratio() > 10.0, "mod-n must be far from ideal");
    }

    #[test]
    fn disruption_covers_every_scheme_and_event() {
        let rows = run_disruption(&cfg()).unwrap();
        assert_eq!(rows.len(), PartitionerKind::ALL.len() * 2);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.primary_moved));
            assert!((0.0..=1.0).contains(&r.group_moved));
            assert!(r.group_moved >= r.primary_moved - 1e-12);
        }
        let t = table_disruption(&cfg(), &rows);
        assert_eq!(t.len(), rows.len());
    }

    #[test]
    fn drift_tracks_member_count() {
        let mut c = cfg();
        c.nodes = 30;
        c.items = 10_000;
        c.keys = 10_000;
        let rows = run_drift(&c, PartitionerKind::MultiProbe).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].members, 30);
        assert_eq!(rows[1].members, 31);
        assert_eq!(rows[2].members, 30);
        // Theory c* grows with n, so the join epoch demands more cache.
        assert!(rows[1].theory >= rows[0].theory);
        // Equal member counts under the pinned seed are the identical
        // experiment, so start and post-leave agree exactly.
        assert_eq!(rows[0].empirical, rows[2].empirical);
        assert_eq!(rows[0].theory, rows[2].theory);
        for r in &rows {
            assert!(r.empirical > 0, "bisection found nothing at {}", r.label);
        }
        let t = table_drift(&c, PartitionerKind::MultiProbe, &rows);
        assert_eq!(t.len(), 3);
    }
}
