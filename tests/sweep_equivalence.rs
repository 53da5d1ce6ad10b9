//! The incremental sweep engine against the per-point rate engine.
//!
//! The sweep promises **bit-identical** reports (exact `f64` equality,
//! not tolerance-equal): for equal-rate patterns every accumulator in the
//! per-point engine is fed the same addend repeatedly, so its final value
//! is a pure function of the addend count and can be reconstructed from
//! integer counts (see `scp_sim::sweep` module docs for the summation
//! order argument). These tests pin that promise across selectors,
//! partitioners, seeds and the grid boundaries the paper's artifacts
//! exercise — `x = c + 1` and `c = 0` included. The walk has one kernel per
//! replication factor 1–6 and a runtime-`d` loop above that, so the
//! replication factors here cover both.

use secure_cache_provision::prelude::*;
use secure_cache_provision::sim::critical::{best_response_gain, find_critical_cache_size};
use secure_cache_provision::sim::sweep::{
    repeat_sweep_journaled, RunSweep, SweepPoint, MAX_SWEEP_NODES,
};

fn base(
    selector: SelectorKind,
    partitioner: PartitionerKind,
    cache: usize,
    seed: u64,
) -> SimConfig {
    config(selector, partitioner, 60, 3, 3_000, cache, seed)
}

fn config(
    selector: SelectorKind,
    partitioner: PartitionerKind,
    nodes: usize,
    d: usize,
    items: u64,
    cache: usize,
    seed: u64,
) -> SimConfig {
    SimConfig::builder()
        .nodes(nodes)
        .replication(d)
        .items(items)
        .rate(1e4)
        .cache_capacity(cache)
        .partitioner(partitioner)
        .selector(selector)
        .seed(seed)
        .build()
        .unwrap()
}

fn per_point(cfg: &SimConfig, c: usize, x: u64) -> LoadReport {
    let point = cfg
        .to_builder()
        .cache_capacity(c)
        .attack_x(x)
        .build()
        .unwrap();
    run_rate_simulation(&point).unwrap()
}

#[test]
fn sweep_is_bit_identical_across_selectors_partitioners_and_seeds() {
    let selectors = [
        SelectorKind::LeastLoaded,
        SelectorKind::Random,
        SelectorKind::RoundRobin,
        SelectorKind::PerQueryLeastLoaded,
    ];
    let partitioners = [
        PartitionerKind::Hash,
        PartitionerKind::Rendezvous,
        PartitionerKind::Ring,
        PartitionerKind::Range,
        PartitionerKind::MultiProbe,
    ];
    // (nodes, d): the 60-node d = 3 cluster, every other walk kernel
    // (d = 1, 2, 4, 5, 6) and the runtime-d loop (d = 7), then n = d
    // shapes, where every group is the whole cluster in some order, the
    // counts tie on every rank whose predecessors spread evenly, and
    // first-wins decides the pin.
    let shapes = [
        (60, 3),
        (60, 1),
        (60, 2),
        (60, 4),
        (60, 5),
        (60, 6),
        (60, 7),
        (2, 2),
        (3, 3),
        (5, 5),
        (7, 7),
    ];
    for (nodes, d) in shapes {
        for &selector in &selectors {
            for &partitioner in &partitioners {
                for seed in [0u64, 7, 0xDEAD_BEEF] {
                    for cache in [0usize, 25] {
                        let cfg = config(selector, partitioner, nodes, d, 3_000, cache, seed);
                        let mut sweep = RunSweep::new(&cfg, cfg.items).unwrap();
                        // x = c + 1 boundary, interior points, and x = m.
                        let grid: Vec<u64> = [cache as u64 + 1, 40, 500, 3_000]
                            .into_iter()
                            .filter(|&x| x > cache as u64)
                            .collect::<std::collections::BTreeSet<_>>()
                            .into_iter()
                            .collect();
                        let reports = sweep.evaluate(cache, &grid).unwrap();
                        for (&x, report) in grid.iter().zip(&reports) {
                            assert_eq!(
                                report,
                                &per_point(&cfg, cache, x),
                                "mismatch at n={nodes}/d={d}/{selector:?}/{partitioner:?}/seed={seed}/c={cache}/x={x}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn sweep_build_remainders_stay_bit_identical() {
    // 3_005 ranks is neither a multiple of the 8-lane kernels nor of the
    // build block, so every partial block and lane remainder runs.
    for partitioner in PartitionerKind::ALL {
        for selector in [SelectorKind::LeastLoaded, SelectorKind::Random] {
            let cfg = config(selector, partitioner, 60, 3, 3_005, 25, 11);
            let mut sweep = RunSweep::new(&cfg, cfg.items).unwrap();
            let grid = [26, 1_001, 3_004, 3_005];
            let reports = sweep.evaluate(25, &grid).unwrap();
            for (&x, report) in grid.iter().zip(&reports) {
                assert_eq!(
                    report,
                    &per_point(&cfg, 25, x),
                    "mismatch at {selector:?}/{partitioner:?}/x={x}"
                );
            }
        }
    }
}

#[test]
fn one_walk_covers_multiple_cache_sizes_bit_identically() {
    // The same RunSweep evaluated at several cache sizes (as the
    // critical-size bisection does) keeps matching the per-point engine,
    // including the fully-cached x <= c degenerate corner.
    let cfg = base(SelectorKind::LeastLoaded, PartitionerKind::Hash, 10, 42);
    let mut sweep = RunSweep::new(&cfg, cfg.items).unwrap();
    for c in [0usize, 1, 10, 100, 1_000] {
        let grid = [c as u64 + 1, 2_000, 3_000];
        let reports = sweep.evaluate(c, &grid).unwrap();
        for (&x, report) in grid.iter().zip(&reports) {
            assert_eq!(report, &per_point(&cfg, c, x), "c={c} x={x}");
        }
    }
}

#[test]
fn journaled_sweep_is_identical_at_one_and_eight_threads() {
    let cfg = base(SelectorKind::LeastLoaded, PartitionerKind::Hash, 20, 9);
    let points = [
        SweepPoint { cache: 20, x: 21 },
        SweepPoint {
            cache: 20,
            x: 3_000,
        },
        SweepPoint { cache: 0, x: 1 },
        SweepPoint { cache: 0, x: 3_000 },
    ];
    let rule = StopRule::adaptive(4, 12, 0.3);
    let a = repeat_sweep_journaled(&cfg, &points, &rule, 1).unwrap();
    let b = repeat_sweep_journaled(&cfg, &points, &rule, 8).unwrap();
    assert_eq!(a.len(), b.len());
    for (left, right) in a.iter().zip(&b) {
        assert_eq!(left.point, right.point);
        assert_eq!(left.journaled.reports, right.journaled.reports);
        assert_eq!(left.journaled.aggregate, right.journaled.aggregate);
        assert_eq!(
            left.journaled.journal.stopping,
            right.journaled.journal.stopping
        );
    }
}

#[test]
fn journal_seeds_replay_through_the_per_point_engine() {
    // Every journal record's seed must reproduce that run's report when
    // fed back through run_rate_simulation — the observability contract
    // the per-point path has always offered.
    let cfg = base(SelectorKind::LeastLoaded, PartitionerKind::Hash, 15, 77);
    let points = [
        SweepPoint { cache: 15, x: 16 },
        SweepPoint {
            cache: 15,
            x: 3_000,
        },
    ];
    let swept = repeat_sweep_journaled(&cfg, &points, &StopRule::fixed(3), 0).unwrap();
    for run in &swept {
        let point_cfg = cfg
            .to_builder()
            .cache_capacity(run.point.cache)
            .attack_x(run.point.x)
            .build()
            .unwrap();
        for (record, report) in run
            .journaled
            .journal
            .records
            .iter()
            .zip(&run.journaled.reports)
        {
            let replayed = run_rate_simulation(&point_cfg.for_run(record.run as u64)).unwrap();
            assert_eq!(&replayed, report, "record seed failed to replay");
            assert_eq!(record.seed, point_cfg.for_run(record.run as u64).seed);
        }
    }
}

#[test]
fn top_node_id_routes_in_both_walks() {
    // 200k ranks x 3 replicas over 65,536 nodes leave almost no node
    // unrouted, so the largest u16 id carries load in the checked report.
    for selector in [SelectorKind::LeastLoaded, SelectorKind::Random] {
        let cfg = config(
            selector,
            PartitionerKind::Hash,
            MAX_SWEEP_NODES,
            3,
            200_000,
            100,
            1,
        );
        let mut sweep = RunSweep::new(&cfg, cfg.items).unwrap();
        let grid = [101, 200_000];
        let reports = sweep.evaluate(100, &grid).unwrap();
        for (&x, report) in grid.iter().zip(&reports) {
            assert_eq!(report, &per_point(&cfg, 100, x), "{selector:?}/x={x}");
        }
        let top = reports[1].snapshot.loads()[MAX_SWEEP_NODES - 1];
        assert!(
            top > 0.0,
            "{selector:?}: top id {} idle",
            MAX_SWEEP_NODES - 1
        );
    }
}

/// Asserts the least-loaded critical search at a small shape probes
/// exactly `probes` (cache size, gain bits) and lands on `critical`.
fn assert_probe_trace(d: usize, critical: usize, probes: &[(usize, u64)]) {
    let cfg = config(
        SelectorKind::LeastLoaded,
        PartitionerKind::Hash,
        50,
        d,
        5_000,
        0,
        21,
    );
    let cp = find_critical_cache_size(&cfg, 4, 0).unwrap();
    let trace: Vec<(usize, u64)> = cp
        .trace
        .iter()
        .map(|p| (p.cache_size, p.gain.to_bits()))
        .collect();
    assert_eq!(trace, probes, "d={d}");
    assert_eq!(cp.cache_size, critical, "d={d}");
}

/// Asserts the best-response gain bits at each `(cache size, bits)`.
fn assert_gains(selector: SelectorKind, d: usize, gains: &[(usize, u64)]) {
    let cfg = config(selector, PartitionerKind::Hash, 50, d, 5_000, 0, 21);
    for &(c, bits) in gains {
        let gain = best_response_gain(&cfg, c, 4, 0).unwrap();
        assert_eq!(gain.to_bits(), bits, "{selector:?} d={d} c={c}: {gain}");
    }
}

// Probe sequences and gain bits below were recorded from the walk before
// its count table and kernels were rewritten.

#[test]
fn critical_search_probe_trace_is_pinned() {
    // d = 3 takes a constant-d kernel, d = 7 the runtime-d loop.
    assert_probe_trace(
        3,
        49,
        &[
            (256, 0x3feeb851eb851eb8),
            (0, 0x4049000000000000),
            (128, 0x3fefae147ae147ae),
            (64, 0x3ff0000000000000),
            (32, 0x3ff83e0f83e0f83f),
            (48, 0x3ff05397829cbc14),
            (56, 0x3ff0000000000000),
            (52, 0x3ff0000000000000),
            (50, 0x3ff0000000000000),
            (49, 0x3ff0000000000000),
        ],
    );
    assert_probe_trace(
        7,
        49,
        &[
            (148, 0x3fef5c28f5c28f5c),
            (0, 0x4049000000000000),
            (74, 0x3fefae147ae147ae),
            (37, 0x3ff50d79435e50d7),
            (55, 0x3ff0000000000000),
            (46, 0x3ff10572620ae4c4),
            (50, 0x3ff0000000000000),
            (48, 0x3ff05397829cbc14),
            (49, 0x3ff0000000000000),
        ],
    );
}

#[test]
fn even_split_best_response_gains_are_pinned() {
    // The even split never drops to gain 1 at this shape, so the search
    // would fail; its pin is the best-response gain itself.
    assert_gains(
        SelectorKind::Random,
        5,
        &[
            (0, 0x4024000000000000),
            (30, 0x3ff21cac0831271a),
            (100, 0x3ff204189374bc9a),
        ],
    );
    assert_gains(
        SelectorKind::PerQueryLeastLoaded,
        2,
        &[
            (0, 0x4039000000000000),
            (30, 0x3ff3d70a3d70a3d7),
            (100, 0x3ff3d70a3d70a3d7),
        ],
    );
}
