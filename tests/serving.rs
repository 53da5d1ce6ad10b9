//! Tier-1 serve-path guarantees: the `scp-serve --smoke` acceptance gates
//! hold (among them, the live engine agrees with the simulator), shedding
//! engages exactly when a shard is driven past its capacity, and shutdown
//! never loses an accounted request.

use secure_cache_provision::prelude::*;
use secure_cache_provision::sim::config::DEFAULT_SEED;

#[test]
fn serve_smoke_gates_all_pass() {
    // The six `scp-serve --smoke` gates at the CLI's default seed. Gate 3
    // (`gain-vs-rate-engine`) is the serve ≡ simulator cross-check: on the
    // paper baseline (n = 1000, d = 3, c = 200, x = c + 1, 1M queries) the
    // deterministic engine's gain must land within 5% of the rate engine's
    // exact value, with every request accounted for and drained.
    let gates = secure_cache_provision::serve::smoke_gates(DEFAULT_SEED);
    assert_eq!(gates.len(), 6);
    for gate in gates {
        assert!(gate.pass, "gate {} failed: {}", gate.name, gate.detail);
    }
}

/// A small cluster the optimal attack can overdrive: with least-loaded
/// selection the single uncached key pins to one replica, which then
/// receives up to R/x while its capacity is only h·R/n — shedding is
/// guaranteed whenever n > h·x·d.
fn overdrive_sim() -> SimConfig {
    SimConfig::builder()
        .nodes(50)
        .cache_capacity(10) // x = 11 attack
        .items(100_000)
        .rate(1e4)
        .seed(7)
        .build()
        .expect("overdrive config is valid")
}

#[test]
fn shedding_engages_iff_a_shard_is_driven_past_its_capacity() {
    // Tight headroom (1.2): r_i = 1.2·R/50 < R/11 → the hot shard must
    // shed; generous headroom (1000): r_i far above any shard's arrival
    // rate → nothing may shed. Both runs stay fully accounted.
    let mut tight = ServeConfig::new(overdrive_sim());
    tight.total_queries = 200_000;
    tight.capacity_headroom = 1.2;
    let report = run_deterministic(&tight).expect("tight run completes");
    assert!(report.is_conserved() && report.is_drained());
    assert!(
        report.shed_capacity() > 0,
        "overdriven shard must shed, not queue without bound"
    );

    let mut ample = tight.clone();
    ample.capacity_headroom = 1000.0;
    let report = run_deterministic(&ample).expect("ample run completes");
    assert!(report.is_conserved() && report.is_drained());
    assert_eq!(
        report.shed_capacity(),
        0,
        "no shard exceeds r_i, so nothing may be capacity-shed"
    );
}

#[test]
fn threaded_shutdown_drains_queues_without_losing_accounted_requests() {
    // The full threaded pipeline: client threads, admission, SPSC fan-out
    // and shard workers. On quota-driven shutdown every queue must drain
    // and the exact-integer conservation law must hold, with per-shard
    // work checksums proving nothing was dropped or duplicated in flight.
    let mut cfg = ServeConfig::new(overdrive_sim());
    cfg.total_queries = 120_000;
    cfg.clients = 3;
    let report = run_threaded(&cfg).expect("threaded run completes");

    assert_eq!(report.submitted, 120_000, "quota must be exact");
    assert!(
        report.is_conserved(),
        "submitted != hits + enqueued + shed + unserved"
    );
    assert!(
        report.is_drained(),
        "a queue was not drained or a checksum diverged on shutdown"
    );
    for (i, shard) in report.shards.iter().enumerate() {
        assert_eq!(
            shard.processed, shard.enqueued,
            "shard {i} lost work on shutdown"
        );
        assert_eq!(
            shard.checksum, shard.expected_checksum,
            "shard {i} processed different work than was enqueued"
        );
    }
}

#[test]
fn serve_report_serializes_through_the_facade_json() {
    // The report must round-trip through the workspace's own JSON value
    // so journals and CI artifacts can consume it.
    let mut cfg = ServeConfig::new(overdrive_sim());
    cfg.total_queries = 20_000;
    let report = run_deterministic(&cfg).expect("run completes");
    let text = report.to_json().to_pretty_string();
    let back = Json::parse(&text).expect("report JSON parses");
    assert_eq!(
        back.get("submitted").and_then(Json::as_u64),
        Some(report.submitted)
    );
    assert_eq!(back.get("conserved").and_then(Json::as_bool), Some(true));
}
