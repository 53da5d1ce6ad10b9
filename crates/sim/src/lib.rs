//! Simulation engines and experiment infrastructure.
//!
//! Three engines reproduce and extend the paper's Section IV validation:
//!
//! * [`rate_engine`] — **rate propagation**: pushes exact per-key query
//!   rates through cache → partitioner → replica selection. The only
//!   randomness is the partition (and selector tie-breaking), exactly the
//!   random variable the paper's simulations measure. Fast: O(x) per run.
//! * [`query_engine`] — **query sampling**: draws individual queries, so
//!   real cache policies (LRU, TinyLFU, ...) can be evaluated and
//!   multinomial sampling noise is included.
//! * [`des`] — **discrete-event simulation**: Poisson arrivals and
//!   exponential service per node, for latency/saturation questions
//!   (the `r_i >= E[L_max]` capacity discussion closing Section III).
//!
//! [`sweep`] evaluates whole `(x, c)` grids against one partition per
//! run, bit-identical to the per-point rate engine but an order of
//! magnitude faster; [`runner`] executes independent repetitions in
//! parallel with deterministic per-run seeds and CI-driven adaptive
//! stopping; [`journal`] records one structured observability record per
//! repetition; [`critical`] locates empirical critical cache sizes by
//! bisection over per-run sweeps; [`stats`] aggregates; [`cli`] is the
//! flag-table command-line layer the workspace binaries share.
//!
//! # Example
//!
//! ```
//! use scp_sim::config::{AdmissionKind, CacheKind, PartitionerKind, SelectorKind, SimConfig};
//! use scp_workload::AccessPattern;
//!
//! let cfg = SimConfig {
//!     nodes: 50,
//!     replication: 3,
//!     cache_kind: CacheKind::Perfect,
//!     admission: AdmissionKind::Oracle,
//!     cache_capacity: 10,
//!     items: 10_000,
//!     rate: 1e4,
//!     pattern: AccessPattern::uniform_subset(11, 10_000).unwrap(),
//!     partitioner: PartitionerKind::Hash,
//!     selector: SelectorKind::LeastLoaded,
//!     seed: 7,
//! };
//! let report = scp_sim::rate_engine::run_rate_simulation(&cfg)?;
//! assert!(report.gain().value() > 0.0);
//! # Ok::<(), scp_sim::SimError>(())
//! ```

#![warn(missing_docs)]

pub mod assignments;
pub mod cli;
pub mod config;
pub mod cost;
pub mod critical;
pub mod des;
pub mod detector;
pub mod error;
pub mod journal;
pub mod metrics;
pub mod multi_frontend;
pub mod query_engine;
pub mod rate_engine;
pub mod runner;
pub mod stats;
pub mod sweep;

pub use config::{AdmissionKind, SimConfig, SimConfigBuilder};
pub use error::SimError;
pub use metrics::LoadReport;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SimError>;
