//! `scp-serve`: a sharded live-serving engine for the Secure Cache
//! Provision system.
//!
//! The simulation crates answer "what load shape does an attack
//! produce?"; this crate answers "what does a *running service* built on
//! the paper's design actually do under that load?" — same cache, same
//! partitioner, same replica selection, but as a long-running threaded
//! pipeline with real queues, batching, backpressure and per-shard
//! capacity enforcement:
//!
//! ```text
//!  clients ──▶ per-client SPSC batch rings ──▶ admission ──▶ SPSC queues ──▶ shard workers
//!         ◀── freelist rings (recycled bufs) ◀─┘   │    (one per backend node, run-to-completion)
//!                                                  ├ cache (c entries)
//!                                                  ├ route (partitioner + selector, 4-wide)
//!                                                  ├ shed if shard over r_i = h·R/n
//!                                                  └ batch up to `batch_size`
//! ```
//!
//! Two execution modes share every admission decision:
//!
//! * [`engine::run_deterministic`] — single-threaded, bit-reproducible,
//!   drawing the *identical* query sequence as the simulator's query
//!   engine. Its measured attack gain is directly comparable with
//!   [`scp_sim::rate_engine`], which is exactly what the tier-1
//!   cross-check test does.
//! * [`loadgen::run_threaded`] — closed-loop client threads, an
//!   admission thread and one worker per shard, for throughput and
//!   overload behavior on real hardware.
//!
//! Both produce a [`report::ServeReport`] with exact-integer
//! conservation (`submitted = hits + processed + shed + unserved`),
//! per-shard queue-depth percentiles, and a bridge into the simulator's
//! [`scp_sim::LoadReport`] so the paper's metrics apply unchanged.
//!
//! # Example
//!
//! ```
//! use scp_serve::{ServeConfig, run_deterministic};
//! use scp_sim::SimConfig;
//!
//! let sim = SimConfig::builder()
//!     .nodes(50)
//!     .items(10_000)
//!     .cache_capacity(10)
//!     .attack_x(11)
//!     .seed(7)
//!     .build()?;
//! let mut cfg = ServeConfig::new(sim);
//! cfg.total_queries = 20_000;
//! let report = run_deterministic(&cfg)?;
//! assert!(report.is_conserved());
//! assert!(report.gain() > 1.0);
//! # Ok::<(), scp_serve::ServeError>(())
//! ```

#![warn(missing_docs)]

pub mod backoff;
pub mod batch_ring;
pub mod cli;
pub mod clock;
pub mod config;
pub mod engine;
pub mod loadgen;
pub mod pad;
pub mod pow;
pub mod report;
pub mod smoke;
pub mod spsc;

pub use cli::ServeOpts;
pub use config::{MembershipChange, MembershipEvent, Result, ServeConfig, ServeError};
pub use engine::{run_deterministic, LaneStats, Request, TokenBucket};
pub use loadgen::run_threaded;
pub use pow::{PowShield, PowVerdict, PowVerifier};
pub use report::{repeat_serve_journaled, DepthStats, JournaledServe, ServeReport, ShardReport};
pub use smoke::{smoke_gates, Gate};
