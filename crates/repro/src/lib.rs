//! Reproduction harness: one module per figure of the paper, plus the
//! ablations catalogued in `DESIGN.md`.
//!
//! Each study is an [`Experiment`] variant. [`Experiment::run`] returns
//! its named tables and journals, and [`Experiment::report`] prints
//! them and writes the files. Each binary below is a three-line `main`
//! over its variant.
//!
//! | Binary | [`Experiment`] | Paper artifact | Setup | CSVs under `--out` |
//! |---|---|---|---|---|
//! | `fig3a` | `Fig3a` | Figure 3(a) | n=1000, d=3, m=1e6, c=200, x-sweep, 200 runs | `fig3a` |
//! | `fig3b` | `Fig3b` | Figure 3(b) | same with c=2000 | `fig3b` |
//! | `fig4`  | `Fig4` | Figure 4 | c=100, n-sweep, uniform / Zipf(1.01) / adversarial | `fig4` |
//! | `fig5`  | `Fig5` | Figure 5(a)+(b) | c-sweep: best achievable gain + chosen x | `fig5a`, `fig5b` |
//! | `ablations` | `Ablations` | DESIGN.md A1–A8 | selection, partitioning, replication, cache policies, front-end fleets, costs, skew, rebalancing | `ablation_a1` … `ablation_a8` |
//! | `gap` | `Gap` | oracle-vs-online admission gap + PoW shield (beyond the paper) | stationary margin, rotating attacker, difficulty curve | `gap_margin`, `gap_rotation`, `gap_pow` |
//! | `reshard` | `Reshard` | elastic membership (beyond the paper) | per-scheme join/leave disruption vs the `1/(n+1)` ideal; `c*` drift across topology epochs | `reshard_disruption`, `reshard_cstar_drift` |
//! | `repro-all` | all of [`Experiment::ALL`], in order | everything above | keeps going past a failed group; exits 1 if any failed | all of the above |
//! | `critical` | — | empirical `c*` by bisection | prints the probe trace, no CSV | — |
//!
//! Every binary parses the same [`Opts`] flag table (`--help` lists
//! it): `--out DIR` (default `target/repro/`), `--runs N` to rescale the
//! repetition count, `--fast` for a configuration that finishes in
//! seconds, `--journal DIR` to write `{experiment}.journal.json` and
//! `{experiment}.runs.csv` for the journaled studies (figures 3–5 and
//! the ablations), and the shared flags of [`scp_sim::cli::CommonOpts`].

#![warn(missing_docs)]

pub mod ablation;
pub mod experiment;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod gap;
pub mod opts;
pub mod output;
pub mod reshard;

pub use experiment::Experiment;
pub use opts::Opts;

/// Crate-wide result alias (re-uses the simulation error).
pub type Result<T> = std::result::Result<T, scp_sim::SimError>;
