//! The experiments the binaries run, and the one routine that prints,
//! saves and journals their results.

use crate::output::{save_journals, JournalBook, Table};
use crate::{ablation, fig3, fig4, fig5, gap, reshard, Opts, Result};
use scp_sim::cli;
use std::process::ExitCode;

/// One experiment group; each has a binary of the same name, and
/// `repro-all` runs them all in [`Experiment::ALL`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Experiment {
    /// Figure 3(a): x-sweep with a small (c = 200) cache.
    Fig3a,
    /// Figure 3(b): x-sweep with a provisioned (c = 2000) cache.
    Fig3b,
    /// Figure 4: access patterns across cluster sizes.
    Fig4,
    /// Figure 5(a)+(b): the best attack vs. cache size.
    Fig5,
    /// Ablations A1–A8.
    Ablations,
    /// Oracle-vs-online admission gap plus the PoW shield curve.
    Gap,
    /// Placement disruption and `c*` drift under resharding.
    Reshard,
}

/// An experiment's results: its tables under their CSV names, and the
/// journals of its repetition batches if it keeps any.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// `(CSV name, table)` in print order.
    pub tables: Vec<(String, Table)>,
    /// The per-run journals, saved as `{experiment name}.*`.
    pub journals: Option<JournalBook>,
}

impl Experiment {
    /// Every experiment, in `repro-all` order.
    pub const ALL: [Experiment; 7] = [
        Experiment::Fig3a,
        Experiment::Fig3b,
        Experiment::Fig4,
        Experiment::Fig5,
        Experiment::Ablations,
        Experiment::Gap,
        Experiment::Reshard,
    ];

    /// The binary name, which also names the journal files.
    pub fn name(self) -> &'static str {
        match self {
            Experiment::Fig3a => "fig3a",
            Experiment::Fig3b => "fig3b",
            Experiment::Fig4 => "fig4",
            Experiment::Fig5 => "fig5",
            Experiment::Ablations => "ablations",
            Experiment::Gap => "gap",
            Experiment::Reshard => "reshard",
        }
    }

    /// Runs the experiment under `opts`.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn run(self, opts: &Opts) -> Result<Outcome> {
        let mut book = JournalBook::new();
        let named = |name: &str, table| (name.to_string(), table);
        let tables = match self {
            Experiment::Fig3a | Experiment::Fig3b => {
                let cache = if self == Experiment::Fig3a { 200 } else { 2000 };
                let cfg = fig3::Fig3Config::paper(cache, opts);
                let rows = fig3::run_journaled(&cfg, &mut book)?;
                vec![named(self.name(), fig3::table(&cfg, &rows))]
            }
            Experiment::Fig4 => {
                let cfg = fig4::Fig4Config::paper(opts);
                let rows = fig4::run_journaled(&cfg, &mut book)?;
                vec![named("fig4", fig4::table(&cfg, &rows))]
            }
            Experiment::Fig5 => {
                let cfg = fig5::Fig5Config::paper(opts);
                let outcome = fig5::run_journaled(&cfg, &mut book)?;
                vec![
                    named("fig5a", fig5::table_panel_a(&cfg, &outcome)),
                    named("fig5b", fig5::table_panel_b(&cfg, &outcome)),
                ]
            }
            Experiment::Ablations => {
                let (tables, journals) = ablation::run_all_journaled(opts)?;
                book = journals;
                let names = (1..).map(|i| format!("ablation_a{i}"));
                names.zip(tables).collect()
            }
            Experiment::Gap => {
                let cfg = gap::GapConfig::paper(opts);
                let outcome = gap::run(&cfg)?;
                vec![
                    named("gap_margin", gap::table_margin(&cfg, &outcome.margins)),
                    named(
                        "gap_rotation",
                        gap::table_rotation(&cfg, &outcome.rotations),
                    ),
                    named("gap_pow", gap::table_pow(&cfg, &outcome.pow)),
                ]
            }
            Experiment::Reshard => {
                let cfg = reshard::ReshardConfig::paper(opts);
                let partitioner = opts.common.partitioner;
                let outcome = reshard::run(&cfg, partitioner)?;
                vec![
                    named(
                        "reshard_disruption",
                        reshard::table_disruption(&cfg, &outcome.disruption),
                    ),
                    named(
                        "reshard_cstar_drift",
                        reshard::table_drift(&cfg, partitioner, &outcome.drift),
                    ),
                ]
            }
        };
        // Gap and reshard run single-shot studies with no repetition batches.
        let journaled = !matches!(self, Experiment::Gap | Experiment::Reshard);
        Ok(Outcome {
            tables,
            journals: journaled.then_some(book),
        })
    }

    /// Runs the experiment, prints its tables, writes `{name}.csv` under
    /// `--out` and the journals under `--journal`. Returns whether the
    /// experiment ran; a failure is reported on stderr.
    pub fn report(self, opts: &Opts) -> bool {
        let outcome = match self.run(opts) {
            Ok(outcome) => outcome,
            Err(e) => {
                eprintln!("{} failed: {e}", self.name());
                return false;
            }
        };
        for (name, table) in &outcome.tables {
            table.print();
            println!();
            match table.save_csv(&opts.out, name) {
                Ok(path) => println!("wrote {}\n", path.display()),
                Err(e) => eprintln!("could not write {name}.csv: {e}"),
            }
        }
        if let Some(book) = &outcome.journals {
            save_journals(opts.journal.as_deref(), self.name(), book);
        }
        true
    }

    /// The `main` of this experiment's binary: parses the process
    /// arguments and reports the experiment.
    pub fn main(self) -> ExitCode {
        match cli::from_env(&Opts::flags()) {
            Ok(opts) if self.report(&opts) => ExitCode::SUCCESS,
            Ok(_) => ExitCode::FAILURE,
            Err(code) => code,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_the_binary_names_in_repro_all_order() {
        let names = Experiment::ALL.map(Experiment::name);
        let bins = [
            "fig3a",
            "fig3b",
            "fig4",
            "fig5",
            "ablations",
            "gap",
            "reshard",
        ];
        assert_eq!(names, bins);
        for name in names {
            let path = format!("{}/src/bin/{name}.rs", env!("CARGO_MANIFEST_DIR"));
            assert!(std::path::Path::new(&path).exists(), "{path}");
        }
    }
}
