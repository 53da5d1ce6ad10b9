//! Command-line options shared by all reproduction binaries.

use scp_sim::cli::{CommonOpts, Flag};
use scp_sim::runner::StopRule;
use std::path::PathBuf;

/// Options common to every reproduction binary.
#[derive(Debug, Clone, PartialEq)]
pub struct Opts {
    /// Repetitions per data point (0 = each experiment's default).
    pub runs: usize,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Output directory for CSV files.
    pub out: PathBuf,
    /// Shrink the experiment for a quick smoke run.
    pub fast: bool,
    /// Directory for per-run journals (None = don't write journals).
    pub journal: Option<PathBuf>,
    /// Target 95% CI half-width on the per-run gain; `> 0` enables
    /// adaptive early stopping of the repetition loop.
    pub ci_target: f64,
    /// Substrate kinds, seed and attacker/shield knobs. Experiments that
    /// sweep one of these (like the fig. 4 cache ablation) ignore it.
    pub common: CommonOpts,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            runs: 0,
            threads: 0,
            out: PathBuf::from("target/repro"),
            fast: false,
            journal: None,
            ci_target: 0.0,
            common: CommonOpts::default(),
        }
    }
}

impl Opts {
    /// The flag table: these six plus [`CommonOpts::flags`].
    pub fn flags() -> Vec<Flag<Self>> {
        let mut flags = scp_sim::flags![o: Self;
            ["--runs" "N" => o.runs, "repetitions per data point, 0 = per-experiment"]
            ["--threads" "N" => o.threads, "worker threads, 0 = all cores"]
            ["--fast" => o.fast, "shrunken smoke-test configuration"]
            ["--ci-target" "X" => o.ci_target,
                "stop a data point once its gain's 95% CI half-width is below X"]
        ];
        flags.push(Flag::new(
            "--out",
            "DIR",
            "CSV output directory (default: target/repro)",
            |o: &mut Self, v| {
                o.out = PathBuf::from(v);
                Ok(())
            },
        ));
        flags.push(Flag::new(
            "--journal",
            "DIR",
            "write per-run journals (JSON + CSV) under DIR",
            |o: &mut Self, v| {
                o.journal = Some(PathBuf::from(v));
                Ok(())
            },
        ));
        flags.extend(CommonOpts::flags(|o: &mut Self| &mut o.common));
        flags
    }

    /// The repetition count to use: explicit `--runs`, else `--fast`'s
    /// small count, else the experiment default.
    pub fn effective_runs(&self, default: usize) -> usize {
        if self.runs > 0 {
            self.runs
        } else if self.fast {
            default.div_ceil(10).max(3)
        } else {
            default
        }
    }

    /// The stopping rule for a data point whose default repetition count
    /// is `default`: fixed at [`Opts::effective_runs`] unless a positive
    /// `--ci-target` enables early stopping (see [`stop_rule`]).
    pub fn stop_rule(&self, default: usize) -> StopRule {
        stop_rule(self.effective_runs(default), self.ci_target)
    }
}

/// Builds the [`StopRule`] for `runs` repetitions under `ci_target`.
///
/// A non-positive target keeps the historical fixed-count behavior. A
/// positive target turns `runs` into a ceiling and allows stopping as
/// soon as the gain CI is tight enough, but never before a floor of
/// `max(4, runs/5)` runs so the variance estimate is meaningful.
pub fn stop_rule(runs: usize, ci_target: f64) -> StopRule {
    if ci_target <= 0.0 || runs == 0 {
        StopRule::fixed(runs)
    } else {
        let min = runs.div_ceil(5).max(4).min(runs);
        StopRule::adaptive(min, runs, ci_target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scp_sim::cli;
    use scp_sim::config::{AdmissionKind, CacheKind, PartitionerKind, SelectorKind};

    fn parse(args: &[&str]) -> Result<Option<Opts>, String> {
        cli::parse(&Opts::flags(), args.iter().map(|s| s.to_string()))
    }

    fn parsed(args: &[&str]) -> Opts {
        parse(args).unwrap().unwrap()
    }

    /// One non-default value per table flag (`None` for a switch).
    const SAMPLES: [(&str, Option<&str>); 13] = [
        ("--runs", Some("7")),
        ("--threads", Some("2")),
        ("--fast", None),
        ("--ci-target", Some("0.05")),
        ("--out", Some("/tmp/x")),
        ("--journal", Some("/tmp/j")),
        ("--cache", Some("tinylfu")),
        ("--admission", Some("online")),
        ("--partitioner", Some("ring")),
        ("--selector", Some("round-robin")),
        ("--seed", Some("9")),
        ("--pow-difficulty", Some("8")),
        ("--attack-rotate", Some("5000")),
    ];

    #[test]
    fn defaults_are_unchanged() {
        let o = parsed(&[]);
        assert_eq!(o, Opts::default());
        assert_eq!(o.runs, 0);
        assert_eq!(o.threads, 0);
        assert_eq!(o.out, PathBuf::from("target/repro"));
        assert!(!o.fast);
        assert_eq!(o.journal, None);
        assert_eq!(o.ci_target, 0.0);
        assert_eq!(o.common.seed, 20130708);
        assert_eq!(o.common.cache, CacheKind::Perfect);
        assert_eq!(o.common.admission, AdmissionKind::Oracle);
        assert_eq!(o.common.pow_difficulty, 0);
        assert_eq!(o.common.attack_rotate, 0);
        assert_eq!(o.common.partitioner, PartitionerKind::Hash);
        assert_eq!(o.common.selector, SelectorKind::LeastLoaded);
    }

    #[test]
    fn every_table_flag_parses() {
        let names: Vec<_> = Opts::flags().iter().map(|f| f.name()).collect();
        assert_eq!(names, SAMPLES.map(|(flag, _)| flag));
        for (flag, value) in SAMPLES {
            let args: Vec<&str> = [flag].into_iter().chain(value).collect();
            assert_ne!(parsed(&args), Opts::default(), "{flag} changed nothing");
        }
        let all: Vec<&str> = SAMPLES
            .iter()
            .flat_map(|&(flag, value)| [flag].into_iter().chain(value))
            .collect();
        let o = parsed(&all);
        assert_eq!((o.runs, o.threads, o.fast), (7, 2, true));
        assert_eq!(o.out, PathBuf::from("/tmp/x"));
        assert_eq!(o.journal, Some(PathBuf::from("/tmp/j")));
        assert_eq!(o.ci_target, 0.05);
        assert_eq!(o.common.cache, CacheKind::TinyLfu);
        assert_eq!(o.common.admission, AdmissionKind::Online);
        assert_eq!(o.common.partitioner, PartitionerKind::Ring);
        assert_eq!(o.common.selector, SelectorKind::RoundRobin);
        assert_eq!(o.common.seed, 9);
        assert_eq!(o.common.pow_difficulty, 8);
        assert_eq!(o.common.attack_rotate, 5000);
    }

    #[test]
    fn every_kind_name_parses_through_the_flags() {
        for kind in CacheKind::ALL {
            assert_eq!(parsed(&["--cache", kind.name()]).common.cache, kind);
        }
        for kind in AdmissionKind::ALL {
            assert_eq!(parsed(&["--admission", kind.name()]).common.admission, kind);
        }
        for kind in PartitionerKind::ALL {
            let o = parsed(&["--partitioner", kind.name()]);
            assert_eq!(o.common.partitioner, kind);
        }
        for kind in SelectorKind::ALL {
            assert_eq!(parsed(&["--selector", kind.name()]).common.selector, kind);
        }
    }

    #[test]
    fn bad_command_lines_are_errors_naming_the_flag() {
        for (args, flag) in [
            (&["--bogus"][..], "--bogus"),
            (&["--fast", "--journal"], "--journal"),
            (&["--runs", "many"], "--runs"),
            (&["--ci-target", "tight"], "--ci-target"),
            (&["--pow-difficulty", "-1"], "--pow-difficulty"),
            (&["--cache", "magic"], "--cache"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(flag), "{args:?}: {err}");
        }
        let err = parse(&["--partitioner", "quantum"]).unwrap_err();
        for kind in PartitionerKind::ALL {
            assert!(err.contains(kind.name()), "lists valid names: {err}");
        }
    }

    #[test]
    fn help_is_a_result_not_an_exit() {
        assert_eq!(parse(&["--help"]), Ok(None));
        assert_eq!(parse(&["--fast", "-h"]), Ok(None));
        let text = cli::help("fig3a", &Opts::flags());
        for (flag, _) in SAMPLES {
            assert!(text.contains(flag), "help lacks {flag}:\n{text}");
        }
    }

    #[test]
    fn effective_runs_precedence() {
        let mut o = Opts::default();
        assert_eq!(o.effective_runs(200), 200);
        o.fast = true;
        assert_eq!(o.effective_runs(200), 20);
        o.runs = 5;
        assert_eq!(o.effective_runs(200), 5);
    }

    #[test]
    fn stop_rule_shapes() {
        // No target: fixed at the effective count.
        assert_eq!(stop_rule(200, 0.0), StopRule::fixed(200));
        assert!(!stop_rule(200, 0.0).is_adaptive());
        // Positive target: adaptive with a floor of max(4, runs/5).
        let r = stop_rule(200, 0.05);
        assert_eq!((r.min_runs, r.max_runs, r.ci_target), (40, 200, 0.05));
        assert!(r.is_adaptive());
        assert_eq!(stop_rule(10, 0.05).min_runs, 4);
        // Tiny counts degenerate to fixed (floor == ceiling).
        assert!(!stop_rule(3, 0.05).is_adaptive());
        assert_eq!(stop_rule(3, 0.05).max_runs, 3);
    }

    #[test]
    fn opts_stop_rule_uses_effective_runs() {
        let o = Opts {
            ci_target: 0.1,
            ..Opts::default()
        };
        let r = o.stop_rule(200);
        assert_eq!((r.min_runs, r.max_runs), (40, 200));
        let fixed = Opts::default().stop_rule(200);
        assert_eq!(fixed, StopRule::fixed(200));
    }
}
