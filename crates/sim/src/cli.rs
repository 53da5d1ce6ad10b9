//! One command-line layer for every binary in the workspace.
//!
//! A CLI is a table of [`Flag`]s over its options struct. [`parse`] and
//! [`help`] both read that table, so the accepted flags, their defaults
//! and the `--help` text cannot drift apart. The flags every CLI accepts
//! (substrate kinds, seed, shield and attacker rotation) are declared
//! once, in [`CommonOpts::flags`].
//!
//! Parsing never exits the process: it returns `Err` with a message that
//! names the offending flag, and `Ok(None)` for `-h`/`--help`. Only a
//! binary's `main` turns that into an exit status (see [`from_env`]).

use crate::config::{AdmissionKind, CacheKind, PartitionerKind, SelectorKind, DEFAULT_SEED};
use std::fmt::{Display, Write as _};
use std::process::ExitCode;
use std::str::FromStr;

type Setter<O> = Box<dyn Fn(&mut O, &str) -> Result<(), String>>;
type Shower<O> = Box<dyn Fn(&mut O) -> String>;

/// One command-line flag: name, value placeholder, help line and setter.
pub struct Flag<O> {
    name: &'static str,
    /// Placeholder for the flag's value; `None` for a value-less switch.
    value: Option<&'static str>,
    help: String,
    set: Setter<O>,
    /// Renders the field's default for the help line.
    show: Option<Shower<O>>,
}

impl<O: 'static> Flag<O> {
    /// A flag taking one value, applied by `set`; the help line shows no
    /// default.
    pub fn new(
        name: &'static str,
        value: &'static str,
        help: impl Into<String>,
        set: impl Fn(&mut O, &str) -> Result<(), String> + 'static,
    ) -> Self {
        Self {
            name,
            value: Some(value),
            help: help.into(),
            set: Box::new(set),
            show: None,
        }
    }

    /// A flag whose value parses with `FromStr` into the field `field`
    /// selects; the help line shows the field's default.
    pub fn parsed<T>(
        name: &'static str,
        value: &'static str,
        help: impl Into<String>,
        field: impl Fn(&mut O) -> &mut T + Copy + 'static,
    ) -> Self
    where
        T: FromStr + Display,
        T::Err: Display,
    {
        Self {
            show: Some(Box::new(move |o| field(o).to_string())),
            ..Self::new(name, value, help, move |o, v| {
                *field(o) = v.parse().map_err(|e: T::Err| e.to_string())?;
                Ok(())
            })
        }
    }

    /// A value-less flag that sets the field `field` selects.
    pub fn switch(
        name: &'static str,
        help: impl Into<String>,
        field: impl Fn(&mut O) -> &mut bool + 'static,
    ) -> Self {
        Self {
            value: None,
            ..Self::new(name, "", help, move |o, _| {
                *field(o) = true;
                Ok(())
            })
        }
    }

    /// The flag as typed, e.g. `--seed`.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A flag table over options type `$ty`, one bracketed row per flag:
/// `["--name" "VALUE" => place, help]` is a [`Flag::parsed`] flag and
/// `["--name" => place, help]` a [`Flag::switch`], where `place` is the
/// field reached from the options binding `$o`.
#[macro_export]
macro_rules! flags {
    (@row $o:ident $ty:ty; $name:literal $value:literal => $place:expr, $help:expr) => {
        $crate::cli::Flag::parsed($name, $value, $help, move |$o: &mut $ty| &mut $place)
    };
    (@row $o:ident $ty:ty; $name:literal => $place:expr, $help:expr) => {
        $crate::cli::Flag::switch($name, $help, move |$o: &mut $ty| &mut $place)
    };
    ($o:ident: $ty:ty; $([$($row:tt)*])*) => {
        vec![$($crate::flags!(@row $o $ty; $($row)*)),*]
    };
}

/// Applies `args` to `O::default()` through `flags`.
///
/// Returns `Ok(None)` when `-h`/`--help` comes before any error.
///
/// # Errors
///
/// An unknown flag, a missing value, or a value its setter rejects; the
/// message names the flag.
pub fn parse<O: Default>(
    flags: &[Flag<O>],
    args: impl IntoIterator<Item = String>,
) -> Result<Option<O>, String> {
    let mut opts = O::default();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "-h" || arg == "--help" {
            return Ok(None);
        }
        let flag = flags
            .iter()
            .find(|f| f.name == arg)
            .ok_or_else(|| format!("unknown flag `{arg}`"))?;
        let value = match flag.value {
            Some(placeholder) => args
                .next()
                .ok_or_else(|| format!("{arg} needs a value ({placeholder})"))?,
            None => String::new(),
        };
        (flag.set)(&mut opts, &value).map_err(|e| format!("{arg} `{value}`: {e}"))?;
    }
    Ok(Some(opts))
}

/// The `--help` text of `program`: one line per flag with its default.
pub fn help<O: Default>(program: &str, flags: &[Flag<O>]) -> String {
    let mut defaults = O::default();
    let mut out = format!("usage: {program} [flags]\n\n");
    for flag in flags {
        let spec = match flag.value {
            Some(value) => format!("{} {value}", flag.name),
            None => flag.name.to_string(),
        };
        let _ = write!(out, "  {spec:<22}{}", flag.help);
        if let Some(show) = &flag.show {
            let _ = write!(out, " (default: {})", show(&mut defaults));
        }
        out.push('\n');
    }
    out
}

/// Parses the process arguments for a binary's `main`.
///
/// On `--help` prints the help text to stdout and returns
/// `Err(ExitCode::SUCCESS)`; on a bad command line prints the error and
/// the help text to stderr and returns `Err(ExitCode::from(2))`. `main`
/// returns that code.
///
/// # Errors
///
/// The exit status `main` should return instead of running.
pub fn from_env<O: Default>(flags: &[Flag<O>]) -> Result<O, ExitCode> {
    let mut args = std::env::args();
    let program = args
        .next()
        .and_then(|p| p.rsplit('/').next().map(str::to_string))
        .unwrap_or_default();
    match parse(flags, args) {
        Ok(Some(opts)) => Ok(opts),
        Ok(None) => {
            print!("{}", help(&program, flags));
            Err(ExitCode::SUCCESS)
        }
        Err(e) => {
            eprint!("error: {e}\n\n{}", help(&program, flags));
            Err(ExitCode::from(2))
        }
    }
}

/// The options every CLI shares: the simulated system's substrate, the
/// master seed, and the attacker/shield knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommonOpts {
    /// Front-end cache policy.
    pub cache: CacheKind,
    /// Oracle-informed vs online-learned cache admission.
    pub admission: AdmissionKind,
    /// Partitioning scheme mapping keys to replica groups.
    pub partitioner: PartitionerKind,
    /// Replica selection rule within a group.
    pub selector: SelectorKind,
    /// Master seed.
    pub seed: u64,
    /// Proof-of-work difficulty in leading zero bits (0 = shield off).
    pub pow_difficulty: u32,
    /// Attacker key-set rotation period in queries (0 = static attack).
    pub attack_rotate: u64,
}

impl Default for CommonOpts {
    fn default() -> Self {
        Self {
            cache: CacheKind::Perfect,
            admission: AdmissionKind::Oracle,
            partitioner: PartitionerKind::Hash,
            selector: SelectorKind::LeastLoaded,
            seed: DEFAULT_SEED,
            pow_difficulty: 0,
            attack_rotate: 0,
        }
    }
}

impl CommonOpts {
    /// The shared flags, for an options struct whose [`CommonOpts`] the
    /// accessor `common` selects.
    pub fn flags<O: 'static>(common: fn(&mut O) -> &mut Self) -> Vec<Flag<O>> {
        let kinds = |help, names: &[&str]| format!("{help}: {}", names.join("|"));
        crate::flags![o: O;
            ["--cache" "KIND" => common(o).cache,
                kinds("front-end cache policy", &CacheKind::ALL.map(CacheKind::name))]
            ["--admission" "KIND" => common(o).admission,
                kinds("cache admission", &AdmissionKind::ALL.map(AdmissionKind::name))]
            ["--partitioner" "KIND" => common(o).partitioner,
                kinds("key partitioning", &PartitionerKind::ALL.map(PartitionerKind::name))]
            ["--selector" "KIND" => common(o).selector,
                kinds("replica selection", &SelectorKind::ALL.map(SelectorKind::name))]
            ["--seed" "N" => common(o).seed, "master seed"]
            ["--pow-difficulty" "D" => common(o).pow_difficulty,
                "proof-of-work leading zero bits, 0 = off"]
            ["--attack-rotate" "P" => common(o).attack_rotate,
                "attacker redraws its keys every P queries, 0 = static"]
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default, PartialEq)]
    struct Toy {
        n: u32,
        on: bool,
        common: CommonOpts,
    }

    fn toy_flags() -> Vec<Flag<Toy>> {
        let mut flags = crate::flags![o: Toy;
            ["--n" "N" => o.n, "a number"]
            ["--on" => o.on, "a switch"]
        ];
        flags.extend(CommonOpts::flags(|o: &mut Toy| &mut o.common));
        flags
    }

    fn parse_toy(args: &[&str]) -> Result<Option<Toy>, String> {
        parse(&toy_flags(), args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn values_switches_and_shared_flags_parse() {
        let toy = parse_toy(&["--n", "7", "--on", "--seed", "9", "--cache", "lru"])
            .unwrap()
            .unwrap();
        assert_eq!((toy.n, toy.on), (7, true));
        assert_eq!(toy.common.seed, 9);
        assert_eq!(toy.common.cache, CacheKind::Lru);
        assert_eq!(parse_toy(&[]).unwrap(), Some(Toy::default()));
    }

    #[test]
    fn help_wins_over_later_errors_only() {
        assert_eq!(parse_toy(&["--n", "1", "--help", "--bogus"]), Ok(None));
        assert_eq!(parse_toy(&["-h"]), Ok(None));
        assert!(parse_toy(&["--bogus", "--help"]).is_err());
    }

    #[test]
    fn errors_name_the_flag() {
        let unknown = parse_toy(&["--bogus"]).unwrap_err();
        assert!(unknown.contains("--bogus"), "{unknown}");
        let missing = parse_toy(&["--n"]).unwrap_err();
        assert!(missing.contains("--n needs a value"), "{missing}");
        let number = parse_toy(&["--n", "x"]).unwrap_err();
        assert!(number.starts_with("--n `x`"), "{number}");
        let kind = parse_toy(&["--selector", "psychic"]).unwrap_err();
        assert!(kind.starts_with("--selector `psychic`"), "{kind}");
        assert!(kind.contains("round-robin"), "lists valid names: {kind}");
    }

    #[test]
    fn help_lists_every_flag_with_defaults_and_kind_names() {
        let text = help("toy", &toy_flags());
        assert!(text.starts_with("usage: toy [flags]"));
        for flag in toy_flags() {
            assert!(
                text.contains(flag.name()),
                "{} missing:\n{text}",
                flag.name()
            );
        }
        assert!(text.contains("--seed N"));
        assert!(text.contains(&format!("(default: {DEFAULT_SEED})")));
        assert!(text.contains("(default: least-loaded)"));
        assert!(text.contains("oracle|online"));
    }
}
