//! The `scp-serve` command line: its options, flag table and the
//! [`ServeConfig`] they describe.

use crate::{PowShield, ServeConfig};
use scp_sim::cli::{CommonOpts, Flag};
use scp_sim::config::DEFAULT_SEED;
use scp_sim::SimConfig;
use scp_workload::AccessPattern;

/// Everything `scp-serve` accepts on its command line.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOpts {
    /// The system shape and live-path knobs. [`ServeOpts::config`]
    /// replaces its access pattern and the [`CommonOpts`] fields.
    pub serve: ServeConfig,
    /// Attack over this many keys (0 = `c + 1`).
    pub attack_x: u64,
    /// Substrate kinds, seed, PoW difficulty and attacker rotation.
    pub common: CommonOpts,
    /// Deterministic repetitions, journaled.
    pub runs: usize,
    /// Worker threads for `runs` (0 = all cores).
    pub threads: usize,
    /// Single-threaded reproducible mode.
    pub deterministic: bool,
    /// Print the full JSON report.
    pub json: bool,
    /// Run the acceptance gates instead (see [`crate::smoke`]).
    pub smoke: bool,
}

impl Default for ServeOpts {
    /// The paper's baseline system on 8 shards with a 100-entry cache,
    /// and [`ServeConfig::new`]'s live path with a 500k-query quota.
    fn default() -> Self {
        let head = AccessPattern::UniformSubset {
            x: 101,
            m: 1_000_000,
        };
        let mut serve = ServeConfig::new(SimConfig::paper_baseline(100, head, DEFAULT_SEED));
        serve.sim.nodes = 8;
        serve.total_queries = 500_000;
        Self {
            serve,
            attack_x: 0,
            common: CommonOpts::default(),
            runs: 1,
            threads: 0,
            deterministic: false,
            json: false,
            smoke: false,
        }
    }
}

impl ServeOpts {
    /// The flag table: the serve flags plus [`CommonOpts::flags`].
    pub fn flags() -> Vec<Flag<Self>> {
        let mut flags = scp_sim::flags![o: Self;
            ["--shards" "N" => o.serve.sim.nodes, "backend shards = nodes n"]
            ["--replication" "D" => o.serve.sim.replication, "replica group size d"]
            ["--cache-capacity" "C" => o.serve.sim.cache_capacity, "front-end cache entries"]
            ["--items" "N" => o.serve.sim.items, "key-space size"]
            ["--rate" "R" => o.serve.sim.rate, "offered logical rate, queries/s"]
            ["--attack-x" "X" => o.attack_x, "attack over X keys, 0 = c + 1"]
            ["--attack-clients" "K" => o.serve.attack_clients,
                "first K client ids skip proof-of-work"]
            ["--clients" "K" => o.serve.clients, "closed-loop client threads"]
            ["--window" "W" => o.serve.client_window, "per-client outstanding window"]
            ["--submit-batch" "B" => o.serve.submit_batch, "keys per client submission"]
            ["--intake-depth" "D" => o.serve.intake_depth,
                "per-client intake ring depth, in batches"]
            ["--batch" "B" => o.serve.batch_size, "admission batch size"]
            ["--queue-capacity" "Q" => o.serve.queue_capacity, "shard queue depth, in batches"]
            ["--headroom" "H" => o.serve.capacity_headroom, "shard capacity r_i = H*R/n, 0 = off"]
            ["--queries" "N" => o.serve.total_queries, "stop after N queries"]
            ["--duration-ms" "MS" => o.serve.duration_ms, "stop after MS wall-clock ms, 0 = off"]
            ["--runs" "N" => o.runs, "deterministic repetitions, journaled"]
            ["--threads" "N" => o.threads, "worker threads for --runs, 0 = all cores"]
            ["--deterministic" => o.deterministic, "single-threaded reproducible mode"]
            ["--json" => o.json, "print the full JSON report"]
            ["--smoke" => o.smoke, "run the CI acceptance gates and exit"]
        ];
        flags.push(Flag::new(
            "--membership",
            "SPEC",
            "topology change AT:ACTION:ID, ACTION = join|leave|crash|recover (repeatable)",
            |o: &mut Self, v| {
                o.serve.membership.push(v.parse()?);
                Ok(())
            },
        ));
        flags.extend(CommonOpts::flags(|o: &mut Self| &mut o.common));
        flags
    }

    /// The serving configuration these options describe: the attack
    /// pattern from `--attack-x`/`--attack-rotate`, the shared flags,
    /// and the PoW shield when `--pow-difficulty` is set.
    ///
    /// # Errors
    ///
    /// An invalid system shape or attack, as a message.
    pub fn config(&self) -> Result<ServeConfig, String> {
        let (mut cfg, common) = (self.serve.clone(), &self.common);
        let sim = &mut cfg.sim;
        sim.cache_kind = common.cache;
        sim.admission = common.admission;
        sim.partitioner = common.partitioner;
        sim.selector = common.selector;
        sim.seed = common.seed;
        let x = match self.attack_x {
            0 => (sim.cache_capacity as u64 + 1).min(sim.items),
            x => x,
        };
        sim.pattern = match common.attack_rotate {
            // Rotating attack: the same x keys, redrawn every P queries.
            0 => AccessPattern::uniform_subset(x, sim.items),
            period => AccessPattern::rotating_subset(x, sim.items, period),
        }
        .map_err(|e| format!("--attack-x/--attack-rotate: {e}"))?;
        sim.validate().map_err(|e| e.to_string())?;
        if common.pow_difficulty > 0 {
            cfg.pow = Some(PowShield::new(common.pow_difficulty));
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scp_sim::cli;
    use scp_sim::config::{AdmissionKind, CacheKind, PartitionerKind, SelectorKind};

    fn parse(args: &[&str]) -> Result<Option<ServeOpts>, String> {
        cli::parse(&ServeOpts::flags(), args.iter().map(|s| s.to_string()))
    }

    fn parsed(args: &[&str]) -> ServeOpts {
        parse(args).unwrap().unwrap()
    }

    /// One non-default value per table flag (`None` for a switch).
    const SAMPLES: [(&str, Option<&str>); 29] = [
        ("--shards", Some("16")),
        ("--replication", Some("2")),
        ("--cache-capacity", Some("50")),
        ("--items", Some("20000")),
        ("--rate", Some("2.5e4")),
        ("--attack-x", Some("51")),
        ("--attack-clients", Some("1")),
        ("--clients", Some("2")),
        ("--window", Some("8")),
        ("--submit-batch", Some("4")),
        ("--intake-depth", Some("2")),
        ("--batch", Some("16")),
        ("--queue-capacity", Some("3")),
        ("--headroom", Some("1.5")),
        ("--queries", Some("9000")),
        ("--duration-ms", Some("250")),
        ("--runs", Some("3")),
        ("--threads", Some("2")),
        ("--deterministic", None),
        ("--json", None),
        ("--smoke", None),
        ("--membership", Some("100:join:16")),
        ("--cache", Some("lru")),
        ("--admission", Some("online")),
        ("--partitioner", Some("multi-probe")),
        ("--selector", Some("random")),
        ("--seed", Some("5")),
        ("--pow-difficulty", Some("3")),
        ("--attack-rotate", Some("700")),
    ];

    #[test]
    fn defaults_are_unchanged() {
        let o = parsed(&[]);
        assert_eq!(o, ServeOpts::default());
        let sim = &o.serve.sim;
        assert_eq!(
            (sim.nodes, sim.replication, sim.cache_capacity),
            (8, 3, 100)
        );
        assert_eq!((sim.items, sim.rate, o.attack_x), (1_000_000, 1e5, 0));
        let s = &o.serve;
        assert_eq!((s.attack_clients, s.clients, s.client_window), (0, 4, 1024));
        assert_eq!((s.submit_batch, s.intake_depth, s.batch_size), (64, 16, 64));
        assert_eq!((s.queue_capacity, s.capacity_headroom), (64, 0.0));
        assert_eq!((s.total_queries, s.duration_ms), (500_000, 0));
        assert_eq!((o.runs, o.threads), (1, 0));
        assert!(s.membership.is_empty());
        assert!(!o.deterministic && !o.json && !o.smoke);
        let c = o.common;
        assert_eq!(
            (c.cache, c.admission),
            (CacheKind::Perfect, AdmissionKind::Oracle)
        );
        assert_eq!(c.partitioner, PartitionerKind::Hash);
        assert_eq!(c.selector, SelectorKind::LeastLoaded);
        assert_eq!(
            (c.seed, c.pow_difficulty, c.attack_rotate),
            (20130708, 0, 0)
        );
        // The defaults describe the same run the builder's baseline does.
        let built = SimConfig::builder().nodes(8).cache_capacity(100).build();
        assert_eq!(o.config().unwrap().sim, built.unwrap());
    }

    #[test]
    fn every_table_flag_parses() {
        let names: Vec<_> = ServeOpts::flags().iter().map(|f| f.name()).collect();
        assert_eq!(names, SAMPLES.map(|(flag, _)| flag));
        for (flag, value) in SAMPLES {
            let args: Vec<&str> = [flag].into_iter().chain(value).collect();
            assert_ne!(
                parsed(&args),
                ServeOpts::default(),
                "{flag} changed nothing"
            );
        }
        let o = parsed(&["--membership", "10:join:8", "--membership", "20:leave:2"]);
        let events: Vec<crate::MembershipEvent> = ["10:join:8", "20:leave:2"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        assert_eq!(o.serve.membership, events, "--membership repeats");
    }

    #[test]
    fn bad_command_lines_are_errors_naming_the_flag() {
        for (args, flag) in [
            (&["--bogus"][..], "--bogus"),
            (&["--json", "--queries"], "--queries"),
            (&["--shards", "eight"], "--shards"),
            (&["--headroom", "lots"], "--headroom"),
            (&["--membership", "5:jump:3"], "--membership"),
            (&["--admission", "psychic"], "--admission"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(flag), "{args:?}: {err}");
        }
        let err = parse(&["--selector", "psychic"]).unwrap_err();
        for kind in SelectorKind::ALL {
            assert!(err.contains(kind.name()), "lists valid names: {err}");
        }
    }

    #[test]
    fn help_is_a_result_not_an_exit() {
        assert_eq!(parse(&["--smoke", "--help"]), Ok(None));
        let text = cli::help("scp-serve", &ServeOpts::flags());
        for (flag, _) in SAMPLES {
            assert!(text.contains(flag), "help lacks {flag}:\n{text}");
        }
    }

    #[test]
    fn config_carries_every_knob() {
        let o = parsed(&[
            "--shards",
            "16",
            "--cache-capacity",
            "50",
            "--items",
            "20000",
            "--attack-rotate",
            "700",
            "--pow-difficulty",
            "3",
            "--seed",
            "5",
            "--headroom",
            "1.5",
            "--queries",
            "9000",
            "--batch",
            "16",
        ]);
        let cfg = o.config().unwrap();
        assert_eq!((cfg.sim.nodes, cfg.sim.cache_capacity), (16, 50));
        assert_eq!((cfg.sim.items, cfg.sim.seed), (20_000, 5));
        // A rotating attack on the default x = c + 1 keys.
        let rotating = AccessPattern::rotating_subset(51, 20_000, 700).unwrap();
        assert_eq!(cfg.sim.pattern, rotating);
        assert_eq!(cfg.pow.map(|p| p.difficulty), Some(3));
        assert_eq!((cfg.capacity_headroom, cfg.total_queries), (1.5, 9000));
        assert_eq!(cfg.batch_size, 16);
        let x = parsed(&["--attack-x", "2000000"]).config().unwrap_err();
        assert!(x.starts_with("--attack-x"), "{x}");
        let shape = parsed(&["--shards", "2"]).config().unwrap_err();
        assert!(shape.contains("`d`"), "{shape}");
    }
}
