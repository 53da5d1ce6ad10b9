//! Runs ablations A1–A8 (selection, partitioning, replication, caches,
//! front-end fleets, operation costs, Zipf skew, rebalancing).

fn main() -> std::process::ExitCode {
    scp_repro::Experiment::Ablations.main()
}
