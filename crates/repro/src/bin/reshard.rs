//! Elastic-membership study: placement disruption per partitioning
//! scheme on a join/leave, and empirical `c*` drift across the epochs
//! of a join→leave schedule (see `scp_repro::reshard`).

fn main() -> std::process::ExitCode {
    scp_repro::Experiment::Reshard.main()
}
