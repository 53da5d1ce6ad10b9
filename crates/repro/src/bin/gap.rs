//! Oracle-vs-online admission gap study plus the proof-of-work shield
//! curve (see `scp_repro::gap`).

fn main() -> std::process::ExitCode {
    scp_repro::Experiment::Gap.main()
}
