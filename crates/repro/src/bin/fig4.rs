//! Reproduces Figure 4: access-pattern comparison across cluster sizes.

fn main() -> std::process::ExitCode {
    scp_repro::Experiment::Fig4.main()
}
