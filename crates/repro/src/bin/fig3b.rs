//! Reproduces Figure 3(b): x-sweep with a provisioned (c = 2000) cache.

fn main() -> std::process::ExitCode {
    scp_repro::Experiment::Fig3b.main()
}
