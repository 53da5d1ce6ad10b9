//! Reproduces Figure 3(a): x-sweep with a small (c = 200) cache.

fn main() -> std::process::ExitCode {
    scp_repro::Experiment::Fig3a.main()
}
