//! Reproduces Figure 5(a) and 5(b): the best attack vs. cache size, the
//! empirical critical point, and the paper's bound.

fn main() -> std::process::ExitCode {
    scp_repro::Experiment::Fig5.main()
}
