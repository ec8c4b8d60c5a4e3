//! `benchmark`: see `hybridtier_benchmark::cli` for the command line.

fn main() -> std::process::ExitCode {
    hybridtier_benchmark::cli::main()
}
