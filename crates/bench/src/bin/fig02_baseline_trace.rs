//! Regenerates Fig. 2: collectl trace of the original single-node Trinity.
//!
//! Usage: `cargo run --release -p bench --bin fig02_baseline_trace
//! [--scale X] [--seed N] [--trace-out DIR]`
//!
//! Besides the text figure on stdout, writes the run's trace artifacts as
//! `trinity` does into `--trace-out` (default `target/figs`):
//! `fig02_trace.json` (Chrome `trace_event`), `fig02_analysis.json` (which
//! `trinity analyze fig02_trace.json` reproduces) and `fig02_flame.txt`/`.svg`.

fn main() {
    let cli = bench::Cli::from_env();
    let mut trace = bench::fig02_baseline::run(cli.seed, cli.scale);
    trinity::report::print_out(&bench::fig02_baseline::render(&trace));
    cli.write_trace("fig02_", &mut trace, None);
}
