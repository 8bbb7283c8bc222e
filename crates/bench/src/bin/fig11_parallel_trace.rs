//! Regenerates Fig. 11: collectl trace of the parallel Trinity run
//! (16 nodes x 16 threads), alongside the Fig. 2 baseline for comparison.
//!
//! Besides the text figure on stdout, writes both runs' trace artifacts as
//! `trinity` does into `--trace-out` (default `target/figs`), named
//! `fig11_baseline_*` and `fig11_*`: `trace.json`, `analysis.json` (the
//! parallel run's with scaling against the baseline's analysed total, as
//! `trinity analyze fig11_trace.json --baseline
//! fig11_baseline_analysis.json` gives it) and `flame.txt`/`.svg`.

fn main() {
    let cli = bench::Cli::from_env();
    let mut baseline = bench::fig02_baseline::run(cli.seed, cli.scale);
    let mut parallel = bench::fig11_parallel_trace::run(cli.seed, cli.scale, 16);
    trinity::report::print_out(&bench::fig11_parallel_trace::render(&parallel, &baseline));
    let serial = cli.write_trace("fig11_baseline_", &mut baseline, None);
    cli.write_trace("fig11_", &mut parallel, Some(serial.total));
}
