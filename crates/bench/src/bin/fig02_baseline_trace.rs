//! Regenerates Fig. 2: collectl trace of the original single-node Trinity.
//!
//! Usage: `cargo run --release -p bench --bin fig02_baseline_trace
//! [--scale X] [--seed N] [--trace-out DIR]`
//!
//! Besides the text figure on stdout, writes the run's span timeline as a
//! Chrome `trace_event` file (`fig02_trace.json`) for `chrome://tracing` /
//! Perfetto, the critical-path/imbalance analysis (`fig02_analysis.json`,
//! feeds `trinity diff`), plus flamegraph artifacts (`fig02_flame.txt`
//! collapsed stacks, `fig02_flame.svg`), all into the `--trace-out`
//! directory (default `target/figs`).

fn main() {
    let cli = bench::Cli::parse(std::env::args().skip(1));
    let trace = bench::fig02_baseline::run(cli.seed, cli.scale);
    print!("{}", bench::fig02_baseline::render(&trace));
    bench::write_chrome_trace(&cli, "fig02_trace.json", &trace);
    bench::write_analysis(&cli, "fig02_analysis.json", &trace, None);
    bench::write_flame(&cli, "fig02_flame", &trace);
}
