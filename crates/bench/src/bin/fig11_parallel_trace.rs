//! Regenerates Fig. 11: collectl trace of the parallel Trinity run
//! (16 nodes x 16 threads), alongside the Fig. 2 baseline for comparison.
//!
//! Besides the text figure on stdout, writes both runs' span timelines as
//! Chrome `trace_event` files (`fig11_trace.json`, `fig11_baseline_trace.json`)
//! for `chrome://tracing` / Perfetto, the critical-path/imbalance analyses
//! (`fig11_analysis.json` with scaling efficiency vs the serial baseline,
//! `fig11_baseline_analysis.json`; both feed `trinity diff`), plus
//! flamegraph artifacts (`fig11_flame.txt`/`.svg`,
//! `fig11_baseline_flame.txt`/`.svg`), all into the `--trace-out` directory
//! (default `target/figs`).

fn main() {
    let cli = bench::Cli::parse(std::env::args().skip(1));
    let baseline = bench::fig02_baseline::run(cli.seed, cli.scale);
    let parallel = bench::fig11_parallel_trace::run(cli.seed, cli.scale, 16);
    print!(
        "{}",
        bench::fig11_parallel_trace::render(&parallel, &baseline)
    );
    bench::write_chrome_trace(&cli, "fig11_baseline_trace.json", &baseline);
    bench::write_chrome_trace(&cli, "fig11_trace.json", &parallel);
    bench::write_analysis(&cli, "fig11_baseline_analysis.json", &baseline, None);
    bench::write_analysis(
        &cli,
        "fig11_analysis.json",
        &parallel,
        Some(baseline.total_time()),
    );
    bench::write_flame(&cli, "fig11_baseline_flame", &baseline);
    bench::write_flame(&cli, "fig11_flame", &parallel);
}
