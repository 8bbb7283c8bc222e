//! Inchworm's replay rate per epoch size on the Fig. 11 input: stage time,
//! walks, replays and wasted speculative work at epoch widths of 1, 1×, 2×,
//! 4× and 8× the thread count (the pipeline runs 2×).
//!
//! Usage: `cargo run --release -p bench --bin inchworm_epochs [--scale X]
//! [--seed N]`. Each row is the fastest of three runs; the run panics if any
//! width assembles other contigs than width 1.

fn main() {
    let cli = bench::Cli::parse(std::env::args().skip(1));
    let (counts, cfg) = bench::inchworm_epochs::prepare(cli.seed, cli.scale);
    let rows = bench::inchworm_epochs::run(&counts, &cfg, 3);
    print!(
        "{}",
        bench::inchworm_epochs::render(&rows, cfg.chrysalis.threads)
    );
}
