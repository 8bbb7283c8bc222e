//! Inchworm's ordered loop per window size on the Fig. 11 input: stage
//! time, walks, replays, wasted speculative work and the lock-held share
//! with a window of 1 walk and of 1, 2, 4, 8 and 16 walks per thread (the
//! pipeline runs 8).
//!
//! Usage: `cargo run --release -p bench --bin inchworm_epochs [--scale X]
//! [--seed N]`. Each row is the fastest of three runs; the run panics if any
//! window assembles other contigs than the serial loop.

fn main() {
    let cli = bench::Cli::parse(std::env::args().skip(1));
    let (counts, cfg) = bench::inchworm_epochs::prepare(cli.seed, cli.scale);
    let rows = bench::inchworm_epochs::run(&counts, &cfg, 3);
    print!(
        "{}",
        bench::inchworm_epochs::render(&rows, cfg.chrysalis.threads)
    );
}
