//! Inchworm's ordered loop per window size on the Fig. 11 input: stage
//! time, walks, deferred walks, replays, wasted speculative work, the
//! lock-held share and the commits' share of it, with a window of 1 walk
//! and of 1, 2, 4, 8, 16, 32 and 64 walks per thread (the pipeline runs
//! 8) on the costed team; then the same walks on 2, 4 and 8 OS threads at
//! the pipeline's window, with what they deferred, replayed and wasted.
//!
//! Usage: `cargo run --release -p bench --bin inchworm_epochs [--scale X]
//! [--seed N]`. Each costed row is the fastest of three runs; the run panics
//! if any run assembles other contigs than the serial loop, or a costed row
//! replays a walk or throws a step away.

fn main() {
    let cli = bench::Cli::parse(std::env::args().skip(1));
    let (counts, cfg) = bench::inchworm_epochs::prepare(cli.seed, cli.scale);
    let rows = bench::inchworm_epochs::run(&counts, &cfg, 3);
    print!(
        "{}",
        bench::inchworm_epochs::render(&rows, cfg.chrysalis.threads)
    );
    let pool = bench::inchworm_epochs::run_pool(&counts, &cfg, &[2, 4, 8]);
    print!("{}", bench::inchworm_epochs::render_pool(&pool));
}
