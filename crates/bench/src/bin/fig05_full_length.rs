//! Regenerates Fig. 5: full-length genes/isoforms vs the reference sets.

fn main() {
    let cli = bench::Cli::from_env();
    let rows = bench::fig05_full_length::run(cli.seed, cli.scale);
    trinity::report::print_out(&bench::fig05_full_length::render(&rows));
}
