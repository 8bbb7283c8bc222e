//! Regenerates Fig. 6: fused (multi-gene) transcript counts.

fn main() {
    let cli = bench::Cli::from_env();
    let rows = bench::fig06_fused::run(cli.seed, cli.scale);
    trinity::report::print_out(&bench::fig06_fused::render(&rows));
}
