//! Regenerates Fig. 4: Smith-Waterman all-to-all validation categories.

fn main() {
    let cli = bench::Cli::from_env();
    let repeats = if cli.scale >= 1.0 { 10 } else { 3 };
    let row = bench::fig04_validation::run(cli.seed, cli.scale, repeats);
    trinity::report::print_out(&bench::fig04_validation::render(&row));
}
