//! Regenerates Fig. 8: GraphFromFasta normalized time breakdown.

fn main() {
    let cli = bench::Cli::from_env();
    let shared = bench::fig07_gff_scaling::prepare(cli.seed, cli.scale);
    let data = bench::fig07_gff_scaling::run(shared, &[16, 32, 64, 128, 192]);
    let rows = bench::fig08_gff_breakdown::breakdown(&data);
    trinity::report::print_out(&bench::fig08_gff_breakdown::render(&rows));
}
