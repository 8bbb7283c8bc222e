//! Regenerates Fig. 7: hybrid GraphFromFasta strong scaling, 16-192 nodes.

fn main() {
    let cli = bench::Cli::from_env();
    let shared = bench::fig07_gff_scaling::prepare(cli.seed, cli.scale);
    let data = bench::fig07_gff_scaling::run(shared, &[16, 32, 64, 128, 192]);
    trinity::report::print_out(&bench::fig07_gff_scaling::render(&data));
}
