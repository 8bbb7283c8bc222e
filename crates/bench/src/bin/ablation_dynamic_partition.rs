//! Regenerates the future-work ablation: static chunked round-robin vs
//! dynamic master-dealt partitioning of GraphFromFasta.

fn main() {
    let cli = bench::Cli::from_env();
    let shared = bench::fig07_gff_scaling::prepare(cli.seed, cli.scale);
    let rows = bench::ablation_dynamic::run(shared, &[8, 32, 96]);
    trinity::report::print_out(&bench::ablation_dynamic::render(&rows));
}
