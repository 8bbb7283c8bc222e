//! Regenerates Fig. 9: hybrid ReadsToTranscripts scaling, 1-32 nodes.

fn main() {
    let cli = bench::Cli::from_env();
    let shared = bench::fig09_rtt_scaling::prepare(cli.seed, cli.scale);
    let data = bench::fig09_rtt_scaling::run(shared, &[1, 4, 8, 16, 32]);
    trinity::report::print_out(&bench::fig09_rtt_scaling::render(&data));
}
