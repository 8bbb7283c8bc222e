//! Regenerates Fig. 10: distributed Bowtie scaling with PyFasta split cost.

fn main() {
    let cli = bench::Cli::from_env();
    let (contigs, reads) = bench::fig10_bowtie_scaling::prepare(cli.seed, cli.scale);
    let data = bench::fig10_bowtie_scaling::run(contigs, reads, &[1, 16, 32, 64, 128]);
    trinity::report::print_out(&bench::fig10_bowtie_scaling::render(&data));
}
