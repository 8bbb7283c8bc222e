//! Regenerates the headline summary of §V: per-stage baseline vs hybrid.

fn main() {
    let cli = bench::Cli::from_env();
    let rows = bench::headline::run(cli.seed, cli.scale, 192, 32, 128);
    trinity::report::print_out(&bench::headline::render(&rows));
}
