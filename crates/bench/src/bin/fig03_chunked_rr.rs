//! Regenerates Fig. 3: the chunked round-robin distribution, plus the
//! pre-allocation-vs-round-robin ablation.

fn main() {
    bench::no_flags_from_env();
    trinity::report::print_out(&bench::fig03_chunked_rr::render(40, 4, 2, 5));
}
