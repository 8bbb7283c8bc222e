//! Microbench: Smith-Waterman on transcript-scale pairs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use align::sw::{smith_waterman, ScoringScheme};
use simulate::transcriptome::{Transcriptome, TranscriptomeConfig};

fn bench(c: &mut Criterion) {
    let t = Transcriptome::generate(TranscriptomeConfig {
        genes: 2,
        exons_per_gene: (2, 2),
        exon_len: (400, 600),
        isoforms_per_gene: (1, 1),
        paralog_fraction: 0.0,
        paralog_divergence: 0.03,
        seed: 5,
    });
    let refs = t.reference();
    let a = &refs[0].seq;
    let b2 = &refs[1].seq;

    let mut g = c.benchmark_group("alignment");
    g.sample_size(20);
    for (label, q, t) in [("related", a, a), ("unrelated", a, b2)] {
        g.bench_with_input(
            BenchmarkId::new("smith_waterman", label),
            &(q, t),
            |bench, (q, t)| {
                bench.iter(|| black_box(smith_waterman(q, t, ScoringScheme::default())))
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
