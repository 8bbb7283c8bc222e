//! Microbench: Jellyfish-substrate k-mer counting — canonical vs plain
//! windows from byte reads, and the owner-routed build on pre-encoded
//! reads (`kmer_count_build/routed`, the pipeline's counting pass).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use kcount::counter::{count_kmers, count_kmers_packed, CounterConfig};
use seqio::packed::encode_all;
use simulate::datasets::{Dataset, DatasetPreset};

fn reads() -> Vec<Vec<u8>> {
    Dataset::generate(DatasetPreset::Tiny, 1)
        .all_reads()
        .into_iter()
        .map(|r| r.seq)
        .collect()
}

fn config(k: usize, canonical: bool) -> CounterConfig {
    CounterConfig {
        k,
        canonical,
        threads: 1,
        shards: 16,
    }
}

fn bench(c: &mut Criterion) {
    let reads = reads();
    let mut g = c.benchmark_group("kmer_count");
    g.sample_size(20);
    for &k in &[16usize, 24] {
        for (label, canonical) in [("canonical", true), ("plain", false)] {
            g.bench_with_input(BenchmarkId::new(label, k), &k, |b, &k| {
                b.iter(|| black_box(count_kmers(&reads, config(k, canonical))))
            });
        }
    }
    g.finish();

    let packed = encode_all(&reads);
    let cfg = config(24, true);
    let mut g = c.benchmark_group("kmer_count_build");
    g.sample_size(20);
    g.bench_function("routed", |b| {
        b.iter(|| black_box(count_kmers_packed(&packed, cfg)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
