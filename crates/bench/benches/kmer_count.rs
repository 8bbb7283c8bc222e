//! Microbench: Jellyfish-substrate k-mer counting — canonical vs plain
//! windows, and the owner-routed build against the counter it replaced (a
//! staging table per read, absorbed into a lock-per-shard table; kept here
//! as a bench-local copy).
//!
//! Both arms of `kmer_count_build` must produce the same table or the
//! bench panics before timing anything, so a completed run is itself a
//! correctness check.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use kcount::counter::{count_kmers, count_kmers_packed, CounterConfig, KmerCounts};
use kmertable::{PackedKmerTable, ShardedKmerTable};
use seqio::packed::{encode_all, PackedSeq};
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

/// The pre-routing counter: every read stages its k-mers in a fresh table,
/// which is then regrouped by shard and added under the shard locks.
fn count_per_read_absorb(reads: &[PackedSeq], cfg: CounterConfig) -> KmerCounts {
    let shared = ShardedKmerTable::new(cfg.shards);
    omp::parallel_map(reads, cfg.threads, |read| {
        let mut local = PackedKmerTable::new();
        for (_, km) in read.canonical_kmers(cfg.k).into_iter().flatten() {
            local.add(km.packed(), 1);
        }
        shared.absorb(&local);
    });
    KmerCounts::from_partition(cfg.k, shared.freeze())
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
    let (absorbed, routed) = (
        count_per_read_absorb(&packed, cfg),
        count_kmers_packed(&packed, cfg),
    );
    assert_eq!(absorbed.len(), routed.len());
    for (key, n) in absorbed.iter_packed() {
        assert_eq!(routed.get_packed(key), n, "k-mer {key:#x}");
    }
    let mut g = c.benchmark_group("kmer_count_build");
    g.sample_size(20);
    g.bench_function("per_read_absorb", |b| {
        b.iter(|| black_box(count_per_read_absorb(&packed, cfg)))
    });
    g.bench_function("routed", |b| {
        b.iter(|| black_box(count_kmers_packed(&packed, cfg)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
