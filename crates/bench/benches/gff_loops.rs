//! Microbench: GraphFromFasta's loop-1 harvest, and the makespan replay
//! that charges such a loop to the virtual clock.
//!
//! `makespan_replay` times `omp::simulate_loop` itself (16 threads,
//! `schedule(dynamic, 1)`, synthetic skewed costs); it compares no
//! schedules. The placement ablation is `bench::ablation_dynamic` and the
//! `fig03` harness.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use chrysalis::config::ChrysalisConfig;
use chrysalis::weld::{harvest_contig, KmerContigMap, WeldSupport};
use omp::makespan::simulate_loop;
use omp::schedule::Schedule;
use seqio::fasta::Record;
use simulate::datasets::{Dataset, DatasetPreset};

fn fixtures() -> (Vec<Record>, kcount::counter::KmerCounts, ChrysalisConfig) {
    let ds = Dataset::generate(DatasetPreset::Tiny, 3);
    let reads = ds.all_reads();
    let cfg = ChrysalisConfig::small(16);
    let counts = kcount::counter::count_kmers(&reads, kcount::counter::CounterConfig::new(16));
    let dict = inchworm::dictionary::Dictionary::from_counts(counts.clone(), 1);
    let contigs: Vec<Record> = inchworm::assemble::assemble(
        &dict,
        inchworm::assemble::InchwormConfig {
            min_seed_count: 1,
            min_extend_count: 1,
            min_contig_len: 32,
            jitter_seed: None,
        },
    )
    .iter()
    .map(|c| c.to_record())
    .collect();
    (contigs, counts, cfg)
}

fn bench(c: &mut Criterion) {
    let (contigs, counts, cfg) = fixtures();
    let contigs = seqio::packed::encode_all(&contigs);
    let kmap = KmerContigMap::build(&contigs, cfg.k);
    let support = WeldSupport::new(&counts);

    let mut g = c.benchmark_group("gff");
    g.sample_size(15);
    g.bench_function("loop1_harvest", |b| {
        b.iter(|| {
            for i in 0..contigs.len() as u32 {
                black_box(harvest_contig(i, &contigs, &kmap, &support, &cfg));
            }
        })
    });

    // The replay's own cost, on synthetic skewed item costs.
    let costs: Vec<f64> = (0..512)
        .map(|i| 1.0 + 49.0 * (-(i as f64) / 64.0).exp())
        .collect();
    let schedule = Schedule::Dynamic { chunk: 1 };
    g.bench_function("makespan_replay", |b| {
        b.iter(|| black_box(simulate_loop(&costs, 16, schedule)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
