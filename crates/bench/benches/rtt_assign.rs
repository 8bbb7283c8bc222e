//! Microbench + ablation: ReadsToTranscripts assignment, and the paper's
//! every-rank-reads I/O (§III-C) against the striped MPI-IO access it names
//! as future work. Master-distributes, the strategy §III-C argues against,
//! is not reproduced: wall time carries no α–β cost, so it cannot show
//! what made that strategy lose.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use chrysalis::config::ChrysalisConfig;
use chrysalis::graph_from_fasta::{gff_shared_memory, GffShared};
use chrysalis::reads_to_transcripts::{rtt_hybrid, rtt_hybrid_striped, RttShared};
use mpisim::{run_cluster, NetModel};
use seqio::fasta::Record;
use simulate::datasets::{Dataset, DatasetPreset};

fn shared() -> Arc<RttShared<'static>> {
    let ds = Dataset::generate(DatasetPreset::Tiny, 4);
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
    let packed_contigs = seqio::packed::encode_all(&contigs);
    let gff = gff_shared_memory(&GffShared::prepare(packed_contigs.clone(), counts, cfg));
    Arc::new(RttShared::prepare(
        reads,
        &packed_contigs,
        &gff.components,
        cfg,
    ))
}

fn bench(c: &mut Criterion) {
    let sh = shared();
    let mut g = c.benchmark_group("rtt");
    g.sample_size(10);

    g.bench_function("assign_all_reads", |b| {
        b.iter(|| {
            for r in &sh.packed_reads {
                black_box(sh.assign_packed(r));
            }
        })
    });

    // Ablation: the paper's chosen strategy (every rank reads, no comm)...
    let s1 = Arc::clone(&sh);
    g.bench_function("io_every_rank_reads", |b| {
        b.iter(|| {
            let s = Arc::clone(&s1);
            black_box(run_cluster(4, NetModel::idataplex(), move |comm| {
                rtt_hybrid(comm, &s).timings.total
            }))
        })
    });

    // ...vs the future-work MPI-I/O strided access: each rank reads only
    // its own chunks.
    let s2 = Arc::clone(&sh);
    g.bench_function("io_striped_mpiio", |b| {
        b.iter(|| {
            let s = Arc::clone(&s2);
            black_box(run_cluster(4, NetModel::idataplex(), move |comm| {
                rtt_hybrid_striped(comm, &s).timings.total
            }))
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
