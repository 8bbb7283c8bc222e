//! Microbench: FM-index construction — sequential, and as the Bowtie stage
//! runs it, on a costed team — and -v-mode alignment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use bowtie::align::{align_read, AlignConfig};
use bowtie::fmindex::FmIndex;
use omp::{par_loop, CostedTeam, Schedule};
use seqio::fasta::Record;
use simulate::transcriptome::{Transcriptome, TranscriptomeConfig};

fn bench(c: &mut Criterion) {
    let t = Transcriptome::generate(TranscriptomeConfig {
        genes: 20,
        exon_len: (200, 800),
        ..Default::default()
    });
    let contigs: Vec<Record> = t
        .reference()
        .into_iter()
        .map(|r| Record::new(r.isoform, r.seq))
        .collect();
    // Reads: slices of the contigs in the Bowtie stage's mix — of every 20,
    // 15 as cut, 4 with one substitution, 1 that aligns nowhere.
    let rotate =
        |b: u8, by: usize| b"ACGT"[(b"ACGT".iter().position(|&x| x == b).unwrap() + by) % 4];
    let reads: Vec<Vec<u8>> = contigs
        .iter()
        .flat_map(|c| c.seq.windows(50).step_by(97))
        .take(400)
        .enumerate()
        .map(|(i, w)| {
            let mut read = w.to_vec();
            match i % 20 {
                0..=14 => {}
                15..=18 => read[i * 7 % 50] = rotate(read[i * 7 % 50], 1),
                _ => (0..50).for_each(|j| read[j] = rotate(read[j], 1 + (i + j * j) % 3)),
            }
            read
        })
        .collect();

    // The build's loops in reverse order give the sequential index.
    let index = FmIndex::build(&contigs);
    let reversed = &mut |n: usize, body: &(dyn Fn(usize) + Sync)| (0..n).rev().for_each(body);
    assert_eq!(FmIndex::build_on(&contigs, reversed), index, "build_on");

    let mut g = c.benchmark_group("fmindex");
    g.sample_size(15);
    g.bench_function("build", |b| b.iter(|| black_box(FmIndex::build(&contigs))));
    g.bench_function("build_on", |b| {
        b.iter(|| {
            let mut team = CostedTeam::new(16, Schedule::Dynamic { chunk: 1 });
            let index = FmIndex::build_on(&contigs, &mut par_loop(&mut team));
            black_box(index)
        })
    });

    for v in [0u8, 1, 2] {
        g.bench_with_input(BenchmarkId::new("align_400_reads_v", v), &v, |b, &v| {
            let cfg = AlignConfig {
                max_mismatches: v,
                ..AlignConfig::default()
            };
            b.iter(|| {
                for r in &reads {
                    black_box(align_read(&index, r, cfg));
                }
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
