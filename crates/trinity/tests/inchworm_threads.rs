//! Inchworm's parallel loops on real OS threads: the seeding-order sort and
//! the walks' ordered loop run on an `omp::Pool` of two workers — walks
//! truly concurrent, each reading the used k-mers and the other's marks while
//! they change — and the dictionary and the contigs are what the sequential
//! run produces, at every window, the pipeline's for two threads included.

use inchworm::{assemble, assemble_on, Dictionary, InchwormConfig, WINDOW_PER_THREAD};
use kcount::counter::{count_kmers, CounterConfig, KmerCounts};
use omp::{ord_loop, par_loop, Pool};
use proptest::prelude::*;
use simulate::datasets::{Dataset, DatasetPreset};

fn check(counts: KmerCounts, cfg: InchwormConfig) {
    let mut pool = Pool::new(2);
    let serial = Dictionary::from_counts(counts.clone(), 1);
    let threaded = Dictionary::from_counts_on(counts, 1, &mut par_loop(&mut pool));
    assert!(serial.seeds().eq(threaded.seeds()));
    let expect = assemble(&serial, cfg);
    for window in [1, 2, 3, 16, WINDOW_PER_THREAD * pool.threads, 64, 256] {
        let (contigs, stats) = assemble_on(&threaded, cfg, window, &mut ord_loop(&mut pool));
        assert_eq!(contigs, expect, "window {window}");
        // Each contig is a walk's, or a deferred seed's walked at its turn.
        let walked = stats.walks + stats.replays;
        assert!(walked >= contigs.len() && stats.wasted_steps <= stats.steps);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn threaded_epochs_equal_the_sequential_run(
        transcript in proptest::collection::vec(0usize..4, 40..200),
        picks in proptest::collection::vec((0usize..200, 10usize..60), 1..80),
        k in 5usize..14,
        min_extend in 1u32..3,
    ) {
        let transcript: Vec<u8> = transcript.into_iter().map(|b| b"ACGT"[b]).collect();
        let reads: Vec<Vec<u8>> = picks
            .into_iter()
            .map(|(start, len)| {
                let start = start % transcript.len();
                transcript[start..(start + len).min(transcript.len())].to_vec()
            })
            .collect();
        let cfg = InchwormConfig {
            min_seed_count: 1,
            min_extend_count: min_extend,
            min_contig_len: k,
            jitter_seed: None,
        };
        check(count_kmers(&reads, CounterConfig::new(k)), cfg);
    }
}

#[test]
fn threaded_epochs_equal_the_sequential_run_on_a_simulated_transcriptome() {
    let reads = Dataset::generate(DatasetPreset::Tiny, 7).all_reads();
    let seqs: Vec<&[u8]> = reads.iter().map(|r| r.seq.as_slice()).collect();
    for jitter_seed in [None, Some(3)] {
        let cfg = InchwormConfig {
            min_seed_count: 1,
            min_extend_count: 1,
            min_contig_len: 24,
            jitter_seed,
        };
        check(count_kmers(&seqs, CounterConfig::new(12)), cfg);
    }
}
