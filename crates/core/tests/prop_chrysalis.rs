//! Property-based tests for the Chrysalis core: partition-invariance of
//! the hybrid drivers over randomized workloads, and the owner-routed
//! table builds against their sequential definitions.

use std::sync::Arc;

use chrysalis::config::ChrysalisConfig;
use chrysalis::graph_from_fasta::{cluster, gff_hybrid, gff_shared_memory, GffShared};
use chrysalis::pairs::pairs_from_matches;
use chrysalis::reads_to_transcripts::{rtt_hybrid, rtt_shared_memory, RttShared};
use chrysalis::weld::KmerContigMap;
use kcount::counter::{count_kmers, CounterConfig};
use kmertable::PackedKmerTable;
use mpisim::{run_cluster, NetModel};
use proptest::prelude::*;
use seqio::fasta::Record;
use seqio::packed::PackedSeq;

fn dna(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T')],
        len,
    )
}

/// Contigs that share sequence: each is a run of segments drawn from a
/// small pool, so seeds recur within and across contigs and batches.
fn overlapping_contigs() -> impl Strategy<Value = Vec<PackedSeq>> {
    let pool = proptest::collection::vec(dna(9..30), 3..7);
    let picks = proptest::collection::vec(proptest::collection::vec(0usize..7, 1..5), 0..150);
    (pool, picks).prop_map(|(pool, picks)| {
        let contigs = picks.iter().map(|segments| {
            let seq: Vec<u8> = segments
                .iter()
                .flat_map(|&s| pool[s % pool.len()].iter().copied())
                .collect();
            PackedSeq::from_bytes(&seq)
        });
        contigs.collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The routed seed map has the sequential build's key set and, per
    /// seed, its occurrence list in the same order (ascending contig, then
    /// position), for any worker count — i.e. any round size.
    #[test]
    fn routed_seed_map_equals_sequential_build(
        contigs in overlapping_contigs(),
        workers in 1usize..5,
    ) {
        const K: usize = 8;
        let sequential = KmerContigMap::build(&contigs, K);
        let routed = KmerContigMap::build_routed(&contigs, K, &mut omp::Pool::new(workers));
        prop_assert_eq!(routed.len(), sequential.len());
        let mut seen = 0usize;
        for contig in &contigs {
            for (_, seed) in contig.canonical_kmers(K - 1).into_iter().flatten() {
                let occs = sequential.occurrences(seed);
                prop_assert!(!occs.is_empty());
                prop_assert!(occs.windows(2).all(|w| (w[0].contig, w[0].pos) < (w[1].contig, w[1].pos)));
                prop_assert_eq!(routed.occurrences(seed), occs);
                seen += 1;
            }
        }
        // Every window is one occurrence of its seed, listed once.
        let reg = obs::MetricsRegistry::new();
        routed.record_metrics(&reg, "kmap");
        prop_assert_eq!(reg.snapshot().gauge("kmap.occurrences"), Some(seen as f64));
    }

    /// The routed k-mer→component table is the sequential first-claim
    /// table: where components share k-mers, the smallest id keeps them.
    #[test]
    fn routed_rtt_table_equals_first_claim(
        contigs in overlapping_contigs(),
        per_component in 1usize..4,
        threads in 1usize..5,
    ) {
        const K: usize = 8;
        let ids: Vec<usize> = (0..contigs.len()).collect();
        let components: Vec<Vec<usize>> = ids.chunks(per_component).map(<[usize]>::to_vec).collect();
        let mut first_claim = PackedKmerTable::new();
        for (c, members) in components.iter().enumerate() {
            for &m in members {
                for (_, km) in contigs[m].canonical_kmers(K).into_iter().flatten() {
                    first_claim.get_or_insert(km.packed(), c as u32);
                }
            }
        }
        let mut cfg = ChrysalisConfig::small(K);
        cfg.threads = threads;
        let shared = RttShared::prepare_with_packed(vec![], vec![], &contigs, &components, cfg);
        prop_assert_eq!(shared.kmer_to_component.len(), first_claim.len());
        for (key, component) in first_claim.iter() {
            prop_assert_eq!(shared.kmer_to_component.get(key), Some(component));
        }
    }

    /// For any random contig/read set and any rank count, the hybrid
    /// GraphFromFasta produces exactly the serial pairs and components.
    #[test]
    fn gff_is_partition_invariant(
        seqs in proptest::collection::vec(dna(20..60), 2..8),
        ranks in 1usize..6,
        chunk in 1usize..4,
    ) {
        let contigs = seqio::packed::encode_all(&seqs);
        // Reads = windows of the contigs, so welds can find support.
        let reads: Vec<Vec<u8>> = seqs
            .iter()
            .flat_map(|s| s.windows(16.min(s.len())).step_by(4).map(|w| w.to_vec()))
            .collect();
        let counts = count_kmers(&reads, CounterConfig::new(8));
        let mut cfg = ChrysalisConfig::small(8);
        cfg.chunk = Some(chunk);
        let shared = Arc::new(GffShared::prepare(contigs, counts, cfg));
        let serial = gff_shared_memory(&shared);
        let sh = Arc::clone(&shared);
        let outs = run_cluster(ranks, NetModel::ideal(), move |comm| gff_hybrid(comm, &sh));
        for o in &outs {
            prop_assert_eq!(&o.value.pairs, &serial.pairs);
            prop_assert_eq!(&o.value.component_of, &serial.component_of);
        }
    }

    /// For any read set and rank count, hybrid ReadsToTranscripts matches
    /// the serial assignment exactly.
    #[test]
    fn rtt_is_partition_invariant(
        contig_seqs in proptest::collection::vec(dna(30..60), 1..4),
        read_windows in proptest::collection::vec((0usize..3, 0usize..20), 4..24),
        ranks in 1usize..6,
        chunk_size in 1usize..7,
    ) {
        let contigs = seqio::packed::encode_all(&contig_seqs);
        let reads: Vec<Record> = read_windows
            .iter()
            .enumerate()
            .filter_map(|(i, &(c, off))| {
                let src = &contig_seqs[c % contig_seqs.len()];
                let off = off % src.len().saturating_sub(12).max(1);
                let end = (off + 12).min(src.len());
                (end > off).then(|| Record::new(format!("r{i}"), src[off..end].to_vec()))
            })
            .collect();
        let components: Vec<Vec<usize>> = (0..contigs.len()).map(|i| vec![i]).collect();
        let mut cfg = ChrysalisConfig::small(8);
        cfg.max_mem_reads = chunk_size;
        let shared = Arc::new(RttShared::prepare(reads, &contigs, &components, cfg));
        let serial = rtt_shared_memory(&shared);
        let sh = Arc::clone(&shared);
        let outs = run_cluster(ranks, NetModel::ideal(), move |comm| rtt_hybrid(comm, &sh));
        for o in &outs {
            prop_assert_eq!(&o.value.assignments, &serial.assignments);
        }
    }

    /// Clustering invariants: components partition the contig set and
    /// every pair's endpoints land in the same component.
    #[test]
    fn clustering_is_a_partition(
        n in 1usize..40,
        raw_pairs in proptest::collection::vec((0u32..40, 0u32..40), 0..60),
    ) {
        let pairs: Vec<(u32, u32)> = raw_pairs
            .into_iter()
            .filter(|&(a, b)| (a as usize) < n && (b as usize) < n && a != b)
            .map(|(a, b)| (a.min(b), a.max(b)))
            .collect();
        let (comp_of, comps) = cluster(n, &pairs);
        prop_assert_eq!(comp_of.len(), n);
        prop_assert_eq!(comps.iter().map(Vec::len).sum::<usize>(), n);
        for &(a, b) in &pairs {
            prop_assert_eq!(comp_of[a as usize], comp_of[b as usize]);
        }
        // Dense ids.
        for (c, members) in comps.iter().enumerate() {
            for &m in members {
                prop_assert_eq!(comp_of[m], c);
            }
        }
    }

    /// pairs_from_matches never invents contigs and never emits self-pairs.
    #[test]
    fn pairs_well_formed(matches in proptest::collection::vec((0u32..10, 0u32..20), 0..60)) {
        let pairs = pairs_from_matches(&matches);
        let contigs: std::collections::HashSet<u32> =
            matches.iter().map(|&(_, c)| c).collect();
        for &(a, b) in &pairs {
            prop_assert!(a < b);
            prop_assert!(contigs.contains(&a) && contigs.contains(&b));
        }
        // Sorted and deduplicated.
        for w in pairs.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }
}
