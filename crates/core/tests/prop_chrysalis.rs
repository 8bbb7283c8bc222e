//! Property-based tests for the Chrysalis core: partition-invariance of
//! the hybrid drivers over randomized workloads, the owner-routed table
//! builds against their sequential definitions, and the packed weld index
//! and wire codec against the byte-keyed index they replaced.

use std::collections::HashMap;
use std::sync::Arc;

use chrysalis::config::ChrysalisConfig;
use chrysalis::graph_from_fasta::{cluster, gff_hybrid, gff_shared_memory, GffShared};
use chrysalis::pairs::{match_contig, pairs_from_matches, WeldKmerIndex};
use chrysalis::reads_to_transcripts::{rtt_hybrid, rtt_shared_memory, RttShared};
use chrysalis::weld::{decode_weld, pack_welds, unpack_welds, KmerContigMap};
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
        let on_pool = RttShared::build_table(&contigs, &components, K, &mut omp::Pool::new(threads));
        for table in [&shared.kmer_to_component, &on_pool] {
            prop_assert_eq!(table.len(), first_claim.len());
            for (key, component) in first_claim.iter() {
                prop_assert_eq!(table.get(key), Some(component));
            }
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

/// Pack an ACGT string MSB-first, the layout of a harvested weld.
fn pack(weld: &[u8]) -> u128 {
    let code = |b: u8| seqio::alphabet::base_to_code(b).expect("ACGT") as u128;
    weld.iter().fold(0, |p, &b| (p << 2) | code(b))
}

/// Canonical k-mers of an ASCII sequence, each rebuilt per window.
fn naive_canonical_kmers(seq: &[u8], k: usize) -> impl Iterator<Item = u64> + '_ {
    let kmers = seqio::kmer::KmerIter::new(seq, k).expect("valid k");
    kmers.map(|(_, km)| km.canonical().packed())
}

/// The weld index as it was while welds were ASCII: a byte-keyed dedup in
/// first-occurrence order and k-mers taken from the bytes. Returns the
/// distinct welds in id order and the k-mer → weld-ids map.
fn byte_weld_index(pooled: &[Vec<u8>], k: usize) -> (Vec<Vec<u8>>, HashMap<u64, Vec<u32>>) {
    let mut ids: HashMap<&[u8], u32> = HashMap::new();
    let mut distinct = Vec::new();
    let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
    for w in pooled {
        let next = ids.len() as u32;
        if *ids.entry(w.as_slice()).or_insert(next) != next {
            continue;
        }
        distinct.push(w.clone());
        for km in naive_canonical_kmers(w, k) {
            let v = map.entry(km).or_default();
            if v.last() != Some(&next) {
                v.push(next);
            }
        }
    }
    (distinct, map)
}

/// Loop 2's item against the byte index: the distinct weld ids whose
/// k-mers the contig contains, sorted, paired with the contig index.
fn byte_match_contig(
    i: u32,
    contig: &[u8],
    map: &HashMap<u64, Vec<u32>>,
    k: usize,
) -> Vec<(u32, u32)> {
    let hits = naive_canonical_kmers(contig, k).flat_map(|km| map.get(&km).into_iter().flatten());
    let ids: std::collections::BTreeSet<u32> = hits.copied().collect();
    ids.into_iter().map(|w| (w, i)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pools with duplicates within and across ranks, shipped through the
    /// wire codec: the `u128` index assigns the ids the byte index did,
    /// lists the same distinct welds and answers loop 2 identically.
    #[test]
    fn packed_weld_index_equals_byte_index(
        pool in proptest::collection::vec(dna(15..16), 1..7),
        per_rank in proptest::collection::vec(proptest::collection::vec(0usize..7, 0..9), 1..5),
        contig_picks in proptest::collection::vec((proptest::collection::vec(0usize..14, 0..4), dna(0..20)), 1..6),
    ) {
        const K: usize = 8;
        let weld_len = ChrysalisConfig::small(K).weld_len();
        let canonical = |w: &Vec<u8>| w.clone().min(seqio::alphabet::revcomp(w));
        let pool: Vec<Vec<u8>> = pool.iter().map(canonical).collect();
        prop_assert!(pool.iter().all(|w| w.len() == weld_len));
        let rank_welds: Vec<Vec<Vec<u8>>> = per_rank
            .iter()
            .map(|picks| picks.iter().map(|&p| pool[p % pool.len()].clone()).collect())
            .collect();

        // Each rank packs its share; the pool is every buffer unpacked, in
        // rank order (an idle rank's buffer is empty).
        let mut pooled: Vec<u128> = Vec::new();
        for welds in &rank_welds {
            let mine: Vec<u128> = welds.iter().map(|w| pack(w)).collect();
            let buf = pack_welds(&mine);
            prop_assert_eq!(buf.len(), 16 * mine.len());
            prop_assert_eq!(unpack_welds(&buf).as_ref(), Some(&mine));
            if !buf.is_empty() {
                prop_assert_eq!(unpack_welds(&buf[1..]), None);
                prop_assert_eq!(unpack_welds(&buf[8..]), None);
            }
            pooled.extend(mine);
        }
        let index = WeldKmerIndex::build(&pooled, weld_len, K);
        let (distinct, map) = byte_weld_index(&rank_welds.concat(), K);
        let decoded: Vec<Vec<u8>> = index.welds().iter().map(|&w| decode_weld(w, weld_len)).collect();
        prop_assert_eq!(decoded, distinct);

        // Contigs stitched from pool welds (either strand) and filler.
        let contigs: Vec<Vec<u8>> = contig_picks
            .iter()
            .map(|(picks, filler)| {
                let mut seq = filler.clone();
                for &p in picks {
                    let weld = &pool[(p / 2) % pool.len()];
                    seq.extend(if p % 2 == 0 { weld.clone() } else { seqio::alphabet::revcomp(weld) });
                }
                seq
            })
            .collect();
        let packed = seqio::packed::encode_all(&contigs);
        for (i, contig) in contigs.iter().enumerate() {
            prop_assert_eq!(
                match_contig(i as u32, &packed, &index),
                byte_match_contig(i as u32, contig, &map, K)
            );
        }
    }
}
