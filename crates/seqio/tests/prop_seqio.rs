//! Property-based tests for the sequence substrate.

use proptest::prelude::*;
use seqio::alphabet::{base_to_code, complement_code, revcomp, revcomp_in_place};
use seqio::fasta::{parse_fasta, to_fasta_bytes, Record};
use seqio::kmer::{Kmer, KmerIter};
use seqio::packed::PackedSeq;
use seqio::splitter::plan_split;

use seqio::fasta::Record as FaRecord;

fn dna_strict() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T')],
        0..200,
    )
}

fn dna_with_n() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T'), Just(b'N')],
        0..200,
    )
}

/// Mixed-case DNA with embedded N-runs and stray junk bytes — the messiest
/// input the packed encoder must normalize.
fn dna_messy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![
            Just(b'A'),
            Just(b'c'),
            Just(b'G'),
            Just(b't'),
            Just(b'N'),
            Just(b'n'),
            Just(b'-'),
        ],
        0..200,
    )
}

/// The k values the tentpole cares about: tiny, the pipeline defaults, and
/// both sides of the k=32 word boundary.
fn interesting_k() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1), Just(2), Just(24), Just(25), Just(31), Just(32)]
}

/// Naive per-window reverse complement — the reference the bit-twiddled
/// `Kmer::revcomp` must reproduce exactly.
fn naive_revcomp(km: Kmer) -> Kmer {
    let mut packed = 0u64;
    for i in 0..km.k() {
        packed |= (complement_code(km.code_at(i)) as u64) << (2 * i);
    }
    Kmer::from_packed(packed, km.k()).unwrap()
}

/// What `PackedSeq::decode` must return: uppercase ACGT, everything else N.
fn normalize(seq: &[u8]) -> Vec<u8> {
    seq.iter()
        .map(|&b| match base_to_code(b) {
            Some(c) => b"ACGT"[c as usize],
            None => b'N',
        })
        .collect()
}

proptest! {
    #[test]
    fn revcomp_is_involution(seq in dna_with_n()) {
        prop_assert_eq!(revcomp(&revcomp(&seq)), seq);
    }

    #[test]
    fn revcomp_in_place_matches(seq in dna_with_n()) {
        let mut v = seq.clone();
        revcomp_in_place(&mut v);
        prop_assert_eq!(v, revcomp(&seq));
    }

    #[test]
    fn kmer_pack_round_trip(seq in dna_strict().prop_filter("nonempty", |s| !s.is_empty())) {
        let take = seq.len().min(32);
        let km = Kmer::from_bases(&seq[..take]).unwrap();
        prop_assert_eq!(km.bases(), seq[..take].to_vec());
    }

    #[test]
    fn kmer_revcomp_involution(seq in dna_strict().prop_filter("len>=1", |s| !s.is_empty())) {
        let take = seq.len().min(32);
        let km = Kmer::from_bases(&seq[..take]).unwrap();
        prop_assert_eq!(km.revcomp().revcomp(), km);
    }

    #[test]
    fn canonical_idempotent(seq in dna_strict().prop_filter("len>=1", |s| !s.is_empty())) {
        let take = seq.len().min(32);
        let km = Kmer::from_bases(&seq[..take]).unwrap();
        prop_assert_eq!(km.canonical().canonical(), km.canonical());
        prop_assert!(km.canonical() <= km);
    }

    #[test]
    fn kmer_iter_windows_match_slices(seq in dna_with_n(), k in 1usize..16) {
        for (off, km) in KmerIter::new(&seq, k).unwrap() {
            prop_assert_eq!(km.bases(), seq[off..off + k].to_vec());
        }
    }

    #[test]
    fn kmer_iter_count_on_clean_dna(seq in dna_strict(), k in 1usize..16) {
        let n = KmerIter::new(&seq, k).unwrap().count();
        let expect = seq.len().saturating_sub(k - 1);
        prop_assert_eq!(n, expect);
    }

    #[test]
    fn bit_twiddled_revcomp_matches_naive(packed in any::<u64>(), k in interesting_k()) {
        let packed = if k == 32 { packed } else { packed & ((1u64 << (2 * k)) - 1) };
        let km = Kmer::from_packed(packed, k).unwrap();
        prop_assert_eq!(km.revcomp(), naive_revcomp(km));
    }

    #[test]
    fn rolling_canonical_matches_naive_reference(seq in dna_messy(), k in interesting_k()) {
        let packed = PackedSeq::from_bytes(&seq);
        let rolled: Vec<_> = packed.canonical_kmers(k).unwrap().collect();
        let reference: Vec<_> = KmerIter::new(&seq, k)
            .unwrap()
            .map(|(off, km)| (off, naive_revcomp(km).min(km)))
            .collect();
        prop_assert_eq!(rolled, reference);
    }

    #[test]
    fn packed_seq_round_trips(seq in dna_messy()) {
        let p = PackedSeq::from_bytes(&seq);
        prop_assert_eq!(p.len(), seq.len());
        prop_assert_eq!(p.decode(), normalize(&seq));
        // Re-encoding the normalized form is a fixed point.
        let p2 = PackedSeq::from_bytes(&p.decode());
        prop_assert_eq!(p2.decode(), p.decode());
        prop_assert_eq!(p2.runs(), p.runs());
    }

    #[test]
    fn packed_iterators_match_byte_iterators(seq in dna_messy(), k in interesting_k()) {
        let p = PackedSeq::from_bytes(&seq);
        let fwd: Vec<_> = p.kmers(k).unwrap().collect();
        let fwd_ref: Vec<_> = KmerIter::new(&seq, k).unwrap().collect();
        prop_assert_eq!(fwd, fwd_ref);

        let canon: Vec<_> = p.canonical_kmers(k).unwrap().collect();
        let canon_ref: Vec<_> = KmerIter::new(&seq, k)
            .unwrap()
            .map(|(off, km)| (off, km.canonical()))
            .collect();
        prop_assert_eq!(canon, canon_ref);

        let oriented: Vec<_> = p.oriented_kmers(k).unwrap().collect();
        let oriented_ref: Vec<_> = KmerIter::new(&seq, k)
            .unwrap()
            .map(|(off, km)| { let c = km.canonical(); (off, c, c == km) })
            .collect();
        prop_assert_eq!(oriented, oriented_ref);
    }

    #[test]
    fn kmer_iter_size_hint_upper_bound_sound(seq in dna_with_n(), k in interesting_k()) {
        let total = KmerIter::new(&seq, k).unwrap().count();
        let mut it = KmerIter::new(&seq, k).unwrap();
        // Before each yield, the hint must bracket the true remaining count.
        for consumed in 0..=total {
            let remaining = total - consumed;
            let (lo, hi) = it.size_hint();
            let hi = hi.expect("upper bound is always known");
            prop_assert!(lo <= remaining && remaining <= hi,
                "consumed={consumed}: {lo} <= {remaining} <= {hi}");
            if consumed < total {
                prop_assert!(it.next().is_some());
            }
        }
        prop_assert!(it.next().is_none());
    }

    #[test]
    fn fasta_round_trip(
        ids in proptest::collection::vec("[a-zA-Z0-9_.-]{1,12}", 1..8),
        seqs in proptest::collection::vec(dna_with_n(), 1..8),
    ) {
        let n = ids.len().min(seqs.len());
        let records: Vec<Record> = (0..n)
            .map(|i| Record::new(ids[i].clone(), seqs[i].clone()))
            .collect();
        let bytes = to_fasta_bytes(&records);
        prop_assert_eq!(parse_fasta(&bytes).unwrap(), records);
    }

    #[test]
    fn split_partition_property(lens in proptest::collection::vec(0usize..500, 0..60), n in 1usize..12) {
        let records: Vec<FaRecord> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| FaRecord::new(format!("r{i}"), vec![b'A'; l]))
            .collect();
        let plan = plan_split(&records, n).unwrap();
        prop_assert_eq!(plan.n_pieces(), n);
        let mut seen: Vec<usize> = plan.pieces.iter().flatten().copied().collect();
        seen.sort_unstable();
        let expect: Vec<usize> = (0..records.len()).collect();
        prop_assert_eq!(seen, expect);
        // Greedy bound: max load <= mean + max item length.
        let loads: Vec<usize> = plan
            .pieces
            .iter()
            .map(|p| p.iter().map(|&i| records[i].seq.len()).sum::<usize>())
            .collect();
        let total: usize = loads.iter().sum();
        let maxlen = lens.iter().copied().max().unwrap_or(0);
        let bound = total / n + maxlen;
        prop_assert!(loads.iter().all(|&l| l <= bound));
    }
}
