//! GraphFromFasta loop 2: finding contig pairs that share a weld.
//!
//! After loop 1's welds are pooled on every rank (packed `u128`s), the
//! distinct welds are expanded into a k-mer index — the "setting up the
//! k-mers before the second loop" the paper lists among the non-parallel
//! regions. Loop 2 then scans every contig's k-mers against that index and
//! records `(weld, contig)` matches:
//! a weldmer is a *mixed* window (left half from one contig, right half
//! from another), so both of its parent contigs match it through their
//! halves. Pooled matches grouped by weld yield the contig pairs that
//! union-find clusters into components. The exchange is packed integer
//! arrays — "substantially less communication compared to the first loop".

use kcount::routed::Router;
use kmertable::PackedWeldSet;
use omp::Team;
use seqio::kmer::RollState;
use seqio::packed::PackedSeq;

use crate::weld::{weld_code_at, GroupedKmerMap};

/// The pooled weld set expanded into a canonical-k-mer index (identical on
/// every rank: the pooled weld vector is rank-ordered deterministically).
#[derive(Debug, Clone)]
pub struct WeldKmerIndex {
    k: usize,
    /// The distinct welds; a weld's id is its position here.
    welds: Vec<u128>,
    /// canonical k-mer -> ascending ids of the welds containing it.
    map: GroupedKmerMap<u32>,
}

/// Welds per routed batch of the index build.
const WELD_BATCH: usize = 256;

impl WeldKmerIndex {
    /// [`build_on`](Self::build_on) on a one-thread team.
    pub fn build(pooled: &[u128], weld_len: usize, k: usize) -> Self {
        Self::build_on(pooled, weld_len, k, &mut omp::Pool::new(1))
    }

    /// Build from the pooled canonical packed welds, each `weld_len` bases
    /// long. The one dedup of the stage keeps first occurrences in pool
    /// order (so ids agree across ranks); then an owner-routed build on
    /// `team` rolls each distinct weld's canonical k-mers straight off its
    /// 2-bit codes and routes `(k-mer, weld id)` to the k-mer's owner, once
    /// per distinct k-mer of the weld. Weld batches arrive in id order, so
    /// each k-mer's ids come out ascending. The index is the same on every
    /// team.
    pub fn build_on(pooled: &[u128], weld_len: usize, k: usize, team: &mut impl Team) -> Self {
        let mut seen = PackedWeldSet::new();
        let welds: Vec<u128> = pooled.iter().copied().filter(|&w| seen.insert(w)).collect();
        let state = RollState::new(k).expect("weld k-mers fit a packed word (1 <= k <= 32)");
        let batches: Vec<(u32, &[u128])> = welds
            .chunks(WELD_BATCH)
            .enumerate()
            .map(|(b, batch)| ((b * WELD_BATCH) as u32, batch))
            .collect();
        let windows = welds.len() * (weld_len + 1).saturating_sub(k);
        let per_owner = windows / kcount::routed::OWNERS + 1;
        let route = |&(first, batch): &(u32, &[u128]), router: &mut Router<u32>| {
            let (mut state, mut kmers) = (state.clone(), Vec::new());
            for (id, &weld) in (first..).zip(batch) {
                state.reset();
                kmers.clear();
                for j in 0..weld_len {
                    if let Some(rolled) = state.push(weld_code_at(weld, weld_len, j)) {
                        kmers.push(rolled.canonical_packed());
                    }
                }
                kmers.sort_unstable();
                kmers.dedup();
                kmers.iter().for_each(|&kmer| router.push(kmer, id));
            }
        };
        let map = GroupedKmerMap::build_routed(&batches, per_owner, team, route);
        WeldKmerIndex { k, welds, map }
    }

    /// The distinct welds in id order (first occurrence in the pool).
    pub fn welds(&self) -> &[u128] {
        &self.welds
    }

    /// Number of distinct welds.
    pub fn len(&self) -> usize {
        self.welds.len()
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.welds.is_empty()
    }

    /// Ascending ids of the welds containing a canonical k-mer.
    fn welds_with(&self, packed: u64) -> &[u32] {
        self.map.get(packed)
    }
}

/// Scan one contig for weld matches (one loop-2 iteration). Returns
/// `(weld_index, contig_index)` pairs, deduplicated within the contig.
///
/// The contig arrives pre-packed; its canonical k-mers roll off the 2-bit
/// words in O(1) per base.
pub fn match_contig(
    contig_idx: u32,
    contigs: &[PackedSeq],
    welds: &WeldKmerIndex,
) -> Vec<(u32, u32)> {
    let seq = &contigs[contig_idx as usize];
    if welds.is_empty() {
        return Vec::new();
    }
    let Ok(iter) = seq.canonical_kmers(welds.k) else {
        return Vec::new();
    };
    let mut ids: Vec<u32> = iter
        .flat_map(|(_, km)| welds.welds_with(km.packed()))
        .copied()
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids.into_iter().map(|wi| (wi, contig_idx)).collect()
}

/// Group pooled `(weld, contig)` matches into unordered contig pairs
/// (deduplicated, `a < b`), the input to union-find clustering: the
/// matches sorted, each weld's contigs one run of them.
pub fn pairs_from_matches(matches: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut by_weld = matches.to_vec();
    by_weld.sort_unstable();
    by_weld.dedup();
    let mut pairs = Vec::new();
    for weld in by_weld.chunk_by(|a, b| a.0 == b.0) {
        for (i, &(_, a)) in weld.iter().enumerate() {
            pairs.extend(weld[i + 1..].iter().map(|&(_, b)| (a, b)));
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// The packed-integer wire form of a `(u32, u32)` list — loop-2 matches
/// and read assignments both cross ranks this way.
pub(crate) fn pack_pairs(pairs: &[(u32, u32)]) -> Vec<u8> {
    let flat: Vec<u32> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
    mpisim::pack::pack_u32s(&flat)
}

/// Inverse of [`pack_pairs`] for a buffer a peer rank packed.
pub(crate) fn unpack_pairs(buf: &[u8]) -> Vec<(u32, u32)> {
    let flat = mpisim::pack::unpack_u32s(buf)
        .filter(|flat| flat.len() % 2 == 0)
        .expect("peer sent whole (u32, u32) pairs");
    flat.chunks_exact(2).map(|c| (c[0], c[1])).collect()
}

/// A read assignment `(read, component)` as a line of the master's merge.
impl crate::ReadLine for (u32, u32) {
    const WIDTH: usize = 8;

    fn read(&self) -> u32 {
        self.0
    }

    fn pack(lines: &[Self]) -> Vec<u8> {
        pack_pairs(lines)
    }

    fn unpack(buf: &[u8]) -> Vec<Self> {
        unpack_pairs(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChrysalisConfig;
    use crate::weld::WeldWindow;
    use seqio::alphabet::{base_to_code, revcomp};

    const K: usize = 8;
    const SEED: &[u8] = b"GGATACT";
    const A_LEFT: &[u8] = b"CGAGTCGGTTAT";
    const B_RIGHT: &[u8] = b"GTGAAGTGTTCC";

    fn contig_a() -> Vec<u8> {
        [A_LEFT, SEED, b"CTTCGGCAAGTC".as_slice()].concat()
    }

    fn contig_b() -> Vec<u8> {
        [b"AAAGCGGCACTT".as_slice(), SEED, B_RIGHT].concat()
    }

    /// The junction weldmer: A's k/2 left flank + seed + B's k/2 right flank.
    fn junction_weld() -> u128 {
        let bases = [&A_LEFT[A_LEFT.len() - K / 2..], SEED, &B_RIGHT[..K / 2]].concat();
        let mut w = WeldWindow::new();
        for &b in &bases {
            w.push(base_to_code(b).unwrap());
        }
        w.canonical_packed()
    }

    fn weld_len() -> usize {
        ChrysalisConfig::small(K).weld_len()
    }

    fn fixtures() -> (Vec<PackedSeq>, WeldKmerIndex) {
        let contigs = seqio::packed::encode_all(&[
            contig_a(),
            contig_b(),
            b"TTTTGGGGCCCCAAAATTTTGGGGCCCC".to_vec(),
        ]);
        let welds = WeldKmerIndex::build(&[junction_weld()], weld_len(), K);
        (contigs, welds)
    }

    #[test]
    fn index_dedups_and_counts() {
        let w1 = junction_weld();
        let idx = WeldKmerIndex::build(&[w1, w1 ^ 1, w1], weld_len(), K);
        assert_eq!(idx.welds(), &[w1, w1 ^ 1], "first occurrences, pool order");
        assert_eq!(idx.len(), 2);
        assert!(!idx.is_empty());
        let empty = WeldKmerIndex::build(&[], weld_len(), K);
        assert!(empty.is_empty());
    }

    #[test]
    fn both_parent_contigs_match_the_weld() {
        let (contigs, welds) = fixtures();
        let m0 = match_contig(0, &contigs, &welds);
        let m1 = match_contig(1, &contigs, &welds);
        let m2 = match_contig(2, &contigs, &welds);
        assert_eq!(m0, vec![(0, 0)], "contig a matches through its left half");
        assert_eq!(m1, vec![(0, 1)], "contig b matches through its right half");
        assert!(m2.is_empty(), "unrelated contig matches nothing");
    }

    #[test]
    fn revcomp_contig_still_matches() {
        let (mut contigs, welds) = fixtures();
        contigs[1] = PackedSeq::from_bytes(&revcomp(&contig_b()));
        let m1 = match_contig(1, &contigs, &welds);
        assert_eq!(m1, vec![(0, 1)]);
    }

    #[test]
    fn pairs_from_matches_groups_by_weld() {
        let pairs = pairs_from_matches(&[(0, 0), (0, 1), (1, 5), (1, 3), (1, 7)]);
        assert_eq!(pairs, vec![(0, 1), (3, 5), (3, 7), (5, 7)]);
    }

    #[test]
    fn pairs_dedup() {
        let pairs = pairs_from_matches(&[(0, 1), (0, 2), (1, 1), (1, 2), (0, 1)]);
        assert_eq!(pairs, vec![(1, 2)]);
    }

    #[test]
    fn no_self_pairs() {
        let pairs = pairs_from_matches(&[(0, 4), (0, 4)]);
        assert!(pairs.is_empty());
    }

    #[test]
    fn end_to_end_pairing() {
        let (contigs, welds) = fixtures();
        let mut matches = Vec::new();
        for i in 0..contigs.len() as u32 {
            matches.extend(match_contig(i, &contigs, &welds));
        }
        assert_eq!(pairs_from_matches(&matches), vec![(0, 1)]);
    }

    #[test]
    fn pack_round_trip() {
        let matches = vec![(3u32, 9u32), (1, 2)];
        let buf = pack_pairs(&matches);
        assert_eq!(buf, mpisim::pack::pack_u32s(&[3, 9, 1, 2]));
        assert_eq!(unpack_pairs(&buf), matches);
        assert!(unpack_pairs(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "whole (u32, u32) pairs")]
    fn odd_length_pair_buffer_is_rejected() {
        unpack_pairs(&mpisim::pack::pack_u32s(&[1, 2, 3]));
    }

    #[test]
    fn short_contig_no_matches() {
        let (_, welds) = fixtures();
        let short = vec![PackedSeq::from_bytes(b"ACGT")];
        assert!(match_contig(0, &short, &welds).is_empty());
    }

    /// The `HashMap` index `WeldKmerIndex::build` had before the routed
    /// build: the distinct welds in pool order and, per canonical k-mer,
    /// the ids of the welds containing it.
    fn hashmap_index(
        pooled: &[u128],
        weld_len: usize,
        k: usize,
    ) -> (Vec<u128>, std::collections::HashMap<u64, Vec<u32>>) {
        let mut seen = PackedWeldSet::new();
        let welds: Vec<u128> = pooled.iter().copied().filter(|&w| seen.insert(w)).collect();
        let mut map: std::collections::HashMap<u64, Vec<u32>> = Default::default();
        let mut state = RollState::new(k).unwrap();
        for (id, &weld) in welds.iter().enumerate() {
            state.reset();
            for j in 0..weld_len {
                if let Some(rolled) = state.push(weld_code_at(weld, weld_len, j)) {
                    let v = map.entry(rolled.canonical_packed()).or_default();
                    if v.last() != Some(&(id as u32)) {
                        v.push(id as u32);
                    }
                }
            }
        }
        (welds, map)
    }

    /// The `HashSet` body `match_contig` had before it sorted instead.
    fn hashset_match_contig(
        contig_idx: u32,
        contigs: &[PackedSeq],
        welds: &WeldKmerIndex,
    ) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        if welds.is_empty() {
            return out;
        }
        let Ok(iter) = contigs[contig_idx as usize].canonical_kmers(welds.k) else {
            return out;
        };
        let mut seen = std::collections::HashSet::new();
        for (_, km) in iter {
            for &wi in welds.welds_with(km.packed()) {
                if seen.insert(wi) {
                    out.push((wi, contig_idx));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// The `HashMap`/`HashSet` body `pairs_from_matches` had before it
    /// sorted instead.
    fn hashmap_pairs_from_matches(matches: &[(u32, u32)]) -> Vec<(u32, u32)> {
        let mut by_weld: std::collections::HashMap<u32, Vec<u32>> = Default::default();
        for &(w, c) in matches {
            let v = by_weld.entry(w).or_default();
            if !v.contains(&c) {
                v.push(c);
            }
        }
        let mut pairs = std::collections::HashSet::new();
        for (_, mut contigs) in by_weld {
            contigs.sort_unstable();
            for i in 0..contigs.len() {
                for j in i + 1..contigs.len() {
                    pairs.insert((contigs[i], contigs[j]));
                }
            }
        }
        let mut v: Vec<(u32, u32)> = pairs.into_iter().collect();
        v.sort_unstable();
        v
    }

    /// `n` pseudo-random welds of `weld_len` bases drawn from a pool of
    /// `distinct`, so the list repeats welds.
    fn random_welds(n: usize, distinct: u64, weld_len: usize, seed: u64) -> Vec<u128> {
        let mask = (1u128 << (2 * weld_len)) - 1;
        let mix = |x: u64| kmertable::mix64(x ^ seed) as u128;
        (0..n as u64)
            .map(|i| {
                let w = mix(i.wrapping_mul(0x9E37) % distinct);
                (w << 64 | mix(!w as u64)) & mask
            })
            .collect()
    }

    /// Every team builds the index the `HashMap` body built: the same
    /// welds in the same order, the same ids under every k-mer.
    fn assert_index_is_the_hashmap_index(pooled: &[u128], weld_len: usize) {
        let (welds, map) = hashmap_index(pooled, weld_len, K);
        let mut costed = omp::CostedTeam::new(16, omp::Schedule::Dynamic { chunk: 1 });
        let built = [
            WeldKmerIndex::build(pooled, weld_len, K),
            WeldKmerIndex::build_on(pooled, weld_len, K, &mut crate::test_teams::Reversed),
            WeldKmerIndex::build_on(pooled, weld_len, K, &mut omp::Pool::new(2)),
            WeldKmerIndex::build_on(pooled, weld_len, K, &mut costed),
        ];
        for index in &built {
            assert_eq!(index.welds(), welds);
            assert_eq!(index.map.len(), map.len());
            for (&kmer, ids) in &map {
                assert_eq!(index.welds_with(kmer), ids.as_slice());
            }
        }
    }

    #[test]
    fn routed_index_is_the_hashmap_index_over_many_batches() {
        let weld_len = weld_len();
        let pooled = random_welds(3000, 1800, weld_len, 11);
        assert!(pooled.len() > 3 * WELD_BATCH, "several rounds of batches");
        assert_index_is_the_hashmap_index(&pooled, weld_len);
        assert_index_is_the_hashmap_index(&[], weld_len);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Welds drawn with repeats from a small pool, and contigs built
        /// from pieces of them: the index is the `HashMap` body's on every
        /// team, `match_contig` answers as its `HashSet` body did, and
        /// `pairs_from_matches` — on those matches and on arbitrary ones,
        /// repeats and one-contig welds included — as its old body did.
        #[test]
        fn sorted_bodies_equal_the_hash_bodies(
            seed in 0u64..1000,
            n in 0usize..40,
            distinct in 1u64..12,
            picks in proptest::collection::vec((0usize..40, 0usize..15, 0u8..2), 0..30),
            extra in proptest::collection::vec((0u32..6, 0u32..8), 0..40),
        ) {
            let weld_len = weld_len();
            let pooled = random_welds(n, distinct, weld_len, seed);
            assert_index_is_the_hashmap_index(&pooled, weld_len);
            let index = WeldKmerIndex::build(&pooled, weld_len, K);
            // Contigs of 1-3 weld pieces each, some reverse-complemented.
            let bases: Vec<Vec<u8>> = pooled.iter().map(|&w| crate::weld::decode_weld(w, weld_len)).collect();
            let contigs: Vec<Vec<u8>> = picks
                .chunks(3)
                .map(|chunk| {
                    let mut seq = Vec::new();
                    for &(w, from, rc) in chunk {
                        let Some(weld) = bases.get(w) else { continue };
                        let piece = &weld[from.min(weld.len())..];
                        seq.extend(if rc == 1 { revcomp(piece) } else { piece.to_vec() });
                    }
                    seq
                })
                .collect();
            let packed = seqio::packed::encode_all(&contigs);
            let mut found = Vec::new();
            for i in 0..packed.len() as u32 {
                let m = match_contig(i, &packed, &index);
                proptest::prop_assert_eq!(&m, &hashset_match_contig(i, &packed, &index));
                found.extend(m);
            }
            proptest::prop_assert_eq!(pairs_from_matches(&found), hashmap_pairs_from_matches(&found));
            proptest::prop_assert_eq!(pairs_from_matches(&extra), hashmap_pairs_from_matches(&extra));
        }
    }
}
