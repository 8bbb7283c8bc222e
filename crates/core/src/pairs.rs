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

use std::collections::{HashMap, HashSet};

use kmertable::PackedWeldSet;
use seqio::kmer::RollState;
use seqio::packed::PackedSeq;

use crate::weld::weld_code_at;

/// The pooled weld set expanded into a canonical-k-mer index (identical on
/// every rank: the pooled weld vector is rank-ordered deterministically).
#[derive(Debug, Clone)]
pub struct WeldKmerIndex {
    k: usize,
    /// The distinct welds; a weld's id is its position here.
    welds: Vec<u128>,
    /// canonical k-mer -> weld ids containing it.
    map: HashMap<u64, Vec<u32>>,
}

impl WeldKmerIndex {
    /// Build from the pooled canonical packed welds, each `weld_len` bases
    /// long: the one dedup of the stage keeps first occurrences in pool
    /// order (so ids agree across ranks), and each distinct weld's
    /// canonical k-mers roll straight off its 2-bit codes.
    pub fn build(pooled: &[u128], weld_len: usize, k: usize) -> Self {
        let mut seen = PackedWeldSet::new();
        let welds: Vec<u128> = pooled.iter().copied().filter(|&w| seen.insert(w)).collect();
        let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
        let mut state = RollState::new(k).expect("weld k-mers fit a packed word (1 <= k <= 32)");
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

    /// Weld ids containing a canonical k-mer.
    fn welds_with(&self, packed: u64) -> &[u32] {
        self.map.get(&packed).map(Vec::as_slice).unwrap_or(&[])
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
    let mut out = Vec::new();
    if welds.is_empty() {
        return out;
    }
    let Ok(iter) = seq.canonical_kmers(welds.k) else {
        return out;
    };
    let mut seen: HashSet<u32> = HashSet::new();
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

/// Group pooled `(weld, contig)` matches into unordered contig pairs
/// (deduplicated, `a < b`), the input to union-find clustering.
pub fn pairs_from_matches(matches: &[(u32, u32)]) -> Vec<(u32, u32)> {
    let mut by_weld: HashMap<u32, Vec<u32>> = HashMap::new();
    for &(w, c) in matches {
        let v = by_weld.entry(w).or_default();
        if !v.contains(&c) {
            v.push(c);
        }
    }
    let mut pairs: HashSet<(u32, u32)> = HashSet::new();
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
}
