//! GraphFromFasta loop 2: finding contig pairs that share a weld.
//!
//! After loop 1's welds are pooled on every rank, the welds are expanded
//! into a k-mer index — the "setting up the k-mers before the second loop"
//! the paper lists among the non-parallel regions. Loop 2 then scans every
//! contig's k-mers against that index and records `(weld, contig)` matches:
//! a weldmer is a *mixed* window (left half from one contig, right half
//! from another), so both of its parent contigs match it through their
//! halves. Pooled matches grouped by weld yield the contig pairs that
//! union-find clusters into components. The exchange is packed integer
//! arrays — "substantially less communication compared to the first loop".

use std::collections::{HashMap, HashSet};

use seqio::kmer::CanonicalKmers;
use seqio::packed::PackedSeq;

use crate::config::ChrysalisConfig;

/// The pooled weld set expanded into a canonical-k-mer index (identical on
/// every rank: the pooled weld vector is rank-ordered deterministically).
#[derive(Debug, Clone)]
pub struct WeldKmerIndex {
    k: usize,
    n_welds: usize,
    /// canonical k-mer -> weld ids containing it.
    map: HashMap<u64, Vec<u32>>,
}

impl WeldKmerIndex {
    /// Build from the pooled weld list (deduplicating welds while
    /// preserving first-occurrence order so ids agree across ranks).
    pub fn build(pooled: &[Vec<u8>], k: usize) -> Self {
        let mut ids: HashMap<&[u8], u32> = HashMap::with_capacity(pooled.len());
        let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
        for w in pooled {
            let next = ids.len() as u32;
            let id = *ids.entry(w.as_slice()).or_insert(next);
            if id != next {
                continue; // duplicate weld
            }
            if let Ok(iter) = CanonicalKmers::new(w, k) {
                for (_, km) in iter {
                    let v = map.entry(km.packed()).or_default();
                    if v.last() != Some(&id) {
                        v.push(id);
                    }
                }
            }
        }
        WeldKmerIndex {
            k,
            n_welds: ids.len(),
            map,
        }
    }

    /// Number of distinct welds.
    pub fn len(&self) -> usize {
        self.n_welds
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.n_welds == 0
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
/// words in O(1) per base (welds themselves are short derived sequences,
/// indexed from bytes at build time).
pub fn match_contig(
    contig_idx: u32,
    contigs: &[PackedSeq],
    welds: &WeldKmerIndex,
    _cfg: &ChrysalisConfig,
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

/// Flatten matches for the packed-integer MPI exchange.
pub fn pack_matches(matches: &[(u32, u32)]) -> Vec<u32> {
    let mut v = Vec::with_capacity(matches.len() * 2);
    for &(w, c) in matches {
        v.push(w);
        v.push(c);
    }
    v
}

/// Inverse of [`pack_matches`]. `None` on odd-length input.
pub fn unpack_matches(flat: &[u32]) -> Option<Vec<(u32, u32)>> {
    if flat.len() % 2 != 0 {
        return None;
    }
    Some(flat.chunks_exact(2).map(|c| (c[0], c[1])).collect())
}

/// The packed-integer wire form of a `(u32, u32)` list — loop-2 matches
/// and read assignments both cross ranks this way.
pub(crate) fn pack_pairs(pairs: &[(u32, u32)]) -> Vec<u8> {
    mpisim::pack::pack_u32s(&pack_matches(pairs))
}

/// Inverse of [`pack_pairs`] for a buffer a peer rank packed.
pub(crate) fn unpack_pairs(buf: &[u8]) -> Vec<(u32, u32)> {
    mpisim::pack::unpack_u32s(buf)
        .and_then(|flat| unpack_matches(&flat))
        .expect("peer sent whole (u32, u32) pairs")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weld::canonical_weld;
    use seqio::alphabet::revcomp;

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
    fn junction_weld() -> Vec<u8> {
        canonical_weld(&[&A_LEFT[A_LEFT.len() - K / 2..], SEED, &B_RIGHT[..K / 2]].concat())
    }

    fn fixtures() -> (Vec<PackedSeq>, WeldKmerIndex, ChrysalisConfig) {
        let contigs = seqio::packed::encode_all(&[
            contig_a(),
            contig_b(),
            b"TTTTGGGGCCCCAAAATTTTGGGGCCCC".to_vec(),
        ]);
        let welds = WeldKmerIndex::build(&[junction_weld()], K);
        (contigs, welds, ChrysalisConfig::small(K))
    }

    #[test]
    fn index_dedups_and_counts() {
        let w1 = junction_weld();
        let idx = WeldKmerIndex::build(&[w1.clone(), w1.clone()], K);
        assert_eq!(idx.len(), 1);
        assert!(!idx.is_empty());
        let empty = WeldKmerIndex::build(&[], K);
        assert!(empty.is_empty());
    }

    #[test]
    fn both_parent_contigs_match_the_weld() {
        let (contigs, welds, cfg) = fixtures();
        let m0 = match_contig(0, &contigs, &welds, &cfg);
        let m1 = match_contig(1, &contigs, &welds, &cfg);
        let m2 = match_contig(2, &contigs, &welds, &cfg);
        assert_eq!(m0, vec![(0, 0)], "contig a matches through its left half");
        assert_eq!(m1, vec![(0, 1)], "contig b matches through its right half");
        assert!(m2.is_empty(), "unrelated contig matches nothing");
    }

    #[test]
    fn revcomp_contig_still_matches() {
        let (mut contigs, welds, cfg) = fixtures();
        contigs[1] = PackedSeq::from_bytes(&revcomp(&contig_b()));
        let m1 = match_contig(1, &contigs, &welds, &cfg);
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
        let (contigs, welds, cfg) = fixtures();
        let mut matches = Vec::new();
        for i in 0..contigs.len() as u32 {
            matches.extend(match_contig(i, &contigs, &welds, &cfg));
        }
        assert_eq!(pairs_from_matches(&matches), vec![(0, 1)]);
    }

    #[test]
    fn pack_round_trip() {
        let matches = vec![(3u32, 9u32), (1, 2)];
        let flat = pack_matches(&matches);
        assert_eq!(flat, vec![3, 9, 1, 2]);
        assert_eq!(unpack_matches(&flat).unwrap(), matches);
        assert!(unpack_matches(&[1, 2, 3]).is_none());
    }

    #[test]
    fn short_contig_no_matches() {
        let (_, welds, cfg) = fixtures();
        let short = vec![PackedSeq::from_bytes(b"ACGT")];
        assert!(match_contig(0, &short, &welds, &cfg).is_empty());
    }
}
