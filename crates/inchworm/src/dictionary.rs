//! The abundance-sorted k-mer dictionary.
//!
//! "Inchworm constructs a hash table object consisting of pairs or duals …
//! subsequently sorted in order of decreasing k-mer abundance" (§II-A).
//! Keeping the whole table in memory is what gives Inchworm its large
//! footprint; we reproduce the structure (the footprint scales the same
//! way, just on smaller simulated datasets).

use kcount::counter::KmerCounts;
use kmertable::{PackedKmerTable, PartitionedKmerTable};
use seqio::kmer::Kmer;

/// A dictionary entry in seeding order.
#[derive(Debug, Clone, Copy)]
struct Seed {
    packed: u64,
    count: u32,
    slot: u32,
}

impl Seed {
    /// The seed record of one `iter_slots` entry.
    fn at((slot, packed, count): (usize, u64, u32)) -> Self {
        Seed {
            packed,
            count,
            slot: u32::try_from(slot).expect("tables index their values by u32"),
        }
    }
}

/// Abundance-sorted dictionary over canonical k-mers.
#[derive(Debug, Clone)]
pub struct Dictionary {
    k: usize,
    /// Canonical packed k-mers in decreasing-count order (ties: k-mer
    /// order), each with its slot in `counts`.
    sorted: Vec<Seed>,
    /// Canonical packed k-mer -> count, for O(1) extension lookups: the
    /// counting pass's owner tables as it left them. The open-addressing
    /// tables keep the greedy extension probes (4 per extension step, the
    /// Inchworm inner loop) SipHash-free, and the partition's global slot
    /// indices key the assembler's used-k-mer bitset.
    counts: PartitionedKmerTable,
}

impl Dictionary {
    /// Build from a (canonical) count table, dropping k-mers with count
    /// below `min_count` — the error-k-mer filter.
    ///
    /// A table that is already canonical and filtered — what the pipeline
    /// hands over — is adopted as is; anything else is strand-merged and
    /// filtered into a fresh table sized once for the input.
    pub fn from_counts(table: KmerCounts, min_count: u32) -> Self {
        let k = table.k();
        let canonical = |p: u64| Kmer::from_packed_unchecked(p, k).canonical().packed();
        let mut counts = table.into_partition();
        // One pass over the table builds the seed records and learns
        // whether it can be adopted.
        let mut adoptable = true;
        let mut sorted: Vec<Seed> = Vec::with_capacity(counts.len());
        sorted.extend(
            counts
                .iter_slots()
                .inspect(|&(_, p, c)| adoptable &= c >= min_count && canonical(p) == p)
                .map(Seed::at),
        );
        if !adoptable {
            let mut merged = PackedKmerTable::with_capacity(counts.len());
            for (p, c) in counts.iter().filter(|&(_, c)| c >= min_count) {
                merged.add(canonical(p), c);
            }
            counts = merged.into();
            sorted = counts.iter_slots().map(Seed::at).collect();
        }
        // Total order over distinct (kmer, count) pairs — unstable sort is
        // deterministic here and skips the merge-sort allocation. Packed
        // order is k-mer order at equal k.
        sorted.sort_unstable_by(|a, b| b.count.cmp(&a.count).then(a.packed.cmp(&b.packed)));
        Dictionary { k, sorted, counts }
    }

    /// Give the (canonical, filtered) count table back.
    pub fn into_counts(self) -> KmerCounts {
        KmerCounts::from_partition(self.k, self.counts)
    }

    /// Word size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of distinct (canonical) k-mers.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Count of `km` (any strand; canonicalized internally). 0 if absent.
    #[inline]
    pub fn count(&self, km: Kmer) -> u32 {
        self.counts.get(km.canonical().packed()).unwrap_or(0)
    }

    /// Table slot and count of each of the four neighbours of a k-mer (any
    /// strand), if present, looked up together. Slots are distinct per
    /// canonical k-mer and below [`Self::slots`].
    #[inline]
    pub fn find_each(&self, kms: [Kmer; 4]) -> [Option<(usize, u32)>; 4] {
        self.counts.find_each(kms.map(|km| km.canonical().packed()))
    }

    /// Exclusive upper bound of the slots [`Self::find_each`] returns.
    pub fn slots(&self) -> usize {
        self.counts.slots()
    }

    /// Iterate k-mers in decreasing-abundance order.
    #[cfg(test)]
    fn iter_by_abundance(&self) -> impl Iterator<Item = (Kmer, u32)> + '_ {
        self.seeds().map(|(km, _, count)| (km, count))
    }

    /// The k-mers in decreasing-abundance order, each with its slot (what
    /// [`Self::find_each`] would report): `(kmer, slot, count)`.
    pub fn seeds(&self) -> impl Iterator<Item = (Kmer, usize, u32)> + '_ {
        let k = self.k;
        self.sorted.iter().map(move |s| {
            (
                Kmer::from_packed_unchecked(s.packed, k),
                s.slot as usize,
                s.count,
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcount::counter::{count_kmers, CounterConfig};

    fn dict_of(reads: &[&[u8]], k: usize, min: u32) -> Dictionary {
        let table = count_kmers(reads, CounterConfig::new(k));
        Dictionary::from_counts(table, min)
    }

    #[test]
    fn sorted_decreasing() {
        let d = dict_of(&[b"AAAAAAAACGTCGT"], 4, 1);
        let v: Vec<u32> = d.iter_by_abundance().map(|(_, c)| c).collect();
        for w in v.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(!d.is_empty());
    }

    #[test]
    fn tie_order_is_pinned() {
        // Every k-mer here is unique (count 1), so the whole order is
        // decided by the tie-break. The comparator is a total order, which
        // is what makes the unstable sort deterministic.
        let d = dict_of(&[b"ACGTCCAGTTGAC"], 6, 1);
        let v: Vec<u64> = d.iter_by_abundance().map(|(km, _)| km.packed()).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        assert_eq!(v, expect, "equal counts fall back to ascending k-mer order");
    }

    #[test]
    fn min_count_filters() {
        let all = dict_of(&[b"AAAAAACGT"], 4, 1);
        let filtered = dict_of(&[b"AAAAAACGT"], 4, 2);
        assert!(filtered.len() < all.len());
    }

    #[test]
    fn count_is_strand_agnostic() {
        let d = dict_of(&[b"AAAA"], 4, 1);
        assert_eq!(d.count(Kmer::from_bases(b"AAAA").unwrap()), 1);
        assert_eq!(d.count(Kmer::from_bases(b"TTTT").unwrap()), 1);
        assert_eq!(d.count(Kmer::from_bases(b"ACAC").unwrap()), 0);
    }

    #[test]
    fn adopted_and_rebuilt_tables_agree() {
        // Canonical + already filtered: adopted. Non-canonical or holding
        // sub-threshold k-mers: rebuilt. Same dictionary either way.
        let reads: [&[u8]; 2] = [b"AAAAAACGTTTTGGCA", b"TGCCAAAACG"];
        let adopted = dict_of(&reads, 5, 1);
        let plain = count_kmers(
            &reads,
            CounterConfig {
                canonical: false,
                ..CounterConfig::new(5)
            },
        );
        let rebuilt = Dictionary::from_counts(plain, 1);
        let order = |d: &Dictionary| d.iter_by_abundance().collect::<Vec<_>>();
        assert_eq!(order(&adopted), order(&rebuilt));
        let mut filtered = count_kmers(&reads, CounterConfig::new(5));
        filtered.retain_min(2);
        assert_eq!(
            order(&Dictionary::from_counts(filtered, 2)),
            order(&dict_of(&reads, 5, 2))
        );
        // The table goes back out as it is held.
        let back = dict_of(&reads, 5, 2).into_counts();
        assert_eq!(back.len(), dict_of(&reads, 5, 2).len());
        assert!(back.iter().all(|(_, c)| c >= 2));
    }

    #[test]
    fn k_is_propagated() {
        let d = dict_of(&[b"ACGTACGT"], 5, 1);
        assert_eq!(d.k(), 5);
    }
}
