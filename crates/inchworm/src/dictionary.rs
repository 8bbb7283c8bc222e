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
use seqio::par::{map_pieces, par_map, scatter, Splitters, BUCKETS};

/// A dictionary entry as one integer whose order is the seeding order: its
/// count complemented (counts descend), its packed k-mer (k-mer order at
/// equal k), then its table slot. The k-mers are distinct, so the order is
/// total and an unstable sort of the integers is deterministic.
fn record((slot, packed, count): (usize, u64, u32)) -> u128 {
    let slot = u32::try_from(slot).expect("tables index their values by u32");
    (u128::from(!count) << 96) | (u128::from(packed) << 32) | u128::from(slot)
}

/// A [`record`]'s `(packed k-mer, slot, count)`.
fn fields(record: u128) -> (u64, usize, u32) {
    let count = !((record >> 96) as u32);
    ((record >> 32) as u64, record as u32 as usize, count)
}

/// The splitter sort's lead of a [`record`]: its leading 64 bits with the
/// k-mer left-aligned — the count, then the k-mer's first 16 bases.
/// Coarser than the record, but never against its order, which is all a
/// bucket boundary needs.
fn lead(k: usize, record: u128) -> u64 {
    let (packed, _, count) = fields(record);
    (u64::from(!count) << 32) | ((packed << (64 - 2 * k)) >> 32)
}

/// The [`record`]s of `counts` in seeding order, or `None` if an entry
/// fails `valid`. A splitter sort in three loops on `par`, writing one
/// array:
///
/// 1. per owner: check every entry and count how many fall in each bucket —
///    the buckets split by records drawn from owner 0, which is a uniform
///    sample because owners are hash partitions;
/// 2. per owner: write each entry into its bucket's share for that owner
///    ([`scatter`]);
/// 3. per bucket: sort in place. The buckets are in order, so the array is
///    sorted.
fn seeding_order(
    k: usize,
    counts: &PartitionedKmerTable,
    par: &mut impl FnMut(usize, &(dyn Fn(usize) + Sync)),
    valid: impl Fn(u64, u32) -> bool + Sync,
) -> Option<Vec<u128>> {
    let owners = counts.owners().len();
    let stride = counts.owners()[0].len().div_ceil(BUCKETS * BUCKETS).max(1);
    let sample = counts.owner_slots(0).step_by(stride);
    let splitters = Splitters::new(sample.map(|entry| lead(k, record(entry))));
    let bucket = |r: u128| splitters.bucket(lead(k, r));

    let tallies = par_map(par, owners, |o| {
        let mut tally = [0usize; BUCKETS];
        for (slot, packed, count) in counts.owner_slots(o) {
            if !valid(packed, count) {
                return None;
            }
            tally[bucket(record((slot, packed, count)))] += 1;
        }
        Some(tally)
    });
    let tallies: Vec<[usize; BUCKETS]> = tallies.into_iter().collect::<Option<_>>()?;

    // Zeroed, so its pages are first written by the scatter loop.
    let mut sorted = vec![0u128; counts.len()];
    let bucket_lens = scatter(&mut sorted, &tallies, par, |o, shares| {
        for entry in counts.owner_slots(o) {
            let r = record(entry);
            shares.put(bucket(r), r);
        }
    });
    map_pieces(&mut sorted, bucket_lens.into_iter(), par, |_, bucket| {
        bucket.sort_unstable()
    });
    Some(sorted)
}

/// Abundance-sorted dictionary over canonical k-mers.
#[derive(Debug, Clone)]
pub struct Dictionary {
    k: usize,
    /// Canonical packed k-mers in decreasing-count order (ties: k-mer
    /// order), each with its slot in `counts`, as [`record`]s.
    sorted: Vec<u128>,
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
        Self::from_counts_on(table, min_count, &mut seqio::par::sequential)
    }

    /// [`from_counts`](Self::from_counts) with the seeding-order sort's
    /// loops run by `par` (see the crate docs): the first of them also
    /// checks whether the table can be adopted.
    pub fn from_counts_on(
        table: KmerCounts,
        min_count: u32,
        par: &mut impl FnMut(usize, &(dyn Fn(usize) + Sync)),
    ) -> Self {
        let k = table.k();
        let canonical = |p: u64| Kmer::from_packed_unchecked(p, k).canonical().packed();
        let mut counts = table.into_partition();
        let adoptable = |p: u64, c: u32| c >= min_count && canonical(p) == p;
        let sorted = seeding_order(k, &counts, par, adoptable).unwrap_or_else(|| {
            let mut merged = PackedKmerTable::with_capacity(counts.len());
            for (p, c) in counts.iter().filter(|&(_, c)| c >= min_count) {
                merged.add(canonical(p), c);
            }
            counts = merged.into();
            seeding_order(k, &counts, par, |_, _| true).expect("every entry is valid")
        });
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
        (0..self.sorted.len()).filter_map(|at| self.seed(at))
    }

    /// The `at`-th entry of [`Self::seeds`], if there is one.
    pub fn seed(&self, at: usize) -> Option<(Kmer, usize, u32)> {
        let (packed, slot, count) = fields(*self.sorted.get(at)?);
        Some((Kmer::from_packed_unchecked(packed, self.k), slot, count))
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
    fn splitter_sort_is_the_full_sort_in_any_loop_order() {
        // Enough distinct k-mers that every one of the 64 owners holds
        // some and the buckets are not trivially one.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let read: Vec<u8> = (0..6000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                b"ACGT"[(state >> 62) as usize]
            })
            .collect();
        let reads = [
            read.clone(),
            read[..3000].to_vec(),
            read[1000..2000].to_vec(),
        ];
        let counts = count_kmers(&reads, CounterConfig::new(11));
        assert!(counts.len() > 4000);
        let table = counts.clone().into_partition();
        let mut expect: Vec<(u64, usize, u32)> =
            table.iter_slots().map(|(s, p, c)| (p, s, c)).collect();
        expect.sort_unstable_by_key(|&(packed, _, count)| (std::cmp::Reverse(count), packed));
        let reversed = &mut |n: usize, body: &(dyn Fn(usize) + Sync)| (0..n).rev().for_each(body);
        for dict in [
            Dictionary::from_counts(counts.clone(), 1),
            Dictionary::from_counts_on(counts.clone(), 1, reversed),
        ] {
            let got: Vec<(u64, usize, u32)> =
                dict.seeds().map(|(km, s, c)| (km.packed(), s, c)).collect();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn k_is_propagated() {
        let d = dict_of(&[b"ACGTACGT"], 5, 1);
        assert_eq!(d.k(), 5);
    }
}
