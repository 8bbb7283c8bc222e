//! The owner-partitioned table: the key space split over `2^b` owners,
//! each a plain [`PackedKmerTable`], queried as one table.

use crate::mix64;
use crate::table::PackedKmerTable;

/// The owner partition of the packed-k-mer key space: `2^bits` owners, a
/// key's owner being the *top* bits of [`mix64`]. A table picks its slot
/// from the *low* bits of the same hash, so which owner holds a key says
/// nothing about where it probes inside that owner's table — an owner's
/// keys spread over its slots as evenly as the whole key set would.
///
/// This is the routing function of every owner-routed build (in memory,
/// and — the unit a later `alltoallv` would distribute — across ranks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Owners {
    bits: u32,
}

impl Owners {
    /// A partition into `owners` owners (rounded up to a power of two,
    /// min 1).
    pub fn new(owners: usize) -> Self {
        Owners {
            bits: owners.max(1).next_power_of_two().trailing_zeros(),
        }
    }

    /// Number of owners (a power of two).
    pub fn count(self) -> usize {
        1 << self.bits
    }

    /// Owner of `key`.
    #[inline(always)]
    pub fn of(self, key: u64) -> usize {
        if self.bits == 0 {
            0
        } else {
            self.of_hash(mix64(key))
        }
    }

    /// Owner of the key whose [`mix64`] is `hash`.
    #[inline(always)]
    fn of_hash(self, hash: u64) -> usize {
        // Two shifts: `hash >> 64`, the one-owner case, would overflow.
        ((hash >> 1) >> (63 - self.bits)) as usize
    }
}

/// A frozen, lock-free partition of [`PackedKmerTable`]s over [`Owners`],
/// answering lookups as one table: a key is hashed once, the top bits of
/// the hash pick the owner and the low bits the slot inside it.
///
/// This is the form an owner-routed build *leaves* its result in — the
/// disjoint owner tables are adopted as they are
/// ([`from_owners`](Self::from_owners)), never concatenated. A one-owner
/// partition is the plain table ([`From<PackedKmerTable>`]).
///
/// Slots are numbered densely across owners: owner `o` holds global slots
/// `base[o]..base[o + 1]`, its table's own slot `s` being `base[o] + s`
/// (each owner has `capacity() + 1` of them, the last for the out-of-line
/// all-T 32-mer), so per-key side data lives in one array of
/// [`slots`](Self::slots) entries.
///
/// # Examples
///
/// ```
/// use kmertable::{Owners, PackedKmerTable, PartitionedKmerTable};
///
/// let owners = Owners::new(4);
/// let mut tables = vec![PackedKmerTable::new(); owners.count()];
/// for kmer in 0..100u64 {
///     tables[owners.of(kmer)].add(kmer, 2); // what an owner-routed build does
/// }
/// let table = PartitionedKmerTable::from_owners(tables);
/// assert_eq!(table.len(), 100);
/// assert_eq!(table.get(42), Some(2));
/// let (slot, count) = table.find(42).unwrap();
/// assert!(slot < table.slots() && count == 2);
/// ```
#[derive(Debug, Clone)]
pub struct PartitionedKmerTable {
    owners: Owners,
    tables: Vec<PackedKmerTable>,
    /// `base[o]` is owner `o`'s first global slot; `base[owners]` the total.
    base: Vec<usize>,
}

impl From<PackedKmerTable> for PartitionedKmerTable {
    /// The one-owner partition: the plain table, slots numbered as its own.
    fn from(table: PackedKmerTable) -> Self {
        Self::from_owners(vec![table])
    }
}

impl PartitionedKmerTable {
    /// Adopt owner tables built elsewhere: table `i` must hold exactly the
    /// keys `Owners::new(n).of(key) == i` of an `n`-owner partition.
    ///
    /// # Panics
    ///
    /// If the number of tables is not a power of two.
    pub fn from_owners(tables: Vec<PackedKmerTable>) -> Self {
        let owners = Owners::new(tables.len());
        assert_eq!(owners.count(), tables.len(), "one table per owner");
        let mut partition = PartitionedKmerTable {
            owners,
            tables,
            base: Vec::new(),
        };
        partition.renumber();
        partition
    }

    /// Recompute the slot numbering after owner tables changed size.
    fn renumber(&mut self) {
        self.base.clear();
        self.base.push(0);
        let mut next = 0;
        for table in &self.tables {
            debug_assert!(table
                .iter()
                .all(|(k, _)| self.owners.of(k) == self.base.len() - 1));
            next += table.capacity() + 1;
            self.base.push(next);
        }
    }

    /// The owner tables, in owner order.
    pub fn owners(&self) -> &[PackedKmerTable] {
        &self.tables
    }

    /// Rewrite the owner tables in place — `f` may filter or rebuild each
    /// one but must leave every key with its owner — and renumber the
    /// slots afterwards. What a per-owner finalisation loop goes through.
    pub fn update_owners<R>(&mut self, f: impl FnOnce(&mut [PackedKmerTable]) -> R) -> R {
        let result = f(&mut self.tables);
        self.renumber();
        result
    }

    /// Total distinct keys across owners.
    pub fn len(&self) -> usize {
        self.tables.iter().map(PackedKmerTable::len).sum()
    }

    /// True if every owner is empty.
    pub fn is_empty(&self) -> bool {
        self.tables.iter().all(PackedKmerTable::is_empty)
    }

    /// Exclusive upper bound of the slots [`find`](Self::find) reports.
    pub fn slots(&self) -> usize {
        self.base[self.tables.len()]
    }

    /// Value of `key`, if present.
    #[inline(always)]
    pub fn get(&self, key: u64) -> Option<u32> {
        self.get_with_owner(key).map(|(_, v)| v)
    }

    /// Owner and value of `key`, if present — for callers that keep side
    /// data per owner, indexed by the value.
    #[inline(always)]
    pub fn get_with_owner(&self, key: u64) -> Option<(usize, u32)> {
        let hash = mix64(key);
        let owner = self.owners.of_hash(hash);
        self.tables[owner]
            .find_hashed(key, hash)
            .map(|(_, v)| (owner, v))
    }

    /// Global slot and value of `key`, if present. Slots are distinct per
    /// key, below [`slots`](Self::slots), and stable until the table is
    /// next modified.
    #[inline(always)]
    pub fn find(&self, key: u64) -> Option<(usize, u32)> {
        let hash = mix64(key);
        let owner = self.owners.of_hash(hash);
        self.tables[owner]
            .find_hashed(key, hash)
            .map(|(slot, v)| (self.base[owner] + slot, v))
    }

    /// [`find`](Self::find) for several keys at once: every key's home
    /// slot — whichever owner it lies in — is read before any is examined,
    /// so the cache misses overlap (see [`PackedKmerTable::find_each`]).
    #[inline(always)]
    pub fn find_each<const N: usize>(&self, keys: [u64; N]) -> [Option<(usize, u32)>; N] {
        // Plain indexed loops: on Inchworm's walk, which is one long chain
        // of these calls, they compile tighter than `array::map`/`from_fn`.
        let mut hashes = [0u64; N];
        let mut owners = [0usize; N];
        let mut tables = [&self.tables[0]; N];
        let mut homes = [(0u64, 0u32); N];
        for j in 0..N {
            hashes[j] = mix64(keys[j]);
            owners[j] = self.owners.of_hash(hashes[j]);
            tables[j] = &self.tables[owners[j]];
            homes[j] = tables[j].home(hashes[j]);
        }
        let mut found = [None; N];
        for j in 0..N {
            found[j] = tables[j]
                .find_from_home(keys[j], hashes[j], homes[j])
                .map(|(slot, v)| (self.base[owners[j]] + slot, v));
        }
        found
    }

    /// Add `delta` to the count of `key` in its owner's table (insert at
    /// `delta` if absent; saturating). Renumbers the slots if that table
    /// grew.
    pub fn add(&mut self, key: u64, delta: u32) {
        let table = &mut self.tables[self.owners.of(key)];
        let capacity = table.capacity();
        table.add(key, delta);
        if table.capacity() != capacity {
            self.renumber();
        }
    }

    /// Iterate `(packed key, value)`, owner by owner, in unspecified order
    /// within an owner.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.tables.iter().flat_map(PackedKmerTable::iter)
    }

    /// Iterate `(global slot, packed key, value)` in slot order — each
    /// entry with the slot [`find`](Self::find) reports for its key.
    pub fn iter_slots(&self) -> impl Iterator<Item = (usize, u64, u32)> + '_ {
        (0..self.tables.len()).flat_map(|o| self.owner_slots(o))
    }

    /// [`iter_slots`](Self::iter_slots) of owner `o`'s table alone: its
    /// entries with their global slots — what a loop over owners reads.
    pub fn owner_slots(&self, o: usize) -> impl Iterator<Item = (usize, u64, u32)> + '_ {
        let base = self.base[o];
        self.tables[o]
            .iter_slots()
            .map(move |(slot, k, v)| (base + slot, k, v))
    }

    /// Record the table's aggregate health into `registry` under `prefix`:
    /// `{prefix}.entries`/`{prefix}.capacity` gauges sum over owners,
    /// `{prefix}.load_factor` is the whole-table ratio, and
    /// `{prefix}.probe_len` collects every owner's per-key displacements
    /// into one histogram. Snapshot gauges overwrite on re-recording; only
    /// the histogram accumulates.
    pub fn record_metrics(&self, registry: &obs::MetricsRegistry, prefix: &str) {
        let mut entries = 0u64;
        let mut capacity = 0u64;
        let hist = registry.histogram(format!("{prefix}.probe_len"));
        for table in &self.tables {
            entries += table.len() as u64;
            capacity += table.capacity() as u64;
            hist.record_all(table.probe_lengths());
        }
        registry
            .gauge(format!("{prefix}.entries"))
            .set(entries as f64);
        registry
            .gauge(format!("{prefix}.capacity"))
            .set(capacity as f64);
        registry
            .gauge(format!("{prefix}.load_factor"))
            .set(if capacity == 0 {
                0.0
            } else {
                entries as f64 / capacity as f64
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn built(owners: usize, keys: impl Iterator<Item = u64>) -> PartitionedKmerTable {
        let partition = Owners::new(owners);
        let mut tables = vec![PackedKmerTable::new(); partition.count()];
        for k in keys {
            tables[partition.of(k)].add(k, 2);
        }
        PartitionedKmerTable::from_owners(tables)
    }

    #[test]
    fn owner_is_the_top_hash_bits() {
        assert_eq!(Owners::new(0).count(), 1);
        assert_eq!(Owners::new(5).count(), 8);
        assert_eq!(Owners::new(1).of(12345), 0);
        for owners in [2usize, 8, 64] {
            let partition = Owners::new(owners);
            for k in (0..500u64).chain([u64::MAX]) {
                let bits = owners.trailing_zeros();
                assert_eq!(partition.of(k), (mix64(k) >> (64 - bits)) as usize);
                assert_eq!(partition.of_hash(mix64(k)), partition.of(k));
            }
        }
    }

    #[test]
    fn one_owner_is_the_plain_table() {
        let mut plain = PackedKmerTable::new();
        for k in (0..300u64).chain([u64::MAX]) {
            plain.add(k, (k as u32).wrapping_add(7));
        }
        let one = PartitionedKmerTable::from(plain.clone());
        assert_eq!(one.owners().len(), 1);
        assert_eq!(one.slots(), plain.capacity() + 1);
        for k in (0..400u64).chain([u64::MAX]) {
            assert_eq!(one.find(k), plain.find(k), "key {k}");
        }
        assert!(one.iter_slots().eq(plain.iter_slots()));
        let empty = PartitionedKmerTable::from(PackedKmerTable::new());
        assert!(empty.is_empty());
        assert_eq!(empty.find(u64::MAX), None);
    }

    #[test]
    fn global_slots_are_dense_distinct_and_in_iteration_order() {
        let t = built(8, (0..3000u64).chain([u64::MAX]));
        assert_eq!(t.len(), 3001);
        let capacity: usize = t.owners().iter().map(PackedKmerTable::capacity).sum();
        assert_eq!(t.slots(), capacity + 8);
        let slots: Vec<usize> = t.iter_slots().map(|(slot, _, _)| slot).collect();
        assert_eq!(slots.len(), 3001);
        assert!(slots.windows(2).all(|w| w[0] < w[1]));
        assert!(slots.iter().all(|&s| s < t.slots()));
        for (slot, k, v) in t.iter_slots() {
            assert_eq!(t.find(k), Some((slot, v)));
        }
        let by_owner = (0..8).flat_map(|o| t.owner_slots(o));
        assert!(by_owner.eq(t.iter_slots()));
        assert!(t.owner_slots(3).all(|(_, k, _)| Owners::new(8).of(k) == 3));
    }

    #[test]
    fn find_each_agrees_with_find_across_owners() {
        let t = built(8, (0..400u64).map(|k| k.wrapping_mul(3)).chain([u64::MAX]));
        for base in 0..1200u64 {
            let keys = [
                base,
                base + 1,
                u64::MAX,
                base.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ];
            assert_eq!(t.find_each(keys), keys.map(|k| t.find(k)));
        }
        let empty = PartitionedKmerTable::from_owners(vec![PackedKmerTable::new(); 4]);
        assert_eq!(empty.find_each([3, u64::MAX]), [None, None]);
    }

    #[test]
    fn add_routes_to_the_owner_and_renumbers_on_growth() {
        let mut t = PartitionedKmerTable::from_owners(vec![PackedKmerTable::new(); 4]);
        for k in 0..2000u64 {
            t.add(k, 1);
            t.add(k, 2);
        }
        assert_eq!(t.len(), 2000);
        let mut slots: Vec<usize> = (0..2000u64)
            .map(|k| {
                let (slot, v) = t.find(k).unwrap();
                assert_eq!(v, 3);
                slot
            })
            .collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), 2000);
        assert!(slots.iter().all(|&s| s < t.slots()));
    }

    #[test]
    fn update_owners_filters_per_owner() {
        let mut t = built(8, 0..1000u64);
        let before = t.slots();
        t.update_owners(|tables| {
            for table in tables {
                table.retain(|k, _| k % 4 == 0);
            }
        });
        assert_eq!(t.len(), 250);
        assert!(t.slots() < before);
        assert_eq!(t.get(8), Some(2));
        assert_eq!(t.get(9), None);
        for (slot, k, v) in t.iter_slots() {
            assert_eq!(t.find(k), Some((slot, v)));
        }
    }

    #[test]
    fn adopted_shards_answer_like_built_ones() {
        let owners = Owners::new(8);
        let mut tables = vec![PackedKmerTable::new(); owners.count()];
        for k in (0..3000u64).chain([u64::MAX]) {
            tables[owners.of(k)].add(k, 2);
        }
        let capacities: Vec<usize> = tables.iter().map(PackedKmerTable::capacity).collect();
        let t = PartitionedKmerTable::from_owners(tables);
        assert_eq!(t.len(), 3001);
        // Adopted, not rebuilt: every owner is the table it was.
        let adopted: Vec<usize> = t.owners().iter().map(PackedKmerTable::capacity).collect();
        assert_eq!(adopted, capacities);
        assert!((0..3000u64).all(|k| t.get(k) == Some(2)));
        assert_eq!(t.get(u64::MAX), Some(2));
    }

    #[test]
    fn merge_of_empty_is_empty() {
        let t = PartitionedKmerTable::from_owners(vec![PackedKmerTable::new(); 4]);
        assert!(t.is_empty());
        assert_eq!(t.owners().len(), 4);
        assert_eq!(t.iter().count(), 0);
    }

    #[test]
    fn metrics_aggregate_over_owners() {
        let t = built(4, 0..800u64);
        let reg = obs::MetricsRegistry::new();
        t.record_metrics(&reg, "jf");
        // Re-recording must overwrite the snapshot gauges, not add to them.
        t.record_metrics(&reg, "jf");
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("jf.entries"), Some(800.0));
        let lf = snap.gauge("jf.load_factor").unwrap();
        assert!(lf > 0.0 && lf <= 0.5, "whole-table load factor {lf}");
        assert_eq!(snap.histogram("jf.probe_len").unwrap().count, 1600);
    }

    #[test]
    #[should_panic(expected = "one table per owner")]
    fn owner_count_must_be_a_power_of_two() {
        PartitionedKmerTable::from_owners(vec![PackedKmerTable::new(); 3]);
    }
}
