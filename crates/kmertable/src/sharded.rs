//! The owner-partitioned table while unrouted writers share it: one
//! [`PackedKmerTable`] per owner, each behind a mutex.

use parking_lot::Mutex;

use crate::partitioned::{record_owner_metrics, Owners, PartitionedKmerTable};
use crate::table::PackedKmerTable;

/// A k-mer table partitioned over [`Owners`], each shard a plain
/// [`PackedKmerTable`] behind a mutex.
///
/// For concurrent writers that have not routed their keys:
/// [`add`](Self::add) / [`absorb`](Self::absorb) take one lock per call or
/// per touched shard. An owner-routed build never needs it — its owners are
/// disjoint by construction and go straight to
/// [`PartitionedKmerTable::from_owners`]. When the writers are done,
/// [`freeze`](Self::freeze) drops the locks and hands the same shards over
/// as that lock-free form; nothing is copied.
///
/// # Examples
///
/// ```
/// use kmertable::ShardedKmerTable;
///
/// let table = ShardedKmerTable::new(8);
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         s.spawn(|| {
///             for kmer in 0..100u64 {
///                 table.add(kmer, 1); // concurrent counting
///             }
///         });
///     }
/// });
/// assert_eq!(table.get(42), Some(4));
/// assert_eq!(table.freeze().len(), 100);
/// ```
#[derive(Debug)]
pub struct ShardedKmerTable {
    shards: Vec<Mutex<PackedKmerTable>>,
    owners: Owners,
}

impl ShardedKmerTable {
    /// A table with `shards` shards (rounded up to a power of two, min 1).
    pub fn new(shards: usize) -> Self {
        let owners = Owners::new(shards);
        Self::from_shards((0..owners.count()).map(|_| PackedKmerTable::new()))
    }

    /// Adopt owner tables built elsewhere: table `i` must hold exactly the
    /// keys `Owners::new(n).of(key) == i` of an `n`-owner partition.
    ///
    /// # Panics
    ///
    /// If the number of tables is not a power of two.
    pub fn from_shards(tables: impl IntoIterator<Item = PackedKmerTable>) -> Self {
        let shards: Vec<_> = tables.into_iter().map(Mutex::new).collect();
        let owners = Owners::new(shards.len());
        assert_eq!(owners.count(), shards.len(), "one table per owner");
        ShardedKmerTable { shards, owners }
    }

    /// Number of shards (a power of two).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard index of a key: its owner under [`Owners`].
    #[inline(always)]
    pub fn shard_of(&self, key: u64) -> usize {
        self.owners.of(key)
    }

    /// Add `delta` to `key`'s count (locks one shard).
    pub fn add(&self, key: u64, delta: u32) {
        self.shards[self.shard_of(key)].lock().add(key, delta);
    }

    /// Current count of `key` (locks one shard).
    pub fn get(&self, key: u64) -> Option<u32> {
        self.shards[self.shard_of(key)].lock().get(key)
    }

    /// Flush a thread-local staging table into the shared shards, grouping
    /// entries per shard so each lock is taken once per flush.
    pub fn absorb(&self, local: &PackedKmerTable) {
        if local.is_empty() {
            return;
        }
        let mut grouped: Vec<Vec<(u64, u32)>> = vec![Vec::new(); self.shards.len()];
        for (k, v) in local.iter() {
            grouped[self.shard_of(k)].push((k, v));
        }
        for (si, entries) in grouped.into_iter().enumerate() {
            if entries.is_empty() {
                continue;
            }
            let mut shard = self.shards[si].lock();
            shard.reserve(entries.len());
            for (k, v) in entries {
                shard.add(k, v);
            }
        }
    }

    /// Total distinct keys across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// True if every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record the table's aggregate health into `registry` under `prefix`:
    /// `{prefix}.entries`/`{prefix}.capacity` gauges sum over shards,
    /// `{prefix}.load_factor` is the whole-table ratio, and
    /// `{prefix}.probe_len` collects every shard's per-key displacements
    /// into one histogram. Snapshot gauges overwrite on re-recording; only
    /// the histogram accumulates.
    pub fn record_metrics(&self, registry: &obs::MetricsRegistry, prefix: &str) {
        record_owner_metrics(self.shards.iter().map(|s| s.lock()), registry, prefix);
    }

    /// Drop the locks: the shards, as they are, become the owners of a
    /// [`PartitionedKmerTable`].
    pub fn freeze(self) -> PartitionedKmerTable {
        PartitionedKmerTable::from_owners(self.shards.into_iter().map(Mutex::into_inner).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedKmerTable::new(0).shards(), 1);
        assert_eq!(ShardedKmerTable::new(5).shards(), 8);
        assert_eq!(ShardedKmerTable::new(64).shards(), 64);
    }

    #[test]
    fn add_and_get_across_shards() {
        let t = ShardedKmerTable::new(8);
        for k in 0..1000u64 {
            t.add(k, 1);
            t.add(k, 1);
        }
        assert_eq!(t.len(), 1000);
        for k in 0..1000u64 {
            assert_eq!(t.get(k), Some(2));
        }
    }

    #[test]
    fn absorb_groups_by_shard() {
        let t = ShardedKmerTable::new(4);
        let mut local = PackedKmerTable::new();
        for k in 0..500u64 {
            local.add(k, 3);
        }
        t.absorb(&local);
        t.absorb(&local);
        let frozen = t.freeze();
        assert_eq!(frozen.len(), 500);
        for k in 0..500u64 {
            assert_eq!(frozen.get(k), Some(6));
        }
    }

    #[test]
    fn concurrent_counting_matches_serial() {
        let t = ShardedKmerTable::new(8);
        std::thread::scope(|s| {
            for _tid in 0..4 {
                let t = &t;
                s.spawn(move || {
                    // All threads hit the same keys to contend on shards.
                    for k in 0..2000u64 {
                        t.add(k, 1);
                    }
                });
            }
        });
        for k in 0..2000u64 {
            assert_eq!(t.get(k), Some(4), "key {k}");
        }
    }

    #[test]
    fn adopted_shards_answer_like_built_ones() {
        let owners = Owners::new(8);
        let mut tables = vec![PackedKmerTable::new(); owners.count()];
        for k in (0..3000u64).chain([u64::MAX]) {
            tables[owners.of(k)].add(k, 2);
        }
        let t = ShardedKmerTable::from_shards(tables);
        assert_eq!(t.len(), 3001);
        assert_eq!(t.get(17), Some(2));
        assert_eq!(t.get(u64::MAX), Some(2));
        let capacities: Vec<usize> = t.shards.iter().map(|s| s.lock().capacity()).collect();
        let frozen = t.freeze();
        assert_eq!(frozen.len(), 3001);
        // Adopted, not rebuilt: every owner is the shard it was.
        let adopted: Vec<usize> = frozen.owners().iter().map(|o| o.capacity()).collect();
        assert_eq!(adopted, capacities);
        assert!((0..3000u64).all(|k| frozen.get(k) == Some(2)));
        assert_eq!(frozen.get(u64::MAX), Some(2));
    }

    #[test]
    fn merge_of_empty_is_empty() {
        let frozen = ShardedKmerTable::new(4).freeze();
        assert!(frozen.is_empty());
        assert_eq!(frozen.owners().len(), 4);
        assert_eq!(frozen.iter().count(), 0);
    }

    #[test]
    fn sharded_metrics_aggregate() {
        let t = ShardedKmerTable::new(4);
        for k in 0..800u64 {
            t.add(k, 1);
        }
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
}
