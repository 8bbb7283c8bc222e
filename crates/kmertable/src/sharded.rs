//! The owner-partitioned table: the key space split over `S` owners, each
//! a plain [`PackedKmerTable`].

use parking_lot::Mutex;

use crate::mix64;
use crate::table::PackedKmerTable;

/// The owner partition of the packed-k-mer key space: `2^bits` owners, a
/// key's owner being the *top* bits of [`mix64`]. A table picks its slot
/// from the *low* bits of the same hash, so which owner holds a key says
/// nothing about where it probes inside that owner's table — an owner's
/// keys spread over its slots as evenly as the whole key set would.
///
/// This is the routing function of every owner-routed build (in memory,
/// to DSK's partition files, and — the unit a later `alltoallv` would
/// distribute — across ranks).
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
            (mix64(key) >> (64 - self.bits)) as usize
        }
    }
}

/// A k-mer table partitioned over [`Owners`], each shard a plain
/// [`PackedKmerTable`] behind a mutex.
///
/// Two ways in: an owner-routed build hands over finished, disjoint owner
/// tables ([`from_shards`](Self::from_shards)) and never takes a lock;
/// concurrent writers that have not routed their keys use
/// [`add`](Self::add) / [`absorb`](Self::absorb), one lock per call or per
/// touched shard. Either way [`into_merged`](Self::into_merged)
/// concatenates the shards into one table sized once for the total.
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
/// assert_eq!(table.into_merged().len(), 100);
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
        let mut entries = 0u64;
        let mut capacity = 0u64;
        let hist = registry.histogram(format!("{prefix}.probe_len"));
        for shard in &self.shards {
            let shard = shard.lock();
            entries += shard.len() as u64;
            capacity += shard.capacity() as u64;
            for d in shard.probe_lengths() {
                hist.record(d);
            }
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

    /// Concatenate all shards into one owned table, sized once for the
    /// total. Shards are disjoint by construction, so every entry is moved
    /// exactly once and nothing is re-counted or rehashed twice.
    pub fn into_merged(self) -> PackedKmerTable {
        let mut shards: Vec<PackedKmerTable> =
            self.shards.into_iter().map(Mutex::into_inner).collect();
        if shards.len() == 1 {
            return shards.remove(0);
        }
        let mut merged = PackedKmerTable::with_capacity(shards.iter().map(|s| s.len()).sum());
        for shard in shards {
            for (k, v) in shard.iter() {
                merged.insert(k, v);
            }
        }
        merged
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
        let merged = t.into_merged();
        assert_eq!(merged.len(), 500);
        for k in 0..500u64 {
            assert_eq!(merged.get(k), Some(6));
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
        let merged = t.into_merged();
        assert_eq!(merged.len(), 3001);
        // Sized once: the concatenation never grew past the first allocation.
        assert_eq!(
            merged.capacity(),
            PackedKmerTable::with_capacity(3001).capacity()
        );
        assert!((0..3000u64).all(|k| merged.get(k) == Some(2)));
    }

    #[test]
    fn merge_of_empty_is_empty() {
        assert!(ShardedKmerTable::new(4).into_merged().is_empty());
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
