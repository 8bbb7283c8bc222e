//! Owner-routed parallel k-mer counting.
//!
//! Jellyfish's core trick is a hash table specialised for packed k-mers;
//! we reproduce the behaviour with [`kmertable`]'s open-addressing tables.
//! The count itself is an owner-routed build ([`crate::routed`]): workers
//! roll canonical k-mers off read batches and route each to its owner,
//! owners count what they receive into their own [`PackedKmerTable`], and
//! the disjoint owner tables are the result, queried in place as a
//! [`PartitionedKmerTable`] — no SipHash, no per-entry boxing, no per-read
//! staging table, no lock on the counting path, no merge of partial counts
//! and no concatenated copy of the owners.

use kmertable::{Owners, PackedKmerTable, PartitionedKmerTable};
use omp::{Pool, Team};
use seqio::error::Result;
use seqio::kmer::Kmer;
use seqio::packed::PackedSeq;

use crate::routed::{for_each_owner, routed_build, OWNERS};

/// Configuration for a counting pass.
#[derive(Debug, Clone, Copy)]
pub struct CounterConfig {
    /// Word size (1..=32). Trinity uses 25.
    pub k: usize,
    /// Count canonical k-mers (min of forward/revcomp)? Trinity's
    /// double-stranded mode. Defaults to true.
    pub canonical: bool,
    /// Worker threads for the counting pass.
    pub threads: usize,
    /// Number of owners the k-mer space is partitioned into (rounded up to
    /// a power of two).
    pub shards: usize,
}

impl CounterConfig {
    /// Sensible defaults for word size `k`.
    pub fn new(k: usize) -> Self {
        CounterConfig {
            k,
            canonical: true,
            threads: 1,
            shards: OWNERS,
        }
    }
}

/// An owned k-mer count table: the owner tables of the counting pass,
/// queried as one (a table that was not built by owners — loaded from a
/// checkpoint, filled by [`add`](Self::add) — is the one-owner partition).
#[derive(Debug, Clone)]
pub struct KmerCounts {
    k: usize,
    counts: PartitionedKmerTable,
}

impl KmerCounts {
    /// An empty table for word size `k`.
    pub fn empty(k: usize) -> Self {
        Self::from_table(k, PackedKmerTable::new())
    }

    /// Wrap a plain table of packed `k`-mers and their counts.
    pub fn from_table(k: usize, counts: PackedKmerTable) -> Self {
        Self::from_partition(k, counts.into())
    }

    /// Wrap the owner tables of a routed count of packed `k`-mers.
    pub fn from_partition(k: usize, counts: PartitionedKmerTable) -> Self {
        KmerCounts { k, counts }
    }

    /// The underlying packed k-mer → count table.
    pub fn into_partition(self) -> PartitionedKmerTable {
        self.counts
    }

    /// Word size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of distinct k-mers.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True if no k-mers were counted.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Count of a k-mer (0 if absent). The query is *not* canonicalized;
    /// canonicalize first if the table was built canonically.
    pub fn get(&self, km: Kmer) -> u32 {
        debug_assert_eq!(km.k(), self.k);
        self.counts.get(km.packed()).unwrap_or(0)
    }

    /// Count of a packed k-mer word (0 if absent) — hot-path form for
    /// rolling iterators that never materialize a [`Kmer`]. The query is
    /// *not* canonicalized.
    #[inline]
    pub fn get_packed(&self, packed: u64) -> u32 {
        self.counts.get(packed).unwrap_or(0)
    }

    /// Total k-mer instances counted (sum of counts).
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|(_, c)| c as u64).sum()
    }

    /// Iterate `(kmer, count)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (Kmer, u32)> + '_ {
        let k = self.k;
        self.counts
            .iter()
            .map(move |(p, c)| (Kmer::from_packed(p, k).expect("stored kmer valid"), c))
    }

    /// Iterate `(packed kmer, count)` without decoding (hot-path form).
    pub fn iter_packed(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.counts.iter()
    }

    /// Remove k-mers with count below `min`, returning how many were removed.
    pub fn retain_min(&mut self, min: u32) -> usize {
        self.retain_min_on(min, &mut Pool::new(1))
    }

    /// [`retain_min`](Self::retain_min) as a loop over owners on `team`:
    /// each owner scans its own table and rebuilds it only if something in
    /// it falls below `min`.
    pub fn retain_min_on(&mut self, min: u32, team: &mut impl Team) -> usize {
        let removed = self.counts.update_owners(|tables| {
            for_each_owner(tables, team, |_, table| {
                if table.iter().all(|(_, c)| c >= min) {
                    return 0; // nothing to drop: keep the table as built
                }
                let before = table.len();
                table.retain(|_, c| c >= min);
                before - table.len()
            })
        });
        removed.into_iter().sum()
    }

    /// Insert or add a count directly (used by the checkpoint loader).
    pub fn add(&mut self, km: Kmer, count: u32) {
        debug_assert_eq!(km.k(), self.k);
        self.counts.add(km.packed(), count);
    }

    /// Record the underlying table's health (entries, capacity, load
    /// factor, probe-length histogram) plus `{prefix}.total_count` into
    /// `registry`. See [`PartitionedKmerTable::record_metrics`]. Everything but
    /// the probe-length histogram is a snapshot gauge — `total_count`
    /// describes the table's current state, so re-recording (per-batch
    /// health checks) overwrites instead of double-counting.
    pub fn record_metrics(&self, registry: &obs::MetricsRegistry, prefix: &str) {
        self.counts.record_metrics(registry, prefix);
        registry
            .gauge(format!("{prefix}.total_count"))
            .set(self.total() as f64);
    }
}

/// Reads per routed batch: the unit a worker rolls and routes at a time.
const READ_BATCH: usize = 256;

/// Every k-mer of `read` per `cfg`, as a packed word. Canonical windows
/// are rolled incrementally (O(1)/base), never reconstructed per window.
fn for_each_kmer(read: &PackedSeq, cfg: &CounterConfig, mut emit: impl FnMut(u64)) -> Result<()> {
    if cfg.canonical {
        read.canonical_kmers(cfg.k)?
            .for_each(|(_, km)| emit(km.packed()));
    } else {
        read.kmers(cfg.k)?.for_each(|(_, km)| emit(km.packed()));
    }
    Ok(())
}

/// Count all k-mers of pre-encoded reads per `cfg` on `team` — the routed
/// build with `cfg.shards` owners, whose tables are the result;
/// `cfg.threads` is not consulted, the team is the workers. The pipeline
/// runs it inside a region on an [`omp::CostedTeam`], which charges both
/// loops' makespan plus the routing rounds' code between them. A word size
/// outside `1..=32` counts nothing.
pub fn count_kmers_on(reads: &[PackedSeq], cfg: CounterConfig, team: &mut impl Team) -> KmerCounts {
    let batches: Vec<&[PackedSeq]> = reads.chunks(READ_BATCH).collect();
    let owners = vec![PackedKmerTable::new(); Owners::new(cfg.shards).count()];
    let owners = routed_build(
        &batches,
        owners,
        team,
        |batch, router| {
            for read in *batch {
                let _ = for_each_kmer(read, &cfg, |key| router.push(key, ()));
            }
        },
        |table, routed| {
            for &(key, ()) in routed {
                table.add(key, 1);
            }
        },
    );
    KmerCounts::from_partition(cfg.k, PartitionedKmerTable::from_owners(owners))
}

/// Count all k-mers of pre-encoded reads per `cfg`: [`count_kmers_on`] a
/// pool of `cfg.threads` OS threads.
pub fn count_kmers_packed(reads: &[PackedSeq], cfg: CounterConfig) -> KmerCounts {
    count_kmers_on(reads, cfg, &mut Pool::new(cfg.threads))
}

/// Count all k-mers of byte-sequence `reads` per `cfg`.
///
/// Convenience wrapper: encodes each read to a [`PackedSeq`] once, then
/// calls [`count_kmers_packed`]. Callers with reads already encoded (the
/// pipeline) should pass them to [`count_kmers_packed`] directly.
pub fn count_kmers<S: AsRef<[u8]> + Sync>(reads: &[S], cfg: CounterConfig) -> KmerCounts {
    let packed = Pool::new(cfg.threads).map(reads, |r| PackedSeq::from_bytes(r.as_ref()));
    count_kmers_packed(&packed, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(k: usize, canonical: bool) -> CounterConfig {
        CounterConfig {
            k,
            canonical,
            threads: 2,
            shards: 8,
        }
    }

    #[test]
    fn counts_simple_sequence() {
        let counts = count_kmers(&[b"ACGTACGT".as_slice()], cfg(4, false));
        // Windows: ACGT CGTA GTAC TACG ACGT -> ACGT twice.
        assert_eq!(counts.get(Kmer::from_bases(b"ACGT").unwrap()), 2);
        assert_eq!(counts.get(Kmer::from_bases(b"CGTA").unwrap()), 1);
        assert_eq!(counts.get(Kmer::from_bases(b"AAAA").unwrap()), 0);
        assert_eq!(counts.total(), 5);
        assert_eq!(counts.len(), 4);
    }

    #[test]
    fn canonical_merges_strands() {
        // AAAA (revcomp TTTT): counting TTTT canonically increments AAAA.
        let counts = count_kmers(&[b"TTTT".as_slice(), b"AAAA".as_slice()], cfg(4, true));
        assert_eq!(counts.get(Kmer::from_bases(b"AAAA").unwrap()), 2);
        assert_eq!(counts.len(), 1);
    }

    #[test]
    fn multiple_reads_accumulate() {
        let reads = vec![b"ACGT".to_vec(); 10];
        let counts = count_kmers(&reads, cfg(4, false));
        assert_eq!(counts.get(Kmer::from_bases(b"ACGT").unwrap()), 10);
    }

    #[test]
    fn n_bases_skipped() {
        let counts = count_kmers(&[b"ACGNNACG".as_slice()], cfg(3, false));
        assert_eq!(counts.get(Kmer::from_bases(b"ACG").unwrap()), 2);
        assert_eq!(counts.len(), 1);
    }

    #[test]
    fn parallel_matches_serial() {
        let reads: Vec<Vec<u8>> = (0..200)
            .map(|i| {
                let mut s = b"ACGTACGTGGCCATAT".to_vec();
                let n = s.len();
                s.rotate_left(i % n);
                s
            })
            .collect();
        let serial = count_kmers(
            &reads,
            CounterConfig {
                threads: 1,
                ..cfg(6, true)
            },
        );
        let parallel = count_kmers(
            &reads,
            CounterConfig {
                threads: 8,
                ..cfg(6, true)
            },
        );
        assert_eq!(serial.len(), parallel.len());
        for (km, c) in serial.iter() {
            assert_eq!(parallel.get(km), c);
        }
    }

    #[test]
    fn packed_counting_matches_byte_counting() {
        let reads: Vec<Vec<u8>> = vec![
            b"ACGTACGTGGCCATAT".to_vec(),
            b"TTTTNNACGTACGT".to_vec(),
            b"acgtACGTnACGT".to_vec(),
            Vec::new(),
        ];
        for canonical in [true, false] {
            let from_bytes = count_kmers(&reads, cfg(5, canonical));
            let packed: Vec<PackedSeq> = reads.iter().map(|r| PackedSeq::from_bytes(r)).collect();
            let from_packed = count_kmers_packed(&packed, cfg(5, canonical));
            assert_eq!(from_bytes.len(), from_packed.len());
            for (km, c) in from_bytes.iter() {
                assert_eq!(from_packed.get(km), c, "canonical={canonical} {km:?}");
            }
        }
    }

    #[test]
    fn get_packed_matches_get() {
        let counts = count_kmers(&[b"ACGTACGT".as_slice()], cfg(4, true));
        for (km, c) in counts.iter() {
            assert_eq!(counts.get_packed(km.packed()), c);
        }
        assert_eq!(counts.get_packed(u64::MAX), 0);
    }

    #[test]
    fn retain_min_filters() {
        let mut counts = count_kmers(&[b"AAAAAACGT".as_slice()], cfg(4, false));
        let distinct_before = counts.len();
        let removed = counts.retain_min(2);
        assert!(removed > 0);
        assert_eq!(counts.len(), distinct_before - removed);
        assert!(counts.iter().all(|(_, c)| c >= 2));
    }

    #[test]
    fn empty_input() {
        let reads: Vec<Vec<u8>> = vec![];
        let counts = count_kmers(&reads, cfg(5, true));
        assert!(counts.is_empty());
        assert_eq!(counts.total(), 0);
    }

    #[test]
    fn metrics_reflect_counts() {
        let counts = count_kmers(&[b"ACGTACGT".as_slice()], cfg(4, false));
        let reg = obs::MetricsRegistry::new();
        counts.record_metrics(&reg, "jellyfish");
        // Per-batch re-recording must overwrite, not double-count.
        counts.record_metrics(&reg, "jellyfish");
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("jellyfish.entries"), Some(4.0));
        assert_eq!(snap.gauge("jellyfish.total_count"), Some(5.0));
        assert!(snap.gauge("jellyfish.load_factor").unwrap() > 0.0);
    }

    #[test]
    fn add_accumulates() {
        let mut counts = KmerCounts::empty(4);
        let km = Kmer::from_bases(b"ACGT").unwrap();
        counts.add(km, 3);
        counts.add(km, 2);
        assert_eq!(counts.get(km), 5);
    }
}
