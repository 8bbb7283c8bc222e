//! DSK-style disk-partitioned k-mer counting.
//!
//! The paper (§II-A) points at DSK \[20\] — "k-mer counting with very low
//! memory usage" — as the alternative to Jellyfish's large in-memory
//! table, and lists memory-footprint reduction as future work (§VI). This
//! module implements the DSK idea as a configuration of the owner-routed
//! build ([`crate::routed`]): a partition is an owner, the routing
//! function is the same [`Owners::of`], and the only difference is the
//! sink — pass 1 routes each k-mer to its owner's *file* instead of a
//! memory buffer, pass 2 is the owner-local count of one file at a time.
//! Peak memory is bounded by the largest partition (≈ `1/P` of the
//! spectrum) instead of the whole table.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use kmertable::{Owners, PackedKmerTable, PartitionedKmerTable};
use seqio::error::{Error, Result};
use seqio::kmer::Kmer;
use seqio::packed::PackedSeq;

use crate::counter::{for_each_kmer, CounterConfig, KmerCounts};

/// Configuration of a disk-partitioned counting pass.
#[derive(Debug, Clone)]
pub struct DskConfig {
    /// Base counting parameters (k, canonical).
    pub counter: CounterConfig,
    /// Number of disk partitions (owners; rounded up to a power of two).
    pub partitions: usize,
    /// Directory for the temporary partition files.
    pub work_dir: PathBuf,
}

impl DskConfig {
    /// Defaults: 16 partitions in the system temp directory.
    pub fn new(k: usize) -> Self {
        DskConfig {
            counter: CounterConfig::new(k),
            partitions: 16,
            work_dir: std::env::temp_dir(),
        }
    }
}

/// Outcome of a DSK pass: the (complete) counts plus the observed peak
/// partition size, the quantity that bounds memory.
#[derive(Debug)]
pub struct DskOutcome {
    /// The complete counts — identical to an in-memory pass.
    pub counts: KmerCounts,
    /// Distinct k-mers in the largest partition (the memory bound).
    pub max_partition_distinct: usize,
    /// Total k-mer instances written to disk (the I/O volume).
    pub spilled_kmers: u64,
}

/// One call's private spill directory under the work dir, removed when
/// dropped — on success, on an error return and on unwind alike. The name
/// is unique per process (pid) and per call (a process-wide counter), so
/// concurrent calls never share a partition file.
struct SpillDir(PathBuf);

impl SpillDir {
    fn create(work_dir: &Path) -> Result<Self> {
        static NEXT_CALL: AtomicU64 = AtomicU64::new(0);
        let call = NEXT_CALL.fetch_add(1, Ordering::Relaxed);
        let dir = work_dir.join(format!("dsk_{:x}_{call}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(SpillDir(dir))
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Count k-mers with bounded memory via disk partitioning.
///
/// Pass 1 streams every read and appends each (canonical) packed k-mer to
/// its owner's partition file; pass 2 loads one partition at a time and
/// counts it owner-locally. The owner tables are all kept and returned as
/// one partitioned table, which makes the *returned* table full-size
/// (convenient for comparison); a production caller would consume
/// partitions one at a time and never hold the union — the
/// `max_partition_distinct` field reports the memory bound that caller
/// would see.
pub fn count_kmers_dsk<S: AsRef<[u8]>>(reads: &[S], cfg: &DskConfig) -> Result<DskOutcome> {
    let owners = Owners::new(cfg.partitions);
    let spill_dir = SpillDir::create(&cfg.work_dir)?;
    let paths: Vec<PathBuf> = (0..owners.count())
        .map(|p| spill_dir.0.join(format!("{p}.part")))
        .collect();

    // Pass 1: route packed k-mers to their owners' files.
    let mut spilled = 0u64;
    {
        let mut writers: Vec<BufWriter<File>> = paths
            .iter()
            .map(|p| Ok(BufWriter::new(File::create(p)?)))
            .collect::<Result<_>>()?;
        let mut written = Ok(());
        for read in reads {
            // Encode once, then roll: the spill pass touches each base a
            // single time even in canonical mode.
            let packed = PackedSeq::from_bytes(read.as_ref());
            for_each_kmer(&packed, &cfg.counter, |key| {
                if written.is_ok() {
                    written = writers[owners.of(key)].write_all(&key.to_le_bytes());
                    spilled += 1;
                }
            })?;
        }
        written?;
        for w in &mut writers {
            w.flush()?;
        }
    }

    // Pass 2: count one partition at a time.
    let parts: Vec<PackedKmerTable> = paths
        .iter()
        .map(|path| count_partition(path, cfg.counter.k))
        .collect::<Result<_>>()?;
    let max_partition_distinct = parts.iter().map(|p| p.len()).max().unwrap_or(0);
    Ok(DskOutcome {
        counts: KmerCounts::from_partition(cfg.counter.k, PartitionedKmerTable::from_owners(parts)),
        max_partition_distinct,
        spilled_kmers: spilled,
    })
}

/// The owner-local count of one partition file.
fn count_partition(path: &Path, k: usize) -> Result<PackedKmerTable> {
    let mut counts = PackedKmerTable::new();
    let mut r = BufReader::new(File::open(path)?);
    let mut buf = [0u8; 8];
    loop {
        match r.read_exact(&mut buf) {
            Ok(()) => {
                let km = Kmer::from_packed(u64::from_le_bytes(buf), k)
                    .map_err(|_| Error::Format("corrupt partition file".into()))?;
                counts.add(km.packed(), 1);
            }
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::count_kmers;

    fn reads() -> Vec<Vec<u8>> {
        reads_from(b"ACGTACGTGGCCATATTGCAGGCT")
    }

    fn reads_from(template: &[u8]) -> Vec<Vec<u8>> {
        (0..40)
            .map(|i| {
                let mut s = template.to_vec();
                let n = s.len();
                s.rotate_left(i % n);
                s
            })
            .collect()
    }

    fn cfg(k: usize, partitions: usize) -> DskConfig {
        DskConfig {
            counter: CounterConfig::new(k),
            partitions,
            work_dir: std::env::temp_dir().join("dsk_test"),
        }
    }

    #[test]
    fn matches_in_memory_counting() {
        let reads = reads();
        let reference = count_kmers(&reads, CounterConfig::new(8));
        let dsk = count_kmers_dsk(&reads, &cfg(8, 8)).unwrap();
        assert_eq!(dsk.counts.len(), reference.len());
        for (km, c) in reference.iter() {
            assert_eq!(dsk.counts.get(km), c, "k-mer {km}");
        }
        assert_eq!(dsk.counts.total(), reference.total());
    }

    #[test]
    fn concurrent_calls_with_equal_read_counts_do_not_collide() {
        // Same process, same work dir, same read count, different reads:
        // every caller must still see exactly its own spectrum, and the
        // work dir must be left empty.
        let templates: [&[u8]; 4] = [
            b"ACGTACGTGGCCATATTGCAGGCT",
            b"TTGACCGATAGGCTTACACGATCG",
            b"GGGATCCTTAAGCACGTTTGCAAC",
            b"CATTGCGGATCGAATCCGTAGGTA",
        ];
        let mut c = cfg(8, 8);
        c.work_dir = std::env::temp_dir().join(format!("dsk_conc_{}", std::process::id()));
        let start = std::sync::Barrier::new(templates.len());
        // Workers count wrong rounds instead of panicking mid-loop: a
        // panicked worker would leave the others waiting at the barrier.
        let wrong_rounds: usize = std::thread::scope(|s| {
            let workers: Vec<_> = templates
                .iter()
                .map(|template| {
                    let (c, start) = (&c, &start);
                    s.spawn(move || {
                        let reads = reads_from(template);
                        let reference = count_kmers(&reads, CounterConfig::new(8));
                        let matches = |dsk: DskOutcome| {
                            dsk.counts.len() == reference.len()
                                && reference.iter().all(|(km, n)| dsk.counts.get(km) == n)
                        };
                        (0..8)
                            .filter(|_round| {
                                start.wait();
                                !count_kmers_dsk(&reads, c).is_ok_and(&matches)
                            })
                            .count()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        assert_eq!(wrong_rounds, 0, "callers saw each other's partitions");
        let left: Vec<_> = std::fs::read_dir(&c.work_dir).unwrap().collect();
        assert!(left.is_empty(), "spill dirs left behind: {left:?}");
        std::fs::remove_dir_all(&c.work_dir).ok();
    }

    #[test]
    fn partitions_bound_memory() {
        let reads = reads();
        let one = count_kmers_dsk(&reads, &cfg(8, 1)).unwrap();
        let sixteen = count_kmers_dsk(&reads, &cfg(8, 16)).unwrap();
        assert_eq!(one.max_partition_distinct, one.counts.len());
        assert!(
            sixteen.max_partition_distinct < one.max_partition_distinct,
            "16 partitions must shrink the peak: {} vs {}",
            sixteen.max_partition_distinct,
            one.max_partition_distinct
        );
        // A fair hash keeps the largest partition within a few x of ideal.
        let ideal = one.counts.len().div_ceil(16);
        assert!(sixteen.max_partition_distinct <= ideal * 4);
    }

    #[test]
    fn spill_volume_equals_total_instances() {
        let reads = reads();
        let dsk = count_kmers_dsk(&reads, &cfg(8, 4)).unwrap();
        assert_eq!(dsk.spilled_kmers, dsk.counts.total());
    }

    #[test]
    fn empty_input() {
        let reads: Vec<Vec<u8>> = vec![];
        let dsk = count_kmers_dsk(&reads, &cfg(8, 4)).unwrap();
        assert!(dsk.counts.is_empty());
        assert_eq!(dsk.max_partition_distinct, 0);
    }

    #[test]
    fn non_canonical_mode() {
        let reads = reads();
        let mut c = cfg(6, 4);
        c.counter.canonical = false;
        let reference = count_kmers(
            &reads,
            CounterConfig {
                canonical: false,
                ..CounterConfig::new(6)
            },
        );
        let dsk = count_kmers_dsk(&reads, &c).unwrap();
        assert_eq!(dsk.counts.len(), reference.len());
    }
}
