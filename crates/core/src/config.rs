//! Chrysalis configuration.

use omp::schedule::Schedule;

/// Parameters shared by the Chrysalis stages.
///
/// The rest is fixed: a weld counts when reads span it at all ("welding
/// pairs of contigs together if read support exists"), a read is assigned
/// on one shared k-mer, and the round-robin chunk is derived from the
/// problem size ([`Self::chunk_size`]).
#[derive(Debug, Clone, Copy)]
pub struct ChrysalisConfig {
    /// Seed k-mer size. Trinity uses 25 at production scale; tests use
    /// smaller k to keep fixtures small. `k ≤ 32`: a k-mer fits a packed
    /// `u64` and a weld ([`Self::weld_len`] ≤ 63 bases) a packed `u128`.
    pub k: usize,
    /// OpenMP threads per rank (the paper always runs 16).
    pub threads: usize,
    /// Inner-loop OpenMP schedule ("the OpenMP scheduling policy is
    /// dynamic").
    pub schedule: Schedule,
    /// ReadsToTranscripts: reads uploaded into memory at a time
    /// (`--max_mem_reads`).
    pub max_mem_reads: usize,
}

impl ChrysalisConfig {
    /// The configuration at word size `k`: 4 threads, the dynamic
    /// schedule, 100 reads in memory at a time.
    pub fn small(k: usize) -> Self {
        ChrysalisConfig {
            k,
            threads: 4,
            schedule: Schedule::Dynamic { chunk: 1 },
            max_mem_reads: 100,
        }
    }

    /// Weld length in bases: the (k−1)-base seed plus [`Self::flank`]
    /// bases on each side — 47 at k = 24. Every harvested window, the
    /// loop-1 wire decode and the weld index take their length from here.
    pub fn weld_len(&self) -> usize {
        2 * self.flank() + self.k - 1
    }

    /// Flank length on each side of the seed.
    pub fn flank(&self) -> usize {
        self.k / 2
    }

    /// The round-robin chunk size for `n` contigs over `ranks`, derived
    /// like the original code's ("the chunksize … is proportional to the
    /// number of Inchworm contigs divided by the number of threads").
    pub fn chunk_size(&self, n: usize, ranks: usize) -> usize {
        omp::schedule::paper_chunk_size(n, ranks, self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ChrysalisConfig::small(24);
        assert_eq!(c.weld_len(), 47);
        assert_eq!(c.flank(), 12);
        assert!(matches!(c.schedule, Schedule::Dynamic { .. }));
    }

    #[test]
    fn chunk_size_fallback() {
        let c = ChrysalisConfig::small(24);
        assert_eq!(c.chunk_size(0, 16), 1);
        assert_eq!(c.chunk_size(100_000, 16), 100_000 / (16 * 4 * 8));
    }

    #[test]
    fn small_config() {
        let c = ChrysalisConfig::small(8);
        assert_eq!(c.k, 8);
        assert_eq!(c.weld_len(), 15);
    }
}
