//! Chrysalis configuration.

use omp::schedule::Schedule;

/// Parameters shared by the Chrysalis stages.
#[derive(Debug, Clone, Copy)]
pub struct ChrysalisConfig {
    /// Seed k-mer size. Trinity uses 25 at production scale; tests use
    /// smaller k to keep fixtures small. `k ≤ 32`: a k-mer fits a packed
    /// `u64` and a weld ([`Self::weld_len`] ≤ 63 bases) a packed `u128`.
    pub k: usize,
    /// Minimum number of distinct supporting reads for a weld to count
    /// ("welding pairs of contigs together if read support exists").
    pub min_weld_support: u32,
    /// OpenMP threads per rank (the paper always runs 16).
    pub threads: usize,
    /// Inner-loop OpenMP schedule ("the OpenMP scheduling policy is
    /// dynamic").
    pub schedule: Schedule,
    /// Chunk size of the chunked-round-robin MPI distribution; `None`
    /// derives it from the problem size like the original code ("the
    /// chunksize … is proportional to the number of Inchworm contigs
    /// divided by the number of threads").
    pub chunk: Option<usize>,
    /// ReadsToTranscripts: reads uploaded into memory at a time
    /// (`--max_mem_reads`).
    pub max_mem_reads: usize,
    /// Minimum shared k-mers for a read to be assigned to a component.
    pub min_read_kmers: usize,
}

impl Default for ChrysalisConfig {
    fn default() -> Self {
        ChrysalisConfig {
            k: 24,
            min_weld_support: 2,
            threads: 16,
            schedule: Schedule::Dynamic { chunk: 1 },
            chunk: None,
            max_mem_reads: 1000,
            min_read_kmers: 1,
        }
    }
}

impl ChrysalisConfig {
    /// A small-k configuration for tests and examples.
    pub fn small(k: usize) -> Self {
        ChrysalisConfig {
            k,
            min_weld_support: 1,
            threads: 4,
            max_mem_reads: 100,
            ..Default::default()
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

    /// Resolve the round-robin chunk size for `n` contigs over `ranks`.
    pub fn chunk_size(&self, n: usize, ranks: usize) -> usize {
        self.chunk
            .unwrap_or_else(|| omp::schedule::paper_chunk_size(n, ranks, self.threads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ChrysalisConfig::default();
        assert_eq!(c.threads, 16);
        assert_eq!(c.weld_len(), 47);
        assert_eq!(c.flank(), 12);
        assert!(matches!(c.schedule, Schedule::Dynamic { .. }));
    }

    #[test]
    fn chunk_size_fallback() {
        let c = ChrysalisConfig::default();
        assert!(c.chunk_size(100_000, 16) >= 1);
        let fixed = ChrysalisConfig {
            chunk: Some(7),
            ..Default::default()
        };
        assert_eq!(fixed.chunk_size(100_000, 16), 7);
    }

    #[test]
    fn small_config() {
        let c = ChrysalisConfig::small(8);
        assert_eq!(c.k, 8);
        assert_eq!(c.weld_len(), 15);
    }
}
