//! The loop schedule and the chunk sequence it deals.
//!
//! OpenMP's `schedule` clause controls how loop iterations are parceled out
//! to threads. Chrysalis uses `schedule(dynamic)` for its loops because
//! per-contig work is wildly non-uniform (§III-B of the paper), and so does
//! every loop here: [`Schedule`] has that one policy, and its chunk size.

/// An OpenMP-style loop schedule: `schedule(dynamic, chunk)`, the one the
/// paper's loops use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// `schedule(dynamic, chunk)`: threads grab the next chunk when idle.
    Dynamic {
        /// Fixed chunk size each idle thread grabs.
        chunk: usize,
    },
}

/// A half-open range of loop iterations `[start, end)` forming one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// First iteration index.
    pub start: usize,
    /// One past the last iteration index.
    pub end: usize,
}

impl Chunk {
    /// Number of iterations in the chunk.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the chunk is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Cut a loop of `n` iterations into consecutive chunks of `chunk` (at
/// least 1), the last one clamped to `n`: the grab order of
/// `schedule(dynamic, chunk)`, and the chunks the MPI distributions deal.
pub fn chunk_sequence(n: usize, chunk: usize) -> Vec<Chunk> {
    let chunk = chunk.max(1);
    (0..n.div_ceil(chunk))
        .map(|i| Chunk {
            start: i * chunk,
            end: ((i + 1) * chunk).min(n),
        })
        .collect()
}

/// The rank that owns chunk `chunk_index` under the chunked round-robin
/// distribution: ranks take chunks in turn.
pub fn static_owner(chunk_index: usize, ranks: usize) -> usize {
    chunk_index % ranks
}

/// The paper's *chunked round-robin* MPI distribution (§III-B, Fig. 3):
/// chunk `i` of the outer loop belongs to rank `i mod ranks`; within a rank
/// the chunk is subdivided over OpenMP threads.
///
/// Returns, for each rank, the chunks it owns (in grab order). The final
/// chunk may be short — the paper calls out that the inner-loop end index
/// must be clamped when fewer items than a full chunk remain.
pub fn chunked_round_robin(n: usize, ranks: usize, chunk: usize) -> Vec<Vec<Chunk>> {
    assert!(ranks > 0, "need at least one rank");
    let mut per_rank = vec![Vec::new(); ranks];
    for (i, c) in chunk_sequence(n, chunk).into_iter().enumerate() {
        per_rank[static_owner(i, ranks)].push(c);
    }
    per_rank
}

/// A sensible chunk size for `n` items over `ranks` ranks of `threads`
/// threads: the paper sets the chunk "proportional to the number of Inchworm
/// contigs divided by the number of threads".
pub fn paper_chunk_size(n: usize, ranks: usize, threads: usize) -> usize {
    // Aim for ~8 chunks per rank so round-robin interleaving smooths skew.
    (n / (ranks * threads * 8).max(1)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covers_exactly(chunks: &[Chunk], n: usize) {
        let mut covered = vec![false; n];
        for c in chunks {
            for (i, seen) in covered[c.start..c.end].iter_mut().enumerate() {
                assert!(!*seen, "iteration {} covered twice", c.start + i);
                *seen = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "not all iterations covered");
    }

    #[test]
    fn dynamic_chunks() {
        let chunks = chunk_sequence(10, 3);
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[3], Chunk { start: 9, end: 10 }); // clamped tail
        covers_exactly(&chunks, 10);
    }

    #[test]
    fn dynamic_chunk_zero_is_clamped_to_one() {
        let chunks = chunk_sequence(3, 0);
        assert_eq!(chunks.len(), 3);
    }

    #[test]
    fn empty_loop() {
        assert!(chunk_sequence(0, 4).is_empty());
    }

    #[test]
    fn chunked_rr_matches_fig3() {
        // Fig. 3: 4 MPI processes, chunks go 0,1,2,3,0,1,...
        let per_rank = chunked_round_robin(40, 4, 5);
        assert_eq!(per_rank.len(), 4);
        assert_eq!(per_rank[0][0], Chunk { start: 0, end: 5 });
        assert_eq!(per_rank[1][0], Chunk { start: 5, end: 10 });
        assert_eq!(per_rank[0][1], Chunk { start: 20, end: 25 });
        let all: Vec<Chunk> = {
            let mut v: Vec<Chunk> = per_rank.iter().flatten().copied().collect();
            v.sort_by_key(|c| c.start);
            v
        };
        covers_exactly(&all, 40);
    }

    #[test]
    fn chunked_rr_short_tail() {
        // 11 items, chunk 4 -> chunks [0,4),[4,8),[8,11); rank owners 0,1,2... mod 2
        let per_rank = chunked_round_robin(11, 2, 4);
        assert_eq!(
            per_rank[0],
            vec![Chunk { start: 0, end: 4 }, Chunk { start: 8, end: 11 }]
        );
        assert_eq!(per_rank[1], vec![Chunk { start: 4, end: 8 }]);
    }

    #[test]
    fn chunked_rr_some_ranks_idle() {
        let per_rank = chunked_round_robin(3, 8, 10);
        assert_eq!(per_rank[0].len(), 1);
        assert!(per_rank[1..].iter().all(Vec::is_empty));
    }

    #[test]
    fn static_owner_cycles() {
        assert_eq!(static_owner(0, 4), 0);
        assert_eq!(static_owner(5, 4), 1);
    }

    #[test]
    fn paper_chunk_size_floor() {
        assert_eq!(paper_chunk_size(0, 4, 16), 1);
        assert!(paper_chunk_size(1_000_000, 16, 16) >= 1);
    }
}
