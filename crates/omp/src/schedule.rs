//! Loop scheduling policies and the chunk sequences they generate.
//!
//! OpenMP's `schedule` clause controls how loop iterations are parceled out
//! to threads. Chrysalis uses `schedule(dynamic)` for both GraphFromFasta
//! loops because per-contig work is wildly non-uniform (§III-B of the paper).

/// An OpenMP-style loop schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// `schedule(static[, chunk])`: chunks are assigned round-robin to
    /// threads *before* execution. `chunk = None` means one contiguous block
    /// per thread.
    Static {
        /// Chunk size; `None` means one contiguous block per thread.
        chunk: Option<usize>,
    },
    /// `schedule(dynamic, chunk)`: threads grab the next chunk when idle.
    Dynamic {
        /// Fixed chunk size each idle thread grabs.
        chunk: usize,
    },
    /// `schedule(guided, min_chunk)`: like dynamic but chunk size starts at
    /// `remaining / threads` and decays geometrically to `min_chunk`.
    Guided {
        /// Floor the geometrically decaying chunk size never drops below.
        min_chunk: usize,
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

/// Generate the ordered chunk sequence a schedule produces for a loop of
/// `n` iterations run by `threads` threads.
///
/// For `Static`, consecutive chunks belong to threads `0, 1, …, T-1, 0, …`;
/// for `Dynamic`/`Guided` the sequence is the grab order and the owner is
/// decided at run time (or by the makespan replay).
pub fn chunk_sequence(n: usize, threads: usize, schedule: Schedule) -> Vec<Chunk> {
    assert!(threads > 0, "need at least one thread");
    let mut chunks = Vec::new();
    if n == 0 {
        return chunks;
    }
    match schedule {
        Schedule::Static { chunk: None } => {
            // One contiguous block per thread, sizes differing by at most 1.
            let base = n / threads;
            let extra = n % threads;
            let mut start = 0;
            for t in 0..threads {
                let len = base + usize::from(t < extra);
                if len == 0 {
                    continue;
                }
                chunks.push(Chunk {
                    start,
                    end: start + len,
                });
                start += len;
            }
        }
        Schedule::Static { chunk: Some(c) } | Schedule::Dynamic { chunk: c } => {
            let c = c.max(1);
            let mut start = 0;
            while start < n {
                let end = (start + c).min(n);
                chunks.push(Chunk { start, end });
                start = end;
            }
        }
        Schedule::Guided { min_chunk } => {
            let min_chunk = min_chunk.max(1);
            let mut start = 0;
            while start < n {
                let remaining = n - start;
                let size = (remaining.div_ceil(threads)).max(min_chunk).min(remaining);
                chunks.push(Chunk {
                    start,
                    end: start + size,
                });
                start += size;
            }
        }
    }
    chunks
}

/// The owner thread of chunk index `i` under a static schedule.
pub fn static_owner(chunk_index: usize, threads: usize) -> usize {
    chunk_index % threads
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
    let chunk = chunk.max(1);
    let mut per_rank = vec![Vec::new(); ranks];
    let mut start = 0;
    let mut i = 0;
    while start < n {
        let end = (start + chunk).min(n);
        per_rank[i % ranks].push(Chunk { start, end });
        start = end;
        i += 1;
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
    fn static_block_partition() {
        let chunks = chunk_sequence(10, 3, Schedule::Static { chunk: None });
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0], Chunk { start: 0, end: 4 });
        assert_eq!(chunks[1], Chunk { start: 4, end: 7 });
        assert_eq!(chunks[2], Chunk { start: 7, end: 10 });
        covers_exactly(&chunks, 10);
    }

    #[test]
    fn static_block_more_threads_than_items() {
        let chunks = chunk_sequence(2, 8, Schedule::Static { chunk: None });
        assert_eq!(chunks.len(), 2);
        covers_exactly(&chunks, 2);
    }

    #[test]
    fn dynamic_chunks() {
        let chunks = chunk_sequence(10, 4, Schedule::Dynamic { chunk: 3 });
        assert_eq!(chunks.len(), 4);
        assert_eq!(chunks[3], Chunk { start: 9, end: 10 }); // clamped tail
        covers_exactly(&chunks, 10);
    }

    #[test]
    fn dynamic_chunk_zero_is_clamped_to_one() {
        let chunks = chunk_sequence(3, 2, Schedule::Dynamic { chunk: 0 });
        assert_eq!(chunks.len(), 3);
    }

    #[test]
    fn guided_decays() {
        let chunks = chunk_sequence(100, 4, Schedule::Guided { min_chunk: 2 });
        covers_exactly(&chunks, 100);
        // First chunk is remaining/threads = 25, sizes never increase.
        assert_eq!(chunks[0].len(), 25);
        for w in chunks.windows(2) {
            assert!(w[1].len() <= w[0].len());
        }
        // Tail chunks respect min_chunk except possibly the final remainder.
        for c in &chunks[..chunks.len() - 1] {
            assert!(c.len() >= 2);
        }
    }

    #[test]
    fn empty_loop() {
        for s in [
            Schedule::Static { chunk: None },
            Schedule::Dynamic { chunk: 4 },
            Schedule::Guided { min_chunk: 1 },
        ] {
            assert!(chunk_sequence(0, 4, s).is_empty());
        }
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
