//! Suffix-array construction as a parallel region: a splitter sort by
//! packed seed, then prefix doubling over the still-tied runs only
//! (Larsson–Sadakane style), every pass a loop the caller runs
//! ([`seqio::par`]).
//!
//! The alphabet is made dense first (6 symbols for a contig reference:
//! terminator, separator, `ACGT`), so one `u64` seed holds the next
//! `64 / bits` symbols — 21 bases — and one sort by that seed already
//! separates every suffix whose 21-symbol prefix is unique. Round 0 is that
//! sort, as a splitter sort:
//!
//! 1. splitters from a strided sample of the seeds; per chunk of the text,
//!    count the suffixes of each bucket;
//! 2. per chunk, scatter `(seed, position)` into that chunk's share of its
//!    bucket, all shares in one array, bucket-major;
//! 3. per bucket, sort in place, rank the bucket's suffixes and return its
//!    tied runs.
//!
//! Each later round batches the tied runs by suffix count and doubles the
//! depth in two loops: A keys and sorts each run by the rank `depth`
//! symbols further on, reading the ranks as they stood when the round
//! began; B ranks the run's suffixes and returns the runs still tied. No
//! task reads a rank that another task writes in the same loop, so the
//! result does not depend on the loop's order — and a text with a unique
//! terminator has exactly one suffix array. The keyed array holds the order
//! throughout; `sa` is read off it at the end. Independent of alphabet
//! size, so the separator bytes used to join contigs need no special
//! handling.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

use seqio::par::{chunks, map_chunks, map_pieces, par_map, scatter, Splitters, BUCKETS};

/// A suffix's sort key — its seed, or the rank further on — and its
/// position. Runs are sorted by the key alone: suffixes are distinct, so a
/// later round orders every group of equal keys.
type Keyed = (u64, u32);

/// Build the suffix array of `text`. Returns `sa` with `sa[i]` = start
/// position of the i-th smallest suffix (a suffix that is a proper prefix of
/// another sorts first). The caller is expected to have appended a unique
/// smallest terminator (byte 0) if total ordering of rotations matters (the
/// BWT builder does).
pub fn suffix_array(text: &[u8]) -> Vec<u32> {
    suffix_array_on(text, &mut seqio::par::sequential).0
}

/// [`suffix_array`] with its loops run by `par`, and the number of
/// doubling rounds it took after the seed sort.
pub fn suffix_array_on(
    text: &[u8],
    par: &mut impl FnMut(usize, &(dyn Fn(usize) + Sync)),
) -> (Vec<u32>, usize) {
    let n = text.len();
    assert!(
        n <= u32::MAX as usize,
        "text too large for u32 suffix array"
    );
    let pieces = chunks(n);

    // Dense codes 1..=sigma in byte order; 0 is "past the end".
    let present = par_map(par, pieces.len(), |c| {
        let mut seen = [false; 256];
        for &b in &text[pieces[c].clone()] {
            seen[b as usize] = true;
        }
        seen
    });
    let mut dense = [0u64; 256];
    let mut sigma = 0u64;
    for (b, d) in dense.iter_mut().enumerate() {
        if present.iter().any(|seen| seen[b]) {
            sigma += 1;
            *d = sigma;
        }
    }
    let bits = (u64::BITS - sigma.leading_zeros()).max(1);
    let seed_len = (u64::BITS / bits) as usize;

    // seeds[i] = the `seed_len` symbols from `i`, first symbol most
    // significant. Each chunk rolls its own, from `seed_len` symbols past
    // its end.
    let mut seeds = vec![0u64; n];
    map_chunks(&mut seeds, par, |c, out| {
        let Range { start, end } = pieces[c];
        let mut seed = 0u64;
        for i in (start..n.min(end + seed_len)).rev() {
            seed = seed >> bits | dense[text[i] as usize] << (bits * (seed_len as u32 - 1));
            if i < end {
                out[i - start] = seed;
            }
        }
    });

    // Round 0: the splitter sort by seed. Equal seeds share a bucket, so no
    // tied run crosses one.
    let stride = n.div_ceil(BUCKETS * BUCKETS).max(1);
    let splitters = Splitters::new(seeds.iter().step_by(stride).copied());
    let tallies = par_map(par, pieces.len(), |c| {
        let mut tally = [0usize; BUCKETS];
        for &seed in &seeds[pieces[c].clone()] {
            tally[splitters.bucket(seed)] += 1;
        }
        tally
    });
    // Zeroed, so its pages are first written by the scatter loop.
    let mut keyed: Vec<Keyed> = vec![(0, 0); n];
    let bucket_lens = scatter(&mut keyed, &tallies, par, |c, shares| {
        for i in pieces[c].clone() {
            shares.put(splitters.bucket(seeds[i]), (seeds[i], i as u32));
        }
    });
    drop(seeds);

    // `rank[i]` is the index in the order of the first suffix tied with `i`.
    // Relaxed is enough: a loop that stores ranks loads none, each index is
    // stored by one task, and the loads come in a later loop, after `par`
    // has returned — its workers joined — from the storing one.
    let rank: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let bucket_starts: Vec<usize> = bucket_lens
        .iter()
        .scan(0, |at, &len| {
            *at += len;
            Some(*at - len)
        })
        .collect();
    let lens = bucket_lens.into_iter();
    let mut tied = map_pieces(&mut keyed, lens, par, |b, bucket| {
        bucket.sort_unstable_by_key(|&(key, _)| key);
        let mut tied = Vec::new();
        settle(bucket_starts[b], bucket, &rank, &mut tied);
        tied
    })
    .concat();

    let mut depth = seed_len;
    let mut rounds = 0;
    while !tied.is_empty() {
        let batches = batches(&tied);
        // Batch `t` owns the order from its first run to the next batch's.
        let bases: Vec<usize> = batches
            .iter()
            .enumerate()
            .map(|(t, runs)| if t == 0 { 0 } else { tied[runs.start].0 })
            .collect();
        let ends = bases.iter().skip(1).copied().chain([n]);
        let lens = ends.zip(&bases).map(|(end, &base)| end - base);
        // Loop A: key by the rank `depth` further on, and sort.
        map_pieces(&mut keyed, lens, par, |t, piece| {
            for &(lo, hi) in &tied[batches[t].clone()] {
                let run = &mut piece[lo - bases[t]..hi - bases[t]];
                for entry in run.iter_mut() {
                    let further = rank.get(entry.1 as usize + depth);
                    entry.0 = further.map_or(0, |r| u64::from(r.load(Relaxed)) + 1);
                }
                run.sort_unstable_by_key(|&(key, _)| key);
            }
        });
        // Loop B: rank, and keep what is still tied.
        let keyed = &keyed;
        tied = par_map(par, batches.len(), |t| {
            let mut still = Vec::new();
            for &(lo, hi) in &tied[batches[t].clone()] {
                settle(lo, &keyed[lo..hi], &rank, &mut still);
            }
            still
        })
        .concat();
        depth *= 2;
        rounds += 1;
    }
    drop(rank);

    let mut sa = vec![0u32; n];
    map_chunks(&mut sa, par, |c, out| {
        for (slot, &(_, i)) in out.iter_mut().zip(&keyed[pieces[c].clone()]) {
            *slot = i;
        }
    });
    (sa, rounds)
}

/// Rank the sorted `run`, which starts at `lo` in the order: each group of
/// equal keys gets the index of its first suffix, and every group of more
/// than one is pushed onto `tied` as its `[start, end)` in the order.
fn settle(lo: usize, run: &[Keyed], rank: &[AtomicU32], tied: &mut Vec<(usize, usize)>) {
    let mut at = lo;
    for group in run.chunk_by(|a, b| a.0 == b.0) {
        for &(_, i) in group {
            rank[i as usize].store(at as u32, Relaxed);
        }
        if group.len() > 1 {
            tied.push((at, at + group.len()));
        }
        at += group.len();
    }
}

/// `tied` cut into consecutive batches of about `1 / BUCKETS` of its
/// suffixes each, as ranges of its runs.
fn batches(tied: &[(usize, usize)]) -> Vec<Range<usize>> {
    let total: usize = tied.iter().map(|&(lo, hi)| hi - lo).sum();
    let target = total.div_ceil(BUCKETS);
    let mut out = Vec::new();
    let (mut from, mut size) = (0, 0);
    for (j, &(lo, hi)) in tied.iter().enumerate() {
        size += hi - lo;
        if size >= target {
            out.push(from..j + 1);
            (from, size) = (j + 1, 0);
        }
    }
    if from < tied.len() {
        out.push(from..tied.len());
    }
    out
}

/// Naive O(n^2 log n) construction, kept as the test oracle.
pub fn suffix_array_naive(text: &[u8]) -> Vec<u32> {
    let mut sa: Vec<u32> = (0..text.len() as u32).collect();
    sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
    sa
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banana() {
        // Suffixes of "banana$" sorted: $ a$ ana$ anana$ banana$ na$ nana$
        let sa = suffix_array(b"banana\x00");
        assert_eq!(sa, vec![6, 5, 3, 1, 0, 4, 2]);
    }

    #[test]
    fn empty_and_single() {
        assert!(suffix_array(b"").is_empty());
        assert_eq!(suffix_array(b"A"), vec![0]);
    }

    #[test]
    fn all_same_byte() {
        // Longest suffix of identical bytes is largest.
        let sa = suffix_array(b"AAAA");
        assert_eq!(sa, vec![3, 2, 1, 0]);
    }

    #[test]
    fn matches_naive_on_dna() {
        let texts: [&[u8]; 5] = [
            b"ACGTACGTACGT\x00",
            b"GATTACA\x00",
            b"AAACCCGGGTTT\x00",
            b"ACGT\x01TGCA\x00",
            b"TTTTTTTTAAAAAAAA\x00",
        ];
        for t in texts {
            assert_eq!(suffix_array(t), suffix_array_naive(t), "text {t:?}");
        }
    }

    #[test]
    fn matches_naive_on_pseudorandom() {
        // Deterministic pseudo-random DNA.
        let mut state = 12345u64;
        let mut text: Vec<u8> = (0..500)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                b"ACGT"[(state >> 33) as usize % 4]
            })
            .collect();
        text.push(0);
        assert_eq!(suffix_array(&text), suffix_array_naive(&text));
    }

    #[test]
    fn tandem_repeats_take_doubling_rounds() {
        // A 3-base repeat ties every suffix far past the 21-symbol seed:
        // each round doubles the resolved depth, so 600 bases take several.
        let mut text = b"ACG".repeat(200);
        text.push(0);
        let (sa, rounds) = suffix_array_on(&text, &mut seqio::par::sequential);
        assert_eq!(sa, suffix_array_naive(&text));
        assert!(rounds >= 3, "{rounds} rounds");
        // Distinct seeds need none.
        assert_eq!(
            suffix_array_on(b"GATTACA\x00", &mut seqio::par::sequential).1,
            0
        );
    }

    #[test]
    fn batches_cover_the_runs_in_order() {
        let tied: Vec<(usize, usize)> = (0..500).map(|i| (3 * i, 3 * i + 2)).collect();
        let got = batches(&tied);
        assert!(got.len() <= BUCKETS);
        let flat: Vec<usize> = got.into_iter().flatten().collect();
        assert_eq!(flat, (0..500).collect::<Vec<_>>());
        assert!(batches(&[]).is_empty());
    }
}
