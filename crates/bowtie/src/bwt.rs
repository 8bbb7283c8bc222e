//! Burrows–Wheeler transform with a 2-bit, popcount-ranked Occ structure.
//!
//! The BWT of the reference (terminated by a unique smallest byte 0) is
//! stored as 64-symbol blocks: the cumulative `ACGT` counts before the
//! block, the symbols as two bit-planes, and a mask of the rows that hold a
//! base at all. `Occ` of all four bases at a row is one block load and four
//! popcounts, which is the O(1)-per-step LF-mapping backward search is
//! built on. Every byte outside uppercase `ACGT` (terminator, separators,
//! `N`) is masked out: it keeps its place in the suffix order and in `C`,
//! but can never be stepped through.

use seqio::alphabet::BASES;
use seqio::par::{chunks, map_pieces};

use crate::fmindex::NO_BASE;
use crate::suffix::suffix_array_on;

/// Symbols per rank block: one `u64` word per bit-plane.
const BLOCK: usize = 64;

/// 64 BWT rows. `counts[c]` is the number of base `c` in every earlier
/// block; row `r` of the block holds base `hi[r] << 1 | lo[r]` iff
/// `acgt[r]` is set. 40 bytes, aligned so that a rank query reads exactly
/// one cache line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[repr(C, align(64))]
struct Block {
    counts: [u32; 4],
    lo: u64,
    hi: u64,
    acgt: u64,
}

impl Block {
    /// Rows below `off` that hold base `code`, as a bit set.
    #[inline(always)]
    fn rows_of(&self, code: u8, off: usize) -> u64 {
        // An all-ones word where the code bit is 0, so a matching row reads 1
        // in both planes after the XOR.
        let lo = self.lo ^ u64::from(code & 1).wrapping_sub(1);
        let hi = self.hi ^ u64::from(code >> 1).wrapping_sub(1);
        self.acgt & ((1u64 << off) - 1) & lo & hi
    }
}

/// The 2-bit code of every byte: [`NO_BASE`] for all but uppercase `ACGT`.
/// The text is matched byte-exactly (the suffix order is over bytes), so
/// lowercase is *not* folded here.
pub(crate) const CODE: [u8; 256] = {
    let mut code = [NO_BASE; 256];
    let mut c = 0;
    while c < BASES.len() {
        code[BASES[c] as usize] = c as u8;
        c += 1;
    }
    code
};

/// The BWT with rank support for the four bases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bwt {
    /// `len() / BLOCK + 1` rank blocks (so that row `len()` is addressable).
    blocks: Vec<Block>,
    /// `c_table[code]` = number of text bytes strictly smaller than the base
    /// (the "C" array, restricted to the symbols that can be searched).
    c_table: [usize; 4],
    /// Suffix array (kept whole; locating is a direct lookup).
    sa: Vec<u32>,
    /// Doubling rounds the suffix sort took after its seed sort.
    sort_rounds: usize,
}

impl Bwt {
    /// Build the BWT of `text`. `text` must end with a byte 0 terminator
    /// that appears nowhere else.
    pub fn build(text: &[u8]) -> Self {
        Self::build_on(text, &mut seqio::par::sequential)
    }

    /// [`build`](Self::build) with the suffix sort's and the Occ fill's
    /// loops run by `par` ([`seqio::par`]). The Occ fill is two loops over
    /// ranges of blocks: the first fills each range's blocks with counts
    /// local to the range and returns its base totals and byte
    /// frequencies; after a prefix sum over the ranges, the second adds
    /// each range's offset to its blocks' counts.
    pub fn build_on(text: &[u8], par: &mut impl FnMut(usize, &(dyn Fn(usize) + Sync))) -> Self {
        assert!(!text.is_empty(), "text must be non-empty");
        assert_eq!(
            *text.last().unwrap(),
            0,
            "text must end with the 0 terminator"
        );
        let (sa, sort_rounds) = suffix_array_on(text, par);
        let n = text.len();

        // Ranges of whole blocks: the text's chunks, rounded up to blocks.
        let mut blocks = vec![Block::default(); n / BLOCK + 1];
        let mut starts: Vec<usize> = chunks(n).iter().map(|r| r.start.div_ceil(BLOCK)).collect();
        starts.push(blocks.len());
        let lens = || starts.windows(2).map(|w| w[1] - w[0]);
        let local = map_pieces(&mut blocks, lens(), par, |g, range| {
            let mut running = [0u32; 4];
            let mut freq = [0u32; 256];
            for (j, blk) in (starts[g]..).zip(range) {
                blk.counts = running;
                let rows = &sa[(j * BLOCK).min(n)..((j + 1) * BLOCK).min(n)];
                for (bit, &p) in rows.iter().enumerate() {
                    // Row of suffix 0 holds the terminator: not a base.
                    let b = text[(p as usize).checked_sub(1).unwrap_or(n - 1)];
                    freq[b as usize] += 1;
                    let c = CODE[b as usize];
                    if c == NO_BASE {
                        continue;
                    }
                    blk.lo |= u64::from(c & 1) << bit;
                    blk.hi |= u64::from(c >> 1) << bit;
                    blk.acgt |= 1 << bit;
                    running[c as usize] += 1;
                }
            }
            (running, freq)
        });
        let mut offsets = Vec::with_capacity(local.len());
        let mut total = [0u32; 4];
        let mut freq = [0usize; 256];
        for (running, range_freq) in &local {
            offsets.push(total);
            for (t, r) in total.iter_mut().zip(running) {
                *t += r;
            }
            for (f, &r) in freq.iter_mut().zip(range_freq) {
                *f += r as usize;
            }
        }
        map_pieces(&mut blocks, lens(), par, |g, range| {
            for blk in range {
                for (count, offset) in blk.counts.iter_mut().zip(offsets[g]) {
                    *count += offset;
                }
            }
        });
        assert_eq!(freq[0], 1, "terminator must be unique");

        // C array: bytes smaller than each base, in byte order.
        let c_table = BASES.map(|base| freq[..base as usize].iter().sum());

        Bwt {
            blocks,
            c_table,
            sa,
            sort_rounds,
        }
    }

    /// Doubling rounds the suffix sort took after its seed sort.
    pub fn sort_rounds(&self) -> usize {
        self.sort_rounds
    }

    /// Length of the text (including terminator).
    pub fn len(&self) -> usize {
        self.sa.len()
    }

    /// True if empty (never: build rejects empty text).
    pub fn is_empty(&self) -> bool {
        self.sa.is_empty()
    }

    /// Text position of the suffix at BWT row `r`.
    pub fn sa_at(&self, r: usize) -> usize {
        self.sa[r] as usize
    }

    /// `C[code] + Occ(code, i)`: the LF-mapping of row `i` under one base.
    #[inline]
    fn lf(&self, code: u8, i: usize) -> usize {
        debug_assert!(code < 4 && i <= self.len());
        let b = &self.blocks[i / BLOCK];
        self.c_table[code as usize]
            + b.counts[code as usize] as usize
            + b.rows_of(code, i % BLOCK).count_ones() as usize
    }

    /// One backward-search step: refine `[lo, hi)` by prepending the base
    /// with 2-bit `code`. Returns `None` when the range empties.
    #[inline]
    pub fn backward_step(&self, lo: usize, hi: usize, code: u8) -> Option<(usize, usize)> {
        let (new_lo, new_hi) = (self.lf(code, lo), self.lf(code, hi));
        (new_lo < new_hi).then_some((new_lo, new_hi))
    }

    /// Full backward search for the ASCII `pattern`; returns the SA range of
    /// exact occurrences. A pattern byte outside uppercase `ACGT` matches
    /// nothing.
    pub fn search(&self, pattern: &[u8]) -> Option<(usize, usize)> {
        let mut range = (0usize, self.len());
        for &b in pattern.iter().rev() {
            let c = CODE[b as usize];
            if c == NO_BASE {
                return None;
            }
            range = self.backward_step(range.0, range.1, c)?;
        }
        Some(range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text() -> Vec<u8> {
        b"ACGTACGTGGTACA\x00".to_vec()
    }

    /// The transform by its definition: `bwt[r] = text[sa[r] - 1]`.
    fn naive_bwt(t: &[u8], b: &Bwt) -> Vec<u8> {
        (0..b.len())
            .map(|r| t[(b.sa_at(r) + t.len() - 1) % t.len()])
            .collect()
    }

    impl Bwt {
        /// Test helper: the base stored at row `r`, if the row holds one.
        fn base_at(&self, r: usize) -> Option<u8> {
            let b = &self.blocks[r / BLOCK];
            let bit = r % BLOCK;
            (b.acgt >> bit & 1 == 1)
                .then(|| BASES[((b.hi >> bit & 1) << 1 | (b.lo >> bit & 1)) as usize])
        }
    }

    #[test]
    fn bwt_of_known_text() {
        let t = text();
        let b = Bwt::build(&t);
        assert_eq!(b.len(), t.len());
        for (r, &expect) in naive_bwt(&t, &b).iter().enumerate() {
            assert_eq!(b.base_at(r), BASES.contains(&expect).then_some(expect));
        }
    }

    #[test]
    fn occ_counts_match_naive() {
        let t = text();
        let b = Bwt::build(&t);
        let bwt = naive_bwt(&t, &b);
        for (code, &base) in BASES.iter().enumerate() {
            let c = t.iter().filter(|&&x| x < base).count();
            for i in 0..=b.len() {
                let naive = bwt[..i].iter().filter(|&&x| x == base).count();
                assert_eq!(b.lf(code as u8, i), c + naive, "base {base} i {i}");
            }
        }
    }

    #[test]
    fn search_finds_all_occurrences() {
        let t = text();
        let b = Bwt::build(&t);
        let (lo, hi) = b.search(b"ACGT").unwrap();
        let mut pos: Vec<usize> = (lo..hi).map(|r| b.sa_at(r)).collect();
        pos.sort_unstable();
        assert_eq!(pos, vec![0, 4]);
    }

    #[test]
    fn search_single_occurrence() {
        let b = Bwt::build(&text());
        let (lo, hi) = b.search(b"GGTA").unwrap();
        assert_eq!(hi - lo, 1);
        assert_eq!(b.sa_at(lo), 8);
    }

    #[test]
    fn search_absent_pattern() {
        let b = Bwt::build(&text());
        assert!(b.search(b"AAAA").is_none());
        assert!(b.search(b"ACGN").is_none());
    }

    #[test]
    fn search_empty_pattern_is_full_range() {
        let b = Bwt::build(&text());
        assert_eq!(b.search(b""), Some((0, b.len())));
    }

    #[test]
    fn build_rejects_bad_terminator() {
        let r = std::panic::catch_unwind(|| Bwt::build(b"ACGT"));
        assert!(r.is_err());
        let r = std::panic::catch_unwind(|| Bwt::build(b"AC\x00GT\x00"));
        assert!(r.is_err());
    }

    #[test]
    fn long_text_checkpoint_boundaries() {
        // Text spanning several rank blocks exercises the cumulative counts.
        let mut t: Vec<u8> = b"ACGT".repeat(50);
        t.push(0);
        let b = Bwt::build(&t);
        let (lo, hi) = b.search(b"GTACGT").unwrap();
        assert_eq!(hi - lo, 49);
        for r in lo..hi {
            let p = b.sa_at(r);
            assert_eq!(&t[p..p + 6], b"GTACGT");
        }
    }

    #[test]
    fn build_on_gives_every_row_the_same_lf() {
        // Long enough for many Occ ranges; the loops run last to first.
        let mut t: Vec<u8> = b"GATTACANACGT\x01ACGGT".repeat(700);
        t.push(0);
        let reversed = &mut |n: usize, body: &(dyn Fn(usize) + Sync)| (0..n).rev().for_each(body);
        let (b, on) = (Bwt::build(&t), Bwt::build_on(&t, reversed));
        for i in 0..=t.len() {
            for c in 0..4u8 {
                assert_eq!(on.lf(c, i), b.lf(c, i), "base {c} row {i}");
            }
        }
        assert_eq!(on, b);
    }

    #[test]
    fn all_four_steps_agree_with_single_steps() {
        // `backward_step` on any range, full or empty, is the LF-mapping of
        // its two ends under that base.
        let mut t: Vec<u8> = b"GATTACAN\x01".repeat(17);
        t.push(0);
        let b = Bwt::build(&t);
        for (lo, hi) in [(0, b.len()), (3, 90), (64, 128), (10, 10)] {
            for c in 0..4u8 {
                let (l, h) = (b.lf(c, lo), b.lf(c, hi));
                assert_eq!(b.backward_step(lo, hi, c), (l < h).then_some((l, h)));
                // Stepping one row at a time splits the range without gaps.
                let rows: usize = (lo..hi)
                    .filter_map(|r| b.backward_step(r, r + 1, c))
                    .map(|(l, h)| h - l)
                    .sum();
                assert_eq!(rows, h.saturating_sub(l), "base {c} of [{lo}, {hi})");
            }
        }
    }
}
