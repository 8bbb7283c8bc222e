//! `-v`-mode read alignment: up to `v` mismatches, both strands.
//!
//! Bowtie 1's `-v` mode reports end-to-end (ungapped) alignments with at
//! most `v` substitutions. We reproduce it with depth-first backtracking
//! over the FM-index: the read is consumed right-to-left through backward
//! search; at each position the true base extends free, the other three
//! bases spend one unit of mismatch budget. With `best_strata` the budgets
//! are tried in increasing order, so a read that aligns exactly never pays
//! for the mismatch search whose results would be discarded.

use seqio::alphabet::{base_to_code, complement_code};

use crate::bwt::Bwt;
use crate::fmindex::FmIndex;

/// Which strand of the read matched the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strand {
    /// Read aligned as given.
    Forward,
    /// The read's reverse complement aligned.
    Reverse,
}

/// One reported alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alignment {
    /// Contig index in the index's input order.
    pub contig: usize,
    /// 0-based offset of the alignment start within the contig.
    pub offset: usize,
    /// Strand of the read.
    pub strand: Strand,
    /// Number of substitutions.
    pub mismatches: u8,
    /// Read length (alignments are end-to-end).
    pub read_len: usize,
}

/// Alignment parameters (Bowtie `-v` / `-k` style).
#[derive(Debug, Clone, Copy)]
pub struct AlignConfig {
    /// Maximum substitutions (`-v`). Bowtie caps this at 3; so do we.
    pub max_mismatches: u8,
    /// Report at most this many alignments per read (`-k`).
    pub max_hits: usize,
    /// Only report the best stratum (fewest mismatches), like
    /// `--best --strata`.
    pub best_strata: bool,
    /// Also try the reverse complement of the read.
    pub both_strands: bool,
}

impl Default for AlignConfig {
    fn default() -> Self {
        AlignConfig {
            max_mismatches: 2,
            max_hits: 16,
            best_strata: true,
            both_strands: true,
        }
    }
}

/// Code of a read byte that is not a base (`N`): it mismatches every
/// reference base.
const NO_BASE: u8 = 4;

/// One strand's depth-first search: SA ranges of full-length matches of
/// `codes` with their mismatch counts.
struct Backtrack<'a> {
    bwt: &'a Bwt,
    codes: &'a [u8],
    budget: u8,
    ranges: Vec<(u8, usize, usize)>,
}

impl Backtrack<'_> {
    /// Extend `[lo, hi)`, which matches `codes[i..]` with `mm` mismatches,
    /// leftwards over `codes[..i]`.
    fn extend(&mut self, i: usize, lo: usize, hi: usize, mm: u8) {
        if mm == self.budget {
            // Budget spent: the rest of the read must match exactly.
            let mut range = (lo, hi);
            for &c in self.codes[..i].iter().rev() {
                if c == NO_BASE {
                    return;
                }
                let Some(next) = self.bwt.backward_step(range.0, range.1, c) else {
                    return;
                };
                range = next;
            }
            self.ranges.push((mm, range.0, range.1));
            return;
        }
        if i == 0 {
            self.ranges.push((mm, lo, hi));
            return;
        }
        let want = self.codes[i - 1];
        for (c, (l, h)) in (0u8..).zip(self.bwt.backward_step_all(lo, hi)) {
            if l < h {
                self.extend(i - 1, l, h, mm + u8::from(c != want));
            }
        }
    }
}

fn align_one_strand(
    idx: &FmIndex,
    codes: &[u8],
    strand: Strand,
    budget: u8,
    out: &mut Vec<Alignment>,
) {
    let mut search = Backtrack {
        bwt: idx.bwt(),
        codes,
        budget,
        ranges: Vec::new(),
    };
    search.extend(codes.len(), 0, idx.bwt().len(), 0);
    for (mm, lo, hi) in search.ranges {
        for r in lo..hi {
            if let Some(hit) = idx.resolve(idx.bwt().sa_at(r), codes.len()) {
                out.push(Alignment {
                    contig: hit.contig,
                    offset: hit.offset,
                    strand,
                    mismatches: mm,
                    read_len: codes.len(),
                });
            }
        }
    }
}

/// Align one read against the index per `cfg`. Results are sorted by
/// (mismatches, contig, offset, strand) and truncated to `max_hits`; with
/// `best_strata` only the fewest-mismatch stratum survives.
pub fn align_read(idx: &FmIndex, read: &[u8], cfg: AlignConfig) -> Vec<Alignment> {
    let mut out = Vec::new();
    if read.is_empty() {
        return out;
    }
    let fwd: Vec<u8> = read
        .iter()
        .map(|&b| base_to_code(b).unwrap_or(NO_BASE))
        .collect();
    let rev: Option<Vec<u8>> = cfg.both_strands.then(|| {
        let comp = |&c: &u8| if c == NO_BASE { c } else { complement_code(c) };
        fwd.iter().rev().map(comp).collect()
    });
    // With `best_strata` only the lowest stratum is reported, so walk the
    // budgets upwards and stop at the first that hits: nothing matched with
    // fewer mismatches, hence every hit found has exactly `budget` of them.
    let max = cfg.max_mismatches.min(3);
    let first = if cfg.best_strata { 0 } else { max };
    for budget in first..=max {
        align_one_strand(idx, &fwd, Strand::Forward, budget, &mut out);
        if let Some(rev) = &rev {
            align_one_strand(idx, rev, Strand::Reverse, budget, &mut out);
        }
        if !out.is_empty() {
            break;
        }
    }
    out.sort_by_key(|a| {
        (
            a.mismatches,
            a.contig,
            a.offset,
            matches!(a.strand, Strand::Reverse),
        )
    });
    out.truncate(cfg.max_hits.max(1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqio::fasta::Record;

    fn index() -> FmIndex {
        FmIndex::build(&[
            Record::new("c0", b"ACGTACGTGGCCATTA".to_vec()),
            Record::new("c1", b"TTGACCAGTTGACCAG".to_vec()),
        ])
    }

    fn cfg(v: u8) -> AlignConfig {
        AlignConfig {
            max_mismatches: v,
            max_hits: 32,
            best_strata: true,
            both_strands: true,
        }
    }

    #[test]
    fn exact_forward_hit() {
        let idx = index();
        // Note: a palindromic read would hit both strands; this one is not.
        let hits = align_read(&idx, b"ACGTACGTGG", cfg(0));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].contig, 0);
        assert_eq!(hits[0].offset, 0);
        assert_eq!(hits[0].strand, Strand::Forward);
        assert_eq!(hits[0].mismatches, 0);
    }

    #[test]
    fn reverse_strand_hit() {
        let idx = index();
        // revcomp(TAATGGCC) = GGCCATTA, at c0 offset 8.
        let hits = align_read(&idx, b"TAATGGCC", cfg(0));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].strand, Strand::Reverse);
        assert_eq!(hits[0].contig, 0);
        assert_eq!(hits[0].offset, 8);
    }

    #[test]
    fn one_mismatch_found_with_budget() {
        let idx = index();
        //            v mismatch at position 3 (T->A)
        let read = b"ACGAACGTGG";
        assert!(align_read(&idx, read, cfg(0)).is_empty());
        let hits = align_read(&idx, read, cfg(1));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].mismatches, 1);
        assert_eq!(hits[0].offset, 0);
    }

    #[test]
    fn best_strata_hides_worse_hits() {
        let idx = FmIndex::build(&[Record::new("r", b"AAAATAAAACAAAA".to_vec())]);
        // Read AAAA: exact hits exist, so 1-mismatch hits are suppressed.
        let hits = align_read(&idx, b"AAAA", cfg(1));
        assert!(hits.iter().all(|h| h.mismatches == 0));
        let all = align_read(
            &idx,
            b"AAAA",
            AlignConfig {
                best_strata: false,
                ..cfg(1)
            },
        );
        assert!(all.iter().any(|h| h.mismatches == 1));
    }

    #[test]
    fn max_hits_truncates() {
        let idx = FmIndex::build(&[Record::new("r", b"ACAC".repeat(20))]);
        let hits = align_read(
            &idx,
            b"ACAC",
            AlignConfig {
                max_hits: 5,
                ..cfg(0)
            },
        );
        assert_eq!(hits.len(), 5);
    }

    #[test]
    fn unalignable_read() {
        let idx = index();
        assert!(align_read(&idx, b"CCCCCCCC", cfg(1)).is_empty());
    }

    #[test]
    fn empty_read_yields_nothing() {
        let idx = index();
        assert!(align_read(&idx, b"", cfg(2)).is_empty());
    }

    #[test]
    fn reference_n_is_not_matched_by_a_read_n() {
        let idx = FmIndex::build(&[Record::new("n", b"ACGNACGTTG".to_vec())]);
        // Equal bytes, but `N` is not a base: no hit at v = 0 ...
        assert!(align_read(&idx, b"ACGNACGT", cfg(0)).is_empty());
        // ... nor is the reference `N` a position a mismatch can pay for.
        assert!(align_read(&idx, b"ACGAACGT", cfg(3)).is_empty());
        // A read `N` still costs one mismatch against a real base.
        let hits = align_read(&idx, b"ACNTTG", cfg(1));
        assert_eq!(hits.len(), 1);
        assert_eq!((hits[0].offset, hits[0].mismatches), (4, 1));
    }

    #[test]
    fn two_mismatches() {
        let idx = index();
        let read = b"AGGTACGTGGCCATAA"; // c0 with subs at pos 1 and 14
        assert!(align_read(&idx, read, cfg(1)).is_empty());
        let hits = align_read(&idx, read, cfg(2));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].mismatches, 2);
        assert_eq!(hits[0].contig, 0);
    }

    #[test]
    fn forward_only_mode() {
        let idx = index();
        let hits = align_read(
            &idx,
            b"TAATGGCC",
            AlignConfig {
                both_strands: false,
                ..cfg(0)
            },
        );
        assert!(hits.is_empty());
    }

    #[test]
    fn multi_contig_hits_sorted() {
        let idx = FmIndex::build(&[
            Record::new("a", b"GATTACAGG".to_vec()),
            Record::new("b", b"CCGATTACA".to_vec()),
        ]);
        let hits = align_read(&idx, b"GATTACA", cfg(0));
        assert_eq!(hits.len(), 2);
        assert!(hits[0].contig < hits[1].contig);
    }
}
