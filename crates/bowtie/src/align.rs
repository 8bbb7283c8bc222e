//! `-v`-mode read alignment: up to `v` mismatches, both strands.
//!
//! Bowtie 1's `-v` mode reports end-to-end (ungapped) alignments with at
//! most `v` substitutions. We reproduce it by seed-and-verify: each strand
//! is cut into `v + 1` pieces, and by pigeonhole a placement with at most
//! `v` substitutions holds one of them exactly. A piece is backward-searched
//! only until one row is left (the rows of a piece's suffix are a superset
//! of the piece's own); each row proposes a start for the whole read, and a
//! linear comparison against the index's text, giving up at the first
//! substitution too many, decides it. With `best_strata` a hit with `b`
//! substitutions lowers the bar for everything after it: a hit no worse
//! holds one of the *first* `b + 1` pieces exactly, so the rest are skipped.

use seqio::alphabet::{base_to_code, complement_code};

use crate::fmindex::{FmIndex, NO_BASE};

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
    /// Report at most this many alignments per read (`-k`); 0 reports none.
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

/// Substitutions between a text window and a read of equal length, `None`
/// past `cap` or when the window holds anything but bases (a contig `N`, a
/// separator, the terminator). A read `N` mismatches every base.
fn substitutions(window: &[u8], codes: &[u8], cap: u8) -> Option<u8> {
    let mut mm = 0u8;
    for (&t, &c) in window.iter().zip(codes) {
        mm += u8::from(t != c);
        if t == NO_BASE || mm > cap {
            return None;
        }
    }
    Some(mm)
}

/// Seed with `codes[start..end]`, verify every placement of `codes` it
/// proposes and push those with at most `cap` substitutions.
fn seed_and_verify(
    idx: &FmIndex,
    codes: &[u8],
    (start, end): (usize, usize),
    strand: Strand,
    cap: u8,
    out: &mut Vec<Alignment>,
) {
    let bwt = idx.bwt();
    // `[lo, hi)` are the rows of `codes[at..end]`.
    let (mut lo, mut hi, mut at) = (0, bwt.len(), end);
    while at > start && hi - lo > 1 {
        let c = codes[at - 1];
        if c == NO_BASE {
            return;
        }
        let Some(next) = bwt.backward_step(lo, hi, c) else {
            return;
        };
        (lo, hi) = next;
        at -= 1;
    }
    let n = codes.len();
    out.extend((lo..hi).filter_map(|row| {
        // The seed sits `at` bases into the read: a start before the text
        // or a window past its end is no placement.
        let pos = bwt.sa_at(row).checked_sub(at)?;
        let mismatches = substitutions(idx.text.get(pos..pos + n)?, codes, cap)?;
        let hit = idx.resolve(pos, n)?;
        Some(Alignment {
            contig: hit.contig,
            offset: hit.offset,
            strand,
            mismatches,
            read_len: n,
        })
    }));
}

/// Align one read against the index per `cfg`. Results are sorted by
/// (mismatches, contig, offset, strand) and truncated to `max_hits`; with
/// `best_strata` only the fewest-mismatch stratum survives.
pub fn align_read(idx: &FmIndex, read: &[u8], cfg: AlignConfig) -> Vec<Alignment> {
    let mut out = Vec::new();
    if read.is_empty() || cfg.max_hits == 0 {
        return out;
    }
    let fwd: Vec<u8> = read
        .iter()
        .map(|&b| base_to_code(b).unwrap_or(NO_BASE))
        .collect();
    let comp = |&c: &u8| if c == NO_BASE { c } else { complement_code(c) };
    let rev: Vec<u8> = fwd.iter().rev().map(comp).collect();
    let strands = [(Strand::Forward, &fwd), (Strand::Reverse, &rev)];
    // The most substitutions still worth reporting. A placement within it
    // holds one of pieces `0..=cap` exactly, so piece `p > cap` has nothing
    // to add; under `best_strata` every hit lowers it to its own stratum.
    let mut cap = cfg.max_mismatches.min(3);
    // A read of fewer bases than pieces has empty ones: they are exact
    // everywhere, which is what a read that may mismatch at every base needs.
    let (n, pieces) = (read.len(), usize::from(cap) + 1);
    for p in 0..pieces {
        if p > usize::from(cap) {
            break;
        }
        let piece = (p * n / pieces, (p + 1) * n / pieces);
        for &(strand, codes) in &strands[..1 + usize::from(cfg.both_strands)] {
            let found = out.len();
            seed_and_verify(idx, codes, piece, strand, cap, &mut out);
            if cfg.best_strata {
                cap = out[found..].iter().fold(cap, |c, a| c.min(a.mismatches));
            }
        }
    }
    out.sort_by_key(|a| {
        (
            a.mismatches,
            a.contig,
            a.offset,
            a.strand == Strand::Reverse,
        )
    });
    // Two pieces of one placement can both be exact.
    out.dedup();
    if cfg.best_strata {
        out.retain(|a| a.mismatches == cap);
    }
    out.truncate(cfg.max_hits);
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
