//! The queryable FM-index over a multi-contig reference.
//!
//! Contigs are joined with a separator byte (0x01) and terminated with the
//! unique smallest byte (0x00); the BWT's rank structure counts only
//! `ACGT`, so backward search can never match across a separator. Hit
//! positions are mapped back to `(contig, offset)` through the boundary
//! table.

use seqio::fasta::Record;
use seqio::par::map_chunks;

use crate::bwt::{Bwt, CODE};

/// Code of a byte that is not a base — a read or contig `N`, a separator,
/// the terminator: it equals no base's 2-bit code.
pub(crate) const NO_BASE: u8 = 4;

/// An FM-index over a set of named contigs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FmIndex {
    bwt: Bwt,
    /// The joined text the BWT was built over, as 2-bit codes with
    /// [`NO_BASE`] wherever backward search cannot step: what a candidate
    /// alignment is verified against.
    pub(crate) text: Vec<u8>,
    /// Contig names, in input order.
    names: Vec<String>,
    /// Start offset of each contig in the concatenated text.
    starts: Vec<usize>,
    /// Length of each contig.
    lengths: Vec<usize>,
}

/// A located exact occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hit {
    /// Index of the contig in the input set.
    pub contig: usize,
    /// 0-based offset within the contig.
    pub offset: usize,
}

impl FmIndex {
    /// Build an index over `contigs`. Sequences are uppercased; bytes
    /// outside `ACGT` keep their place in the text but match nothing — not
    /// an equal byte in a read, and not as a paid mismatch either, so no
    /// alignment spans one.
    pub fn build(contigs: &[Record]) -> Self {
        Self::build_on(contigs, &mut seqio::par::sequential)
    }

    /// [`build`](Self::build) with every pass over the text — uppercasing,
    /// the suffix sort, the Occ fill, the 2-bit codes — a loop run by `par`
    /// ([`seqio::par`]). The index is the same under every `par`.
    pub fn build_on(
        contigs: &[Record],
        par: &mut impl FnMut(usize, &(dyn Fn(usize) + Sync)),
    ) -> Self {
        let total: usize = contigs.iter().map(|c| c.seq.len() + 1).sum();
        let mut text = Vec::with_capacity(total + 1);
        let mut names = Vec::with_capacity(contigs.len());
        let mut starts = Vec::with_capacity(contigs.len());
        let mut lengths = Vec::with_capacity(contigs.len());
        for rec in contigs {
            names.push(rec.id.clone());
            starts.push(text.len());
            lengths.push(rec.seq.len());
            text.extend_from_slice(&rec.seq);
            text.push(1); // separator
        }
        text.push(0); // unique terminator
        map_chunks(&mut text, par, |_, piece| piece.make_ascii_uppercase());
        let bwt = Bwt::build_on(&text, par);
        map_chunks(&mut text, par, |_, piece| {
            piece.iter_mut().for_each(|b| *b = CODE[*b as usize]);
        });
        FmIndex {
            bwt,
            text,
            names,
            starts,
            lengths,
        }
    }

    /// Doubling rounds the suffix sort took after its seed sort.
    pub fn sort_rounds(&self) -> usize {
        self.bwt.sort_rounds()
    }

    /// Number of indexed contigs.
    pub fn contig_count(&self) -> usize {
        self.names.len()
    }

    /// Name of contig `i`.
    pub fn contig_name(&self, i: usize) -> &str {
        &self.names[i]
    }

    /// Total reference bases (excluding separators).
    pub fn total_bases(&self) -> usize {
        self.lengths.iter().sum()
    }

    /// Borrow the underlying BWT (the mismatch aligner drives it directly).
    pub fn bwt(&self) -> &Bwt {
        &self.bwt
    }

    /// Count exact occurrences of `pattern`.
    pub fn count(&self, pattern: &[u8]) -> usize {
        self.bwt
            .search(pattern)
            .map(|(lo, hi)| hi - lo)
            .unwrap_or(0)
    }

    /// Locate every exact occurrence of `pattern` as `(contig, offset)`,
    /// sorted for determinism.
    pub fn locate(&self, pattern: &[u8]) -> Vec<Hit> {
        let Some((lo, hi)) = self.bwt.search(pattern) else {
            return Vec::new();
        };
        let mut hits: Vec<Hit> = (lo..hi)
            .filter_map(|r| self.resolve(self.bwt.sa_at(r), pattern.len()))
            .collect();
        hits.sort_by_key(|h| (h.contig, h.offset));
        hits
    }

    /// Map a text position to `(contig, offset)`; `None` if the match would
    /// overlap a separator (cannot happen for ACGT-only patterns or verified
    /// windows, but the check keeps `resolve` total).
    pub(crate) fn resolve(&self, pos: usize, pattern_len: usize) -> Option<Hit> {
        // Binary search for the contig whose range contains `pos`.
        let idx = match self.starts.binary_search(&pos) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let offset = pos - self.starts[idx];
        (offset + pattern_len <= self.lengths[idx]).then_some(Hit {
            contig: idx,
            offset,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contigs() -> Vec<Record> {
        vec![
            Record::new("c0", b"ACGTACGT".to_vec()),
            Record::new("c1", b"TTTTACGT".to_vec()),
            Record::new("c2", b"GGGG".to_vec()),
        ]
    }

    #[test]
    fn metadata() {
        let idx = FmIndex::build(&contigs());
        assert_eq!(idx.contig_count(), 3);
        assert_eq!(idx.contig_name(1), "c1");
        assert_eq!(idx.total_bases(), 20);
    }

    #[test]
    fn locate_across_contigs() {
        let idx = FmIndex::build(&contigs());
        let hits = idx.locate(b"ACGT");
        assert_eq!(
            hits,
            vec![
                Hit {
                    contig: 0,
                    offset: 0
                },
                Hit {
                    contig: 0,
                    offset: 4
                },
                Hit {
                    contig: 1,
                    offset: 4
                },
            ]
        );
        assert_eq!(idx.count(b"ACGT"), 3);
    }

    #[test]
    fn no_match_across_separator() {
        let idx = FmIndex::build(&contigs());
        // "ACGTTTTT" would span c0's end into c1 — must not match.
        assert_eq!(idx.count(b"ACGTTTTT"), 0);
        assert!(idx.locate(b"GTTT").is_empty());
    }

    #[test]
    fn absent_pattern() {
        let idx = FmIndex::build(&contigs());
        assert_eq!(idx.count(b"AAAA"), 0);
        assert!(idx.locate(b"CCCC").is_empty());
    }

    #[test]
    fn lowercase_reference_is_uppercased() {
        let idx = FmIndex::build(&[Record::new("x", b"acgtacgt".to_vec())]);
        assert_eq!(idx.count(b"CGTA"), 1);
    }

    #[test]
    fn non_acgt_reference_bytes_match_nothing() {
        for contig in [&b"ACGNACGT"[..], b"acgnacgt"] {
            let idx = FmIndex::build(&[Record::new("n", contig.to_vec())]);
            assert_eq!(idx.count(b"ACGNACGT"), 0);
            assert_eq!(idx.count(b"N"), 0);
            assert_eq!(idx.count(b"ACG"), 2);
            assert_eq!(
                idx.locate(b"ACGT"),
                vec![Hit {
                    contig: 0,
                    offset: 4
                }]
            );
        }
    }

    #[test]
    fn single_contig_full_match() {
        let idx = FmIndex::build(&[Record::new("x", b"GATTACA".to_vec())]);
        let hits = idx.locate(b"GATTACA");
        assert_eq!(
            hits,
            vec![Hit {
                contig: 0,
                offset: 0
            }]
        );
    }

    #[test]
    fn empty_contig_is_tolerated() {
        let idx = FmIndex::build(&[
            Record::new("e", Vec::new()),
            Record::new("x", b"ACGT".to_vec()),
        ]);
        let hits = idx.locate(b"ACGT");
        assert_eq!(
            hits,
            vec![Hit {
                contig: 1,
                offset: 0
            }]
        );
    }

    #[test]
    fn every_substring_is_found() {
        let seq = b"ACGTGCATGGCATTAC";
        let idx = FmIndex::build(&[Record::new("s", seq.to_vec())]);
        for start in 0..seq.len() {
            for end in start + 1..=seq.len() {
                let pat = &seq[start..end];
                let hits = idx.locate(pat);
                assert!(
                    hits.iter().any(|h| h.contig == 0 && h.offset == start),
                    "missing {start}..{end}"
                );
            }
        }
    }
}
