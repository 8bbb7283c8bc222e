//! Minimal SAM records for the alignment output.
//!
//! Each rank of the distributed Bowtie step "produces an alignment output
//! file in SAM format, and the files from all nodes are merged into a
//! single file at the end of the job" (§III-A). We emit the subset of SAM
//! the downstream scaffolding step consumes: QNAME, FLAG (strand bit),
//! RNAME, POS, MAPQ, CIGAR and the NM mismatch tag.

use crate::align::{Alignment, Strand};

/// SAM flag bit: read is reverse-complemented.
pub const FLAG_REVERSE: u16 = 0x10;
/// SAM flag bit: read is unmapped.
pub const FLAG_UNMAPPED: u16 = 0x4;

/// One SAM alignment line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamRecord {
    /// Read name.
    pub qname: String,
    /// Bitwise flags.
    pub flag: u16,
    /// Reference (contig) name, `*` if unmapped.
    pub rname: String,
    /// 1-based leftmost position, 0 if unmapped.
    pub pos: u64,
    /// Mapping quality (255 = unavailable, like bowtie's default).
    pub mapq: u8,
    /// CIGAR string (`{len}M` for our ungapped alignments).
    pub cigar: String,
    /// Mismatch count (NM tag).
    pub nm: u32,
}

impl SamRecord {
    /// Build from an [`Alignment`] and the names involved.
    pub fn from_alignment(qname: &str, rname: &str, aln: &Alignment) -> Self {
        SamRecord {
            qname: qname.to_string(),
            flag: match aln.strand {
                Strand::Forward => 0,
                Strand::Reverse => FLAG_REVERSE,
            },
            rname: rname.to_string(),
            pos: aln.offset as u64 + 1,
            mapq: 255,
            cigar: format!("{}M", aln.read_len),
            nm: aln.mismatches as u32,
        }
    }

    /// An unmapped placeholder record.
    pub fn unmapped(qname: &str) -> Self {
        SamRecord {
            qname: qname.to_string(),
            flag: FLAG_UNMAPPED,
            rname: "*".to_string(),
            pos: 0,
            mapq: 0,
            cigar: "*".to_string(),
            nm: 0,
        }
    }

    /// True if the unmapped flag is set.
    pub fn is_unmapped(&self) -> bool {
        self.flag & FLAG_UNMAPPED != 0
    }

    /// Serialize as one SAM line (SEQ/QUAL columns elided with `*`).
    pub fn to_line(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t*\t0\t0\t*\t*\tNM:i:{}",
            self.qname, self.flag, self.rname, self.pos, self.mapq, self.cigar, self.nm
        )
    }

    /// Parse a line produced by [`SamRecord::to_line`] (also tolerates
    /// missing NM tag). Returns `None` on malformed input.
    pub fn parse_line(line: &str) -> Option<Self> {
        let mut f = line.trim_end().split('\t');
        let qname = f.next()?.to_string();
        let flag: u16 = f.next()?.parse().ok()?;
        let rname = f.next()?.to_string();
        let pos: u64 = f.next()?.parse().ok()?;
        let mapq: u8 = f.next()?.parse().ok()?;
        let cigar = f.next()?.to_string();
        let nm = f
            .clone()
            .find_map(|t| t.strip_prefix("NM:i:"))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        Some(SamRecord {
            qname,
            flag,
            rname,
            pos,
            mapq,
            cigar,
            nm,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aln() -> Alignment {
        Alignment {
            contig: 0,
            offset: 9,
            strand: Strand::Reverse,
            mismatches: 2,
            read_len: 36,
        }
    }

    #[test]
    fn from_alignment_fields() {
        let r = SamRecord::from_alignment("read1", "contig7", &aln());
        assert_eq!(r.pos, 10); // 1-based
        assert_ne!(r.flag & FLAG_REVERSE, 0);
        assert!(!r.is_unmapped());
        assert_eq!(r.cigar, "36M");
        assert_eq!(r.nm, 2);
    }

    #[test]
    fn line_round_trip() {
        let r = SamRecord::from_alignment("r", "c", &aln());
        let parsed = SamRecord::parse_line(&r.to_line()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn unmapped_record() {
        let r = SamRecord::unmapped("r9");
        assert!(r.is_unmapped());
        let parsed = SamRecord::parse_line(&r.to_line()).unwrap();
        assert!(parsed.is_unmapped());
        assert_eq!(parsed.rname, "*");
    }

    #[test]
    fn parse_tolerates_missing_nm() {
        let r = SamRecord::parse_line("q\t0\tc\t5\t255\t10M\t*\t0\t0\t*\t*").unwrap();
        assert_eq!(r.nm, 0);
        assert_eq!(r.pos, 5);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(SamRecord::parse_line("").is_none());
        assert!(SamRecord::parse_line("q\tx\tc\t5\t255\t10M").is_none());
        assert!(SamRecord::parse_line("q\t0\tc").is_none());
    }
}
