//! FASTA and FASTQ records, parsed from and written to byte buffers.
//!
//! The Trinity pipeline exchanges almost all of its data as (multi-)FASTA
//! files: reads, Inchworm contigs, component bundles and final transcripts.
//! Reads may also arrive as FASTQ, whose qualities no stage reads; the
//! parser checks them and drops them, as `Trinity.pl` converts FASTQ to
//! FASTA. Files are read whole, so both parsers take the file's bytes.
//!
//! Both parsers walk the same lines: each ends at `\n`, loses its trailing
//! `\r`s, and must be UTF-8 (a line that is not fails, naming the line).
//! Both split a header the same way: the id runs to the first whitespace and
//! must not be empty; the description is the rest, leading whitespace
//! removed.

use crate::error::{Error, Result};

/// One sequence record: `>id description` header plus concatenated sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Identifier: header text up to the first whitespace.
    pub id: String,
    /// Remainder of the header line (may be empty).
    pub desc: String,
    /// Sequence bytes with newlines removed.
    pub seq: Vec<u8>,
}

impl Record {
    /// Construct a record with no description.
    pub fn new(id: impl Into<String>, seq: impl Into<Vec<u8>>) -> Self {
        Record {
            id: id.into(),
            desc: String::new(),
            seq: seq.into(),
        }
    }

    /// Sequence length in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// True if the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }

    /// Encode the sequence into its 2-bit packed form.
    ///
    /// The pipeline calls this exactly once per record per run and shares
    /// the result across stages (see [`crate::packed`]).
    pub fn packed(&self) -> crate::packed::PackedSeq {
        crate::packed::PackedSeq::from_bytes(&self.seq)
    }
}

impl AsRef<[u8]> for Record {
    /// A record coerces to its sequence bytes (readers of read sets care
    /// about the sequence, not the header).
    fn as_ref(&self) -> &[u8] {
        &self.seq
    }
}

/// The lines of a buffer as `(1-based line number, text)`, each without its
/// `\n` and trailing `\r`s; a line that is not UTF-8 is an error naming it.
fn lines(bytes: &[u8]) -> impl Iterator<Item = Result<(usize, &str)>> {
    bytes
        .split_inclusive(|&b| b == b'\n')
        .zip(1..)
        .map(|(line, no)| {
            std::str::from_utf8(line)
                .map(|text| (no, text.trim_end_matches(['\n', '\r'])))
                .map_err(|_| Error::Format(format!("line {no}: not UTF-8")))
        })
}

/// Split a header (marker removed) on line `no` into `(id, description)`.
fn split_header(no: usize, header: &str) -> Result<(String, String)> {
    let (id, desc) = match header.split_once(char::is_whitespace) {
        Some((id, rest)) => (id, rest.trim_start()),
        None => (header, ""),
    };
    if id.is_empty() {
        return Err(Error::Format(format!("line {no}: empty record identifier")));
    }
    Ok((id.to_string(), desc.to_string()))
}

/// Parse a whole FASTA buffer: multi-line records, blank lines anywhere.
pub fn parse_fasta(bytes: &[u8]) -> Result<Vec<Record>> {
    let mut records: Vec<Record> = Vec::new();
    for line in lines(bytes) {
        let (no, line) = line?;
        if let Some(header) = line.strip_prefix('>') {
            let (id, desc) = split_header(no, header)?;
            records.push(Record {
                id,
                desc,
                seq: Vec::new(),
            });
        } else if let Some(rec) = records.last_mut() {
            rec.seq.extend_from_slice(line.as_bytes());
        } else if !line.is_empty() {
            return Err(Error::Format(format!(
                "line {no}: expected '>' header, found {line:?}"
            )));
        }
    }
    Ok(records)
}

/// Parse a whole FASTQ buffer of 4-line records (blank lines allowed between
/// records). Each quality line must be as long as its sequence; the
/// qualities are then dropped.
pub fn parse_fastq(bytes: &[u8]) -> Result<Vec<Record>> {
    let mut lines = lines(bytes);
    let mut records = Vec::new();
    while let Some(line) = lines.next() {
        let (no, header) = line?;
        if header.is_empty() {
            continue;
        }
        let header = header.strip_prefix('@').ok_or_else(|| {
            Error::Format(format!("line {no}: expected '@' header, found {header:?}"))
        })?;
        let (id, desc) = split_header(no, header)?;
        let mut next = |what: &str| {
            lines.next().unwrap_or_else(|| {
                Err(Error::Format(format!(
                    "line {no}: truncated record (missing {what})"
                )))
            })
        };
        let (_, seq) = next("sequence")?;
        let (plus_no, plus) = next("'+' separator")?;
        if !plus.starts_with('+') {
            return Err(Error::Format(format!(
                "line {plus_no}: expected '+' separator"
            )));
        }
        let (qual_no, qual) = next("quality")?;
        if qual.len() != seq.len() {
            return Err(Error::Format(format!(
                "line {qual_no}: quality length {} != sequence length {}",
                qual.len(),
                seq.len()
            )));
        }
        records.push(Record {
            id,
            desc,
            seq: seq.as_bytes().to_vec(),
        });
    }
    Ok(records)
}

/// Serialize records as FASTA, sequences wrapped at 60 columns.
pub fn to_fasta_bytes(records: &[Record]) -> Vec<u8> {
    let mut out = Vec::new();
    for rec in records {
        out.push(b'>');
        out.extend_from_slice(rec.id.as_bytes());
        if !rec.desc.is_empty() {
            out.push(b' ');
            out.extend_from_slice(rec.desc.as_bytes());
        }
        out.push(b'\n');
        for chunk in rec.seq.chunks(60) {
            out.extend_from_slice(chunk);
            out.push(b'\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_single_record() {
        let recs = parse_fasta(b">c1 a contig\nACGT\nTTGG\n").unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].id, "c1");
        assert_eq!(recs[0].desc, "a contig");
        assert_eq!(recs[0].seq, b"ACGTTTGG");
    }

    #[test]
    fn parses_multiple_records_and_blank_lines() {
        let recs = parse_fasta(b">a\nAC\n\n>b\nGG\nTT\n\n>c\nA\n").unwrap();
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[1].seq, b"GGTT");
        assert_eq!(recs[2].id, "c");
    }

    #[test]
    fn handles_crlf() {
        let recs = parse_fasta(b">a\r\nACGT\r\n>b\r\nTT\r\n").unwrap();
        assert_eq!(recs[0].seq, b"ACGT");
        assert_eq!(recs[1].seq, b"TT");
        let recs = parse_fastq(b"@a x\r\nAC\r\n+\r\nII\r\n").unwrap();
        assert_eq!((recs[0].desc.as_str(), &recs[0].seq[..]), ("x", &b"AC"[..]));
    }

    #[test]
    fn rejects_leading_garbage() {
        assert!(matches!(parse_fasta(b"ACGT\n"), Err(Error::Format(_))));
    }

    #[test]
    fn rejects_empty_id() {
        assert!(parse_fasta(b">\nACGT\n").is_err());
        assert!(parse_fasta(b"> desc\nACGT\n").is_err());
    }

    #[test]
    fn fastq_rejects_empty_id() {
        let err = parse_fastq(b"@a\nAC\n+\nII\n@ desc\nAC\n+\nII\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "format error: line 5: empty record identifier"
        );
        assert!(parse_fastq(b"@\nAC\n+\nII\n").is_err());
    }

    #[test]
    fn names_the_line_that_is_not_utf8() {
        let err = parse_fasta(b">a\nAC\nG\xffT\n").unwrap_err();
        assert_eq!(err.to_string(), "format error: line 3: not UTF-8");
        let err = parse_fastq(b"@a\nAC\n+\nI\xff\n").unwrap_err();
        assert_eq!(err.to_string(), "format error: line 4: not UTF-8");
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(parse_fasta(b"").unwrap().is_empty());
        assert!(parse_fastq(b"\n\n").unwrap().is_empty());
    }

    #[test]
    fn record_with_no_sequence_is_allowed() {
        let recs = parse_fasta(b">a\n>b\nAC\n").unwrap();
        assert_eq!(recs[0].seq, b"");
        assert_eq!(recs[1].seq, b"AC");
        assert_eq!(to_fasta_bytes(&recs), b">a\n>b\nAC\n");
    }

    #[test]
    fn round_trip_with_wrapping() {
        let records = vec![
            Record::new("x", b"ACGT".repeat(32)),
            Record {
                id: "y".into(),
                desc: "len=3".into(),
                seq: b"GGG".to_vec(),
            },
        ];
        let buf = to_fasta_bytes(&records);
        assert_eq!(parse_fasta(&buf).unwrap(), records);
        // 128 bases at 60 columns -> 3 sequence lines, then y's one line.
        let text = String::from_utf8(buf).unwrap();
        let widths: Vec<usize> = text
            .lines()
            .filter(|l| !l.starts_with('>'))
            .map(str::len)
            .collect();
        assert_eq!(widths, [60, 60, 8, 3]);
    }

    #[test]
    fn parses_basic_record() {
        let recs = parse_fastq(b"@r1 left\nACGT\n+\nIIII\n").unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].id, "r1");
        assert_eq!(recs[0].desc, "left");
        assert_eq!(recs[0].seq, b"ACGT");
    }

    #[test]
    fn parses_multiple_records() {
        let recs = parse_fastq(b"@a\nAC\n+\nII\n@b\nGT\n+a\nJJ\n").unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1], Record::new("b", b"GT".to_vec()));
    }

    #[test]
    fn rejects_mismatched_quality_length() {
        assert!(parse_fastq(b"@a\nACGT\n+\nII\n").is_err());
    }

    #[test]
    fn rejects_missing_plus() {
        assert!(parse_fastq(b"@a\nACGT\nIIII\n").is_err());
    }

    #[test]
    fn rejects_truncation() {
        assert!(parse_fastq(b"@a\nACGT\n+\n").is_err());
        assert!(parse_fastq(b"@a\nACGT\n").is_err());
        assert!(parse_fastq(b"@a\n").is_err());
    }

    #[test]
    fn rejects_bad_header() {
        assert!(parse_fastq(b">a\nAC\n+\nII\n").is_err());
    }
}
