//! FASTQ records, readers and writers.
//!
//! Sequencers deliver reads as FASTQ (sequence + per-base quality). The
//! simulated datasets in this workspace emit FASTQ, and the pipeline driver
//! converts to FASTA internally exactly as `Trinity.pl` does.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use crate::error::{Error, Result};
use crate::fasta::Record;

/// One FASTQ record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastqRecord {
    /// Identifier (text after `@`, before first whitespace).
    pub id: String,
    /// Remainder of the header line.
    pub desc: String,
    /// Sequence bytes.
    pub seq: Vec<u8>,
    /// Phred+33 quality bytes, same length as `seq`.
    pub qual: Vec<u8>,
}

impl FastqRecord {
    /// Drop the qualities, yielding a FASTA record.
    pub fn into_fasta(self) -> Record {
        Record {
            id: self.id,
            desc: self.desc,
            seq: self.seq,
        }
    }

    /// Encode the sequence into its 2-bit packed form (qualities are not
    /// packed; k-mer stages never read them).
    pub fn packed(&self) -> crate::packed::PackedSeq {
        crate::packed::PackedSeq::from_bytes(&self.seq)
    }

    /// Sequence length.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// True if the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }
}

/// Streaming FASTQ reader (4-line records; multi-line FASTQ is not used by
/// any tool in this pipeline and is rejected for safety).
pub struct FastqReader<R: Read> {
    inner: BufReader<R>,
    line_no: usize,
}

impl FastqReader<std::fs::File> {
    /// Open a FASTQ file from a path.
    pub fn from_path(path: impl AsRef<Path>) -> Result<Self> {
        Ok(Self::new(std::fs::File::open(path)?))
    }
}

impl<R: Read> FastqReader<R> {
    /// Wrap a reader.
    pub fn new(reader: R) -> Self {
        FastqReader {
            inner: BufReader::with_capacity(1 << 16, reader),
            line_no: 0,
        }
    }

    fn read_line(&mut self, buf: &mut String) -> Result<usize> {
        buf.clear();
        let n = self.inner.read_line(buf)?;
        if n > 0 {
            self.line_no += 1;
        }
        while buf.ends_with('\n') || buf.ends_with('\r') {
            buf.pop();
        }
        Ok(n)
    }

    /// Read the next record, or `None` at end of input.
    pub fn next_record(&mut self) -> Result<Option<FastqRecord>> {
        let mut header = String::new();
        loop {
            let n = self.read_line(&mut header)?;
            if n == 0 {
                return Ok(None);
            }
            if !header.is_empty() {
                break;
            }
        }
        let header = header
            .strip_prefix('@')
            .ok_or_else(|| {
                Error::Format(format!(
                    "line {}: expected '@' header, found {:?}",
                    self.line_no, header
                ))
            })?
            .to_string();
        let (id, desc) = match header.split_once(char::is_whitespace) {
            Some((id, rest)) => (id.to_string(), rest.trim_start().to_string()),
            None => (header, String::new()),
        };

        let mut seq = String::new();
        if self.read_line(&mut seq)? == 0 {
            return Err(Error::Format(format!(
                "line {}: truncated record (missing sequence)",
                self.line_no
            )));
        }
        let mut plus = String::new();
        if self.read_line(&mut plus)? == 0 || !plus.starts_with('+') {
            return Err(Error::Format(format!(
                "line {}: expected '+' separator",
                self.line_no
            )));
        }
        let mut qual = String::new();
        if self.read_line(&mut qual)? == 0 {
            return Err(Error::Format(format!(
                "line {}: truncated record (missing quality)",
                self.line_no
            )));
        }
        if qual.len() != seq.len() {
            return Err(Error::Format(format!(
                "line {}: quality length {} != sequence length {}",
                self.line_no,
                qual.len(),
                seq.len()
            )));
        }
        Ok(Some(FastqRecord {
            id,
            desc,
            seq: seq.into_bytes(),
            qual: qual.into_bytes(),
        }))
    }

    /// Collect every record into memory.
    pub fn read_all(mut self) -> Result<Vec<FastqRecord>> {
        let mut out = Vec::new();
        while let Some(rec) = self.next_record()? {
            out.push(rec);
        }
        Ok(out)
    }
}

impl<R: Read> Iterator for FastqReader<R> {
    type Item = Result<FastqRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

/// Buffered FASTQ writer.
pub struct FastqWriter<W: Write> {
    inner: W,
}

impl FastqWriter<std::io::BufWriter<std::fs::File>> {
    /// Create (truncate) a FASTQ file at a path.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        Ok(Self::new(std::io::BufWriter::new(std::fs::File::create(
            path,
        )?)))
    }
}

impl<W: Write> FastqWriter<W> {
    /// Wrap a writer.
    pub fn new(writer: W) -> Self {
        FastqWriter { inner: writer }
    }

    /// Write one record.
    pub fn write_record(&mut self, rec: &FastqRecord) -> Result<()> {
        if rec.qual.len() != rec.seq.len() {
            return Err(Error::Format(format!(
                "record {}: quality length {} != sequence length {}",
                rec.id,
                rec.qual.len(),
                rec.seq.len()
            )));
        }
        if rec.desc.is_empty() {
            writeln!(self.inner, "@{}", rec.id)?;
        } else {
            writeln!(self.inner, "@{} {}", rec.id, rec.desc)?;
        }
        self.inner.write_all(&rec.seq)?;
        self.inner.write_all(b"\n+\n")?;
        self.inner.write_all(&rec.qual)?;
        self.inner.write_all(b"\n")?;
        Ok(())
    }

    /// Flush the underlying writer.
    pub fn flush(&mut self) -> Result<()> {
        self.inner.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Vec<FastqRecord>> {
        FastqReader::new(bytes).read_all()
    }

    #[test]
    fn parses_basic_record() {
        let recs = parse(b"@r1 left\nACGT\n+\nIIII\n").unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].id, "r1");
        assert_eq!(recs[0].desc, "left");
        assert_eq!(recs[0].seq, b"ACGT");
        assert_eq!(recs[0].qual, b"IIII");
    }

    #[test]
    fn parses_multiple_records() {
        let recs = parse(b"@a\nAC\n+\nII\n@b\nGT\n+a\nJJ\n").unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].qual, b"JJ");
    }

    #[test]
    fn rejects_mismatched_quality_length() {
        assert!(parse(b"@a\nACGT\n+\nII\n").is_err());
    }

    #[test]
    fn rejects_missing_plus() {
        assert!(parse(b"@a\nACGT\nIIII\n").is_err());
    }

    #[test]
    fn rejects_truncation() {
        assert!(parse(b"@a\nACGT\n+\n").is_err());
        assert!(parse(b"@a\nACGT\n").is_err());
        assert!(parse(b"@a\n").is_err());
    }

    #[test]
    fn rejects_bad_header() {
        assert!(parse(b">a\nAC\n+\nII\n").is_err());
    }

    #[test]
    fn round_trip() {
        let rec = FastqRecord {
            id: "x".into(),
            desc: "1/2".into(),
            seq: b"GATTACA".to_vec(),
            qual: b"IIHHGGF".to_vec(),
        };
        let mut buf = Vec::new();
        FastqWriter::new(&mut buf).write_record(&rec).unwrap();
        assert_eq!(parse(&buf).unwrap(), vec![rec]);
    }

    #[test]
    fn writer_validates_lengths() {
        let rec = FastqRecord {
            id: "x".into(),
            desc: String::new(),
            seq: b"ACGT".to_vec(),
            qual: b"II".to_vec(),
        };
        assert!(FastqWriter::new(Vec::new()).write_record(&rec).is_err());
    }

    #[test]
    fn fasta_conversion_drops_qualities() {
        let rec = FastqRecord {
            id: "q".into(),
            desc: String::new(),
            seq: b"ACG".to_vec(),
            qual: b"III".to_vec(),
        };
        let fa = rec.into_fasta();
        assert_eq!(fa.id, "q");
        assert_eq!(fa.seq, b"ACG");
    }
}
