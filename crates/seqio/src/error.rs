//! Error type shared by the sequence-I/O substrate.

use std::fmt;

/// Convenience alias used throughout `seqio`.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while parsing sequence data or building k-mers.
#[derive(Debug)]
pub enum Error {
    /// A FASTA/FASTQ record violated the format (the message names the line).
    Format(String),
    /// A base outside `ACGTN` (case-insensitive) was encountered where a
    /// strict alphabet was required.
    InvalidBase(u8),
    /// A k-mer parameter was out of the supported range.
    InvalidK(usize),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Format(msg) => write!(f, "format error: {msg}"),
            Error::InvalidBase(b) => {
                write!(f, "invalid base byte 0x{b:02x} ({:?})", *b as char)
            }
            Error::InvalidK(k) => write!(f, "unsupported k-mer size {k} (must be 1..=32)"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = Error::InvalidBase(b'X');
        assert!(e.to_string().contains("0x58"));
        let e = Error::InvalidK(33);
        assert!(e.to_string().contains("33"));
        let e = Error::Format("bad header".into());
        assert!(e.to_string().contains("bad header"));
    }
}
