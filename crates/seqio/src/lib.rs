//! Sequence I/O substrate for the `trinity-hpc` workspace.
//!
//! This crate provides the low-level pieces every other stage of the pipeline
//! builds on:
//!
//! * [`alphabet`] — the DNA alphabet and complementation;
//! * [`kmer`] — 2-bit packed k-mers (k ≤ 32) with canonical forms and
//!   streaming extraction from arbitrary byte sequences;
//! * [`packed`] — whole sequences packed 2 bits/base with an N-run index,
//!   encoded once at ingest, plus rolling canonical k-mer iterators
//!   (O(1) amortized per base) that every hot stage consumes;
//! * [`fasta`] — the record type, the FASTA and FASTQ parsers and the FASTA
//!   writer, over whole files held as byte buffers;
//! * [`splitter`] — a PyFasta-equivalent even-by-bases partitioner used by
//!   the distributed Bowtie step;
//! * [`par`] — the `par(n, body)` loop contract the stage builders take
//!   instead of owning threads, and the splitter-sort pieces their loops
//!   share;
//! * [`stats`] — assembly statistics (N50 and friends) used by reports.
//!
//! Files are read whole and parsed from memory; a line that is not UTF-8 is
//! rejected with its line number (see [`fasta`]).

pub mod alphabet;
pub mod error;
pub mod fasta;
pub mod kmer;
pub mod packed;
pub mod par;
pub mod splitter;
pub mod stats;

pub use error::{Error, Result};
pub use fasta::Record;
pub use kmer::{Kmer, KmerIter, RollState, Rolled};
pub use packed::{PackedSeq, SeqioStats};
