//! Bowtie substrate: an FM-index short-read aligner.
//!
//! Trinity's Chrysalis step begins by aligning every input read against the
//! Inchworm contigs with Bowtie (an ungapped FM-index aligner). The paper
//! parallelizes this by splitting the *target* FASTA across ranks; each
//! rank builds an index over its slice and aligns all reads against it.
//!
//! This crate is the aligner itself, same algorithmic family as Bowtie 1:
//!
//! * [`suffix`] — suffix-array construction (a splitter sort by packed-key
//!   seed, then prefix doubling over the tied runs);
//! * [`bwt`] — Burrows–Wheeler transform as 2-bit blocks with popcount
//!   rank (C/Occ);
//! * [`fmindex`] — the queryable index over a multi-contig reference with
//!   exact backward search, position location and the joined text;
//! * [`align`] — `-v`-style alignment: up to `v` mismatches, both strands,
//!   by seed-and-verify: a piece of the read is backward-searched until one
//!   row is left, the rest of the read compared with the text;
//! * [`sam`] — minimal SAM records for the alignment output files the
//!   pipeline merges.
//!
//! The index build takes its loops as a `par(n, body)` loop
//! ([`seqio::par`]): `FmIndex::build_on` runs every pass over the text —
//! the suffix sort's, the Occ fill's — as a loop of the caller's, and gives
//! the same index in any loop order; `FmIndex::build` is it on the
//! sequential loop. The distributed Bowtie step passes each rank's team.

pub mod align;
pub mod bwt;
pub mod fmindex;
pub mod sam;
pub mod suffix;

pub use align::{align_read, AlignConfig, Alignment, Strand};
pub use fmindex::FmIndex;
pub use sam::SamRecord;
