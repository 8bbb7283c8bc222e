//! Jellyfish substrate: fast, memory-conscious k-mer counting.
//!
//! Jellyfish is the first stage of the Trinity workflow: it counts every
//! k-mer (k = 25 by default in Trinity) across all reads; upstream dumps
//! the counts to (very large) text files that Inchworm then ingests, here
//! the count table is handed to Inchworm in memory. This crate reproduces
//! that role:
//!
//! * [`routed`] — the owner-routed table build every k-mer-keyed table of
//!   the pipeline goes through (route → owner-local absorb, in rounds,
//!   then a per-owner finalisation loop where one is needed); its owner
//!   tables are the finished table, never concatenated;
//! * [`counter`] — parallel counting over a read set, as a routed build
//!   whose owners [`KmerCounts`] holds as one partitioned table.

pub mod counter;
pub mod routed;

pub use counter::{count_kmers, CounterConfig, KmerCounts};
