//! Butterfly substrate: transcript reconstruction.
//!
//! "Butterfly reconstructs feasible full-length linear transcripts by
//! reconciling the individual de Bruijn graphs generated by Chrysalis with
//! the original reads and paired end data. Each Chrysalis component or
//! graph can produce several linear transcripts, which in most cases will
//! correspond to alternative splicing of the gene product." (§II-A)
//!
//! [`paths`] enumerates read-supported paths through one component's de
//! Bruijn graph; [`transcripts`] drives it over every component and emits
//! the final transcript FASTA.

pub mod paths;
pub mod transcripts;

pub use paths::enumerate_paths;
pub use transcripts::{reconstruct, ComponentInput, ReconstructionConfig};
