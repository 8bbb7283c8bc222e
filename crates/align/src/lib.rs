//! Validation substrate: sequence alignment and transcript-quality metrics.
//!
//! §IV of the paper validates the hybrid Chrysalis in two ways:
//!
//! 1. **All-to-all Smith–Waterman** between transcripts from the parallel
//!    and original pipelines (via the FASTA program), categorized into
//!    (a) 100 % identical full-length matches, (b) <100 % full-length,
//!    (c) partial-length, with (d) the identity distribution of (c) —
//!    Fig. 4;
//! 2. **Reference-based counting**: reconstructed genes/isoforms aligned
//!    full-length onto a reference transcript set (Fig. 5) and "fused"
//!    transcripts spanning multiple reference genes (Fig. 6).
//!
//! [`sw`] implements affine-gap local alignment (Smith–Waterman, the same
//! algorithm the FASTA program uses) and [`validate`] the categorization
//! and counting logic.

pub mod sw;
pub mod validate;

pub use sw::{smith_waterman, LocalAlignment, ScoringScheme};
pub use validate::{
    all_to_all_categories, count_full_length, count_fusions, AlignmentClass, CategoryCounts,
    FullLengthCriteria,
};
