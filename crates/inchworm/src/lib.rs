//! Inchworm substrate: greedy contig assembly from k-mer counts.
//!
//! Inchworm (§II-A of the paper) ingests the Jellyfish k-mer table and:
//!
//! 1. builds a dictionary of k-mers sorted by decreasing abundance
//!    (removing likely error k-mers);
//! 2. seeds a contig at the most abundant unused k-mer;
//! 3. greedily extends the seed in both directions, at each step taking the
//!    highest-abundance k-mer with a (k−1)-base overlap;
//! 4. reports the linear contig, marks its k-mers used, and repeats until
//!    the dictionary is exhausted.
//!
//! Steps 2–4 run as one ordered loop ([`assemble::assemble_on`]): workers
//! take the next unused seed and walk it against the used k-mers as they
//! stand, up to a window of walks in flight, and the walks commit in
//! abundance order, each as soon as every earlier one has. Each walk marks
//! the k-mers it claims, and a later walk steps around marked k-mers as if
//! they were used; a walk whose claims a commit took since it started, or
//! whose stepped-around k-mers are still free at its turn, is replayed
//! then. A walk that saw only k-mers used by its turn, and whose claims are
//! all still free, is the serial walk — losing a candidate that did not win
//! changes no step — so the contigs are the serial contigs at every window.
//!
//! The output — a FASTA of "Inchworm contigs" — is what Chrysalis clusters.
//!
//! The loops are the caller's ([`seqio::par`]): the dictionary sort's as a
//! `par(n, body)` loop, the walks as an `ord(window, take, work, commit)`
//! loop. [`seqio::par::sequential`] and [`seqio::par::in_order`] run them
//! in place; the pipeline passes its stage team's.

pub mod assemble;
pub mod contig;
pub mod dictionary;

pub use assemble::{assemble, assemble_on, InchwormConfig, WalkStats, WINDOW_PER_THREAD};
pub use contig::Contig;
pub use dictionary::Dictionary;
