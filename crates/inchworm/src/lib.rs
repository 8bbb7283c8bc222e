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
//! Steps 2–4 run in epochs ([`assemble::assemble_on`]): the next `width`
//! unused seeds are walked at once against a snapshot of the used k-mers,
//! then committed in abundance order, a walk whose claims an earlier commit
//! took being replayed at its turn. A walk only ever loses candidates to
//! earlier commits, and losing a candidate that did not win changes no
//! step, so a walk whose claims are all still free is the serial walk: the
//! contigs are the serial contigs at every width.
//!
//! The output — a FASTA of "Inchworm contigs" — is what Chrysalis clusters.
//!
//! The parallel loops (the dictionary sort's and the walks') are the
//! caller's, taken as a `par(n, body)` loop ([`seqio::par`]):
//! [`seqio::par::sequential`] runs them in place; the pipeline passes its
//! stage team.

pub mod assemble;
pub mod contig;
pub mod dictionary;

pub use assemble::{assemble, assemble_on, EpochStats, InchwormConfig};
pub use contig::Contig;
pub use dictionary::Dictionary;
