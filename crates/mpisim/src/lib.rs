//! In-process MPI substrate.
//!
//! The paper's hybrid Chrysalis runs one MPI process per node with OpenMP
//! threads inside; it uses point-to-point sends, `MPI_Barrier` and
//! `MPI_Allgatherv` (strings after GraphFromFasta loop 1, packed integer
//! arrays after loop 2). Rust MPI bindings are immature and the benchmark
//! host is a single core, so this crate *simulates* a cluster in-process:
//!
//! * every rank is an OS thread (rank 0 the caller's own, so a one-rank
//!   cluster spawns nothing) executing the real algorithm on its real
//!   partition of the data — results are genuinely computed with the
//!   configured rank count;
//! * communication goes through shared-memory mailboxes and collective
//!   slots with the same semantics as the MPI calls the paper uses;
//! * *time* is virtual: each rank owns a [`clock::VClock`] that the compute
//!   loops charge with measured or replayed durations, and every
//!   communication primitive synchronizes clocks under an α–β network cost
//!   model ([`netmodel::NetModel`]).
//!
//! This is the standard trace-driven way to study distributed schedules and
//! is what makes the paper's strong-scaling figures reproducible here: the
//! curve shapes come from real per-item costs, real partitionings and a
//! principled communication model, not from wall-clock measurements of an
//! oversubscribed laptop.

#![warn(missing_docs)]

pub mod barrier;
pub mod clock;
pub mod cluster;
pub mod comm;
pub mod fault;
pub mod netmodel;
pub mod pack;
pub mod stats;

pub use clock::VClock;
pub use cluster::{
    crashed_ranks, merge_traces, run_cluster, run_cluster_faulty, unwrap_clean, RankOutput,
    RankState,
};
pub use comm::{Comm, Cost};
pub use fault::FaultPlan;
pub use netmodel::NetModel;
pub use stats::CommStats;

/// Serializes *measured* compute sections across simulated ranks.
///
/// Rank threads share the host's cores; if two ranks measure wall-clock
/// costs concurrently, scheduler contention inflates both measurements and
/// the virtual timings stop being comparable across rank counts. Holding
/// this lock around a measured section gives every rank an uncontended
/// measurement. Ranks only interact at collectives, so serializing compute
/// cannot change any output — it only cleans the clock.
///
/// Crate-private: a rank blocked in a collective while holding the guard
/// would deadlock its peers, so it is only taken around a closure handed to
/// [`Comm::charge_costed`] (every measured section) or
/// [`Comm::transport_bcast`] — which cannot reach the communicator.
pub(crate) fn compute_lock() -> parking_lot::MutexGuard<'static, ()> {
    static COMPUTE_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());
    COMPUTE_LOCK.lock()
}
