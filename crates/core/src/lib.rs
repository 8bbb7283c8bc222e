//! Chrysalis — the paper's primary contribution, reimplemented in Rust as
//! the hybrid MPI+OpenMP rank programs of Sachdeva et al. (IPDPSW/HiCOMB
//! 2014); the original shared-memory (OpenMP-style) execution is the same
//! programs on one rank.
//!
//! Chrysalis sits between Inchworm and Butterfly in the Trinity pipeline:
//!
//! 1. **Bowtie** ([`bowtie_mpi`]) aligns every input read to the Inchworm
//!    contigs; the paper distributes this by splitting the contig FASTA
//!    across ranks (PyFasta) and merging per-rank SAM files.
//! 2. **GraphFromFasta** ([`graph_from_fasta`]) clusters contigs into
//!    components: loop 1 ([`weld`]) harvests read-supported ≈2k-length
//!    "welding" subsequences shared between contigs, each a packed `u128`; loop 2 ([`pairs`])
//!    finds contig pairs sharing a weld; union-find turns pairs (plus
//!    paired-end scaffold links, [`scaffold`]) into components.
//! 3. **ReadsToTranscripts** ([`reads_to_transcripts`]) assigns every read
//!    to the component sharing the most k-mers, streaming the read file in
//!    `max_mem_reads`-sized chunks.
//!
//! Both compute loops follow the paper's hybrid scheme: a **chunked
//! round-robin** distribution of contigs over MPI ranks (Fig. 3), dynamic
//! OpenMP scheduling within a rank, and `MPI_Allgatherv` pooling of loop
//! outputs (two `u64` words per weld after loop 1, packed integer arrays
//! after loop 2).
//!
//! ## One rank program per stage
//!
//! Each stage has one SPMD rank program. Its OpenMP-only baseline
//! (`*_shared_memory`, "16 threads on one node" — the reference the scaling
//! figures compare against) is that program run on a one-rank cluster over
//! a free network, where every chunk is the rank's own and every
//! collective costs nothing; the wrappers only move the rank's span trace
//! into the output. Nothing walks a stage's loops or records a `gff.*` /
//! `rtt.*` span outside the rank programs.
//!
//! * GraphFromFasta: both loops are one pooled loop (distribute → compute →
//!   charge → pack → allgatherv) with a different item function and codec.
//!   How contigs reach ranks is a crate-private *partition* value: static
//!   chunked round-robin ([`gff_hybrid`]) or a master-dealt work queue
//!   ([`gff_hybrid_dynamic`], §V-A's future work). A rank's own loops draw
//!   its OpenMP threads' busy/idle lanes at
//!   `obs::THREAD_TRACK_BASE + rank·threads`.
//! * ReadsToTranscripts: one streaming loop; chunk `ci` is processed on
//!   rank `ci mod size`. Which chunks a rank *reads* is a crate-private
//!   *read policy*: the whole file ([`rtt_hybrid`], §III-C) or its own
//!   chunks ([`rtt_hybrid_striped`], §VI's MPI-I/O direction).
//! * Every measured loop is an `omp::costed_loop` and every measured serial
//!   region an `omp::timed`; on a rank either is charged through
//!   `mpisim::Comm::charge_costed`, which owns the measurement lock and the
//!   named span — so every second of a rank's stage time lies under a span
//!   that names it.
//!
//! ## Simulation notes (documented deviations)
//!
//! Ranks are in-process threads with virtual clocks (see `mpisim`). Two
//! deliberate simplifications keep a 192-rank simulation tractable on one
//! machine, both semantically equivalent to the paper's code:
//!
//! * Read-only *replicated* structures (the k-mer→contig map, the read
//!   support index, the k-mer→component map) are built once and shared by
//!   reference; every rank charges the build's whole virtual cost (the
//!   owner-routed build's loops — route, absorb, per-owner finalisation; the
//!   owner tables are queried where they were built, so there is no
//!   concatenation and no serial section) to its clock, exactly as if it
//!   had built its own copy concurrently.
//! * Final output generation (clustering, bundle emission, file merges)
//!   runs on the master rank with its measured cost; peers synchronize
//!   through the closing collective, so cluster elapsed time is identical
//!   to the redundant-execution layout.

pub mod bowtie_mpi;
pub mod config;
pub mod graph_from_fasta;
pub mod pairs;
pub mod reads_to_transcripts;
pub mod scaffold;
pub mod timings;
pub mod weld;

/// First obs track of this rank's OpenMP thread lanes.
pub(crate) fn thread_lanes(comm: &mpisim::Comm, cfg: &ChrysalisConfig) -> u32 {
    obs::THREAD_TRACK_BASE + (comm.rank() * cfg.threads) as u32
}

/// Name this rank's OpenMP thread lanes in its trace.
pub(crate) fn name_thread_lanes(comm: &mpisim::Comm, cfg: &ChrysalisConfig) {
    for t in 0..cfg.threads as u32 {
        let name = format!("rank {} thread {t}", comm.rank());
        comm.obs.name_track(thread_lanes(comm, cfg) + t, name);
    }
}

/// The closing step the Bowtie and ReadsToTranscripts rank programs share:
/// every rank's output file is gathered at the master, merged there in
/// sorted order and passed through `cut` (a measured serial region, the
/// `master.sort` span) and broadcast back (in the paper only the master's
/// file exists; broadcasting lets every rank return it without changing the
/// timing story). The whole step is recorded as a `cat:"comm"` span `name`.
/// `mine` is freed once packed.
pub(crate) fn master_merge<T: Ord>(
    comm: &mut mpisim::Comm,
    name: &str,
    mine: Vec<T>,
    pack: impl Fn(&[T]) -> Vec<u8>,
    unpack: impl Fn(&[u8]) -> Vec<T>,
    cut: impl FnOnce(&mut Vec<T>),
) -> Vec<T> {
    let start = comm.clock.now();
    let packed = pack(&mine);
    drop(mine);
    let gathered = comm.gatherv(0, &packed);
    drop(packed);
    let merged = match gathered {
        Some(parts) => {
            let all = comm.charge_costed("compute", "master.sort", &[], || {
                omp::timed(|| {
                    let mut all: Vec<T> = parts.iter().flat_map(|p| unpack(p)).collect();
                    all.sort();
                    cut(&mut all);
                    all
                })
            });
            pack(&all)
        }
        None => Vec::new(),
    };
    let out = unpack(&comm.bcast(0, &merged));
    comm.obs
        .record(comm.track(), "comm", name, start, comm.clock.now());
    out
}

pub use config::ChrysalisConfig;
pub use graph_from_fasta::{
    gff_hybrid, gff_hybrid_dynamic, gff_shared_memory, GffOutput, GffShared,
};
pub use reads_to_transcripts::{
    rtt_hybrid, rtt_hybrid_striped, rtt_shared_memory, RttOutput, RttShared,
};
pub use timings::{BowtieTimings, GffTimings, PhaseSpread, RttTimings};
