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
//! * Every measured loop is an `omp::costed_loop`, every region of loops a
//!   `CostedTeam::region` (the loops' makespan plus the serial remainder,
//!   reported as span arg `serial_s`: `bowtie.index`, `gff.weld_index`,
//!   `master.sort`) and every measured serial block an `omp::timed`; on a
//!   rank each is charged through
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

use mpisim::comm::Cost;
use omp::makespan::{CostedTeam, RegionCost};
use seqio::par::{Splitters, BUCKETS};

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

/// What a rank charges for a region on its team: the region's makespan
/// plus its serial remainder, with the remainder as span arg `serial_s`
/// after `args`.
pub(crate) fn region_charge(cost: RegionCost, mut args: Vec<(&'static str, f64)>) -> Cost {
    args.push(("serial_s", cost.serial));
    Cost {
        seconds: cost.charge(),
        args,
    }
}

/// A line of a per-rank output file the master merges: its wire form and
/// the read it belongs to. The order sorts by read first, and a rank emits
/// its lines in read order.
pub(crate) trait ReadLine: Ord + Copy + Send + Sync {
    /// Bytes per line on the wire.
    const WIDTH: usize;
    /// The read this line belongs to.
    fn read(&self) -> u32;
    /// The wire form of consecutive lines; packed runs concatenate.
    fn pack(lines: &[Self]) -> Vec<u8>;
    /// Inverse of [`ReadLine::pack`] for a buffer a peer rank packed.
    fn unpack(buf: &[u8]) -> Vec<Self>;
}

/// Reads sampled per bucket for the master merge's splitters.
const MERGE_SAMPLES_PER_BUCKET: usize = 8;

/// The master's merge of gathered per-rank files, on `team`: unpack the
/// parts (a loop over chunks of whole lines), cut the read range into
/// buckets with [`Splitters`] over a sample of the reads, and — a loop over
/// buckets — take each bucket's range of every chunk, sort it, apply `cut`
/// and pack it. The packed buckets concatenate in order to the packed
/// merged file.
///
/// Every part, and so every chunk, is in read order, so a bucket's range of
/// a chunk is one binary search away, and a read's lines never straddle two
/// buckets: `cut`, which works per read, is exact per bucket. The result is
/// the whole file sorted and cut, on every team.
pub(crate) fn merge_parts<T: ReadLine>(
    parts: &[Vec<u8>],
    team: &mut impl omp::Team,
    cut: impl Fn(&mut Vec<T>) + Sync,
) -> Vec<u8> {
    let chunks: Vec<&[u8]> = parts
        .iter()
        .flat_map(|p| {
            assert_eq!(p.len() % T::WIDTH, 0, "peer sent whole lines");
            let lines = seqio::par::chunks(p.len() / T::WIDTH).into_iter();
            lines.map(|r| &p[r.start * T::WIDTH..r.end * T::WIDTH])
        })
        .collect();
    let parts: Vec<Vec<T>> = team.map(&chunks, |c| T::unpack(c));
    debug_assert!(parts
        .iter()
        .all(|p| p.windows(2).all(|w| w[0].read() <= w[1].read())));
    let lines: usize = parts.iter().map(Vec::len).sum();
    let stride = lines.div_ceil(BUCKETS * MERGE_SAMPLES_PER_BUCKET).max(1);
    let sample = parts.iter().flat_map(|p| p.iter().step_by(stride));
    let splitters = Splitters::new(sample.map(|line| u64::from(line.read())));
    let bucket = |line: &T| splitters.bucket(u64::from(line.read()));
    let buckets: Vec<usize> = (0..BUCKETS).collect();
    let packed = team.map(&buckets, |&b| {
        let mut all: Vec<T> = Vec::new();
        for p in &parts {
            let from = p.partition_point(|line| bucket(line) < b);
            let to = p.partition_point(|line| bucket(line) <= b);
            all.extend_from_slice(&p[from..to]);
        }
        all.sort_unstable();
        cut(&mut all);
        T::pack(&all)
    });
    packed.concat()
}

/// The closing step the Bowtie and ReadsToTranscripts rank programs share:
/// every rank's output file is gathered at the master, merged there in
/// sorted order and passed through `cut` ([`merge_parts`], a region on the
/// master's team: the `master.sort` span, drawn on rank 0's thread lanes,
/// with its serial remainder as arg `serial_s`) and broadcast back (in the
/// paper only the master's file exists; broadcasting lets every rank return
/// it without changing the timing story). The whole step is recorded as a
/// `cat:"comm"` span `name`. `mine` is freed once packed.
pub(crate) fn master_merge<T: ReadLine>(
    comm: &mut mpisim::Comm,
    cfg: &ChrysalisConfig,
    name: &str,
    mine: Vec<T>,
    cut: impl Fn(&mut Vec<T>) + Sync,
) -> Vec<T> {
    let start = comm.clock.now();
    let packed = T::pack(&mine);
    drop(mine);
    let gathered = comm.gatherv(0, &packed);
    drop(packed);
    let merged = match gathered {
        Some(parts) => {
            let mut team = CostedTeam::new(cfg.threads, cfg.schedule);
            let sort_start = comm.clock.now();
            let merged = comm.charge_costed("compute", "master.sort", &[], || {
                let (merged, cost) = team.region(|team| merge_parts(&parts, team, &cut));
                (merged, region_charge(cost, Vec::new()))
            });
            let lanes = thread_lanes(comm, cfg);
            team.sim
                .record_spans(&comm.obs, sort_start, lanes, "master.sort");
            merged
        }
        None => Vec::new(),
    };
    let out = T::unpack(&comm.bcast(0, &merged));
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

/// Teams the equivalence tests run a region's loops on, beside
/// [`omp::Pool`] and [`CostedTeam`].
#[cfg(test)]
pub(crate) mod test_teams {
    /// Three workers that run every loop's items last to first.
    pub(crate) struct Reversed;

    impl omp::Team for Reversed {
        fn threads(&self) -> usize {
            3
        }

        fn map<T: Sync, R: Send>(&mut self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
            let mut out: Vec<R> = items.iter().rev().map(f).collect();
            out.reverse();
            out
        }

        fn ordered(
            &mut self,
            _: usize,
            _: &mut (dyn FnMut() -> bool + Send),
            _: &(dyn Fn(usize) + Sync),
            _: &mut (dyn FnMut(usize) + Send),
        ) {
            unreachable!("no region under test has an ordered loop")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{run_cluster, NetModel};
    use std::sync::Arc;

    /// Keep at most two lines per read, the last two — a cut that works per
    /// read, as `recut_per_read` does.
    fn keep_two(lines: &mut Vec<(u32, u32)>) {
        let mut kept = Vec::new();
        for read in lines.chunk_by(|a, b| a.0 == b.0) {
            kept.extend_from_slice(&read[read.len().saturating_sub(2)..]);
        }
        *lines = kept;
    }

    /// `lines` dealt over `ranks` files at random, each file in read order
    /// but its lines of one read in dealt order — what ranks emit.
    fn deal(lines: &[(u32, u32)], ranks: usize, seed: u64) -> Vec<Vec<(u32, u32)>> {
        let mut state = seed;
        let mut files = vec![Vec::new(); ranks];
        for &line in lines {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            files[(state >> 33) as usize % ranks].push(line);
        }
        for file in &mut files {
            file.sort_by_key(|line| line.0);
        }
        files
    }

    fn lines(n: u32, reads: u32) -> Vec<(u32, u32)> {
        (0..n)
            .map(|i| {
                (
                    i.wrapping_mul(2654435761) % reads,
                    i.wrapping_mul(40503) % 97,
                )
            })
            .collect()
    }

    fn expected(lines: &[(u32, u32)]) -> Vec<(u32, u32)> {
        let mut all = lines.to_vec();
        all.sort_unstable();
        keep_two(&mut all);
        all
    }

    #[test]
    fn merged_parts_are_the_sorted_cut_file_on_every_team() {
        for (n, reads) in [(0, 1), (5, 3), (3000, 700), (6000, 40)] {
            let lines = lines(n, reads);
            let expect = <(u32, u32)>::pack(&expected(&lines));
            for ranks in [1, 2, 4, 7] {
                let parts: Vec<Vec<u8>> = deal(&lines, ranks, ranks as u64)
                    .iter()
                    .map(|f| <(u32, u32)>::pack(f))
                    .collect();
                let costed = &mut CostedTeam::new(16, omp::Schedule::Dynamic { chunk: 1 });
                let merged = [
                    merge_parts(&parts, &mut omp::Pool::new(1), keep_two),
                    merge_parts(&parts, &mut omp::Pool::new(2), keep_two),
                    merge_parts(&parts, &mut test_teams::Reversed, keep_two),
                    merge_parts(&parts, costed, keep_two),
                ];
                for m in merged {
                    assert_eq!(m, expect, "n={n} ranks={ranks}");
                }
            }
        }
    }

    #[test]
    fn master_merge_returns_the_sorted_cut_file_on_every_rank() {
        let lines = lines(4000, 900);
        let expect = expected(&lines);
        for ranks in [1usize, 2, 4, 7] {
            let files = Arc::new(deal(&lines, ranks, 7 * ranks as u64));
            let cfg = ChrysalisConfig::small(8);
            let outs = run_cluster(ranks, NetModel::ideal(), move |comm| {
                let mine = files[comm.rank()].clone();
                master_merge(comm, &cfg, "test.merge", mine, keep_two)
            });
            for o in &outs {
                assert_eq!(o.value, expect, "ranks={ranks} rank={}", o.rank);
            }
        }
    }

    #[test]
    fn master_sort_span_is_the_teams_makespan_plus_its_serial_remainder() {
        // The master's merge loops are charged at the team's makespan,
        // drawn on rank 0's thread lanes, and what runs between them at its
        // wall time, the `serial_s` the span reports. On one thread the
        // makespan is the items' summed cost.
        let lines = lines(20_000, 5000);
        for threads in [4, 1] {
            let files = Arc::new(deal(&lines, 2, 3));
            let cfg = ChrysalisConfig {
                threads,
                ..ChrysalisConfig::small(8)
            };
            let outs = run_cluster(2, NetModel::ideal(), move |comm| {
                let mine = files[comm.rank()].clone();
                master_merge(comm, &cfg, "test.merge", mine, |_| {}).len()
            });
            let trace = &outs[0].trace;
            let mut spans = trace.on_track(0);
            let sort = spans.find(|sp| sp.name == "master.sort").unwrap();
            let lane = obs::THREAD_TRACK_BASE;
            let busy: f64 = (0..threads as u32)
                .map(|t| trace.span_sum(lane + t, "master.sort.busy"))
                .sum();
            let idle: f64 = (0..threads as u32)
                .map(|t| trace.span_sum(lane + t, "master.sort.idle"))
                .sum();
            let makespan = (busy + idle) / threads as f64;
            let serial = sort.arg("serial_s").unwrap();
            let duration = sort.duration();
            assert!(busy > 0.0 && serial > 0.0);
            assert!((duration - (makespan + serial)).abs() <= 1e-9 * duration);
            if threads == 1 {
                assert_eq!(idle, 0.0, "one thread runs every item");
            }
            assert!(outs[1].trace.on_track(1).all(|sp| sp.name != "master.sort"));
            assert_eq!(outs[0].value, 20_000);
        }
    }
}
