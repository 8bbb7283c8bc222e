//! ReadsToTranscripts: assign each read to the component (Inchworm bundle)
//! sharing the most k-mers.
//!
//! The hybrid scheme (§III-C) avoids communication entirely: **every rank
//! streams the whole read file**, uploading `max_mem_reads`-sized chunks,
//! but only *processes* the chunks whose index is congruent to its rank —
//! "this approach does make every process read redundant data … but
//! excludes the necessity of MPI communication". Per-rank outputs are
//! concatenated by the master at the end (a cheap `cat`, <15 s in the
//! paper). Which chunks a rank *reads* is the rank program's `ReadPolicy`.

use std::borrow::Cow;

use kcount::routed::{routed_build, OWNERS};
use kmertable::{PackedKmerTable, PartitionedKmerTable};
use seqio::fasta::Record;
use seqio::packed::PackedSeq;

use mpisim::comm::Comm;
use mpisim::{run_cluster, NetModel};
use omp::makespan::CostedTeam;
use omp::schedule::static_owner;
use omp::Team;

use crate::config::ChrysalisConfig;
use crate::rank_region;
use crate::timings::RttTimings;

/// Read-only state for the stage: the read set (standing in for the
/// streamed FASTA file) and the replicated k-mer→component table.
pub struct RttShared<'a> {
    /// All input reads, in file order (ASCII form: the streamed-file model
    /// walks these bytes to charge I/O). Borrowed from the caller where it
    /// still holds them, as the pipeline does, so the stage copies no read.
    pub reads: Cow<'a, [Record]>,
    /// The same reads 2-bit packed once at prepare time; the voting loop
    /// rolls canonical k-mers off this form.
    pub packed_reads: Vec<PackedSeq>,
    /// Canonical k-mer → component table ("assignment of k-mers to
    /// Inchworm bundles", OpenMP-only in the paper). The open-addressing
    /// owner tables of the routed build, queried in place: the per-read
    /// voting loop probes them once per read k-mer, making this the
    /// stage's hottest structure.
    pub kmer_to_component: PartitionedKmerTable,
    /// Virtual cost of building the table with the configured threads:
    /// the routed build's region charge, its loops' makespan plus its wall
    /// time outside them.
    pub kmer_setup_cost: f64,
    /// Number of components.
    pub n_components: usize,
    /// Stage configuration.
    pub cfg: ChrysalisConfig,
}

impl<'a> RttShared<'a> {
    /// Build the replicated table from the clustered contigs (measured).
    /// `components[c]` lists contig indices of component `c`.
    pub fn prepare(
        reads: Vec<Record>,
        contigs: &[PackedSeq],
        components: &[Vec<usize>],
        cfg: ChrysalisConfig,
    ) -> Self {
        let packed_reads = seqio::packed::encode_all(&reads);
        Self::prepare_with_packed(reads, packed_reads, contigs, components, cfg)
    }

    /// [`Self::prepare`] with pre-encoded reads — the pipeline packs every
    /// read once at ingest and hands the same encoding to each stage.
    pub fn prepare_with_packed(
        reads: impl Into<Cow<'a, [Record]>>,
        packed_reads: Vec<PackedSeq>,
        contigs: &[PackedSeq],
        components: &[Vec<usize>],
        cfg: ChrysalisConfig,
    ) -> Self {
        let reads = reads.into();
        assert_eq!(
            reads.len(),
            packed_reads.len(),
            "one packed form per read, in file order"
        );
        let mut team = CostedTeam::new(cfg.threads, cfg.schedule);
        let (kmer_to_component, cost) =
            team.region(|team| Self::build_table(contigs, components, cfg.k, team));
        RttShared {
            reads,
            packed_reads,
            kmer_to_component,
            kmer_setup_cost: cost.charge(),
            n_components: components.len(),
            cfg,
        }
    }

    /// "the OpenMP-enabled assignment of k-mers to Inchworm bundles": the
    /// canonical k-mer → component table as an owner-routed build over
    /// component batches on `team`. The first component to claim a k-mer
    /// keeps it; ids are dense and ascending, so owner-locally that is
    /// "smallest id wins", whatever order the claims arrive in. The owner
    /// tables are the result.
    pub fn build_table(
        contigs: &[PackedSeq],
        components: &[Vec<usize>],
        k: usize,
        team: &mut impl Team,
    ) -> PartitionedKmerTable {
        let batches: Vec<(usize, &[Vec<usize>])> = components
            .chunks(COMPONENT_BATCH)
            .enumerate()
            .map(|(b, batch)| (b * COMPONENT_BATCH, batch))
            .collect();
        let owners = routed_build(
            &batches,
            vec![PackedKmerTable::new(); OWNERS],
            team,
            |&(first, batch), router| {
                for (ci, members) in batch.iter().enumerate() {
                    for &m in members {
                        if let Ok(iter) = contigs[m].canonical_kmers(k) {
                            for (_, km) in iter {
                                router.push(km.packed(), (first + ci) as u32);
                            }
                        }
                    }
                }
            },
            |table, routed| {
                for &(key, component) in routed {
                    table.update_min(key, component);
                }
            },
        );
        PartitionedKmerTable::from_owners(owners)
    }

    /// Assign one packed read: the component with the most shared k-mers,
    /// ties to the smallest component id. `None` if no k-mer of the read
    /// is in the table.
    ///
    /// Canonical k-mers roll off the 2-bit form in O(1) per base, and
    /// votes accumulate in a fixed inline array scanned linearly: a read's
    /// k-mers hit very few distinct components, so the scan beats hashing
    /// and the per-read heap allocation the old `Vec` tally paid. Reads
    /// touching more than `MAX_INLINE_VOTES` components (pathological)
    /// spill the excess to a heap vector, preserving exact semantics.
    pub fn assign_packed(&self, read: &PackedSeq) -> Option<u32> {
        let mut inline = [(0u32, 0u32); MAX_INLINE_VOTES];
        let mut n_inline = 0usize;
        let mut spill: Vec<(u32, u32)> = Vec::new();
        let iter = read.canonical_kmers(self.cfg.k).ok()?;
        for (_, km) in iter {
            if let Some(c) = self.kmer_to_component.get(km.packed()) {
                if let Some(v) = inline[..n_inline].iter_mut().find(|(vc, _)| *vc == c) {
                    v.1 += 1;
                } else if n_inline < MAX_INLINE_VOTES {
                    inline[n_inline] = (c, 1);
                    n_inline += 1;
                } else if let Some(v) = spill.iter_mut().find(|(vc, _)| *vc == c) {
                    v.1 += 1;
                } else {
                    spill.push((c, 1));
                }
            }
        }
        // Selection compares (count, id) totally, so tally order is
        // irrelevant and the inline/spill split cannot change the winner.
        let mut best: Option<(u32, u32)> = None;
        for &(c, n) in inline[..n_inline].iter().chain(spill.iter()) {
            let better = match best {
                Some((bc, bn)) => n > bn || (n == bn && c < bc),
                None => true,
            };
            if better {
                best = Some((c, n));
            }
        }
        best.map(|(c, _)| c)
    }
}

/// Components per routed batch of the k-mer→component table build.
const COMPONENT_BATCH: usize = 16;

/// Distinct components a read's k-mers plausibly hit; the vote tally keeps
/// this many slots on the stack before spilling.
const MAX_INLINE_VOTES: usize = 12;

/// The stage output: `(read index, component)` assignments in read order.
#[derive(Debug, Clone, PartialEq)]
pub struct RttOutput {
    /// Assigned reads (unassignable reads are omitted, as in Trinity).
    pub assignments: Vec<(u32, u32)>,
    /// This rank's phase timings (derived from the span trace).
    pub timings: RttTimings,
    /// Span trace of the stage. A rank program records on [`Comm::obs`]
    /// and leaves this empty — its spans travel out via
    /// `mpisim::RankOutput::trace`; [`rtt_shared_memory`] moves its one
    /// rank's trace (track 0) here.
    pub trace: obs::Trace,
}

/// Simulated "upload" of one chunk: walk the bytes as a parser would. Its
/// measured seconds stand in for file I/O.
fn stream_chunk(reads: &[Record]) {
    let mut bytes = 0usize;
    for r in reads {
        // Touch every byte so the measured cost scales with data volume.
        bytes += r.seq.iter().map(|&b| (b & 0x0f) as usize).sum::<usize>() & 0xff;
        bytes += r.seq.len() + r.id.len();
    }
    std::hint::black_box(bytes);
}

/// Assign a chunk's reads (the OpenMP-parallel inner loop) on `team`.
fn assign_chunk(
    shared: &RttShared,
    base: usize,
    chunk: &[Record],
    team: &mut impl Team,
) -> Vec<(u32, u32)> {
    let reads = &shared.packed_reads[base..base + chunk.len()];
    let results = team.map(reads, |read| shared.assign_packed(read));
    (base..)
        .zip(results)
        .filter_map(|(i, c)| c.map(|c| (i as u32, c)))
        .collect()
}

/// Shared-memory (OpenMP-only) ReadsToTranscripts: the baseline ("on a
/// single node, … using 16 threads") — [`rtt_hybrid`] on a one-rank
/// cluster over a free network, with the rank's span trace (clock from
/// t = 0, `"rtt.total"` root on track 0) moved into [`RttOutput::trace`].
///
/// Call it from outside rank programs only: the rank runs on the calling
/// thread and takes the process-wide measurement lock, which is not
/// re-entrant.
pub fn rtt_shared_memory(shared: &RttShared) -> RttOutput {
    let mut rank0 = run_cluster(1, NetModel::ideal(), |comm| rtt_hybrid(comm, shared)).remove(0);
    rank0.value.trace = rank0.trace;
    rank0.value
}

/// Which chunks of the read file a rank uploads. It *processes* chunk `ci`
/// iff `static_owner(ci, size)` is its rank either way.
#[derive(Clone, Copy, PartialEq)]
enum ReadPolicy {
    /// §III-C: every rank streams the whole file and discards the chunks
    /// it does not own — redundant reads, no communication.
    WholeFile,
    /// §VI ("exploring MPI-I/O for RNA-Seq data"): an
    /// `MPI_File_read_at`-style strided access to the owned chunks only.
    OwnChunks,
}

/// Hybrid MPI+OpenMP ReadsToTranscripts — one rank's program (§III-C).
pub fn rtt_hybrid(comm: &mut Comm, shared: &RttShared) -> RttOutput {
    rtt_rank_program(comm, shared, ReadPolicy::WholeFile)
}

/// [`rtt_hybrid`] with **striped I/O** — the paper's future-work direction
/// (§VI): the same rank program reading only the chunks it processes, so
/// the redundant-I/O term of §III-C disappears and nothing else changes.
pub fn rtt_hybrid_striped(comm: &mut Comm, shared: &RttShared) -> RttOutput {
    rtt_rank_program(comm, shared, ReadPolicy::OwnChunks)
}

fn rtt_rank_program(comm: &mut Comm, shared: &RttShared, policy: ReadPolicy) -> RttOutput {
    let (cfg, track) = (&shared.cfg, comm.track());
    let start = comm.clock.now();

    // Replicated k-mer→bundle table (OpenMP-only region, per rank).
    comm.charge_costed("compute", "rtt.kmer_setup", &[], || {
        ((), shared.kmer_setup_cost)
    });

    // The streaming loop: no communication inside.
    let chunk_size = cfg.max_mem_reads.max(1);
    let mut my_assignments: Vec<(u32, u32)> = Vec::new();
    for (ci, chunk) in shared.reads.chunks(chunk_size).enumerate() {
        let mine = static_owner(ci, comm.size()) == comm.rank();
        let chunk_arg = ("chunk", ci as f64);
        if mine || policy == ReadPolicy::WholeFile {
            let args = |_: &_| vec![chunk_arg];
            rank_region(comm, cfg, ["io", "rtt.io"], args, |_| stream_chunk(chunk));
        }
        if mine {
            let args = |_: &_| vec![chunk_arg, ("reads", chunk.len() as f64)];
            let assigned = rank_region(comm, cfg, ["compute", "rtt.loop"], args, |team| {
                assign_chunk(shared, ci * chunk_size, chunk, team)
            });
            my_assignments.extend(assigned);
        }
    }

    // Each rank writes its own output file; the master concatenates them
    // ("a simple cat command").
    let assignments = crate::master_merge(comm, cfg, "rtt.concat", my_assignments, |_| {});

    comm.obs
        .record(track, "stage", "rtt.total", start, comm.clock.now());
    RttOutput {
        assignments,
        timings: comm
            .obs
            .with_trace(|trace| RttTimings::from_trace(trace, track)),
        trace: obs::Trace::default(),
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;

    pub(crate) fn rec(id: &str, seq: &[u8]) -> Record {
        Record::new(id, seq.to_vec())
    }

    pub(crate) const C0: &[u8] = b"CGAGTCGGTTATCTTCGGATACTGTATAGTCC";
    pub(crate) const C1: &[u8] = b"AAAGCGGCACTTGTGAAGTGTTCCCCACGCCG";

    pub(crate) fn fixtures() -> RttShared<'static> {
        let contigs = vec![rec("c0", C0), rec("c1", C1)];
        let components = vec![vec![0], vec![1]];
        // Reads drawn from each contig, interleaved.
        let mut reads = Vec::new();
        for i in 0..8 {
            reads.push(rec(&format!("r{}a", i), &C0[i..i + 16]));
            reads.push(rec(&format!("r{}b", i), &C1[i..i + 16]));
        }
        // One junk read matching nothing.
        reads.push(rec("junk", b"TTTTTTTTTTTTTTTT"));
        let mut cfg = ChrysalisConfig::small(8);
        cfg.max_mem_reads = 3;
        prepare(reads, &contigs, &components, cfg)
    }

    /// [`RttShared::prepare`] over ASCII contigs.
    pub(crate) fn prepare(
        reads: Vec<Record>,
        contigs: &[Record],
        components: &[Vec<usize>],
        cfg: ChrysalisConfig,
    ) -> RttShared<'static> {
        RttShared::prepare(reads, &seqio::packed::encode_all(contigs), components, cfg)
    }

    /// The component `shared` assigns an ASCII read to.
    pub(crate) fn assign(shared: &RttShared, read: &[u8]) -> Option<u32> {
        shared.assign_packed(&PackedSeq::from_bytes(read))
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::{assign, fixtures, prepare, rec, C0, C1};
    use super::*;
    use mpisim::{run_cluster, NetModel};
    use std::sync::Arc;

    #[test]
    fn assign_prefers_majority_component() {
        let shared = fixtures();
        assert_eq!(assign(&shared, &C0[..16]), Some(0));
        assert_eq!(assign(&shared, &C1[..16]), Some(1));
        assert_eq!(assign(&shared, b"TTTTTTTTTTTTTTTT"), None);
    }

    #[test]
    fn shared_memory_assigns_all_real_reads() {
        let shared = fixtures();
        let out = rtt_shared_memory(&shared);
        assert_eq!(out.assignments.len(), 16); // junk read dropped
        for &(r, c) in &out.assignments {
            let expect = if shared.reads[r as usize].id.ends_with('a') {
                0
            } else {
                1
            };
            assert_eq!(c, expect, "read {r}");
        }
        assert!(out.timings.total > 0.0);
    }

    #[test]
    fn hybrid_matches_shared_memory() {
        let shared = Arc::new(fixtures());
        let serial = rtt_shared_memory(&shared);
        for ranks in [1usize, 2, 3, 4] {
            let sh = Arc::clone(&shared);
            let outs = run_cluster(ranks, NetModel::ideal(), move |comm| rtt_hybrid(comm, &sh));
            for o in &outs {
                assert_eq!(o.value.assignments, serial.assignments, "ranks={ranks}");
            }
        }
    }

    #[test]
    fn hybrid_io_is_redundant_but_loop_is_split() {
        let shared = Arc::new(fixtures());
        let outs = run_cluster(3, NetModel::ideal(), move |comm| rtt_hybrid(comm, &shared));
        // Every rank pays full I/O.
        for o in &outs {
            assert!(o.value.timings.io > 0.0);
        }
        // The main loop splits across ranks: each rank's loop time is
        // below the serial sum.
        let loop_sum: f64 = outs.iter().map(|o| o.value.timings.main_loop).sum();
        for o in &outs {
            assert!(o.value.timings.main_loop < loop_sum || loop_sum == 0.0);
        }
    }

    #[test]
    fn shared_memory_trace_matches_timings() {
        let shared = fixtures();
        let out = rtt_shared_memory(&shared);
        let (s, e) = out.trace.span_bounds(0, "rtt.total").unwrap();
        assert_eq!(s, 0.0);
        assert!((e - out.timings.total).abs() < 1e-12);
        assert!((out.trace.span_sum(0, "rtt.io") - out.timings.io).abs() < 1e-12);
        // One io span per chunk (17 reads, chunk size 3 -> 6 chunks).
        assert_eq!(
            out.trace
                .on_track(0)
                .filter(|sp| sp.name == "rtt.io")
                .count(),
            6
        );
        let roots = out.trace.tree(0);
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "rtt.total");
    }

    #[test]
    fn hybrid_records_spans_on_comm_tracer() {
        let shared = Arc::new(fixtures());
        let threads = shared.cfg.threads;
        let outs = run_cluster(2, NetModel::idataplex(), move |comm| {
            let out = rtt_hybrid(comm, &shared);
            (out.timings, comm.rank() as u32)
        });
        for o in &outs {
            let (timings, track) = o.value;
            assert!(o.trace.span_bounds(track, "rtt.total").is_some());
            assert!((o.trace.span_sum(track, "rtt.loop") - timings.main_loop).abs() < 1e-12);
            assert!((o.trace.span_sum(track, "rtt.concat") - timings.concat).abs() < 1e-12);
            // Each chunk's loop is a region on the rank's team: its
            // makespan, drawn on the rank's thread lanes, plus the wall
            // time outside its loop call, the `serial_s` the span reports.
            let loops = o.trace.on_track(track).filter(|sp| sp.name == "rtt.loop");
            let serial: f64 = loops.map(|sp| sp.arg("serial_s").unwrap()).sum();
            let lane = obs::THREAD_TRACK_BASE + track * threads as u32;
            let lanes = lane..lane + threads as u32;
            let busy: f64 = lanes
                .clone()
                .map(|t| o.trace.span_sum(t, "rtt.loop.busy"))
                .sum();
            let idle: f64 = lanes.map(|t| o.trace.span_sum(t, "rtt.loop.idle")).sum();
            let makespan = (busy + idle) / threads as f64;
            assert!(busy > 0.0 && serial >= 0.0);
            let main_loop = timings.main_loop;
            assert!((main_loop - (makespan + serial)).abs() <= 1e-9 * main_loop);
        }
    }

    #[test]
    fn ties_break_to_smaller_component() {
        let contigs = vec![rec("c0", C0), rec("c1", C0)]; // identical contigs
        let components = vec![vec![0], vec![1]];
        let shared = prepare(vec![], &contigs, &components, ChrysalisConfig::small(8));
        // All k-mers claimed by component 0 (first wins).
        assert_eq!(assign(&shared, &C0[..16]), Some(0));
    }

    #[test]
    fn empty_reads() {
        let contigs = vec![rec("c0", C0)];
        let shared = prepare(vec![], &contigs, &[vec![0]], ChrysalisConfig::small(8));
        let out = rtt_shared_memory(&shared);
        assert!(out.assignments.is_empty());
    }

    #[test]
    fn min_read_kmers_threshold() {
        // One shared k-mer assigns a read; none leaves it unassigned.
        let contigs = vec![rec("c0", C0)];
        let shared = prepare(vec![], &contigs, &[vec![0]], ChrysalisConfig::small(8));
        assert_eq!(assign(&shared, &C0[..8]), Some(0));
        assert_eq!(assign(&shared, b"TTTTTTTTTTTTTTTT"), None);
    }

    #[test]
    fn spilled_votes_match_reference_tally() {
        // A read touching more components than the inline tally holds: the
        // spill path must preserve exact (count, id) voting semantics.
        let mut state = 0x1234_5678u64;
        let mut base = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            b"ACGT"[(state >> 33) as usize % 4]
        };
        let contigs: Vec<Record> = (0..2 * MAX_INLINE_VOTES)
            .map(|i| {
                let seq: Vec<u8> = (0..10).map(|_| base()).collect();
                rec(&format!("c{i}"), &seq)
            })
            .collect();
        let components: Vec<Vec<usize>> = (0..contigs.len()).map(|i| vec![i]).collect();
        let shared = prepare(vec![], &contigs, &components, ChrysalisConfig::small(8));
        // One read stitched from every contig touches them all.
        let read: Vec<u8> = contigs.iter().flat_map(|c| c.seq.clone()).collect();
        // Reference: plain HashMap tally, same tie-break.
        let mut votes: std::collections::HashMap<u32, u32> = Default::default();
        for (_, km) in seqio::kmer::KmerIter::new(&read, 8).unwrap() {
            if let Some(c) = shared.kmer_to_component.get(km.canonical().packed()) {
                *votes.entry(c).or_insert(0) += 1;
            }
        }
        assert!(
            votes.len() > MAX_INLINE_VOTES,
            "fixture must overflow the inline tally ({} components)",
            votes.len()
        );
        let expect = votes
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .map(|(c, _)| c);
        assert_eq!(assign(&shared, &read), expect);
    }
}

#[cfg(test)]
mod striped_tests {
    use super::tests_support::fixtures;
    use super::*;
    use crate::timings::rtt_io_chunks;
    use mpisim::{run_cluster, NetModel};
    use std::sync::Arc;

    #[test]
    fn striped_matches_streaming_output() {
        let shared = Arc::new(fixtures());
        let serial = rtt_shared_memory(&shared);
        for ranks in [1usize, 2, 4] {
            let sh = Arc::clone(&shared);
            let outs = run_cluster(ranks, NetModel::ideal(), move |comm| {
                rtt_hybrid_striped(comm, &sh)
            });
            for o in &outs {
                assert_eq!(o.value.assignments, serial.assignments, "ranks={ranks}");
            }
        }
    }

    #[test]
    fn striped_io_shrinks_with_ranks() {
        // What a rank uploads is read off the `rtt.io` spans it records —
        // one per chunk, the chunk named by the span's `chunk` arg — as a
        // count and a byte volume, so the host's speed cannot move it.
        let shared = Arc::new(fixtures());
        let chunk_bytes: Vec<usize> = shared
            .reads
            .chunks(shared.cfg.max_mem_reads)
            .map(|c| c.iter().map(|r| r.seq.len()).sum())
            .collect();
        let file_bytes: usize = chunk_bytes.iter().sum();
        let ranks = 4;
        let uploads = |program: fn(&mut Comm, &RttShared) -> RttOutput| -> Vec<(usize, usize)> {
            let sh = Arc::clone(&shared);
            let outs = run_cluster(ranks, NetModel::ideal(), move |comm| program(comm, &sh));
            let per_rank = outs.iter().map(|o| {
                let chunks = rtt_io_chunks(&o.trace, o.rank as u32);
                (chunks.len(), chunks.iter().map(|&ci| chunk_bytes[ci]).sum())
            });
            per_rank.collect()
        };
        // §III-C: every rank streams the whole file.
        for upload in uploads(rtt_hybrid) {
            assert_eq!(upload, (chunk_bytes.len(), file_bytes));
        }
        // §VI: the ranks' reads partition it, no rank taking more than its
        // round-robin share of the chunks.
        let striped = uploads(rtt_hybrid_striped);
        let total = |f: fn(&(usize, usize)) -> usize| striped.iter().map(f).sum::<usize>();
        assert_eq!(total(|u| u.0), chunk_bytes.len());
        assert_eq!(total(|u| u.1), file_bytes);
        let share = chunk_bytes.len().div_ceil(ranks);
        assert!(striped.iter().all(|u| u.0 <= share), "{striped:?}");
        assert!(
            share < chunk_bytes.len(),
            "fixture has more chunks than one share"
        );
    }
}
