//! The distributed Bowtie step (§III-A).
//!
//! The *target* FASTA (Inchworm contigs) is split across ranks with the
//! PyFasta-equivalent splitter — a **single-threaded** step whose cost the
//! paper identifies as the dominant overhead (Fig. 10). Each rank builds an
//! FM-index over its slice, aligns **all** input reads against it, and
//! writes a SAM file; the files are merged into one at the end of the job.
//! The paper's per-rank `bowtie-build` is single-threaded; here the index
//! build is a parallel region on the rank's team, like the alignment.
//!
//! The merged file is a list of [`Hit`]s, which name reads and contigs by
//! index: [`bowtie_hits`] returns it as it is, and the pipeline scaffolds
//! on it. [`bowtie_mpi`] is the same rank program followed by the names
//! step, [`sam_records`], for callers that want SAM records.

use std::collections::HashMap;

use seqio::fasta::Record;
use seqio::splitter::plan_split;

use bowtie::align::{align_read, AlignConfig, Alignment, Strand, MAX_HITS};
use bowtie::fmindex::FmIndex;
use bowtie::sam::SamRecord;

use mpisim::comm::Comm;
use mpisim::pack::{pack, pack_byte_strings, unpack, unpack_byte_strings, Wire};
use omp::{par_loop, Team};

use crate::config::ChrysalisConfig;
use crate::timings::BowtieTimings;
use crate::{no_args, rank_region};

/// The stage output as SAM text: [`bowtie_mpi`].
#[derive(Debug, Clone, PartialEq)]
pub struct BowtieMpiOutput {
    /// Merged SAM records, one per hit, ordered by read, then contig,
    /// position, strand and mismatches (all by index, not by name).
    pub sam: Vec<SamRecord>,
    /// This rank's timings.
    pub timings: BowtieTimings,
}

/// The stage output as merged hits: [`bowtie_hits`].
#[derive(Debug, Clone, PartialEq)]
pub struct BowtieHits {
    /// Merged hits, one per alignment, in the derived order of [`Hit`] —
    /// the order of [`BowtieMpiOutput::sam`].
    pub hits: Vec<Hit>,
    /// This rank's timings.
    pub timings: BowtieTimings,
}

/// One alignment as it crosses ranks: four little-endian `u32` words
/// (read, contig, offset, `reverse << 8 | mismatches`), no names. Reads
/// and contigs are replicated, so an index names them on every rank; the
/// contig index is the *global* one from the split plan, which makes hits
/// from different slices comparable at the master. Alignments are
/// end-to-end, so the read length is the read's own and stays off the wire.
/// The derived order is the merged file's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Hit {
    /// Index of the read in the stage's read set.
    pub read: u32,
    /// Index of the contig in the stage's contig set.
    pub contig: u32,
    /// 0-based offset of the alignment on the contig.
    pub offset: u32,
    /// True if the read aligns reverse-complemented.
    pub reverse: bool,
    /// Mismatches of the alignment.
    pub mismatches: u8,
}

impl Wire for Hit {
    const WIDTH: usize = 16;

    fn put(&self, buf: &mut Vec<u8>) {
        let meta = u32::from(self.reverse) << 8 | u32::from(self.mismatches);
        for word in [self.read, self.contig, self.offset, meta] {
            word.put(buf);
        }
    }

    fn get(bytes: &[u8]) -> Self {
        let word = |i: usize| u32::get(&bytes[4 * i..]);
        let meta = word(3);
        Hit {
            read: word(0),
            contig: word(1),
            offset: word(2),
            reverse: meta >> 8 != 0,
            mismatches: meta as u8,
        }
    }
}

impl crate::ReadLine for Hit {
    fn read(&self) -> u32 {
        self.read
    }
}

/// What one aligner run over all contigs would have kept of the sorted,
/// gathered `hits`: a slice's aligner cuts to *its* best stratum and *its*
/// first [`MAX_HITS`], so a read's exact hit in one slice arrives beside a
/// one-substitution hit from another. Every hit the whole-reference run
/// reports survives its own slice's cut (slices keep contig order), so
/// cutting each read once more gives that run's list.
fn recut_per_read(hits: &mut Vec<Hit>) {
    let mut kept: Vec<Hit> = Vec::with_capacity(hits.len());
    for group in hits.chunk_by(|a, b| a.read == b.read) {
        let best = group.iter().map(|h| h.mismatches).min();
        // The group is sorted by contig, offset and strand within its
        // stratum: the aligner's report order, so the first are kept.
        let stratum = group.iter().filter(|h| Some(h.mismatches) == best);
        kept.extend(stratum.take(MAX_HITS));
    }
    *hits = kept;
}

/// Run the distributed Bowtie step — one rank's program — and render its
/// merged hits as SAM records ([`sam_records`]).
pub fn bowtie_mpi(
    comm: &mut Comm,
    contigs: &[Record],
    reads: &[Record],
    cfg: &ChrysalisConfig,
    align_cfg: AlignConfig,
) -> BowtieMpiOutput {
    let BowtieHits { hits, timings } = bowtie_hits(comm, contigs, reads, cfg, align_cfg);
    BowtieMpiOutput {
        sam: sam_records(&hits, contigs, reads),
        timings,
    }
}

/// Run the distributed Bowtie step — one rank's program — and return the
/// merged hits, which name reads and contigs by index.
///
/// `contigs` and `reads` are the replicated inputs. Each slice's aligner
/// cuts its own hits to the best stratum and [`MAX_HITS`], as per-slice
/// Bowtie runs would; the master cuts once more per read over the gathered
/// hits, so the merged file is the 1-rank file at every rank count.
pub fn bowtie_hits(
    comm: &mut Comm,
    contigs: &[Record],
    reads: &[Record],
    cfg: &ChrysalisConfig,
    align_cfg: AlignConfig,
) -> BowtieHits {
    let track = comm.track();
    let start = comm.clock.now();
    let size = comm.size();

    // ---- PyFasta split: single-threaded on the master ----
    // The paper writes split files; here the master ships each rank's
    // piece as contig indices. Every rank waits on the plan, so the split
    // span covers the broadcast too.
    let packed = if comm.is_root() {
        rank_region(comm, cfg, ["compute", "bowtie.plan"], no_args, |_| {
            let plan = plan_split(contigs, size).expect("size > 0");
            let pieces: Vec<Vec<u8>> = plan
                .pieces
                .iter()
                .map(|piece| pack(&piece.iter().map(|&i| i as u32).collect::<Vec<_>>()))
                .collect();
            pack_byte_strings(&pieces)
        })
    } else {
        Vec::new()
    };
    let plan = unpack_byte_strings(&comm.bcast(0, &packed)).expect("root sent well-formed plan");
    comm.obs
        .record(track, "comm", "bowtie.split", start, comm.clock.now());

    // ---- Index this rank's slice ----
    // `my_piece[i]` is the global index of the slice's contig `i`.
    let my_piece = unpack::<u32>(&plan[comm.rank()]).expect("root sent whole u32s");
    let slice: Vec<Record> = my_piece
        .iter()
        .map(|&i| contigs[i as usize].clone())
        .collect();
    // A parallel region on the rank's team: every pass over the slice's text
    // is a loop. The span names its work: the slice's bases and the suffix
    // sort's doubling rounds.
    let slice_bases = slice.iter().map(|c| c.seq.len()).sum::<usize>() as f64;
    let args = |index: &FmIndex| {
        let rounds = index.sort_rounds() as f64;
        vec![("bases", slice_bases), ("sort_rounds", rounds)]
    };
    let index = rank_region(comm, cfg, ["compute", "bowtie.index"], args, |team| {
        FmIndex::build_on(&slice, &mut par_loop(team))
    });

    // ---- Align every read against the slice (multi-threaded) ----
    // The span names its work: every read, against this slice's bases.
    let work = |_: &_| vec![("reads", reads.len() as f64), ("slice_bases", slice_bases)];
    let hit_lists = rank_region(comm, cfg, ["compute", "bowtie.align"], work, |team| {
        team.map(reads, |read| align_read(&index, &read.seq, align_cfg))
    });

    // This rank's SAM file, one tuple per hit.
    let mut hits: Vec<Hit> = Vec::with_capacity(hit_lists.iter().map(Vec::len).sum());
    for (read, alns) in hit_lists.iter().enumerate() {
        hits.extend(alns.iter().map(|a| Hit {
            read: read as u32,
            contig: my_piece[a.contig],
            offset: a.offset as u32,
            reverse: a.strand == Strand::Reverse,
            mismatches: a.mismatches,
        }));
    }
    drop(hit_lists);

    // ---- Merge per-rank SAM files at the master ----
    let hits = crate::master_merge(comm, cfg, "bowtie.merge", hits, recut_per_read);

    comm.obs
        .record(track, "stage", "bowtie.total", start, comm.clock.now());
    BowtieHits {
        hits,
        timings: comm
            .obs
            .with_trace(|trace| BowtieTimings::from_trace(trace, track)),
    }
}

/// The names step: one SAM record per hit, its names taken from the
/// replicated inputs `contigs` and `reads` the hits index.
pub fn sam_records(hits: &[Hit], contigs: &[Record], reads: &[Record]) -> Vec<SamRecord> {
    hits.iter()
        .map(|h| {
            let read = &reads[h.read as usize];
            let aln = Alignment {
                contig: h.contig as usize,
                offset: h.offset as usize,
                strand: if h.reverse {
                    Strand::Reverse
                } else {
                    Strand::Forward
                },
                mismatches: h.mismatches,
                read_len: read.seq.len(),
            };
            SamRecord::from_alignment(&read.id, &contigs[aln.contig].id, &aln)
        })
        .collect()
}

/// Build the `contig name → dense index` map the scaffolder consumes.
pub fn contig_name_index(contigs: &[Record]) -> HashMap<String, u32> {
    contigs
        .iter()
        .enumerate()
        .map(|(i, c)| (c.id.clone(), i as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim::{run_cluster, NetModel};
    use std::sync::Arc;

    fn rec(id: &str, seq: &[u8]) -> Record {
        Record::new(id, seq.to_vec())
    }

    fn contigs() -> Vec<Record> {
        vec![
            rec("c0", b"CGAGTCGGTTATCTTCGGATACTGTATAGTCC"),
            rec("c1", b"AAAGCGGCACTTGTGAAGTGTTCCCCACGCCG"),
            rec("c2", b"CCATACCAAGAGGTAGTAGTCTCAGAATCTTG"),
        ]
    }

    fn reads() -> Vec<Record> {
        vec![
            rec("r0/1", &contigs()[0].seq[..16]),
            rec("r1/1", &contigs()[1].seq[8..24]),
            rec("r2/1", &contigs()[2].seq[16..]),
            rec("junk/1", b"TTTTTTTTTTTTTTTT"),
        ]
    }

    fn run(ranks: usize) -> Vec<mpisim::RankOutput<BowtieMpiOutput>> {
        run_with(contigs(), 0, ranks)
    }

    fn run_with(
        contigs: Vec<Record>,
        max_mismatches: u8,
        ranks: usize,
    ) -> Vec<mpisim::RankOutput<BowtieMpiOutput>> {
        let contigs = Arc::new(contigs);
        let reads = Arc::new(reads());
        run_cluster(ranks, NetModel::ideal(), move |comm| {
            bowtie_mpi(
                comm,
                &contigs,
                &reads,
                &ChrysalisConfig::small(8),
                AlignConfig { max_mismatches },
            )
        })
    }

    #[test]
    fn single_rank_aligns_reads() {
        let outs = run(1);
        let sam = &outs[0].value.sam;
        assert_eq!(sam.len(), 3); // junk read unaligned, others unique
        let names: Vec<&str> = sam.iter().map(|r| r.qname.as_str()).collect();
        assert!(names.contains(&"r0/1"));
    }

    #[test]
    fn split_runs_agree_with_single_rank() {
        // `c0` and its paralog (one substitution, under read `r0/1`) are
        // neighbours in input order, so every split of two or more puts them
        // in different slices: one slice's best stratum for `r0/1` is 0, the
        // other's is 1, and only the first may reach the merged file.
        let mut paralogs = contigs();
        let mut copy = paralogs[0].seq.clone();
        copy[5] = b'A';
        paralogs.insert(1, rec("c0p", &copy));
        for max_mismatches in 0..=2u8 {
            let single = run_with(paralogs.clone(), max_mismatches, 1);
            let sam = &single[0].value.sam;
            let r0: Vec<&str> = sam
                .iter()
                .filter(|r| r.qname == "r0/1")
                .map(|r| r.rname.as_str())
                .collect();
            assert_eq!(r0, ["c0"], "v={max_mismatches}");
            for ranks in [2usize, 3, 4, 5, 7] {
                for o in run_with(paralogs.clone(), max_mismatches, ranks) {
                    assert_eq!(&o.value.sam, sam, "v={max_mismatches} ranks={ranks}");
                }
            }
        }
    }

    #[test]
    fn index_span_is_the_teams_makespan_plus_its_serial_remainder() {
        // The index build's and the alignment's loops are charged at the
        // team's makespan, drawn on the rank's thread lanes, and what runs
        // outside the loop calls at its wall time, the `serial_s` each span
        // reports. On one thread the makespan is the items' summed cost.
        let (contigs, reads) = (Arc::new(contigs()), Arc::new(reads()));
        for threads in [4, 1] {
            let cfg = ChrysalisConfig {
                threads,
                ..ChrysalisConfig::small(8)
            };
            let (c, r) = (Arc::clone(&contigs), Arc::clone(&reads));
            let outs = run_cluster(2, NetModel::ideal(), move |comm| {
                bowtie_mpi(comm, &c, &r, &cfg, AlignConfig { max_mismatches: 2 })
            });
            for o in &outs {
                for name in ["bowtie.index", "bowtie.align"] {
                    let mut spans = o.trace.on_track(o.rank as u32);
                    let span = spans.find(|sp| sp.name == name).unwrap();
                    let lane = obs::THREAD_TRACK_BASE + (o.rank * threads) as u32;
                    let lanes = lane..lane + threads as u32;
                    let sum = |what| -> f64 {
                        let what = format!("{name}.{what}");
                        lanes.clone().map(|t| o.trace.span_sum(t, &what)).sum()
                    };
                    let (busy, idle) = (sum("busy"), sum("idle"));
                    let serial = span.arg("serial_s").unwrap();
                    let duration = span.duration();
                    assert!(busy > 0.0 && serial >= 0.0, "{name}");
                    let makespan = (busy + idle) / threads as f64;
                    assert!((duration - (makespan + serial)).abs() <= 1e-9 * duration);
                    if threads == 1 {
                        assert_eq!(idle, 0.0, "one thread runs every item");
                    }
                }
                let mut spans = o.trace.on_track(o.rank as u32);
                let index = spans.find(|sp| sp.name == "bowtie.index").unwrap();
                assert!(index.arg("serial_s").unwrap() > 0.0);
                assert_eq!(o.value.timings.index, index.duration());
                assert!(index.arg("bases").unwrap() > 0.0);
                assert_eq!(index.arg("sort_rounds"), Some(0.0), "distinct 21-mers");
            }
        }
    }

    #[test]
    fn timings_populated() {
        let outs = run(2);
        for o in &outs {
            let t = o.value.timings;
            assert!(t.total > 0.0);
            assert!(t.align >= 0.0 && t.index >= 0.0 && t.split >= 0.0);
            assert!(t.total + 1e-9 >= t.align);
        }
    }

    #[test]
    fn more_ranks_than_contigs() {
        let outs = run(5); // only 3 contigs; two ranks idle
        assert_eq!(outs.len(), 5);
        assert_eq!(outs[0].value.sam.len(), 3);
    }

    #[test]
    fn hit_tuples_round_trip() {
        let hits = [
            Hit {
                read: 0,
                contig: 7,
                offset: 0,
                reverse: false,
                mismatches: 0,
            },
            Hit {
                read: u32::MAX,
                contig: u32::MAX,
                offset: u32::MAX,
                reverse: true,
                mismatches: 3,
            },
        ];
        let buf = pack(&hits);
        assert_eq!(
            buf[28..32],
            pack(&[1u32 << 8 | 3]),
            "meta word: reverse, mismatches"
        );
        assert_eq!(unpack::<Hit>(&buf).as_deref(), Some(&hits[..]));
        assert_eq!(unpack::<Hit>(&buf[..buf.len() - 4]), None, "torn tuple");
    }

    #[test]
    fn name_index() {
        let idx = contig_name_index(&contigs());
        assert_eq!(idx["c0"], 0);
        assert_eq!(idx["c2"], 2);
    }
}
