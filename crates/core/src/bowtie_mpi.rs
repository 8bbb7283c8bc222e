//! The distributed Bowtie step (§III-A).
//!
//! The *target* FASTA (Inchworm contigs) is split across ranks with the
//! PyFasta-equivalent splitter — a **single-threaded** step whose cost the
//! paper identifies as the dominant overhead (Fig. 10). Each rank builds an
//! FM-index over its slice, aligns **all** input reads against it, and
//! writes a SAM file; the files are merged into one at the end of the job.
//! The paper's per-rank `bowtie-build` is single-threaded; here the index
//! build is a parallel region on the rank's team, like the alignment.

use std::collections::HashMap;

use seqio::fasta::Record;
use seqio::splitter::plan_split;

use bowtie::align::{align_read, AlignConfig, Alignment, Strand};
use bowtie::fmindex::FmIndex;
use bowtie::sam::SamRecord;

use mpisim::comm::Comm;
use mpisim::pack::{pack_byte_strings, pack_u32s, unpack_byte_strings, unpack_u32s};
use omp::makespan::{costed_loop, CostedTeam};
use omp::par_loop;

use crate::config::ChrysalisConfig;
use crate::timings::BowtieTimings;

/// The stage output.
#[derive(Debug, Clone, PartialEq)]
pub struct BowtieMpiOutput {
    /// Merged SAM records, one per hit, ordered by read, then contig,
    /// position, strand and mismatches (all by index, not by name).
    pub sam: Vec<SamRecord>,
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
struct Hit {
    read: u32,
    contig: u32,
    offset: u32,
    reverse: bool,
    mismatches: u8,
}

/// `u32` words per [`Hit`] on the wire.
const HIT_WORDS: usize = 4;

fn pack_hits(hits: &[Hit]) -> Vec<u8> {
    let words = hits.iter().flat_map(|h| {
        let meta = u32::from(h.reverse) << 8 | u32::from(h.mismatches);
        [h.read, h.contig, h.offset, meta]
    });
    pack_u32s(&words.collect::<Vec<u32>>())
}

fn unpack_hits(buf: &[u8]) -> Option<Vec<Hit>> {
    let words = unpack_u32s(buf)?;
    if words.len() % HIT_WORDS != 0 {
        return None;
    }
    let hits = words.chunks_exact(HIT_WORDS).map(|w| Hit {
        read: w[0],
        contig: w[1],
        offset: w[2],
        reverse: w[3] >> 8 != 0,
        mismatches: w[3] as u8,
    });
    Some(hits.collect())
}

impl crate::ReadLine for Hit {
    const WIDTH: usize = 4 * HIT_WORDS;

    fn read(&self) -> u32 {
        self.read
    }

    fn pack(lines: &[Self]) -> Vec<u8> {
        pack_hits(lines)
    }

    fn unpack(buf: &[u8]) -> Vec<Self> {
        unpack_hits(buf).expect("peer sent whole hit tuples")
    }
}

/// What one aligner run over all contigs would have kept of the sorted,
/// gathered `hits`: a slice's aligner cuts to *its* best stratum and *its*
/// first `max_hits`, so a read's exact hit in one slice arrives beside a
/// one-substitution hit from another. Every hit the whole-reference run
/// reports survives its own slice's cut (slices keep contig order), so
/// cutting each read once more gives that run's list.
fn recut_per_read(hits: &mut Vec<Hit>, cfg: AlignConfig) {
    let mut kept: Vec<Hit> = Vec::with_capacity(hits.len());
    for group in hits.chunk_by(|a, b| a.read == b.read) {
        let from = kept.len();
        let best = group.iter().map(|h| h.mismatches).min();
        kept.extend(
            group
                .iter()
                .filter(|h| !cfg.best_strata || Some(h.mismatches) == best),
        );
        if kept.len() - from > cfg.max_hits {
            // The aligner's report order decides who is dropped.
            kept[from..].sort_by_key(|h| (h.mismatches, h.contig, h.offset, h.reverse));
            kept.truncate(from + cfg.max_hits);
            kept[from..].sort();
        }
    }
    *hits = kept;
}

/// Run the distributed Bowtie step — one rank's program.
///
/// `contigs` and `reads` are the replicated inputs. Each slice's aligner
/// applies `best_strata` and `max_hits` to its own hits, as per-slice
/// Bowtie runs would; the master applies both once more per read over the
/// gathered hits, so the merged file is the 1-rank file at every rank count.
pub fn bowtie_mpi(
    comm: &mut Comm,
    contigs: &[Record],
    reads: &[Record],
    cfg: &ChrysalisConfig,
    align_cfg: AlignConfig,
) -> BowtieMpiOutput {
    let track = comm.track();
    let start = comm.clock.now();
    let size = comm.size();

    // ---- PyFasta split: single-threaded on the master ----
    // The paper writes split files; here the master ships each rank's
    // piece as contig indices. Every rank waits on the plan, so the split
    // span covers the broadcast too.
    let packed = if comm.is_root() {
        comm.charge_costed("compute", "bowtie.plan", &[], || {
            omp::timed(|| {
                let plan = plan_split(contigs, size).expect("size > 0");
                let pieces: Vec<Vec<u8>> = plan
                    .pieces
                    .iter()
                    .map(|piece| pack_u32s(&piece.iter().map(|&i| i as u32).collect::<Vec<_>>()))
                    .collect();
                pack_byte_strings(&pieces)
            })
        })
    } else {
        Vec::new()
    };
    let plan = unpack_byte_strings(&comm.bcast(0, &packed)).expect("root sent well-formed plan");
    comm.obs
        .record(track, "comm", "bowtie.split", start, comm.clock.now());

    // ---- Index this rank's slice ----
    // `my_piece[i]` is the global index of the slice's contig `i`.
    let my_piece = unpack_u32s(&plan[comm.rank()]).expect("root sent whole u32s");
    let slice: Vec<Record> = my_piece
        .iter()
        .map(|&i| contigs[i as usize].clone())
        .collect();
    // A parallel region on the rank's team: every pass over the slice's text
    // is a loop, charged at the team's makespan and drawn on the rank's
    // thread lanes; what runs between the loops is charged at its wall
    // time. The span names its work: the slice's bases and the suffix
    // sort's doubling rounds.
    let slice_bases: usize = slice.iter().map(|c| c.seq.len()).sum();
    let mut team = CostedTeam::new(cfg.threads, cfg.schedule);
    let index_start = comm.clock.now();
    let bases = [("bases", slice_bases as f64)];
    let index = comm.charge_costed("compute", "bowtie.index", &bases, || {
        let (index, cost) = team.region(|team| FmIndex::build_on(&slice, &mut par_loop(team)));
        let rounds = vec![("sort_rounds", index.sort_rounds() as f64)];
        (index, crate::region_charge(cost, rounds))
    });
    crate::name_thread_lanes(comm, cfg);
    let lanes = crate::thread_lanes(comm, cfg);
    team.sim
        .record_spans(&comm.obs, index_start, lanes, "bowtie.index");

    // ---- Align every read against the slice (multi-threaded) ----
    // The span names its work: every read, against this slice's bases.
    let work = [
        ("reads", reads.len() as f64),
        ("slice_bases", slice_bases as f64),
    ];
    let hit_lists = comm.charge_costed("compute", "bowtie.align", &work, || {
        let (hits, sim) = costed_loop(reads, cfg.threads, cfg.schedule, |read| {
            align_read(&index, &read.seq, align_cfg)
        });
        (hits, sim.makespan)
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
    let merged = crate::master_merge(comm, cfg, "bowtie.merge", hits, |all| {
        recut_per_read(all, align_cfg)
    });

    // Names come back only here, from the replicated inputs.
    let sam: Vec<SamRecord> = merged
        .iter()
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
        .collect();

    comm.obs
        .record(track, "stage", "bowtie.total", start, comm.clock.now());
    BowtieMpiOutput {
        sam,
        timings: BowtieTimings::from_trace(&comm.obs.snapshot(), track),
    }
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
                AlignConfig {
                    max_mismatches,
                    ..AlignConfig::default()
                },
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
        // The index build's loops are charged at the team's makespan, drawn
        // on the rank's thread lanes, and what runs between them at its wall
        // time, the `serial_s` the span reports. On one thread the makespan
        // is the items' summed cost.
        let (contigs, reads) = (Arc::new(contigs()), Arc::new(reads()));
        for threads in [4, 1] {
            let cfg = ChrysalisConfig {
                threads,
                ..ChrysalisConfig::small(8)
            };
            let (c, r) = (Arc::clone(&contigs), Arc::clone(&reads));
            let outs = run_cluster(2, NetModel::ideal(), move |comm| {
                bowtie_mpi(comm, &c, &r, &cfg, AlignConfig::default())
            });
            for o in &outs {
                let mut spans = o.trace.on_track(o.rank as u32);
                let index = spans.find(|sp| sp.name == "bowtie.index").unwrap();
                let lane = obs::THREAD_TRACK_BASE + (o.rank * threads) as u32;
                let busy = o.trace.span_sum(lane, "bowtie.index.busy");
                let idle = o.trace.span_sum(lane, "bowtie.index.idle");
                let serial = index.arg("serial_s").unwrap();
                let duration = index.duration();
                assert!(busy > 0.0 && serial > 0.0);
                assert!((duration - (busy + idle + serial)).abs() <= 1e-9 * duration);
                if threads == 1 {
                    assert_eq!(idle, 0.0, "one thread runs every item");
                }
                assert_eq!(o.value.timings.index, duration);
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
        let buf = pack_hits(&hits);
        assert_eq!(buf.len(), hits.len() * HIT_WORDS * 4);
        assert_eq!(unpack_hits(&buf).as_deref(), Some(&hits[..]));
        assert_eq!(unpack_hits(&pack_hits(&[])), Some(Vec::new()));
        assert_eq!(unpack_hits(&buf[..buf.len() - 4]), None, "torn tuple");
        assert_eq!(unpack_hits(&buf[..buf.len() - 1]), None, "torn word");
    }

    #[test]
    fn name_index() {
        let idx = contig_name_index(&contigs());
        assert_eq!(idx["c0"], 0);
        assert_eq!(idx["c2"], 2);
    }
}
