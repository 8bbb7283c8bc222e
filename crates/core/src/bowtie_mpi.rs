//! The distributed Bowtie step (§III-A).
//!
//! The *target* FASTA (Inchworm contigs) is split across ranks with the
//! PyFasta-equivalent splitter — a **single-threaded** step whose cost the
//! paper identifies as the dominant overhead (Fig. 10). Each rank builds an
//! FM-index over its slice, aligns **all** input reads against it, and
//! writes a SAM file; the files are merged into one at the end of the job.

use std::collections::HashMap;

use seqio::fasta::Record;
use seqio::splitter::plan_split;

use bowtie::align::{align_read, AlignConfig};
use bowtie::fmindex::FmIndex;
use bowtie::sam::SamRecord;

use mpisim::comm::Comm;
use mpisim::pack::{pack_byte_strings, pack_u32s, unpack_byte_strings, unpack_u32s};
use omp::makespan::costed_loop;

use crate::config::ChrysalisConfig;

/// Per-rank phase times of the distributed Bowtie step.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BowtieTimings {
    /// PyFasta split (single-threaded, serial; every rank waits on it).
    pub split: f64,
    /// FM-index construction over this rank's slice.
    pub index: f64,
    /// Read alignment on this rank.
    pub align: f64,
    /// SAM merge at the master.
    pub merge: f64,
    /// Total stage time on this rank.
    pub total: f64,
}

/// The stage output.
#[derive(Debug, Clone, PartialEq)]
pub struct BowtieMpiOutput {
    /// Merged SAM records (sorted by read name, then contig/position, like
    /// the concatenated-and-sorted merge of per-rank files).
    pub sam: Vec<SamRecord>,
    /// This rank's timings.
    pub timings: BowtieTimings,
}

/// Run the distributed Bowtie step — one rank's program.
///
/// `contigs` and `reads` are the replicated inputs. Alignment semantics
/// note (inherited from the paper's design): `best_strata` applies *within
/// a rank's slice*; a read may report best-stratum hits from several
/// slices, exactly as with per-slice Bowtie runs.
pub fn bowtie_mpi(
    comm: &mut Comm,
    contigs: &[Record],
    reads: &[Record],
    cfg: &ChrysalisConfig,
    align_cfg: AlignConfig,
) -> BowtieMpiOutput {
    let start = comm.clock.now();
    let mut timings = BowtieTimings::default();
    let size = comm.size();

    // ---- PyFasta split: single-threaded on the master ----
    let t_before = comm.clock.now();
    // The paper writes split files; here the master ships each rank's
    // piece as contig indices.
    let packed = if comm.is_root() {
        let plan = comm.charge_measured(|| plan_split(contigs, size).expect("size > 0"));
        let pieces: Vec<Vec<u8>> = plan
            .pieces
            .iter()
            .map(|piece| pack_u32s(&piece.iter().map(|&i| i as u32).collect::<Vec<_>>()))
            .collect();
        pack_byte_strings(&pieces)
    } else {
        Vec::new()
    };
    let plan = unpack_byte_strings(&comm.bcast(0, &packed)).expect("root sent well-formed plan");
    timings.split = comm.clock.now() - t_before;

    // ---- Index this rank's slice ----
    let my_piece: Vec<Record> = unpack_u32s(&plan[comm.rank()])
        .expect("root sent whole u32s")
        .iter()
        .map(|&i| contigs[i as usize].clone())
        .collect();
    let index = comm.charge_measured(|| FmIndex::build(&my_piece));
    timings.index = comm.clock.now() - t_before - timings.split;

    // ---- Align every read against the slice (multi-threaded) ----
    let t_before = comm.clock.now();
    let hit_lists = comm.charge_costed("compute", "bowtie.align", &[], || {
        let (hits, sim) = costed_loop(reads, cfg.threads, cfg.schedule, |read| {
            align_read(&index, &read.seq, align_cfg)
        });
        (hits, sim.makespan)
    });
    timings.align = comm.clock.now() - t_before;

    // This rank's SAM file, one line per hit.
    let mut lines: Vec<Vec<u8>> = Vec::new();
    for (read, hits) in reads.iter().zip(&hit_lists) {
        for h in hits {
            let rec = SamRecord::from_alignment(&read.id, index.contig_name(h.contig), h);
            lines.push(rec.to_line().into_bytes());
        }
    }

    // ---- Merge per-rank SAM files at the master ----
    let t_before = comm.clock.now();
    let merged = crate::master_merge(comm, lines, pack_byte_strings, |buf| {
        unpack_byte_strings(buf).expect("peer sent SAM lines")
    });
    timings.merge = comm.clock.now() - t_before;

    let sam: Vec<SamRecord> = merged
        .into_iter()
        .filter_map(|l| SamRecord::parse_line(&String::from_utf8_lossy(&l)))
        .collect();

    timings.total = comm.clock.now() - start;
    BowtieMpiOutput { sam, timings }
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
        let contigs = Arc::new(contigs());
        let reads = Arc::new(reads());
        run_cluster(ranks, NetModel::ideal(), move |comm| {
            bowtie_mpi(
                comm,
                &contigs,
                &reads,
                &ChrysalisConfig::small(8),
                AlignConfig {
                    max_mismatches: 0,
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
        let single = run(1);
        for ranks in [2usize, 3, 5] {
            let multi = run(ranks);
            for o in &multi {
                assert_eq!(o.value.sam, single[0].value.sam, "ranks={ranks}");
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
    fn name_index() {
        let idx = contig_name_index(&contigs());
        assert_eq!(idx["c0"], 0);
        assert_eq!(idx["c2"], 2);
    }
}
