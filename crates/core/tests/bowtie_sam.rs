//! The merged SAM of `bowtie_mpi` across rank counts: its order (by read
//! and contig index, never by name), a read whose hits come from several
//! slices, strata and the `-k` cut that must not be per slice, and the records
//! against the path the stage used to take — every
//! hit formatted as a SAM line, the lines sorted as strings at the master,
//! each line parsed back. And the slice index itself, built on OS threads.

use std::sync::Arc;

use bowtie::align::{AlignConfig, MAX_HITS};
use bowtie::fmindex::FmIndex;
use bowtie::sam::SamRecord;
use chrysalis::bowtie_mpi::{bowtie_mpi, contig_name_index};
use chrysalis::config::ChrysalisConfig;
use chrysalis::scaffold::{scaffold_pairs, ScaffoldConfig};
use mpisim::{run_cluster, NetModel};
use omp::{par_loop, Pool};
use seqio::fasta::Record;
use simulate::transcriptome::{Transcriptome, TranscriptomeConfig};

const RANKS: [usize; 4] = [1, 2, 4, 7];

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

fn exact() -> AlignConfig {
    AlignConfig { max_mismatches: 0 }
}

/// Every rank's merged SAM (they must all hold the same one).
fn merged_sam(
    contigs: &[Record],
    reads: &[Record],
    align_cfg: AlignConfig,
    ranks: usize,
) -> Vec<SamRecord> {
    let (c, r) = (Arc::new(contigs.to_vec()), Arc::new(reads.to_vec()));
    let mut outs = run_cluster(ranks, NetModel::ideal(), move |comm| {
        bowtie_mpi(comm, &c, &r, &ChrysalisConfig::small(8), align_cfg).sam
    });
    let sam = outs.swap_remove(0).value;
    for o in &outs {
        assert_eq!(o.value, sam, "ranks={ranks}: rank {} disagrees", o.rank);
    }
    sam
}

#[test]
fn merged_order_is_by_index_not_by_name() {
    // Names that sort the other way round as text.
    let contigs = vec![rec("zz", &contigs()[0].seq), rec("aa", &contigs()[1].seq)];
    let reads = vec![
        rec("r9/1", &contigs[1].seq[..16]),
        rec("r10/1", &contigs[0].seq[..16]),
    ];
    for ranks in RANKS {
        let sam = merged_sam(&contigs, &reads, exact(), ranks);
        let order: Vec<(&str, &str)> = sam
            .iter()
            .map(|r| (r.qname.as_str(), r.rname.as_str()))
            .collect();
        assert_eq!(order, [("r9/1", "aa"), ("r10/1", "zz")], "ranks={ranks}");
    }
}

#[test]
fn read_with_max_hits_hits_survives_every_split() {
    // One motif behind a poly-A flank of a different length in each of 20
    // contigs: the read has 20 placements, from up to seven slices, and
    // the merged file keeps the single-rank list's first `MAX_HITS` — the
    // first sixteen contigs — whichever slices they came from.
    let motif = b"CGAGTCGGTTATCTTCGGAT";
    let contigs: Vec<Record> = (0..20)
        .map(|i| {
            rec(
                &format!("c{i}"),
                &[&b"A".repeat(i)[..], motif, b"ACGTTGCA"].concat(),
            )
        })
        .collect();
    let reads = vec![
        rec("multi/1", motif),
        rec("multi/2", b"TTTTTTTTTTTTTTTTTTTT"),
    ];
    let expected: Vec<(String, u64)> = (0..MAX_HITS)
        .map(|i| (format!("c{i}"), i as u64 + 1))
        .collect();
    for ranks in RANKS {
        let sam = merged_sam(&contigs, &reads, exact(), ranks);
        assert!(sam.iter().all(|r| r.qname == "multi/1" && r.cigar == "20M"));
        let placed: Vec<(String, u64)> = sam.iter().map(|r| (r.rname.clone(), r.pos)).collect();
        assert_eq!(placed, expected, "ranks={ranks}");
    }
}

#[test]
fn paralogs_in_different_slices_yield_the_single_rank_sam() {
    // `c0p` is `c0` with one substitution and `c0q` with two, and they are
    // neighbours in input order: any split of two or more separates `c0`
    // from `c0p`, so the slices' best strata for a read cut from `c0` differ.
    let mut contigs = contigs();
    let (mut p, mut q) = (contigs[0].seq.clone(), contigs[0].seq.clone());
    p[5] = b'A';
    q[5] = b'A';
    q[20] = b'C';
    contigs.insert(1, rec("c0p", &p));
    contigs.insert(2, rec("c0q", &q));
    let reads = vec![
        rec("from_c0/1", &contigs[0].seq[..24]),
        rec("from_c0p/1", &contigs[1].seq[..24]),
        rec("from_c0q/1", &contigs[2].seq[..24]),
        rec("shared/1", &contigs[0].seq[8..20]),
        rec("junk/1", b"TTTTTTTTTTTTTTTT"),
    ];
    for max_mismatches in [1, 2] {
        let cfg = AlignConfig { max_mismatches };
        let single = merged_sam(&contigs, &reads, cfg, 1);
        let hits_of = |q: &str| single.iter().filter(|r| r.qname == q).count();
        assert_eq!(hits_of("from_c0/1"), 1, "{cfg:?}: the exact hit alone");
        assert_eq!(hits_of("shared/1"), 3, "{cfg:?}");
        for ranks in [2usize, 3, 4, 5, 7] {
            let multi = merged_sam(&contigs, &reads, cfg, ranks);
            assert_eq!(multi, single, "{cfg:?} ranks={ranks}");
        }
    }
}

#[test]
fn scaffold_pairs_match_the_text_merge() {
    let contigs = contigs();
    // Mates at the ends of different contigs, twice over per contig pair:
    // two scaffold links. Plus a read that aligns nowhere.
    let mut reads = vec![rec("junk/1", b"TTTTTTTTTTTTTTTT")];
    let mates = [(0usize, 1usize), (0, 1), (1, 2), (1, 2)];
    for (i, (a, b)) in mates.iter().enumerate() {
        reads.push(rec(&format!("p{i}/1"), &contigs[*a].seq[16..]));
        reads.push(rec(&format!("p{i}/2"), &contigs[*b].seq[..16]));
    }
    let name_index = contig_name_index(&contigs);
    let lens: Vec<usize> = contigs.iter().map(|c| c.seq.len()).collect();
    let cfg = ScaffoldConfig::default();

    for ranks in RANKS {
        let sam = merged_sam(&contigs, &reads, exact(), ranks);
        assert_eq!(sam.len(), 8, "ranks={ranks}: one hit per mate");

        // Record order differs (text order vs index order); the records,
        // and the scaffold links drawn from them, must not.
        let mut lines: Vec<String> = sam.iter().map(SamRecord::to_line).collect();
        lines.sort();
        let via_text: Vec<SamRecord> = lines
            .iter()
            .map(|l| SamRecord::parse_line(l).expect("own line parses"))
            .collect();
        let mut by_line = sam.clone();
        by_line.sort_by_key(SamRecord::to_line);
        assert_eq!(via_text, by_line, "ranks={ranks}");

        let pairs = scaffold_pairs(&sam, &name_index, &lens, cfg);
        assert_eq!(pairs, [(0, 1), (1, 2)], "ranks={ranks}");
        assert_eq!(pairs, scaffold_pairs(&via_text, &name_index, &lens, cfg));
    }
}

#[test]
fn fmindex_built_on_two_os_threads_is_the_sequential_index() {
    // A transcriptome's isoforms — shared exons tie suffixes far past the
    // seed — with `N`s and lowercase bases; every loop of the build on a
    // pool of two OS threads, so chunks, buckets and batches run at once.
    let t = Transcriptome::generate(TranscriptomeConfig {
        genes: 30,
        ..Default::default()
    });
    let mut contigs: Vec<Record> = t
        .reference()
        .into_iter()
        .map(|r| Record::new(r.isoform, r.seq))
        .collect();
    for (i, c) in contigs.iter_mut().enumerate() {
        let at = i * 7 % c.seq.len();
        c.seq[at] = match i % 2 {
            0 => b'N',
            _ => c.seq[at].to_ascii_lowercase(),
        };
    }
    let index = FmIndex::build(&contigs);
    assert!(index.sort_rounds() > 0);
    let mut pool = Pool::new(2);
    assert_eq!(FmIndex::build_on(&contigs, &mut par_loop(&mut pool)), index);
}
