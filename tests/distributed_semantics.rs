//! Integration: distributed-execution semantics across crates — the MPI
//! substrate, the chunked round-robin distribution, and the Chrysalis
//! stages composed the way `Trinity.pl` composes them.

mod common;

use std::sync::Arc;

use bowtie::align::AlignConfig;
use chrysalis::bowtie_mpi::{bowtie_mpi, contig_name_index};
use chrysalis::config::ChrysalisConfig;
use chrysalis::graph_from_fasta::{gff_hybrid, GffShared};
use chrysalis::reads_to_transcripts::{rtt_hybrid, RttShared};
use chrysalis::scaffold::{scaffold_pairs, ScaffoldConfig};
use mpisim::{run_cluster, NetModel};
use seqio::fasta::Record;
use simulate::datasets::{Dataset, DatasetPreset};

fn workload() -> (
    Vec<Record>,
    Vec<Record>,
    kcount::counter::KmerCounts,
    ChrysalisConfig,
) {
    let ds = Dataset::generate(DatasetPreset::Tiny, common::WORKLOAD_SEED);
    let reads = ds.all_reads();
    let cfg = ChrysalisConfig::small(12);
    // Assemble contigs with Inchworm.
    let counts = kcount::counter::count_kmers(&reads, kcount::counter::CounterConfig::new(cfg.k));
    let dict = inchworm::dictionary::Dictionary::from_counts(counts.clone(), 1);
    let contigs: Vec<Record> = inchworm::assemble::assemble(
        &dict,
        inchworm::assemble::InchwormConfig {
            min_seed_count: 1,
            min_extend_count: 1,
            min_contig_len: 24,
            jitter_seed: None,
        },
    )
    .iter()
    .map(|c| c.to_record())
    .collect();
    (contigs, reads, counts, cfg)
}

#[test]
fn full_chrysalis_chain_under_one_cluster() {
    // Run Bowtie -> GFF -> RTT inside a single cluster run, accumulating
    // one virtual clock per rank — the shape of the real MPI job.
    let (contigs, reads, counts, cfg) = workload();
    let packed_contigs = Arc::new(seqio::packed::encode_all(&contigs));
    let gff_shared = Arc::new(GffShared::prepare(
        packed_contigs.as_ref().clone(),
        counts,
        cfg,
    ));
    let contigs = Arc::new(contigs);
    let reads = Arc::new(reads);

    let (c, pc, r, g) = (
        Arc::clone(&contigs),
        Arc::clone(&packed_contigs),
        Arc::clone(&reads),
        Arc::clone(&gff_shared),
    );
    let outs = run_cluster(4, NetModel::idataplex(), move |comm| {
        let bowtie = bowtie_mpi(comm, &c, &r, &cfg, AlignConfig { max_mismatches: 2 });
        let gff = gff_hybrid(comm, &g);
        // RTT needs the component map; build it per rank from the (identical)
        // GFF output, replicated exactly like the paper's code.
        let rtt_shared = RttShared::prepare(r.as_ref().clone(), &pc, &gff.components, cfg);
        let rtt = rtt_hybrid(comm, &rtt_shared);
        (bowtie.sam.len(), gff.pairs, rtt.assignments)
    });

    // All ranks agree on every stage's output.
    for o in &outs[1..] {
        assert_eq!(o.value, outs[0].value);
    }
    // Clocks are sane and ordered: total time is positive and the spread
    // is bounded (no rank finished at 0).
    let min = outs.iter().map(|o| o.time).fold(f64::INFINITY, f64::min);
    let max = outs.iter().map(|o| o.time).fold(0.0, f64::max);
    assert!(min > 0.0 && max >= min);
}

#[test]
fn scaffold_pairs_integrate_with_clustering() {
    let (contigs, reads, _counts, cfg) = workload();
    let contigs = Arc::new(contigs);
    let reads_arc = Arc::new(reads);
    let (c, r) = (Arc::clone(&contigs), Arc::clone(&reads_arc));
    let outs = run_cluster(2, NetModel::ideal(), move |comm| {
        bowtie_mpi(comm, &c, &r, &cfg, AlignConfig { max_mismatches: 2 }).sam
    });
    let sam = &outs[0].value;
    let name_index = contig_name_index(&contigs);
    let lens: Vec<usize> = contigs.iter().map(|c| c.seq.len()).collect();
    let pairs = scaffold_pairs(sam, &name_index, &lens, ScaffoldConfig::default());
    // Pairs are well-formed: ordered, in range, no self-links.
    for &(a, b) in &pairs {
        assert!(a < b);
        assert!((b as usize) < contigs.len());
    }
    // Clustering with the scaffold pairs never panics and keeps counts.
    let (comp_of, comps) = chrysalis::graph_from_fasta::cluster(contigs.len(), &pairs);
    assert_eq!(comp_of.len(), contigs.len());
    assert_eq!(comps.iter().map(Vec::len).sum::<usize>(), contigs.len());
}

#[test]
fn rank_counts_beyond_work_degrade_gracefully() {
    // More ranks than contigs/chunks: idle ranks, identical results.
    let (contigs, _reads, counts, cfg) = workload();
    let n_contigs = contigs.len();
    let gff_shared = Arc::new(GffShared::prepare(
        seqio::packed::encode_all(&contigs),
        counts,
        cfg,
    ));
    let g1 = Arc::clone(&gff_shared);
    let one = run_cluster(1, NetModel::ideal(), move |comm| {
        gff_hybrid(comm, &g1).pairs
    });
    let gmany = Arc::clone(&gff_shared);
    let many = run_cluster(n_contigs + 5, NetModel::ideal(), move |comm| {
        // The pooling contract idle ranks rely on: `allgatherv` is
        // positional. A rank with nothing to say contributes a
        // *zero-length* part — never an absent one — and every rank
        // receives exactly `size` entries, so indexing the pooled vector
        // by rank stays aligned however many ranks sit idle.
        let mine: Vec<u8> = if comm.rank() < n_contigs {
            vec![comm.rank() as u8; 3]
        } else {
            Vec::new()
        };
        let parts = comm.allgatherv(&mine);
        assert_eq!(parts.len(), comm.size(), "one entry per rank, always");
        for (r, part) in parts.iter().enumerate() {
            if r < n_contigs {
                assert_eq!(part, &vec![r as u8; 3], "busy rank {r} part intact");
            } else {
                assert!(
                    part.is_empty(),
                    "idle rank {r} contributes zero-length, not absent"
                );
            }
        }
        gff_hybrid(comm, &gmany).pairs
    });
    assert_eq!(one[0].value, many[0].value);
}

#[test]
fn communication_volume_ordering() {
    // Loop 1 ships strings, loop 2 ships integers: per the paper, loop 2
    // uses "substantially less communication". Virtual *time* around each
    // collective includes rank-arrival skew from real measured loop costs,
    // so assert on the deterministic byte volume the `mpi.allgatherv`
    // spans carry instead.
    let (contigs, _reads, counts, cfg) = workload();
    let gff_shared = Arc::new(GffShared::prepare(
        seqio::packed::encode_all(&contigs),
        counts,
        cfg,
    ));
    let outs = run_cluster(4, NetModel::idataplex(), move |comm| {
        let welds = gff_hybrid(comm, &gff_shared).welds.len();
        (welds, comm.track())
    });
    let (welds, track) = outs[0].value;
    let mut gathers: Vec<&obs::SpanRecord> = outs[0]
        .trace
        .on_track(track)
        .filter(|s| s.name == "mpi.allgatherv")
        .collect();
    gathers.sort_by(|a, b| a.start.total_cmp(&b.start));
    assert_eq!(gathers.len(), 2, "gff_hybrid pools welds then matches");
    let bytes1 = gathers[0].arg("bytes_total").unwrap_or(0.0);
    let bytes2 = gathers[1].arg("bytes_total").unwrap_or(0.0);
    if welds > 0 {
        assert!(
            bytes1 >= bytes2,
            "string pooling ({bytes1} B) should ship at least as much as integer pooling ({bytes2} B)"
        );
    }
}
