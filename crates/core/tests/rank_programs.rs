//! The four hybrid entry points at rank counts {1, 2, 4, 7} — the paper's
//! static/streaming rank programs and the two §V-A variants (master-dealt
//! partition, striped reads) — and the two `*_shared_memory` wrappers
//! against an independent oracle. The wrappers *are* the rank programs on
//! one rank, so they cannot referee them; the oracle is each stage written
//! in a straight line from the per-item public functions, with no ranks,
//! threads, clock or packing.

use std::sync::Arc;

use chrysalis::config::ChrysalisConfig;
use chrysalis::graph_from_fasta::{
    cluster, gff_hybrid, gff_hybrid_dynamic, gff_shared_memory, GffOutput, GffShared,
};
use chrysalis::pairs::{match_contig, pairs_from_matches, WeldKmerIndex};
use chrysalis::reads_to_transcripts::{
    rtt_hybrid, rtt_hybrid_striped, rtt_shared_memory, RttOutput, RttShared,
};
use chrysalis::weld::{decode_weld, harvest_contig, WeldSupport};
use kcount::counter::{count_kmers, CounterConfig};
use mpisim::{run_cluster, Comm, NetModel};
use seqio::fasta::Record;
use simulate::datasets::{Dataset, DatasetPreset};

const RANKS: [usize; 4] = [1, 2, 4, 7];

type GffProgram = fn(&mut Comm, &GffShared) -> GffOutput;
type RttProgram = fn(&mut Comm, &RttShared) -> RttOutput;

/// Workload seed; the weld-order digests below were recorded with it.
const SEED: u64 = 5;

fn workload() -> (Arc<GffShared>, Vec<Record>) {
    let reads = Dataset::generate(DatasetPreset::Tiny, SEED).all_reads();
    let cfg = ChrysalisConfig::small(12);
    let counts = count_kmers(&reads, CounterConfig::new(cfg.k));
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
    let shared = GffShared::prepare(seqio::packed::encode_all(&contigs), counts, cfg);
    (Arc::new(shared), reads)
}

fn sorted(mut welds: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    welds.sort();
    welds
}

/// FNV-1a over the welds in order, newline-separated.
fn order_digest(welds: &[Vec<u8>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in welds.iter().flat_map(|w| w.iter().chain(b"\n")) {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Welds (first occurrences, in harvest order), pairs and component ids.
type GffReference = (Vec<Vec<u8>>, Vec<(u32, u32)>, Vec<usize>);

/// Every contig's harvest, in contig order, duplicates across contigs
/// included: what loop 1 pools, whatever the rank count.
fn harvest_all(shared: &GffShared) -> Vec<u128> {
    let cfg = &shared.cfg;
    let support = WeldSupport::new(&shared.counts);
    let harvest = |i| harvest_contig(i, &shared.contigs, &shared.kmap, &support, cfg);
    (0..shared.contigs.len() as u32).flat_map(harvest).collect()
}

/// Every contig's loop-2 matches against `index`, in contig order.
fn match_all(shared: &GffShared, index: &WeldKmerIndex) -> Vec<(u32, u32)> {
    let matches = |i| match_contig(i, &shared.contigs, index);
    (0..shared.contigs.len() as u32).flat_map(matches).collect()
}

/// GraphFromFasta in a straight line: harvest every contig in order, index
/// the welds, match every contig in order, pair, cluster.
fn gff_reference(shared: &GffShared) -> GffReference {
    let cfg = &shared.cfg;
    let mut welds = harvest_all(shared);
    let index = WeldKmerIndex::build(&welds, cfg.weld_len(), cfg.k);
    let pairs = pairs_from_matches(&match_all(shared, &index));
    let (component_of, _) = cluster(shared.contigs.len(), &pairs);
    let mut seen = std::collections::HashSet::new();
    welds.retain(|&w| seen.insert(w));
    let ascii = |&w: &u128| decode_weld(w, cfg.weld_len());
    (welds.iter().map(ascii).collect(), pairs, component_of)
}

/// ReadsToTranscripts in a straight line: vote every read, in file order.
fn rtt_reference(shared: &RttShared) -> Vec<(u32, u32)> {
    let votes = shared.packed_reads.iter().map(|r| shared.assign_packed(r));
    let assigned = votes.enumerate().filter_map(|(i, c)| Some((i as u32, c?)));
    assigned.collect()
}

fn gff_on_cluster(shared: &Arc<GffShared>, ranks: usize, program: GffProgram) -> Vec<GffOutput> {
    let sh = Arc::clone(shared);
    run_cluster(ranks, NetModel::idataplex(), move |comm| program(comm, &sh))
        .into_iter()
        .map(|o| o.value)
        .collect()
}

#[test]
fn gff_entry_points_match_shared_memory() {
    let (shared, _) = workload();
    let (welds, pairs, component_of) = gff_reference(&shared);
    assert!(welds.len() > 1 && !pairs.is_empty());
    let serial = gff_shared_memory(&shared);
    assert_eq!(
        (&serial.welds, &serial.pairs, &serial.component_of),
        (&welds, &pairs, &component_of),
        "shared-memory wrapper"
    );
    let welds = sorted(welds);
    let programs: [(&str, GffProgram); 2] =
        [("static", gff_hybrid), ("dynamic", gff_hybrid_dynamic)];
    for (name, program) in programs {
        for ranks in RANKS {
            for out in gff_on_cluster(&shared, ranks, program) {
                assert_eq!(out.pairs, pairs, "{name} ranks={ranks}");
                assert_eq!(out.component_of, component_of, "{name} ranks={ranks}");
                assert_eq!(sorted(out.welds), welds, "{name} ranks={ranks}");
            }
        }
    }
}

/// `gff_hybrid` pools welds in rank order, each rank's chunks in
/// round-robin order; the pooled order feeds the checkpoint and the weld
/// index, so it is pinned per rank count.
#[test]
fn gff_hybrid_weld_order_is_pinned() {
    const DIGESTS: [u64; 4] = [
        0xf5fe_9677_e364_306c,
        0x0790_6746_4d2c_e658,
        0x01c1_e247_9944_3f1c,
        0x559d_cae4_d34c_7dd4,
    ];
    let (shared, _) = workload();
    let (welds, ..) = gff_reference(&shared);
    let got: Vec<u64> = RANKS
        .iter()
        .map(|&ranks| {
            let outs = gff_on_cluster(&shared, ranks, gff_hybrid);
            for o in &outs[1..] {
                assert_eq!(o.welds, outs[0].welds, "ranks agree, ranks={ranks}");
            }
            order_digest(&outs[0].welds)
        })
        .collect();
    // One rank owns every chunk, so its order is harvest order — which is
    // also the shared-memory wrapper's.
    assert_eq!(got[0], order_digest(&welds));
    assert_eq!(got[0], order_digest(&gff_shared_memory(&shared).welds));
    assert_eq!(
        got, DIGESTS,
        "weld order per rank count {RANKS:?}: {got:#x?}"
    );
}

/// FNV-1a over a whole GraphFromFasta output: the welds in order
/// (newline-terminated), then every pair and every component id as
/// little-endian `u32`s.
fn output_digest(out: &GffOutput) -> u64 {
    let welds = out
        .welds
        .iter()
        .flat_map(|w| w.iter().copied().chain(*b"\n"));
    let pairs = out.pairs.iter().flat_map(|&(a, b)| [a, b]);
    let ids = out.component_of.iter().map(|&c| c as u32);
    let ints = pairs.chain(ids).flat_map(u32::to_le_bytes);
    welds.chain(ints).fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Welds cross ranks as `u128`s and are decoded once, at the end of the
/// rank program; the ASCII list, the pairs and the component ids must be
/// the bytes the rank program produced when welds were ASCII from harvest
/// on. Digests recorded at that commit (`870561d`), this workload.
#[test]
fn gff_hybrid_output_is_byte_identical_to_the_ascii_weld_flow() {
    const DIGESTS: [u64; 4] = [
        0x3148_9c22_60d9_f0b0,
        0xb2da_0f20_f1d8_4764,
        0x5f2a_ea3a_8d00_f120,
        0xb0ba_6e21_58a7_f5e8,
    ];
    let (shared, _) = workload();
    let digest = |ranks| output_digest(&gff_on_cluster(&shared, ranks, gff_hybrid)[0]);
    let got = RANKS.map(digest);
    assert_eq!(got, DIGESTS, "output per rank count {RANKS:?}: {got:#x?}");
}

/// Loop 1 ships fixed-width words: 16 bytes per pooled weld, duplicates
/// included, no framing; loop 2 ships 8 bytes per match. Nothing else in
/// the rank program carries a payload.
#[test]
fn loop1_exchange_is_sixteen_bytes_per_pooled_weld() {
    let (shared, _) = workload();
    let pooled = harvest_all(&shared);
    let index = WeldKmerIndex::build(&pooled, shared.cfg.weld_len(), shared.cfg.k);
    assert!(index.len() < pooled.len(), "fixture pools duplicate welds");
    let matches = match_all(&shared, &index);
    let sh = Arc::clone(&shared);
    let outs = run_cluster(2, NetModel::idataplex(), move |comm| gff_hybrid(comm, &sh));
    let sent: u64 = outs.iter().map(|o| o.stats.bytes_sent).sum();
    assert_eq!(sent, (16 * pooled.len() + 8 * matches.len()) as u64);
}

#[test]
fn rtt_entry_points_match_shared_memory() {
    let (gff_shared, reads) = workload();
    let (_, components) = cluster(gff_shared.contigs.len(), &gff_reference(&gff_shared).1);
    let mut cfg = gff_shared.cfg;
    // Several chunks per rank at every rank count.
    cfg.max_mem_reads = reads.len() / 20;
    let shared = Arc::new(RttShared::prepare(
        reads,
        &gff_shared.contigs,
        &components,
        cfg,
    ));
    let assignments = rtt_reference(&shared);
    assert!(!assignments.is_empty());
    assert_eq!(rtt_shared_memory(&shared).assignments, assignments);
    let programs: [(&str, RttProgram); 2] =
        [("streaming", rtt_hybrid), ("striped", rtt_hybrid_striped)];
    for (name, program) in programs {
        for ranks in RANKS {
            let sh = Arc::clone(&shared);
            let outs = run_cluster(ranks, NetModel::idataplex(), move |comm| program(comm, &sh));
            for o in outs {
                assert_eq!(o.value.assignments, assignments, "{name} ranks={ranks}");
            }
        }
    }
}
