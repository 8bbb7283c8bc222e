//! Drive path enumeration over every Chrysalis component.

use seqio::fasta::Record;
use seqio::packed::PackedSeq;

use graph::debruijn::DeBruijnGraph;

use crate::paths::enumerate_paths;

/// One component's input to Butterfly: its clustered contigs and the reads
/// ReadsToTranscripts assigned to it.
///
/// Sequences arrive pre-encoded as [`PackedSeq`]: the pipeline packs every
/// read and contig once at ingest, and Butterfly's graph threading consumes
/// the 2-bit form directly instead of re-decoding ASCII per component.
#[derive(Debug, Clone, Default)]
pub struct ComponentInput {
    /// Component id (dense, from Chrysalis).
    pub component: usize,
    /// The component's Inchworm contigs.
    pub contigs: Vec<PackedSeq>,
    /// Reads assigned to this component (used as edge support).
    pub reads: Vec<PackedSeq>,
}

impl ComponentInput {
    /// Build from byte sequences, encoding each once (test/CLI convenience).
    pub fn from_bytes<S: AsRef<[u8]>>(component: usize, contigs: &[S], reads: &[S]) -> Self {
        ComponentInput {
            component,
            contigs: seqio::packed::encode_all(contigs),
            reads: seqio::packed::encode_all(reads),
        }
    }
}

/// Weight each contig threads onto its edges. Contigs are consensus
/// sequences, so they count more than a single read.
pub const CONTIG_WEIGHT: u32 = 2;

/// Edges lighter than this are pruned before enumeration (the read-support
/// filter): a single erroneous read cannot open an isoform bubble. It is
/// the contig weight, so contigs alone always survive.
pub const MIN_EDGE_WEIGHT: u32 = CONTIG_WEIGHT;

/// Reconstruction parameters.
#[derive(Debug, Clone, Copy)]
pub struct ReconstructionConfig {
    /// de Bruijn word size (Trinity uses k = 25 throughout). Paths shorter
    /// than `2·k` bases are dropped.
    pub k: usize,
}

/// Reconstruct transcripts for one component.
pub fn reconstruct_component(input: &ComponentInput, cfg: ReconstructionConfig) -> Vec<Record> {
    let contig_bases = input.contigs.iter().map(PackedSeq::len).sum();
    let mut g = DeBruijnGraph::with_capacity(cfg.k, contig_bases);
    for contig in &input.contigs {
        g.add_packed(contig, CONTIG_WEIGHT);
    }
    for read in &input.reads {
        g.add_packed(read, 1);
    }
    g.prune_edges(MIN_EDGE_WEIGHT);
    enumerate_paths(&g)
        .into_iter()
        .enumerate()
        .map(|(i, seq)| Record {
            id: format!("comp{}_seq{}", input.component, i),
            desc: format!("len={}", seq.len()),
            seq,
        })
        .collect()
}

/// Reconstruct transcripts for every component (the Butterfly stage).
pub fn reconstruct(components: &[ComponentInput], cfg: ReconstructionConfig) -> Vec<Record> {
    let mut out = Vec::new();
    for c in components {
        out.extend(reconstruct_component(c, cfg));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const CFG: ReconstructionConfig = ReconstructionConfig { k: 8 };

    #[test]
    fn single_contig_component() {
        let contig = b"CGAGTCGGTTATCTTCGGATACTGTATAGTCC".to_vec();
        let input = ComponentInput::from_bytes(3, std::slice::from_ref(&contig), &[]);
        let recs = reconstruct_component(&input, CFG);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].id, "comp3_seq0");
        assert_eq!(recs[0].seq, contig);
    }

    #[test]
    fn reads_bridge_contigs() {
        // Two contigs overlapping k-1 are stitched in the graph; a read
        // spanning the junction adds support.
        let full = b"CGAGTCGGTTATCTTCGGATACTGTATAGTCCCACC".to_vec();
        let c1 = full[..20].to_vec();
        let c2 = full[13..].to_vec();
        let junction_read = full[10..26].to_vec();
        let input = ComponentInput::from_bytes(0, &[c1, c2], &[junction_read]);
        let recs = reconstruct_component(&input, CFG);
        assert!(
            recs.iter().any(|r| r.seq == full),
            "full transcript spelled"
        );
    }

    #[test]
    fn min_edge_weight_prunes_noise() {
        let clean = b"CGAGTCGGTTATCTTCGGATACTGTATAGTCC".to_vec();
        let mut noisy = clean.clone();
        noisy[16] = b'A'; // single erroneous read creates a bubble
        let input = ComponentInput::from_bytes(0, std::slice::from_ref(&clean), &[noisy]);
        // Contig weight 2 and pruning at 2 kill the weight-1 error branch.
        let recs = reconstruct_component(&input, CFG);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].seq, clean);
    }

    #[test]
    fn multiple_components_concatenate() {
        let a = ComponentInput::from_bytes(0, &[b"CGAGTCGGTTATCTTCGGATACTGTATAGTCC".to_vec()], &[]);
        let b = ComponentInput::from_bytes(1, &[b"AAAGCGGCACTTGTGAAGTGTTCCCCACGCCG".to_vec()], &[]);
        let recs = reconstruct(&[a, b], CFG);
        assert_eq!(recs.len(), 2);
        assert!(recs[0].id.starts_with("comp0"));
        assert!(recs[1].id.starts_with("comp1"));
    }

    #[test]
    fn empty_component_is_empty() {
        let recs = reconstruct_component(&ComponentInput::default(), CFG);
        assert!(recs.is_empty());
    }

    #[test]
    fn isoforms_of_bubble_reported() {
        let iso1 = b"CGAGTCGGTTATCTTCGGATACTGTATAGTCCCACCTGG".to_vec();
        let mut iso2 = Vec::new();
        iso2.extend_from_slice(&iso1[..12]);
        iso2.extend_from_slice(b"AAAGCGGCACTTGTGAAGTG");
        iso2.extend_from_slice(&iso1[iso1.len() - 12..]);
        let input = ComponentInput::from_bytes(0, &[iso1.clone(), iso2.clone()], &[]);
        let recs = reconstruct_component(&input, CFG);
        let seqs: Vec<&[u8]> = recs.iter().map(|r| r.seq.as_slice()).collect();
        assert!(seqs.contains(&iso1.as_slice()));
        assert!(seqs.contains(&iso2.as_slice()));
    }
}
