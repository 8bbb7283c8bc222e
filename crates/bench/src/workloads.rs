//! Shared workload construction for the figure experiments.

use seqio::fasta::Record;
use simulate::datasets::{Dataset, DatasetPreset};
use simulate::expression::ExpressionModel;
use simulate::reads::simulate_reads;
use simulate::transcriptome::{RefSeq, Transcriptome};
use trinity::pipeline::PipelineConfig;

/// A materialized benchmark workload.
pub struct Workload {
    /// All reads.
    pub reads: Vec<Record>,
    /// Ground-truth reference.
    pub reference: Vec<RefSeq>,
}

/// Generate a preset scaled by `scale` (scales the gene count and read
/// count together, preserving coverage).
pub fn scaled(preset: DatasetPreset, seed: u64, scale: f64) -> Workload {
    let (mut tcfg, mut rcfg) = preset.configs(seed);
    if (scale - 1.0).abs() > f64::EPSILON {
        tcfg.genes = ((tcfg.genes as f64 * scale).round() as usize).max(2);
        rcfg.pairs = ((rcfg.pairs as f64 * scale).round() as usize).max(50);
    }
    let transcriptome = Transcriptome::generate(tcfg);
    let reference = transcriptome.reference();
    let expr = ExpressionModel {
        seed: seed ^ 0xE0E0_E0E0,
        ..ExpressionModel::default()
    };
    let reads = simulate_reads(&reference, &expr, rcfg).all();
    Workload { reads, reference }
}

/// Generate a preset at its configured size.
pub fn full(preset: DatasetPreset, seed: u64) -> Workload {
    let ds = Dataset::generate(preset, seed);
    Workload {
        reads: ds.all_reads(),
        reference: ds.reference,
    }
}

/// The pipeline configuration used by the figure experiments: k = 16
/// (paper-shaped but sized for synthetic exon lengths) with the paper's
/// 16 threads per rank.
pub fn bench_pipeline_config() -> PipelineConfig {
    let mut cfg = PipelineConfig::small(16);
    cfg.chrysalis.threads = 16;
    cfg
}

/// Run Jellyfish + Inchworm over a read set, producing the contig FASTA
/// and the read k-mer table the Chrysalis experiments consume.
pub fn assemble_contigs(
    reads: &[Record],
    cfg: &PipelineConfig,
) -> (Vec<Record>, kcount::counter::KmerCounts) {
    let counts =
        kcount::counter::count_kmers(reads, kcount::counter::CounterConfig::new(cfg.chrysalis.k));
    let dict =
        inchworm::dictionary::Dictionary::from_counts(counts.clone(), cfg.min_kmer_count.max(1));
    let contigs = inchworm::assemble::assemble(&dict, cfg.inchworm)
        .iter()
        .map(|c| c.to_record())
        .collect();
    (contigs, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_down_is_smaller() {
        let big = scaled(DatasetPreset::Tiny, 1, 1.0);
        let small = scaled(DatasetPreset::Tiny, 1, 0.3);
        assert!(small.reads.len() < big.reads.len());
        assert!(small.reference.len() <= big.reference.len());
    }

    #[test]
    fn full_matches_dataset() {
        let w = full(DatasetPreset::Tiny, 1);
        let d = Dataset::generate(DatasetPreset::Tiny, 1);
        assert_eq!(w.reads.len(), d.all_reads().len());
    }

    #[test]
    fn config_uses_sixteen_threads() {
        assert_eq!(bench_pipeline_config().chrysalis.threads, 16);
    }
}
