//! Fig. 10 — distributed Bowtie scaling on the sugarbeet-like workload:
//! PyFasta split time, alignment time and stage total per node count.
//!
//! Paper: ~3× total speedup at 128 nodes vs the >8 h single-node run,
//! with the single-threaded PyFasta split "taking more runtime than the
//! subsequent Bowtie step" at scale — the overhead the figure exposes.

use std::sync::Arc;

use bowtie::align::AlignConfig;
use chrysalis::bowtie_mpi::bowtie_hits;
use chrysalis::timings::{BowtieTimings, PhaseSpread};
use mpisim::{run_cluster, NetModel};
use omp::makespan::simulate_loop;
use seqio::fasta::Record;
use simulate::datasets::DatasetPreset;

use crate::workloads::{assemble_contigs, bench_pipeline_config, scaled};

/// One rank-count's measurements.
#[derive(Debug, Clone, Copy)]
pub struct BowtieRow {
    /// Number of ranks.
    pub ranks: usize,
    /// PyFasta split time (serial, on the master).
    pub split: f64,
    /// Alignment time (max across ranks).
    pub align: f64,
    /// Index build time (max across ranks).
    pub index: f64,
    /// Merge time.
    pub merge: f64,
    /// Stage total (slowest rank).
    pub total: f64,
}

/// The experiment output.
#[derive(Debug, Clone)]
pub struct Fig10Data {
    /// Rows per rank count (first row doubles as the single-node baseline
    /// when `rank_counts` starts at 1).
    pub rows: Vec<BowtieRow>,
    /// Contig / read counts of the workload.
    pub contigs: usize,
    /// Number of reads aligned per rank.
    pub reads: usize,
}

/// Prepare contigs and reads for the sweep.
pub fn prepare(seed: u64, scale: f64) -> (Arc<Vec<Record>>, Arc<Vec<Record>>) {
    let w = scaled(DatasetPreset::SugarbeetLike, seed, scale);
    let cfg = bench_pipeline_config();
    let (contigs, _counts) = assemble_contigs(&w.reads, &cfg);
    (Arc::new(contigs), Arc::new(w.reads))
}

/// The figure's alignment setting: the pipeline's `-v 1`.
fn align_config() -> AlignConfig {
    AlignConfig { max_mismatches: 1 }
}

/// Run the scaling sweep.
pub fn run(contigs: Arc<Vec<Record>>, reads: Arc<Vec<Record>>, rank_counts: &[usize]) -> Fig10Data {
    let cfg = bench_pipeline_config();
    let align_cfg = align_config();
    let mut rows = Vec::with_capacity(rank_counts.len());
    for &ranks in rank_counts {
        let (c, r) = (Arc::clone(&contigs), Arc::clone(&reads));
        let ch = cfg.chrysalis;
        let outs = run_cluster(ranks, NetModel::idataplex(), move |comm| {
            bowtie_hits(comm, &c, &r, &ch, align_cfg).timings
        });
        let t: Vec<BowtieTimings> = outs.iter().map(|o| o.value).collect();
        rows.push(BowtieRow {
            ranks,
            split: PhaseSpread::over(&t, |x| x.split).max,
            align: PhaseSpread::over(&t, |x| x.align).max,
            index: PhaseSpread::over(&t, |x| x.index).max,
            merge: PhaseSpread::over(&t, |x| x.merge).max,
            total: PhaseSpread::over(&t, |x| x.total).max,
        });
    }
    Fig10Data {
        rows,
        contigs: contigs.len(),
        reads: reads.len(),
    }
}

/// What one rank's `bowtie.*` spans say it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankWork {
    /// Reads aligned: `bowtie.align`'s `reads`.
    pub reads: usize,
    /// Contig bases indexed: `bowtie.index`'s `bases`.
    pub bases: usize,
}

/// Each rank's [`RankWork`] at `ranks` ranks.
pub fn rank_work(
    contigs: &Arc<Vec<Record>>,
    reads: &Arc<Vec<Record>>,
    ranks: usize,
) -> Vec<RankWork> {
    let (c, r) = (Arc::clone(contigs), Arc::clone(reads));
    let ch = bench_pipeline_config().chrysalis;
    let outs = run_cluster(ranks, NetModel::idataplex(), move |comm| {
        bowtie_hits(comm, &c, &r, &ch, align_config());
    });
    let per_rank = outs.iter().map(|o| {
        let arg = |span: &str, name: &str| {
            let mut spans = o.trace.on_track(o.rank as u32);
            let sp = spans
                .find(|sp| sp.name == span)
                .expect("the rank ran the phase");
            sp.arg(name).expect("the phase reports its work") as usize
        };
        RankWork {
            reads: arg("bowtie.align", "reads"),
            bases: arg("bowtie.index", "bases"),
        }
    });
    per_rank.collect()
}

/// The stage on its slowest rank at `ranks` ranks, in the paper's work
/// units with the split and the merge left out: the slice's bases indexed
/// by one thread (the paper's `bowtie-build` is single-threaded) plus the
/// makespan of every read's bases aligned over the configured threads.
pub fn modelled_work(contigs: &Arc<Vec<Record>>, reads: &Arc<Vec<Record>>, ranks: usize) -> f64 {
    let cfg = bench_pipeline_config().chrysalis;
    let work = rank_work(contigs, reads, ranks);
    assert!(work.iter().all(|w| w.reads == reads.len()), "{work:?}");
    let read_bases: Vec<f64> = reads.iter().map(|r| r.seq.len() as f64).collect();
    let align = simulate_loop(&read_bases, cfg.threads, cfg.schedule).makespan;
    let index = work.iter().map(|w| w.bases).max().unwrap_or(0);
    index as f64 + align
}

/// Render the figure's series.
pub fn render(data: &Fig10Data) -> String {
    let mut out = format!(
        "Fig. 10 — distributed Bowtie scaling ({} contigs, {} reads)\n\n\
         {:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9}\n",
        data.contigs, data.reads, "nodes", "split", "index", "align", "merge", "total", "speedup"
    );
    let base = data.rows.first().map(|r| r.total).unwrap_or(0.0);
    for r in &data.rows {
        out.push_str(&format!(
            "{:>6} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>8.2}x\n",
            r.ranks,
            r.split,
            r.index,
            r.align,
            r.merge,
            r.total,
            base / r.total.max(f64::MIN_POSITIVE)
        ));
    }
    out.push_str(
        "\n(paper: ~3x at 128 nodes; the single-threaded PyFasta split \
         dominates at scale)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_constant_while_align_shrinks() {
        let (contigs, reads) = prepare(2, 0.08);
        let data = run(Arc::clone(&contigs), Arc::clone(&reads), &[1, 8]);
        assert!(render(&data).contains("split"));
        // Asserted on what the rank program reports, not the measured rows
        // above. The split is serial: the slices the ranks index cover every
        // contig base at any rank count, all of it planned on the master.
        // The index shrinks with the slice: no rank's slice holds more than
        // an eighth of the bases plus one contig.
        let all_bases: usize = contigs.iter().map(|c| c.seq.len()).sum();
        let longest = contigs.iter().map(|c| c.seq.len()).max().unwrap_or(0);
        let one = rank_work(&contigs, &reads, 1);
        let eight = rank_work(&contigs, &reads, 8);
        assert_eq!(one[0].bases, all_bases);
        assert_eq!(eight.iter().map(|w| w.bases).sum::<usize>(), all_bases);
        let index8 = eight.iter().map(|w| w.bases).max().unwrap_or(0);
        assert!(index8 <= all_bases / 8 + longest, "{index8} of {all_bases}");
        assert!(index8 < all_bases, "index {index8} vs {all_bases}");
    }

    #[test]
    fn total_speedup_is_modest() {
        let (contigs, reads) = prepare(2, 0.08);
        // The paper saw only ~3x at 128 nodes: alignment work is
        // replicated per rank, so speedup must be well below linear. Every
        // rank reports aligning every read. The serial split and the merge,
        // which grows with ranks, are left out of the model, so the bound is
        // generous.
        let slowest = |ranks| modelled_work(&contigs, &reads, ranks);
        let speedup = slowest(1) / slowest(8);
        assert!(
            speedup < 6.0,
            "8 ranks must give sublinear speedup, got {speedup:.2}"
        );
    }
}
