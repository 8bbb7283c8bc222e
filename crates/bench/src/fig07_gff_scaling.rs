//! Fig. 7 — hybrid GraphFromFasta strong scaling on the sugarbeet-like
//! workload: loop 1 and loop 2 min/max across ranks plus the stage total,
//! for 16 → 192 nodes (16 threads per node), against the OpenMP-only
//! baseline.
//!
//! Paper headline: baseline 122 610 s on 1×16; 27 133 s at 16 nodes
//! (4.5×); 5 930 s at 192 nodes (20.7×); loop speedups 8.31×/11.93×
//! (loop 1 at 128/192 vs 16) and growing load imbalance in loop 2.

use std::sync::Arc;

use chrysalis::graph_from_fasta::{gff_hybrid, gff_shared_memory, GffShared};
use chrysalis::timings::{GffTimings, PhaseSpread};
use mpisim::{run_cluster, NetModel};
use simulate::datasets::DatasetPreset;

use crate::workloads::{assemble_contigs, bench_pipeline_config, scaled};

/// One rank-count's measurements.
#[derive(Debug, Clone, Copy)]
pub struct ScalingRow {
    /// Number of ranks (nodes).
    pub ranks: usize,
    /// Loop 1 spread across ranks.
    pub loop1: PhaseSpread,
    /// Loop 2 spread across ranks.
    pub loop2: PhaseSpread,
    /// Non-parallel share (max across ranks).
    pub serial: f64,
    /// Stage total (slowest rank).
    pub total: f64,
}

/// The experiment output.
#[derive(Debug, Clone)]
pub struct Fig07Data {
    /// OpenMP-only baseline (1 node × 16 threads) total.
    pub baseline_total: f64,
    /// Baseline loop times.
    pub baseline: GffTimings,
    /// Hybrid rows per rank count.
    pub rows: Vec<ScalingRow>,
    /// Contig count of the workload.
    pub contigs: usize,
}

/// Prepare the shared GraphFromFasta state for the scaling runs.
pub fn prepare(seed: u64, scale: f64) -> Arc<GffShared> {
    let w = scaled(DatasetPreset::SugarbeetLike, seed, scale);
    let cfg = bench_pipeline_config();
    let (contigs, counts) = assemble_contigs(&w.reads, &cfg);
    Arc::new(GffShared::prepare(
        seqio::packed::encode_all(&contigs),
        counts,
        cfg.chrysalis,
    ))
}

/// Run the scaling sweep over `rank_counts`.
pub fn run(shared: Arc<GffShared>, rank_counts: &[usize]) -> Fig07Data {
    let baseline = gff_shared_memory(&shared).timings;
    let mut rows = Vec::with_capacity(rank_counts.len());
    for &ranks in rank_counts {
        let sh = Arc::clone(&shared);
        let outs = run_cluster(ranks, NetModel::idataplex(), move |comm| {
            gff_hybrid(comm, &sh).timings
        });
        let timings: Vec<GffTimings> = outs.iter().map(|o| o.value).collect();
        rows.push(ScalingRow {
            ranks,
            loop1: PhaseSpread::over(&timings, |t| t.loop1),
            loop2: PhaseSpread::over(&timings, |t| t.loop2),
            serial: PhaseSpread::over(&timings, |t| t.serial).max,
            total: PhaseSpread::over(&timings, |t| t.total).max,
        });
    }
    Fig07Data {
        baseline_total: baseline.total,
        baseline,
        rows,
        contigs: shared.contigs.len(),
    }
}

/// Render the figure's series.
pub fn render(data: &Fig07Data) -> String {
    let mut out = format!(
        "Fig. 7 — hybrid GraphFromFasta scaling (sugarbeet-like, {} contigs)\n\
         baseline (1 node x 16 threads): total {:.3}s  loop1 {:.3}s  loop2 {:.3}s\n\n\
         {:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9}\n",
        data.contigs,
        data.baseline_total,
        data.baseline.loop1,
        data.baseline.loop2,
        "nodes",
        "loop1 min",
        "loop1 max",
        "loop2 min",
        "loop2 max",
        "total",
        "speedup",
        "imbal2"
    );
    for r in &data.rows {
        out.push_str(&format!(
            "{:>6} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>9.2}x {:>8.2}x\n",
            r.ranks,
            r.loop1.min,
            r.loop1.max,
            r.loop2.min,
            r.loop2.max,
            r.total,
            data.baseline_total / r.total.max(f64::MIN_POSITIVE),
            r.loop2.imbalance()
        ));
    }
    out.push_str(
        "\n(paper at the same points: 16 nodes 4.5x, 192 nodes 20.7x; loop-2 \
         imbalance >3x at 192 nodes)\n",
    );
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use omp::makespan::simulate_grouped;
    use omp::schedule::chunked_round_robin;

    /// Loop 1's modelled work units: k-mer windows per contig, `len − k + 1`.
    pub(crate) fn work_units(shared: &GffShared) -> Vec<f64> {
        let windows = |c: &seqio::packed::PackedSeq| (c.len() + 1).saturating_sub(shared.cfg.k);
        shared.contigs.iter().map(|c| windows(c) as f64).collect()
    }

    /// Per-rank loop time in work units under the rank program's partition
    /// (chunked round-robin at the configured chunk size) and inner OpenMP
    /// schedule.
    pub(crate) fn modelled_loop(shared: &GffShared, ranks: usize) -> PhaseSpread {
        let (cfg, work) = (&shared.cfg, work_units(shared));
        let groups = chunked_round_robin(work.len(), ranks, cfg.chunk_size(work.len(), ranks));
        let sims = simulate_grouped(&work, &groups, cfg.threads, cfg.schedule);
        PhaseSpread::over(&sims, |sim| sim.makespan)
    }

    #[test]
    fn scaling_improves_then_saturates() {
        let shared = prepare(2, 0.15);
        let data = run(Arc::clone(&shared), &[4, 16, 48]);
        assert_eq!(data.rows.len(), 3);
        assert!(render(&data).contains("speedup"));
        // The scaling claim is asserted on modelled work units, not on the
        // measured rows above: the same contigs through the partition
        // functions the rank program calls, so it reads the same on any host.
        let [one, r4, r16, r48] = [1, 4, 16, 48].map(|r| modelled_loop(&shared, r));
        // Work conservation: the mean per-rank loop time shrinks with ranks.
        assert!(r48.mean < 0.5 * r4.mean, "{} vs {}", r48.mean, r4.mean);
        // Improves: the slowest rank beats the one-node baseline and more
        // ranks never lengthen it.
        assert!(
            one.max > r4.max && r4.max >= r16.max && r16.max >= r48.max,
            "slowest rank {} -> {} -> {} -> {}",
            one.max,
            r4.max,
            r16.max,
            r48.max
        );
        // Saturates: a rank's threads cannot split a contig, so the longest
        // one is a floor under every makespan and 12x the ranks buys far
        // less than 12x.
        let longest = work_units(&shared).into_iter().fold(0.0, f64::max);
        assert!(r48.max >= longest);
        assert!(r4.max / r48.max < 12.0, "sublinear: {}", r4.max / r48.max);
    }

    #[test]
    fn load_imbalance_present_at_scale() {
        let shared = prepare(2, 0.12);
        // Skewed contig lengths: at 48 ranks the slowest rank has measurably
        // more loop-1 work than the mean, in modelled work units.
        let loop1 = modelled_loop(&shared, 48);
        assert!(loop1.imbalance() > 1.05, "imbalance {}", loop1.imbalance());
    }
}
