//! Fig. 9 — hybrid ReadsToTranscripts scaling on the sugarbeet-like
//! workload: the MPI main loop (min/max across ranks), concat overhead and
//! stage total for 1 → 32 nodes.
//!
//! Paper: near-linear loop scaling (3 123 s at 4 nodes → 373 s at 32,
//! 8.37×), overall 19.75× at 32 nodes vs the 20 190 s single-node run;
//! the k-mer→bundle assignment (OpenMP-only) dominates the residual; the
//! concat stays below 15 s; imbalance is low (373 vs 310 s).

use std::sync::Arc;

use chrysalis::graph_from_fasta::gff_shared_memory;
use chrysalis::reads_to_transcripts::{rtt_hybrid, rtt_shared_memory, RttShared};
use chrysalis::timings::{PhaseSpread, RttTimings};
use mpisim::{run_cluster, NetModel};
use simulate::datasets::DatasetPreset;

use crate::workloads::{assemble_contigs, bench_pipeline_config, scaled};

/// One rank-count's measurements.
#[derive(Debug, Clone, Copy)]
pub struct RttRow {
    /// Number of ranks.
    pub ranks: usize,
    /// MPI main-loop spread.
    pub main_loop: PhaseSpread,
    /// Redundant-I/O time (max rank).
    pub io: f64,
    /// Concat time (max rank; only the master does work).
    pub concat: f64,
    /// k-mer setup time (replicated).
    pub kmer_setup: f64,
    /// Stage total (slowest rank).
    pub total: f64,
}

/// The experiment output.
#[derive(Debug, Clone)]
pub struct Fig09Data {
    /// Single-node baseline total.
    pub baseline_total: f64,
    /// Baseline main-loop time.
    pub baseline_loop: f64,
    /// Rows per rank count.
    pub rows: Vec<RttRow>,
    /// Read count of the workload.
    pub reads: usize,
}

/// Prepare the shared ReadsToTranscripts state.
pub fn prepare(seed: u64, scale: f64) -> Arc<RttShared<'static>> {
    let w = scaled(DatasetPreset::SugarbeetLike, seed, scale);
    let cfg = bench_pipeline_config();
    let (contigs, counts) = assemble_contigs(&w.reads, &cfg);
    let packed_contigs = seqio::packed::encode_all(&contigs);
    let gff = gff_shared_memory(&chrysalis::graph_from_fasta::GffShared::prepare(
        packed_contigs.clone(),
        counts,
        cfg.chrysalis,
    ));
    Arc::new(RttShared::prepare(
        w.reads,
        &packed_contigs,
        &gff.components,
        cfg.chrysalis,
    ))
}

/// Run the scaling sweep.
pub fn run(shared: Arc<RttShared>, rank_counts: &[usize]) -> Fig09Data {
    let baseline = rtt_shared_memory(&shared).timings;
    let mut rows = Vec::with_capacity(rank_counts.len());
    for &ranks in rank_counts {
        let sh = Arc::clone(&shared);
        let outs = run_cluster(ranks, NetModel::idataplex(), move |comm| {
            rtt_hybrid(comm, &sh).timings
        });
        let timings: Vec<RttTimings> = outs.iter().map(|o| o.value).collect();
        rows.push(RttRow {
            ranks,
            main_loop: PhaseSpread::over(&timings, |t| t.main_loop),
            io: PhaseSpread::over(&timings, |t| t.io).max,
            concat: PhaseSpread::over(&timings, |t| t.concat).max,
            kmer_setup: PhaseSpread::over(&timings, |t| t.kmer_setup).max,
            total: PhaseSpread::over(&timings, |t| t.total).max,
        });
    }
    Fig09Data {
        baseline_total: baseline.total,
        baseline_loop: baseline.main_loop,
        rows,
        reads: shared.reads.len(),
    }
}

/// Render the figure's series.
pub fn render(data: &Fig09Data) -> String {
    let mut out = format!(
        "Fig. 9 — hybrid ReadsToTranscripts scaling (sugarbeet-like, {} reads)\n\
         baseline (1 node x 16 threads): total {:.3}s  main loop {:.3}s\n\n\
         {:>6} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        data.reads,
        data.baseline_total,
        data.baseline_loop,
        "nodes",
        "loop min",
        "loop max",
        "io",
        "setup",
        "concat",
        "total",
        "speedup"
    );
    for r in &data.rows {
        out.push_str(&format!(
            "{:>6} {:>10.3} {:>10.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>8.2}x\n",
            r.ranks,
            r.main_loop.min,
            r.main_loop.max,
            r.io,
            r.kmer_setup,
            r.concat,
            r.total,
            data.baseline_total / r.total.max(f64::MIN_POSITIVE),
        ));
    }
    out.push_str(
        "\n(paper: loop 8.37x from 4->32 nodes, overall 19.75x at 32 nodes, \
         concat <15s, low imbalance)\n",
    );
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use chrysalis::timings::rtt_io_chunks;
    use omp::makespan::simulate_loop;
    use omp::schedule::static_owner;

    /// Per-rank main-loop time in work units — k-mer windows per read,
    /// `len − k + 1` — under the rank program's partition: the file in
    /// `max_mem_reads` chunks, chunk `ci` on rank `static_owner(ci, ranks)`,
    /// each chunk one OpenMP loop.
    pub(crate) fn modelled_loop(shared: &RttShared, ranks: usize) -> PhaseSpread {
        let cfg = &shared.cfg;
        let mut per_rank = vec![0.0f64; ranks];
        for (ci, chunk) in shared.reads.chunks(cfg.max_mem_reads.max(1)).enumerate() {
            let work: Vec<f64> = chunk
                .iter()
                .map(|r| (r.seq.len() + 1).saturating_sub(cfg.k) as f64)
                .collect();
            per_rank[static_owner(ci, ranks)] +=
                simulate_loop(&work, cfg.threads, cfg.schedule).makespan;
        }
        PhaseSpread::over(&per_rank, |&t| t)
    }

    #[test]
    fn loop_scales_nearly_linearly() {
        let shared = prepare(2, 0.12);
        let data = run(Arc::clone(&shared), &[2, 8]);
        assert!(render(&data).contains("speedup"));
        // The paper's near-linear loop scaling (8.37x from 4 -> 32 nodes),
        // asserted on modelled work units rather than the measured rows
        // above: the slowest rank's loop — the loop's elapsed time — falls
        // almost 4x with 4x the ranks, and the ranks stay balanced.
        let (r2, r8) = (modelled_loop(&shared, 2), modelled_loop(&shared, 8));
        let speedup = r2.max / r8.max;
        assert!(
            speedup > 3.0 && speedup <= 4.0 + 1e-9,
            "4x the ranks should cut the loop nearly 4x, got {speedup:.2}"
        );
        assert!(r8.imbalance() < 1.25, "imbalance {}", r8.imbalance());
    }

    #[test]
    fn io_is_redundant_and_constant() {
        let shared = prepare(2, 0.1);
        // Every rank streams the whole file, so I/O does not shrink with
        // rank count (the paper's §III-C redundancy argument). What a rank
        // reads is the chunks its `rtt.io` spans name, so the host's speed
        // cannot move it: each of 4 ranks reads the chunks the single rank
        // reads, hence their count and byte volume. (That those are the
        // whole file is `chrysalis`'s `striped_io_shrinks_with_ranks`.)
        let chunks_read = |ranks| -> Vec<Vec<usize>> {
            let sh = Arc::clone(&shared);
            let outs = run_cluster(ranks, NetModel::idataplex(), move |comm| {
                rtt_hybrid(comm, &sh)
            });
            let per_rank = outs.iter().map(|o| rtt_io_chunks(&o.trace, o.rank as u32));
            per_rank.collect()
        };
        let single = chunks_read(1).remove(0);
        // Enough chunks that a partitioned read would show at 4 ranks.
        assert!(single.len() >= 4, "{} chunks", single.len());
        for (rank, chunks) in chunks_read(4).iter().enumerate() {
            assert_eq!(chunks, &single, "rank {rank} of 4");
        }
    }
}
