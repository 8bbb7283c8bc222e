//! Ablation — dynamic rank-level partitioning (the paper's future work).
//!
//! §V-A: "Currently, we have a static partitioning strategy amongst the
//! nodes; in the future, we might experiment with a dynamic partitioning
//! strategy to reduce this load imbalance." This experiment implements
//! that follow-up: the same GraphFromFasta run under (a) the paper's
//! static chunked round-robin and (b) a master-dealt dynamic work queue,
//! comparing per-rank loop-time spread.

use std::sync::Arc;

use chrysalis::graph_from_fasta::{gff_hybrid, gff_hybrid_dynamic, GffShared};
use chrysalis::timings::{GffTimings, PhaseSpread};
use mpisim::{run_cluster, NetModel};

/// One strategy's outcome at one rank count.
#[derive(Debug, Clone, Copy)]
pub struct StrategyRow {
    /// Number of ranks.
    pub ranks: usize,
    /// Loop 1 spread (static chunked round-robin).
    pub static_loop1: PhaseSpread,
    /// Loop 1 spread (dynamic dealing).
    pub dynamic_loop1: PhaseSpread,
    /// Stage totals.
    pub static_total: f64,
    /// Dynamic stage total.
    pub dynamic_total: f64,
}

/// Run both strategies over `rank_counts` on a prepared workload.
pub fn run(shared: Arc<GffShared>, rank_counts: &[usize]) -> Vec<StrategyRow> {
    let mut rows = Vec::with_capacity(rank_counts.len());
    for &ranks in rank_counts {
        let sh = Arc::clone(&shared);
        let stat = run_cluster(ranks, NetModel::idataplex(), move |comm| {
            gff_hybrid(comm, &sh).timings
        });
        let sh = Arc::clone(&shared);
        let dynm = run_cluster(ranks, NetModel::idataplex(), move |comm| {
            gff_hybrid_dynamic(comm, &sh).timings
        });
        let st: Vec<GffTimings> = stat.iter().map(|o| o.value).collect();
        let dt: Vec<GffTimings> = dynm.iter().map(|o| o.value).collect();
        rows.push(StrategyRow {
            ranks,
            static_loop1: PhaseSpread::over(&st, |t| t.loop1),
            dynamic_loop1: PhaseSpread::over(&dt, |t| t.loop1),
            static_total: PhaseSpread::over(&st, |t| t.total).max,
            dynamic_total: PhaseSpread::over(&dt, |t| t.total).max,
        });
    }
    rows
}

/// Render the comparison table.
pub fn render(rows: &[StrategyRow]) -> String {
    let mut out = String::from(
        "Ablation — static chunked round-robin vs dynamic dealing (GFF loop 1)\n\n\
         nodes  static max/min  dynamic max/min  static total  dynamic total\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>5} {:>10.2}x {:>14.2}x {:>13.4} {:>14.4}\n",
            r.ranks,
            r.static_loop1.imbalance(),
            r.dynamic_loop1.imbalance(),
            r.static_total,
            r.dynamic_total
        ));
    }
    out.push_str(
        "\n(the paper's future-work hypothesis: dynamic partitioning reduces \
         the rank-time spread that static chunking shows at scale)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig07_gff_scaling::{prepare, tests::work_units};
    use chrysalis::graph_from_fasta::dynamic_deal;
    use omp::makespan::simulate_loop;
    use omp::schedule::{chunk_sequence, chunked_round_robin, Schedule};

    #[test]
    fn dynamic_never_slower_on_loop_makespan() {
        let shared = prepare(2, 0.1);
        assert!(render(&run(Arc::clone(&shared), &[8])).contains("Ablation"));
        // The comparison itself is made on modelled work units (k-mer
        // windows per contig, `len − k + 1`), one cost vector through both
        // policies' partition functions — static and dynamic measure their
        // items in separate passes, so the measured rows above cannot be
        // compared item for item.
        let (cfg, ranks) = (&shared.cfg, 8);
        let work = work_units(&shared);
        let chunk = cfg.chunk_size(work.len(), ranks);
        // Each chunk is one OpenMP loop on the rank it lands on.
        let chunk_loop = |c: &omp::schedule::Chunk| {
            simulate_loop(&work[c.start..c.end], cfg.threads, cfg.schedule).makespan
        };
        let slowest = |busy: &[f64]| busy.iter().cloned().fold(0.0, f64::max);
        let chunk_costs: Vec<f64> = chunk_sequence(work.len(), ranks, Schedule::Dynamic { chunk })
            .iter()
            .map(chunk_loop)
            .collect();
        let (dealt, owner) = dynamic_deal(&chunk_costs, ranks, 0.0);
        // The same loops under the static program's chunk -> rank map. (That
        // program fuses a rank's chunks into one OpenMP loop, which dealing
        // cannot; this test is about the chunk -> rank policy alone.)
        let round_robin: Vec<f64> = chunked_round_robin(work.len(), ranks, chunk)
            .iter()
            .map(|chunks| chunks.iter().map(chunk_loop).sum())
            .collect();
        assert_eq!(owner.len(), chunk_costs.len());
        assert!(
            slowest(&dealt) <= slowest(&round_robin) + 1e-9,
            "dealing the same chunks must not lose to round-robin: {} vs {}",
            slowest(&dealt),
            slowest(&round_robin)
        );
    }
}
