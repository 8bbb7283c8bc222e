//! Inchworm's replay rate per epoch size (an extension: the paper leaves
//! Inchworm serial). The Fig. 11 input's dictionary and walks run on a
//! 16-thread costed team at epoch widths of 1, 1×, 2×, 4× and 8× the thread
//! count; per width, what the stage is charged, how many walks and replays
//! it took, and how much speculative work was thrown away.

use inchworm::{assemble_on, Contig, Dictionary, EpochStats};
use kcount::counter::{count_kmers, CounterConfig, KmerCounts};
use omp::{par_loop, CostedTeam};
use simulate::datasets::DatasetPreset;
use trinity::pipeline::PipelineConfig;

use crate::workloads::{bench_pipeline_config, scaled};

/// One epoch width's run.
#[derive(Debug, Clone)]
pub struct WidthRow {
    /// Seeds per epoch.
    pub width: usize,
    /// The modelled stage: both teams' makespans plus the serial sections
    /// (the pipeline's Inchworm charge, `to_record` aside), seconds.
    pub stage_s: f64,
    /// Makespan of the epochs' walk loops, seconds.
    pub walk_makespan_s: f64,
    /// Summed cost of every speculative walk, seconds.
    pub walk_work_s: f64,
    /// Walk counts and extension steps.
    pub stats: EpochStats,
}

impl WidthRow {
    /// Speculative walk seconds thrown away: the walk work's share of
    /// wasted extension steps.
    pub fn wasted_s(&self) -> f64 {
        self.walk_work_s * self.stats.wasted_steps as f64 / self.stats.steps.max(1) as f64
    }
}

/// The Fig. 11 input's k-mer counts and the pipeline configuration.
pub fn prepare(seed: u64, scale: f64) -> (KmerCounts, PipelineConfig) {
    let w = scaled(DatasetPreset::SugarbeetLike, seed, scale);
    let cfg = bench_pipeline_config();
    let mut counts = count_kmers(&w.reads, CounterConfig::new(cfg.chrysalis.k));
    counts.retain_min(cfg.min_kmer_count.max(1));
    (counts, cfg)
}

/// Build the dictionary and assemble at `width` on two costed teams of the
/// configured threads, one for the dictionary's loops and one for the
/// walks'.
fn run_width(counts: &KmerCounts, cfg: &PipelineConfig, width: usize) -> (Vec<Contig>, WidthRow) {
    let new_team = || CostedTeam::new(cfg.chrysalis.threads, cfg.chrysalis.schedule);
    let (mut sort_team, mut walk_team) = (new_team(), new_team());
    let table = counts.clone();
    let min_count = cfg.min_kmer_count.max(1);
    let (dict, sort) =
        sort_team.region(|team| Dictionary::from_counts_on(table, min_count, &mut par_loop(team)));
    let ((contigs, stats), walk) =
        walk_team.region(|team| assemble_on(&dict, cfg.inchworm, width, &mut par_loop(team)));
    let row = WidthRow {
        width,
        stage_s: sort.charge() + walk.charge(),
        walk_makespan_s: walk.makespan,
        walk_work_s: walk_team.sim.serial_time,
        stats,
    };
    (contigs, row)
}

/// One row per width — 1, then 1, 2, 4 and 8 times the thread count —
/// each the fastest stage of `reps` runs. Panics unless every width
/// assembled the width-1 contigs.
pub fn run(counts: &KmerCounts, cfg: &PipelineConfig, reps: usize) -> Vec<WidthRow> {
    let threads = cfg.chrysalis.threads;
    let mut serial: Option<Vec<Contig>> = None;
    [1, threads, 2 * threads, 4 * threads, 8 * threads]
        .into_iter()
        .map(|width| {
            let runs = (0..reps.max(1)).map(|_| run_width(counts, cfg, width));
            let mut best: Option<WidthRow> = None;
            for (contigs, row) in runs {
                let expect = serial.get_or_insert_with(|| contigs.clone());
                assert!(contigs == *expect, "width {width} changed the contigs");
                if best.as_ref().is_none_or(|b| row.stage_s < b.stage_s) {
                    best = Some(row);
                }
            }
            best.expect("at least one run")
        })
        .collect()
}

/// Render the rows as the EXPERIMENTS table.
pub fn render(rows: &[WidthRow], threads: usize) -> String {
    let mut out = format!(
        "Inchworm epochs — replay rate per epoch size ({threads} threads, sugarbeet-like)\n\n\
         {:>6} {:>10} {:>10} {:>7} {:>7} {:>8} {:>12} {:>11}\n",
        "width",
        "stage (s)",
        "walks (s)",
        "epochs",
        "walks",
        "replays",
        "wasted steps",
        "wasted (s)"
    );
    for r in rows {
        out.push_str(&format!(
            "{:>6} {:>10.4} {:>10.4} {:>7} {:>7} {:>8} {:>12} {:>11.4}\n",
            r.width,
            r.stage_s,
            r.walk_makespan_s,
            r.stats.epochs,
            r.stats.walks,
            r.stats.replays,
            r.stats.wasted_steps,
            r.wasted_s()
        ));
    }
    out.push_str(
        "\n(walks (s): makespan of the walk loops; wasted: speculative work replayed or skipped)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_width_assembles_the_serial_contigs() {
        // `run` panics if a width changes the contigs; what is asserted
        // here are the counts, which the host cannot move.
        let (counts, cfg) = prepare(1, 0.05);
        let rows = run(&counts, &cfg, 1);
        assert_eq!(rows.len(), 5);
        let serial = rows[0].stats;
        assert_eq!((serial.replays, serial.wasted_steps), (0, 0));
        assert_eq!(serial.walks, serial.epochs);
        for pair in rows.windows(2) {
            let (narrow, wide) = (pair[0].stats, pair[1].stats);
            assert!(wide.epochs < narrow.epochs && wide.walks >= narrow.walks);
        }
        // Steps that were not thrown away are the serial walks' steps.
        let kept = |s: &EpochStats| s.steps - s.wasted_steps;
        assert!(rows.iter().all(|r| kept(&r.stats) <= serial.steps));
        assert!(render(&rows, cfg.chrysalis.threads).contains("replays"));
    }
}
