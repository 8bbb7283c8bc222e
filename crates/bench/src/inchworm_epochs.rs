//! Inchworm's ordered loop per window size (an extension: the paper leaves
//! Inchworm serial). The Fig. 11 input's dictionary and walks run on a
//! 16-thread costed team with a window of 1 walk and of 1, 2, 4, 8 and 16
//! walks per thread; per window, what the stage is charged, how many walks
//! and replays it took, how much speculative work was thrown away, and how
//! much of the walks' makespan the loop's lock was held.

use inchworm::{assemble, assemble_on, Contig, Dictionary, WalkStats};
use kcount::counter::{count_kmers, CounterConfig, KmerCounts};
use omp::{ord_loop, par_loop, CostedTeam};
use simulate::datasets::DatasetPreset;
use trinity::pipeline::PipelineConfig;

use crate::workloads::{bench_pipeline_config, scaled};

/// One window's run.
#[derive(Debug, Clone)]
pub struct WindowRow {
    /// Walks taken but not yet committed, at most.
    pub window: usize,
    /// The modelled stage: both teams' makespans plus the serial sections
    /// (the pipeline's Inchworm charge, `to_record` aside), seconds.
    pub stage_s: f64,
    /// Makespan of the walks' ordered loop, seconds.
    pub walk_makespan_s: f64,
    /// Summed cost of every speculative walk and lock stay, seconds.
    pub walk_work_s: f64,
    /// Seconds the loop's lock was held: takes and commits, replays
    /// included.
    pub lock_s: f64,
    /// Walk counts and extension steps.
    pub stats: WalkStats,
}

impl WindowRow {
    /// The share of the walks' makespan during which the lock was held.
    pub fn lock_share(&self) -> f64 {
        self.lock_s / self.walk_makespan_s.max(f64::MIN_POSITIVE)
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

/// Build the dictionary and assemble with `window` walks in flight on two
/// costed teams of the configured threads, one for the dictionary's loops
/// and one for the walks'.
fn run_window(
    counts: &KmerCounts,
    cfg: &PipelineConfig,
    window: usize,
) -> (Vec<Contig>, WindowRow) {
    let new_team = || CostedTeam::new(cfg.chrysalis.threads, cfg.chrysalis.schedule);
    let (mut sort_team, mut walk_team) = (new_team(), new_team());
    let table = counts.clone();
    let min_count = cfg.min_kmer_count.max(1);
    let (dict, sort) =
        sort_team.region(|team| Dictionary::from_counts_on(table, min_count, &mut par_loop(team)));
    let ((contigs, stats), walk) =
        walk_team.region(|team| assemble_on(&dict, cfg.inchworm, window, &mut ord_loop(team)));
    let row = WindowRow {
        window,
        stage_s: sort.charge() + walk.charge(),
        walk_makespan_s: walk.makespan,
        walk_work_s: walk_team.sim.serial_time,
        lock_s: walk_team.sim.lock_time,
        stats,
    };
    (contigs, row)
}

/// One row per window — 1, then 1, 2, 4, 8 and 16 times the thread count —
/// each the fastest stage of `reps` runs. Panics unless every window
/// assembled the serial loop's contigs.
pub fn run(counts: &KmerCounts, cfg: &PipelineConfig, reps: usize) -> Vec<WindowRow> {
    let threads = cfg.chrysalis.threads;
    let dict = Dictionary::from_counts(counts.clone(), cfg.min_kmer_count.max(1));
    let serial = assemble(&dict, cfg.inchworm);
    drop(dict);
    let per_thread = [1, 2, 4, 8, 16].map(|m| m * threads);
    std::iter::once(1)
        .chain(per_thread)
        .map(|window| {
            let runs = (0..reps.max(1)).map(|_| run_window(counts, cfg, window));
            let mut best: Option<WindowRow> = None;
            for (contigs, row) in runs {
                assert!(contigs == serial, "window {window} changed the contigs");
                if best.as_ref().is_none_or(|b| row.stage_s < b.stage_s) {
                    best = Some(row);
                }
            }
            best.expect("at least one run")
        })
        .collect()
}

/// Render the rows as the EXPERIMENTS table.
pub fn render(rows: &[WindowRow], threads: usize) -> String {
    let mut out = format!(
        "Inchworm ordered loop — stage and speculation per window ({threads} threads, sugarbeet-like)\n\n\
         {:>6} {:>10} {:>10} {:>7} {:>8} {:>12} {:>11} {:>6}\n",
        "window",
        "stage (s)",
        "walks (s)",
        "walks",
        "replays",
        "wasted steps",
        "wasted (s)",
        "lock"
    );
    for r in rows {
        let wasted_s = r.walk_work_s * r.stats.wasted_steps as f64 / r.stats.steps.max(1) as f64;
        out.push_str(&format!(
            "{:>6} {:>10.4} {:>10.4} {:>7} {:>8} {:>12} {:>11.4} {:>5.0}%\n",
            r.window,
            r.stage_s,
            r.walk_makespan_s,
            r.stats.walks,
            r.stats.replays,
            r.stats.wasted_steps,
            wasted_s,
            100.0 * r.lock_share()
        ));
    }
    out.push_str(
        "\n(walks (s): makespan of the walks' loop; wasted: speculative work replayed or skipped, \
         its share of the loop's work; lock: share of that makespan the lock was held)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_width_assembles_the_serial_contigs() {
        // `run` panics if a window changes the contigs; what is asserted
        // here are the counts, which the host cannot move.
        let (counts, cfg) = prepare(1, 0.05);
        let rows = run(&counts, &cfg, 1);
        assert_eq!(rows.len(), 6);
        // A window of one walk is the serial loop: every walk sees every
        // earlier commit.
        let serial = rows[0].stats;
        assert_eq!((serial.replays, serial.wasted_steps), (0, 0));
        for r in &rows {
            assert!(r.stats.walks >= serial.walks);
            // Steps that were not thrown away are serial walks' steps.
            assert!(r.stats.steps - r.stats.wasted_steps <= serial.steps);
            assert!(r.lock_s > 0.0 && r.lock_s <= r.walk_makespan_s);
        }
        assert!(render(&rows, cfg.chrysalis.threads).contains("replays"));
    }
}
