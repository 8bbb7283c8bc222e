//! Golden-file tests of the span tree a small end-to-end pipeline run
//! produces: the track-0 stage timeline plus the Chrysalis sub-traces
//! spliced onto tracks `RANK_TRACK_BASE + rank`.
//!
//! The golden files (`tests/golden/pipeline_span_tree*.txt`) pin the span
//! *names and nesting*, not durations. Repeated lines (per-chunk
//! `rtt.io` / `rtt.loop` spans — their count scales with the read set)
//! are collapsed to their first occurrence before comparison.

use mpisim::NetModel;
use simulate::datasets::{Dataset, DatasetPreset};
use trinity::pipeline::{run_pipeline, PipelineConfig, PipelineMode, RANK_TRACK_BASE};

const GOLDEN: &str = include_str!("golden/pipeline_span_tree.txt");
const GOLDEN_2RANK: &str = include_str!("golden/pipeline_span_tree_2rank.txt");

/// Keep only the first occurrence of each (indent, name) line.
fn collapse(rendered: &str) -> String {
    let mut seen = std::collections::HashSet::new();
    let mut out = String::new();
    for line in rendered.lines() {
        if seen.insert(line) {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[test]
fn serial_pipeline_span_tree_matches_golden() {
    let reads = Dataset::generate(DatasetPreset::Tiny, 11).all_reads();
    let out = run_pipeline(&reads, &PipelineConfig::small(12));

    // Track 0: the seven collectl-style stage spans, in timeline order.
    let mut actual = out.trace.render_tree(0);

    // Track RANK_TRACK_BASE carries the spliced Chrysalis sub-traces;
    // keep only GraphFromFasta / ReadsToTranscripts spans (Bowtie's MPI
    // collective spans on the same track depend on the rank layout).
    let sub = obs::Trace {
        spans: out
            .trace
            .spans
            .iter()
            .filter(|s| {
                s.track == RANK_TRACK_BASE
                    && (s.name.starts_with("gff.") || s.name.starts_with("rtt."))
            })
            .cloned()
            .collect(),
        ..Default::default()
    };
    actual.push_str(&sub.render_tree(RANK_TRACK_BASE));

    let actual = collapse(&actual);
    assert_eq!(
        actual, GOLDEN,
        "span tree drifted from golden file;\n--- actual ---\n{actual}\n--- golden ---\n{GOLDEN}"
    );
}

/// Keep only the first of the per-chunk `rtt.io` / `rtt.loop` lines; every
/// other line stays, so a collective that goes missing under one wrapper is
/// not hidden by the same collective under another.
fn collapse_chunks(rendered: &str) -> String {
    let mut seen = std::collections::HashSet::new();
    rendered
        .lines()
        .filter(|l| !matches!(l.trim_start(), "rtt.io" | "rtt.loop") || seen.insert(*l))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// The rank programs' span shape: what each of two hybrid ranks records
/// for Bowtie, GraphFromFasta and ReadsToTranscripts — stage spans, the
/// named phases inside them and the `mpi.*` collectives those phases wrap.
#[test]
fn hybrid_two_rank_span_tree_matches_golden() {
    let reads = Dataset::generate(DatasetPreset::Tiny, 11).all_reads();
    let mut cfg = PipelineConfig::small(12);
    cfg.mode = PipelineMode::Hybrid {
        ranks: 2,
        net: NetModel::idataplex(),
    };
    let out = run_pipeline(&reads, &cfg);

    let mut actual = String::new();
    for track in [RANK_TRACK_BASE, RANK_TRACK_BASE + 1] {
        let lane = obs::Trace {
            spans: out
                .trace
                .spans
                .iter()
                .filter(|s| {
                    s.track == track
                        && ["gff.", "rtt.", "mpi."]
                            .iter()
                            .any(|p| s.name.starts_with(p))
                })
                .cloned()
                .collect(),
            ..Default::default()
        };
        actual.push_str(&format!("track {track}\n"));
        actual.push_str(&collapse_chunks(&lane.render_tree(track)));
    }
    assert_eq!(
        actual, GOLDEN_2RANK,
        "span tree drifted from golden file;\n--- actual ---\n{actual}\n--- golden ---\n{GOLDEN_2RANK}"
    );
}
