//! Golden-file tests of the span tree a small end-to-end pipeline run
//! produces: the track-0 stage timeline plus the cluster-stage sub-traces
//! spliced onto tracks `RANK_TRACK_BASE + rank`.
//!
//! The golden files (`tests/golden/pipeline_span_tree*.txt`) pin the span
//! *names and nesting*, not durations. Repeated per-chunk `rtt.io` /
//! `rtt.loop` lines — their count scales with the read set — are collapsed
//! to their first occurrence before comparison.
//!
//! A serial run is the one-rank cluster, so below its seven stage lines
//! `pipeline_span_tree.txt` is the track-1 block of
//! `pipeline_span_tree_2rank.txt`, line for line: the same rank program
//! recorded it, its collectives merely cost nothing. It was regenerated
//! once, when the separate shared-memory timelines were deleted; the
//! 2-rank file did not change.

use mpisim::NetModel;
use simulate::datasets::{Dataset, DatasetPreset};
use trinity::pipeline::{run_pipeline, PipelineConfig, PipelineMode, RANK_TRACK_BASE};

const GOLDEN: &str = include_str!("golden/pipeline_span_tree.txt");
const GOLDEN_2RANK: &str = include_str!("golden/pipeline_span_tree_2rank.txt");

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

/// What one rank recorded for Bowtie, GraphFromFasta and ReadsToTranscripts
/// — stage spans, the named phases inside them and the `mpi.*` collectives
/// those phases wrap — under a `track N` header.
fn rank_lane(trace: &obs::Trace, track: u32) -> String {
    let lane = obs::Trace {
        spans: trace
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
    format!(
        "track {track}\n{}",
        collapse_chunks(&lane.render_tree(track))
    )
}

#[test]
fn serial_pipeline_span_tree_matches_golden() {
    let reads = Dataset::generate(DatasetPreset::Tiny, 11).all_reads();
    let out = run_pipeline(&reads, &PipelineConfig::small(12));

    // Track 0: the seven collectl-style stage spans, in timeline order;
    // then the one rank's lane.
    let mut actual = out.trace.render_tree(0);
    actual.push_str(&rank_lane(&out.trace, RANK_TRACK_BASE));
    assert_eq!(
        actual, GOLDEN,
        "span tree drifted from golden file;\n--- actual ---\n{actual}\n--- golden ---\n{GOLDEN}"
    );
    let rank_0_of_2 = GOLDEN_2RANK.split("track 2").next().unwrap();
    assert!(
        GOLDEN.ends_with(rank_0_of_2),
        "serial is rank 0 of a cluster"
    );
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

    let actual: String = [RANK_TRACK_BASE, RANK_TRACK_BASE + 1]
        .map(|track| rank_lane(&out.trace, track))
        .concat();
    assert_eq!(
        actual, GOLDEN_2RANK,
        "span tree drifted from golden file;\n--- actual ---\n{actual}\n--- golden ---\n{GOLDEN_2RANK}"
    );
}
