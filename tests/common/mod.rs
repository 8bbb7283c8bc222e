//! Shared fixtures for the integration tests: every hard-coded RNG seed
//! lives here under a name that says what it pins, so a seed bump (after a
//! generator change, say) is one edit instead of a grep across test files.
//!
//! Each integration test binary compiles its own copy of this module and
//! uses only part of it, so the module-wide `dead_code` allowance is
//! deliberate.
#![allow(dead_code)]

use seqio::fasta::Record;
use simulate::datasets::{Dataset, DatasetPreset};
use trinity::pipeline::PipelineOutput;

/// Workload for `pipeline_equivalence`: hybrid == serial across rank counts.
pub const EQUIVALENCE_SEED: u64 = 17;

/// Workload for the run-to-run determinism check.
pub const DETERMINISM_SEED: u64 = 23;

/// Workload for the network-model-changes-time-not-output check.
pub const NET_MODEL_SEED: u64 = 29;

/// Workload for the Inchworm jitter (emulated indeterminism) check.
pub const JITTER_SEED: u64 = 31;

/// Workload for the stage-trace coverage check.
pub const TRACE_SEED: u64 = 37;

/// Workload for `distributed_semantics`: the Chrysalis chain fixtures.
pub const WORKLOAD_SEED: u64 = 5;

/// Workload for `chaos_equivalence` and `checkpoint_resume`: the read set
/// every fault plan must reproduce byte-for-byte.
pub const CHAOS_WORKLOAD_SEED: u64 = 41;

/// Workload for `trace_analytics`: the fixed-seed 4-rank run whose
/// critical path must account for the full wall-clock.
pub const ANALYTICS_SEED: u64 = 43;

/// Workload for `trace_analytics`' named-time check (the span-tree golden
/// run's seed): every second of a rank's stage time lies under a span.
pub const NAMED_TIME_SEED: u64 = 11;

/// Workload for `read_files`: the reads the CLI reads back from files.
pub const READ_FILES_SEED: u64 = 7;

/// Base seed for the chaos fault plans; plan `i` uses
/// `CHAOS_PLAN_SEED_BASE + i` so each plan draws a distinct but
/// reproducible decision stream.
pub const CHAOS_PLAN_SEED_BASE: u64 = 1000;

/// Fault plans per rank count in the chaos differential matrix.
pub const CHAOS_PLANS_PER_RANK_COUNT: usize = 20;

/// Generate the Tiny dataset's reads for a named seed above.
pub fn tiny_reads(seed: u64) -> Vec<Record> {
    Dataset::generate(DatasetPreset::Tiny, seed).all_reads()
}

/// Everything a fault plan or a checkpoint resume must leave untouched,
/// in comparable form: contigs in assembly order, components, read
/// assignments, and the transcript set (sorted — reconstruction order is
/// not part of the contract).
pub type Artifacts = (Vec<Vec<u8>>, Vec<Vec<usize>>, Vec<(u32, u32)>, Vec<Vec<u8>>);

pub fn artifacts(out: &PipelineOutput) -> Artifacts {
    let contigs: Vec<Vec<u8>> = out.contigs.iter().map(|c| c.seq.clone()).collect();
    let mut transcripts: Vec<Vec<u8>> = out.transcripts.iter().map(|t| t.seq.clone()).collect();
    transcripts.sort();
    (
        contigs,
        out.components.clone(),
        out.assignments.clone(),
        transcripts,
    )
}
