//! The chaos differential harness — the golden invariant of the fault
//! layer: **any seeded fault plan that eventually delivers yields
//! byte-identical pipeline artifacts to the fault-free run**, at every
//! rank count. Delays and drops-with-retry may only move virtual time;
//! crashes trigger a deterministic stage replay that converges to the
//! same bytes. The matrix runs [`common::CHAOS_PLANS_PER_RANK_COUNT`]
//! plans (mixing delays, drops, and crashes) against rank counts
//! {1, 2, 4, 7}, one `#[test]` per rank count so the suite parallelises.

mod common;

use std::sync::Arc;

use mpisim::{FaultPlan, NetModel};
use trinity::pipeline::{
    run_pipeline_opts, PipelineConfig, PipelineMode, PipelineOutput, RunOptions,
};

fn run_with(
    reads: &[seqio::fasta::Record],
    ranks: usize,
    faults: Option<Arc<FaultPlan>>,
) -> PipelineOutput {
    let mut cfg = PipelineConfig::small(12);
    if ranks > 1 {
        cfg.mode = PipelineMode::Hybrid {
            ranks,
            net: NetModel::idataplex(),
        };
    }
    let opts = RunOptions {
        faults,
        ..RunOptions::default()
    };
    run_pipeline_opts(reads, &cfg, &opts)
}

use common::artifacts;

/// Plan `i` of the matrix: rotate through delay-only, drop-only, mixed,
/// and mixed-plus-crash shapes. Crash ops stay at 0/1 because the tiny
/// pipeline's cluster stages issue only a couple of comm calls per rank —
/// larger indices would never fire.
fn chaos_plan(i: usize, ranks: usize) -> Arc<FaultPlan> {
    let seed = common::CHAOS_PLAN_SEED_BASE + i as u64;
    let plan = match i % 4 {
        0 => FaultPlan::new(seed).with_delays(0.9, 1e-3),
        1 => FaultPlan::new(seed).with_drops(0.6, 3),
        2 => FaultPlan::new(seed)
            .with_delays(0.7, 5e-4)
            .with_drops(0.4, 2),
        _ => FaultPlan::new(seed)
            .with_delays(0.8, 1e-3)
            .with_drops(0.5, 3)
            .with_crash(i % ranks, (i / 4) as u64 % 2),
    };
    Arc::new(plan)
}

fn count(out: &PipelineOutput, name: &str) -> u64 {
    out.metrics.counter(name).unwrap_or(0)
}

fn spans_named(out: &PipelineOutput, name: &str) -> usize {
    out.trace.spans.iter().filter(|s| s.name == name).count()
}

/// The differential matrix at one rank count: every plan's artifacts must
/// equal the fault-free baseline's, and every injected fault must be
/// observable (counters agree with `mpi.delay` / `mpi.retry` /
/// `fault.crash` spans in the merged trace).
fn assert_chaos_equivalence(ranks: usize) {
    let reads = common::tiny_reads(common::CHAOS_WORKLOAD_SEED);
    let baseline = artifacts(&run_with(&reads, ranks, None));
    let (mut delays, mut retries, mut crashes) = (0u64, 0u64, 0u64);
    for i in 0..common::CHAOS_PLANS_PER_RANK_COUNT {
        let plan = chaos_plan(i, ranks);
        let out = run_with(&reads, ranks, Some(Arc::clone(&plan)));
        assert_eq!(
            artifacts(&out),
            baseline,
            "plan {i} (seed {}) diverged from the fault-free run at ranks={ranks}",
            plan.seed
        );
        // Faults that fired are visible: each nonzero counter has matching
        // spans in the trace, and vice versa.
        let (d, r, c) = (
            count(&out, "fault.delays"),
            count(&out, "fault.retries"),
            count(&out, "fault.rank_crashes"),
        );
        assert_eq!(spans_named(&out, "mpi.delay") as u64, d, "plan {i}");
        assert_eq!(spans_named(&out, "mpi.retry") as u64, r, "plan {i}");
        assert_eq!(spans_named(&out, "fault.crash") as u64, c, "plan {i}");
        if c > 0 {
            assert!(
                count(&out, "fault.replays") > 0,
                "plan {i}: a crash must force at least one stage replay"
            );
        }
        delays += d;
        retries += r;
        crashes += c;
    }
    // The matrix as a whole exercised every fault kind (deterministic:
    // the seeds are fixed, so this can never flake).
    assert!(delays > 0, "no delay ever fired at ranks={ranks}");
    assert!(retries > 0, "no drop ever fired at ranks={ranks}");
    assert!(crashes > 0, "no crash ever fired at ranks={ranks}");
}

#[test]
fn chaos_plans_preserve_artifacts_at_1_rank() {
    assert_chaos_equivalence(1);
    // One rank is a cluster like any other: every cluster stage crosses its
    // collectives (3 Bowtie + 3 GraphFromFasta + 2 ReadsToTranscripts) …
    let reads = common::tiny_reads(common::CHAOS_WORKLOAD_SEED);
    assert_eq!(count(&run_with(&reads, 1, None), "comm.collectives"), 8);
    // … and a fault plan reaches all of them, not just Bowtie's.
    let plan = FaultPlan::new(42).with_delays(0.9, 1e-3).with_drops(0.5, 3);
    let trace = run_with(&reads, 1, Some(Arc::new(plan))).trace;
    let chrysalis_loops: Vec<_> = ["GraphFromFasta", "ReadsToTranscripts"]
        .iter()
        .filter_map(|stage| trace.span_bounds(0, stage))
        .collect();
    let reached = trace.spans.iter().any(|s| {
        matches!(s.name.as_str(), "mpi.delay" | "mpi.retry")
            && chrysalis_loops
                .iter()
                .any(|&(start, end)| start <= s.start && s.start < end)
    });
    assert!(
        reached,
        "no injected fault inside GraphFromFasta or ReadsToTranscripts"
    );
}

#[test]
fn chaos_plans_preserve_artifacts_at_2_ranks() {
    assert_chaos_equivalence(2);
}

#[test]
fn chaos_plans_preserve_artifacts_at_4_ranks() {
    assert_chaos_equivalence(4);
}

#[test]
fn chaos_plans_preserve_artifacts_at_7_ranks() {
    assert_chaos_equivalence(7);
}

#[test]
fn crash_is_replayed_and_reported() {
    // A scheduled crash fires exactly once, forces exactly one stage
    // replay, leaves its marker span in the merged trace — and changes
    // not a single artifact byte.
    let reads = common::tiny_reads(common::CHAOS_WORKLOAD_SEED);
    let clean = run_with(&reads, 4, None);
    let plan = Arc::new(FaultPlan::new(7).with_crash(2, 1));
    let faulty = run_with(&reads, 4, Some(Arc::clone(&plan)));
    assert_eq!(artifacts(&faulty), artifacts(&clean));
    assert_eq!(count(&faulty, "fault.rank_crashes"), 1);
    assert_eq!(count(&faulty, "fault.replays"), 1);
    assert!(plan.crashes()[0].has_fired());
    assert_eq!(
        spans_named(&faulty, "fault.crash"),
        1,
        "the crashed attempt's salvaged trace carries the marker"
    );
}

#[test]
fn fault_runs_are_reproducible() {
    // Two identical plans (same seed/shape, fresh crash points) produce
    // identical artifacts and identical fault counters — the property
    // that makes a chaos failure debuggable by re-running its seed.
    // (Virtual *timelines* are not compared: compute charges are
    // wall-measured, so only the fault decisions are reproducible.)
    let reads = common::tiny_reads(common::CHAOS_WORKLOAD_SEED);
    let mk = || {
        Arc::new(
            FaultPlan::new(common::CHAOS_PLAN_SEED_BASE)
                .with_delays(0.8, 1e-3)
                .with_drops(0.5, 3)
                .with_crash(1, 0),
        )
    };
    let a = run_with(&reads, 4, Some(mk()));
    let b = run_with(&reads, 4, Some(mk()));
    assert_eq!(artifacts(&a), artifacts(&b));
    for c in [
        "fault.delays",
        "fault.retries",
        "fault.rank_crashes",
        "fault.replays",
    ] {
        assert_eq!(count(&a, c), count(&b, c), "{c} differs between reruns");
    }
}
