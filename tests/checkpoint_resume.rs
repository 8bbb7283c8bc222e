//! Checkpoint/resume round trips through the real pipeline: a seeded run
//! writes one checkpoint per checkpointable stage, a resume run replays
//! the completed prefix byte-for-byte, and a corrupted checkpoint —
//! *any* stage, any byte — is detected by its checksum, recomputed, and
//! rewritten, never silently trusted.

mod common;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use std::sync::Arc;

use mpisim::{FaultPlan, NetModel};
use trinity::checkpoint::{self, stage_path};
use trinity::pipeline::{
    run_pipeline_opts, PipelineConfig, PipelineMode, PipelineOutput, RunOptions,
};

/// The checkpointable stages, in pipeline order. Bowtie is deliberately
/// absent: its SAM stream only feeds scaffolding, whose result is
/// checkpointed at QuantifyGraph — so a run that resumes QuantifyGraph
/// does not run Bowtie at all.
const STAGES: [&str; 5] = [
    "Jellyfish",
    "Inchworm",
    "GraphFromFasta",
    "QuantifyGraph",
    "ReadsToTranscripts",
];

/// A unique scratch directory under the system temp dir, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "trinity-ckpt-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("create scratch dir");
        ScratchDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(reads: &[seqio::fasta::Record], dir: &Path, resume: bool) -> PipelineOutput {
    run_on(reads, dir, resume, 1, None)
}

/// [`run`] on `ranks` simulated ranks under an optional fault plan.
fn run_on(
    reads: &[seqio::fasta::Record],
    dir: &Path,
    resume: bool,
    ranks: usize,
    faults: Option<FaultPlan>,
) -> PipelineOutput {
    let mut cfg = PipelineConfig::small(12);
    if ranks > 1 {
        cfg.mode = PipelineMode::Hybrid {
            ranks,
            net: NetModel::idataplex(),
        };
    }
    let opts = RunOptions {
        faults: faults.map(Arc::new),
        checkpoint_dir: Some(dir.to_path_buf()),
        resume,
    };
    run_pipeline_opts(reads, &cfg, &opts)
}

/// Names of the track-0 stage spans, in timeline order.
fn stage_names(out: &PipelineOutput) -> Vec<&str> {
    let mut stages: Vec<&obs::SpanRecord> = out
        .trace
        .with_cat("stage")
        .into_iter()
        .filter(|s| s.track == 0)
        .collect();
    stages.sort_by(|a, b| a.start.total_cmp(&b.start));
    stages.iter().map(|s| s.name.as_str()).collect()
}

fn count(out: &PipelineOutput, name: &str) -> u64 {
    out.metrics.counter(name).unwrap_or(0)
}

fn stage_duration(out: &PipelineOutput, stage: &str) -> f64 {
    out.trace
        .with_cat("stage")
        .into_iter()
        .filter(|s| s.track == 0 && s.name == stage)
        .map(|s| s.end - s.start)
        .sum()
}

#[test]
fn full_round_trip_resumes_every_stage() {
    let reads = common::tiny_reads(common::CHAOS_WORKLOAD_SEED);
    let dir = ScratchDir::new("roundtrip");
    let seeded = run(&reads, dir.path(), false);
    assert_eq!(count(&seeded, "ckpt.saved"), STAGES.len() as u64);
    for stage in STAGES {
        assert!(
            stage_path(dir.path(), stage).is_file(),
            "{stage} checkpoint on disk"
        );
    }

    let resumed = run(&reads, dir.path(), true);
    assert_eq!(count(&resumed, "ckpt.resumed"), STAGES.len() as u64);
    assert_eq!(count(&resumed, "ckpt.saved"), 0, "nothing recomputed");
    assert_eq!(count(&resumed, "ckpt.invalid"), 0);
    assert_eq!(common::artifacts(&resumed), common::artifacts(&seeded));
    // A resumed stage replays its recorded duration, so the wall-clock-
    // measured stages stop being a source of trace jitter. (Comparison is
    // to ulp-level tolerance, not bits: stage *starts* move up by the
    // Bowtie stage, which the resumed run skips.)
    for stage in STAGES {
        let (a, b) = (
            stage_duration(&seeded, stage),
            stage_duration(&resumed, stage),
        );
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(1e-12),
            "{stage} duration replayed ({a} vs {b})"
        );
    }
    // Timings for resumed Chrysalis stages are empty by contract.
    assert!(resumed.gff_timings.is_empty());
    assert!(resumed.rtt_timings.is_empty());
}

#[test]
fn resume_into_empty_dir_is_a_seeding_run() {
    let reads = common::tiny_reads(common::CHAOS_WORKLOAD_SEED);
    let dir = ScratchDir::new("empty");
    let out = run(&reads, dir.path(), true);
    // Missing checkpoints are the normal "nothing completed yet" case:
    // not an error, not counted as corruption — just compute and save.
    assert_eq!(count(&out, "ckpt.resumed"), 0);
    assert_eq!(count(&out, "ckpt.invalid"), 0);
    assert_eq!(count(&out, "ckpt.saved"), STAGES.len() as u64);
}

/// For each of `stages`: seed a run, `damage` that stage's checkpoint file,
/// resume: the damage is counted once, the stages before it resume, it and
/// everything after are recomputed and rewritten, and the artifacts are the
/// fault-free ones.
fn damaged_stage_is_recomputed(tag: &str, stages: &[&str], damage: impl Fn(&Path, &str)) {
    let reads = common::tiny_reads(common::CHAOS_WORKLOAD_SEED);
    let baseline = common::artifacts(&run(&reads, ScratchDir::new(tag).path(), false));
    for stage in stages {
        let idx = STAGES
            .iter()
            .position(|s| s == stage)
            .expect("a checkpointed stage");
        let dir = ScratchDir::new(tag);
        run(&reads, dir.path(), false);
        damage(dir.path(), stage);

        let resumed = run(&reads, dir.path(), true);
        assert_eq!(
            count(&resumed, "ckpt.invalid"),
            1,
            "{stage}: corruption detected"
        );
        // Completed-prefix semantics: stages before the corrupt one
        // resume; it and everything after recompute and rewrite.
        assert_eq!(count(&resumed, "ckpt.resumed"), idx as u64, "{stage}");
        assert_eq!(
            count(&resumed, "ckpt.saved"),
            (STAGES.len() - idx) as u64,
            "{stage}: corrupt suffix rewritten"
        );
        assert_eq!(
            common::artifacts(&resumed),
            baseline,
            "{stage}: recompute restores the fault-free artifacts"
        );
        // The rewrite repaired the file: a further resume is clean.
        let repaired = run(&reads, dir.path(), true);
        assert_eq!(count(&repaired, "ckpt.resumed"), STAGES.len() as u64);
        assert_eq!(count(&repaired, "ckpt.invalid"), 0);
    }
}

#[test]
fn corrupting_any_stage_is_detected_and_recomputed() {
    damaged_stage_is_recomputed("corrupt", &STAGES, |dir, stage| {
        // Flip one mid-file byte. The trailing FNV checksum covers every
        // preceding byte, so any single-byte change must be rejected.
        let path = stage_path(dir, stage);
        let mut bytes = std::fs::read(&path).expect("read checkpoint");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write corrupted checkpoint");
    });
}

#[test]
fn validated_but_undecodable_stage_is_recomputed() {
    damaged_stage_is_recomputed("undecodable", &STAGES, |dir, stage| {
        // FNV is not a MAC: keep the run's fingerprint (header bytes
        // 12..20), swap the body for garbage and seal it with a correct
        // trailer. The file validates; the stage codec must refuse it.
        let bytes = std::fs::read(stage_path(dir, stage)).expect("read checkpoint");
        let fingerprint = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        checkpoint::save(dir, fingerprint, stage, 0.25, &[0xAB; 37]).expect("write crafted file");
        let crafted = checkpoint::load(dir, fingerprint, stage).expect("crafted file validates");
        assert_eq!(crafted.payload, [0xAB; 37]);
    });
}

#[test]
fn validated_but_inconsistent_stage_is_recomputed() {
    // A payload that validates *and* decodes, but does not fit the run: a
    // count table at another k, or an index past the contigs, components
    // or reads the run holds. Inchworm's contigs are any record list, so
    // that stage has no inconsistent form and is left out.
    let reads = common::tiny_reads(common::CHAOS_WORKLOAD_SEED);
    let seqs: Vec<Vec<u8>> = reads.iter().map(|r| r.seq.clone()).collect();
    let other_k =
        checkpoint::encode_counts(&kcount::count_kmers(&seqs, kcount::CounterConfig::new(9)));
    const FAR: u32 = 5_000_000;
    let stages = [
        "Jellyfish",
        "GraphFromFasta",
        "QuantifyGraph",
        "ReadsToTranscripts",
    ];
    damaged_stage_is_recomputed("inconsistent", &stages, |dir, stage| {
        let payload = match stage {
            "Jellyfish" => other_k.clone(),
            "GraphFromFasta" => checkpoint::encode_welds(&[], &[(0, FAR)]),
            "QuantifyGraph" => checkpoint::encode_components(&[vec![0, FAR as usize]]),
            "ReadsToTranscripts" => checkpoint::encode_pairs(&[(0, FAR)]),
            _ => unreachable!("{stage} has no inconsistent form"),
        };
        let bytes = std::fs::read(stage_path(dir, stage)).expect("read checkpoint");
        let fingerprint = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        checkpoint::save(dir, fingerprint, stage, 0.25, &payload).expect("write crafted file");
        checkpoint::load(dir, fingerprint, stage).expect("crafted file validates");
    });
}

/// Every stage span of a full run; a fully resumed run's are these minus
/// Bowtie.
const ALL_STAGES: [&str; 7] = [
    "Jellyfish",
    "Inchworm",
    "Bowtie",
    "GraphFromFasta",
    "QuantifyGraph",
    "ReadsToTranscripts",
    "Butterfly",
];

#[test]
fn fully_resumed_run_skips_bowtie() {
    let reads = common::tiny_reads(common::CHAOS_WORKLOAD_SEED);
    // Delays, drops and a crash of the last rank's first collective: on the
    // seeding run the crash fires in Bowtie; on the resumed run no cluster
    // stage runs, so the plan has nothing to reach.
    let chaos = |ranks: usize| {
        FaultPlan::new(common::CHAOS_PLAN_SEED_BASE)
            .with_delays(0.8, 1e-3)
            .with_drops(0.5, 3)
            .with_crash(ranks - 1, 0)
    };
    for (ranks, faulty) in [(1, false), (2, false), (1, true), (2, true)] {
        let what = format!("ranks={ranks} faulty={faulty}");
        let dir = ScratchDir::new("skip-bowtie");
        let seeded = run_on(
            &reads,
            dir.path(),
            false,
            ranks,
            faulty.then(|| chaos(ranks)),
        );
        assert_eq!(stage_names(&seeded), ALL_STAGES, "{what}");
        assert_eq!(seeded.bowtie_timings.len(), ranks, "{what}");
        assert_eq!(
            count(&seeded, "fault.rank_crashes"),
            faulty as u64,
            "{what}"
        );

        let resumed = run_on(
            &reads,
            dir.path(),
            true,
            ranks,
            faulty.then(|| chaos(ranks)),
        );
        let without_bowtie: Vec<&str> = ALL_STAGES.into_iter().filter(|s| *s != "Bowtie").collect();
        assert_eq!(stage_names(&resumed), without_bowtie, "{what}");
        assert!(
            !resumed
                .trace
                .with_cat("stage")
                .iter()
                .any(|s| s.name == "Bowtie"),
            "{what}: no Bowtie stage span on any track"
        );
        assert!(resumed.bowtie_timings.is_empty(), "{what}");
        assert_eq!(
            count(&resumed, "ckpt.resumed"),
            STAGES.len() as u64,
            "{what}"
        );
        assert_eq!(count(&resumed, "ckpt.saved"), 0, "{what}");
        assert_eq!(count(&resumed, "ckpt.invalid"), 0, "{what}");
        assert_eq!(count(&resumed, "fault.rank_crashes"), 0, "{what}");
        assert_eq!(
            count(&resumed, "comm.collectives"),
            0,
            "{what}: no rank program ran"
        );
        assert_eq!(
            common::artifacts(&resumed),
            common::artifacts(&seeded),
            "{what}"
        );
        // The virtual timeline is the seeded one minus its Bowtie stage:
        // Butterfly (recomputed, so its own length is measured afresh)
        // starts that much earlier.
        let butterfly_start = |out: &PipelineOutput| {
            let bounds = out.trace.span_bounds(0, "Butterfly");
            bounds.expect("Butterfly stage span").0
        };
        let expected = butterfly_start(&seeded) - stage_duration(&seeded, "Bowtie");
        let got = butterfly_start(&resumed);
        assert!(
            stage_duration(&seeded, "Bowtie") > 0.0 && (got - expected).abs() <= 1e-9 * expected,
            "{what}: Butterfly starts at {got}, seeded-minus-Bowtie says {expected}"
        );
    }
}

#[test]
fn damaged_scaffolding_inputs_bring_bowtie_back() {
    // Bowtie is skipped only when GraphFromFasta *and* QuantifyGraph will
    // resume. Damage either — a flipped byte, or a file that validates but
    // does not decode — and the SAM has a consumer again: Bowtie runs in
    // its usual slot, the damage is counted once, artifacts are unchanged.
    let reads = common::tiny_reads(common::CHAOS_WORKLOAD_SEED);
    let flip = |dir: &Path, stage: &str| {
        let path = stage_path(dir, stage);
        let mut bytes = std::fs::read(&path).expect("read checkpoint");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write corrupted checkpoint");
    };
    let craft = |dir: &Path, stage: &str| {
        let bytes = std::fs::read(stage_path(dir, stage)).expect("read checkpoint");
        let fingerprint = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        checkpoint::save(dir, fingerprint, stage, 0.25, &[0xAB; 37]).expect("write crafted file");
    };
    type Damage<'a> = &'a dyn Fn(&Path, &str);
    let damages: [(&str, Damage); 2] = [("corrupt", &flip), ("undecodable", &craft)];
    for ranks in [1usize, 2] {
        let baseline_dir = ScratchDir::new("bowtie-back");
        let baseline = common::artifacts(&run_on(&reads, baseline_dir.path(), false, ranks, None));
        for (kind, damage) in damages {
            for (idx, stage) in [(2u64, "GraphFromFasta"), (3, "QuantifyGraph")] {
                let what = format!("ranks={ranks} {kind} {stage}");
                let dir = ScratchDir::new("bowtie-back");
                run_on(&reads, dir.path(), false, ranks, None);
                damage(dir.path(), stage);

                let resumed = run_on(&reads, dir.path(), true, ranks, None);
                assert_eq!(stage_names(&resumed), ALL_STAGES, "{what}");
                assert_eq!(resumed.bowtie_timings.len(), ranks, "{what}");
                assert_eq!(count(&resumed, "ckpt.invalid"), 1, "{what}");
                assert_eq!(count(&resumed, "ckpt.resumed"), idx, "{what}");
                assert_eq!(count(&resumed, "ckpt.saved"), 5 - idx, "{what}");
                assert_eq!(common::artifacts(&resumed), baseline, "{what}");
            }
        }
    }
    // Damage *behind* the scaffolding result does not: ReadsToTranscripts
    // recomputes from the resumed components and never needs a SAM.
    let dir = ScratchDir::new("bowtie-back");
    run(&reads, dir.path(), false);
    flip(dir.path(), "ReadsToTranscripts");
    let resumed = run(&reads, dir.path(), true);
    assert!(!stage_names(&resumed).contains(&"Bowtie"));
    assert_eq!(count(&resumed, "ckpt.invalid"), 1);
    assert_eq!(count(&resumed, "ckpt.resumed"), 4);
}

#[test]
fn fingerprint_rejects_checkpoints_from_another_run() {
    // Checkpoints are bound to (reads, config): resuming against a
    // different read set must ignore every stale file rather than serve
    // the wrong assembly.
    let reads_a = common::tiny_reads(common::CHAOS_WORKLOAD_SEED);
    let reads_b = common::tiny_reads(common::CHAOS_WORKLOAD_SEED + 1);
    let dir = ScratchDir::new("fingerprint");
    run(&reads_a, dir.path(), false);

    let fresh_b = run_pipeline_opts(&reads_b, &PipelineConfig::small(12), &RunOptions::default());
    let resumed_b = run(&reads_b, dir.path(), true);
    assert_eq!(count(&resumed_b, "ckpt.resumed"), 0, "stale prefix refused");
    assert!(count(&resumed_b, "ckpt.invalid") >= 1);
    assert_eq!(common::artifacts(&resumed_b), common::artifacts(&fresh_b));

    // The same holds for the configuration — all of it, not a chosen few
    // knobs: every field below was once missing from the fingerprint, so
    // a resume after changing it silently served the old stage outputs.
    type Edit = fn(&mut PipelineConfig);
    let edits: [(&str, Edit); 6] = [
        ("chrysalis.min_weld_support", |c| {
            c.chrysalis.min_weld_support += 1
        }),
        ("chrysalis.min_read_kmers", |c| {
            c.chrysalis.min_read_kmers += 1
        }),
        ("scaffold.min_pairs", |c| c.scaffold.min_pairs += 1),
        ("align.max_mismatches", |c| c.align.max_mismatches += 1),
        ("reconstruction.min_edge_weight", |c| {
            c.reconstruction.min_edge_weight += 1
        }),
        ("inchworm.jitter_seed", |c| c.inchworm.jitter_seed = Some(1)),
    ];
    for (field, edit) in edits {
        // A resume rewrites what it rejects, so seed afresh per field.
        let dir = ScratchDir::new("fingerprint-cfg");
        run(&reads_a, dir.path(), false);
        let mut cfg = PipelineConfig::small(12);
        edit(&mut cfg);
        let opts = RunOptions {
            faults: None,
            checkpoint_dir: Some(dir.path().to_path_buf()),
            resume: true,
        };
        let out = run_pipeline_opts(&reads_a, &cfg, &opts);
        assert_eq!(count(&out, "ckpt.resumed"), 0, "{field}: stale prefix");
        assert!(count(&out, "ckpt.invalid") >= 1, "{field}");
    }
}
