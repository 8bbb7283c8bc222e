//! Integration: the trace-analytics layer (`obs::analyze` / `obs::diff`)
//! against real pipeline runs and the `trinity analyze` / `trinity diff`
//! CLI against real artifacts.
//!
//! The load-bearing property: the critical path's exclusive contributions
//! sum to the analyzed total, which equals the run's wall-clock — the
//! path *is* the wall-clock, itemized. It is asserted here on a fixed-seed
//! 4-rank run and property-tested on random traces.

mod common;

use std::path::{Path, PathBuf};
use std::process::Command;

use mpisim::NetModel;
use proptest::prelude::*;
use trinity::pipeline::{run_pipeline, PipelineConfig, PipelineMode, PipelineOutput};

fn four_rank_run() -> PipelineOutput {
    let reads = common::tiny_reads(common::ANALYTICS_SEED);
    let mut cfg = PipelineConfig::small(12);
    cfg.mode = PipelineMode::Hybrid {
        ranks: 4,
        net: NetModel::idataplex(),
    };
    run_pipeline(&reads, &cfg)
}

#[test]
fn critical_path_accounts_for_the_full_run() {
    let out = four_rank_run();
    let a = obs::analyze(&out.trace);

    // The path total equals the analyzed total equals the wall-clock.
    assert!(a.total > 0.0);
    assert!(
        (a.path_total() - a.total).abs() < 1e-9 * a.total.max(1.0),
        "path {} != total {}",
        a.path_total(),
        a.total
    );
    assert!(
        (a.total - out.trace.total_time()).abs() < 1e-9 * a.total.max(1.0),
        "total {} != wall-clock {}",
        a.total,
        out.trace.total_time()
    );

    // Every pipeline stage appears on the path (stages are serialized).
    let stage_names: Vec<&str> = a.stages.iter().map(|s| s.name.as_str()).collect();
    for name in &stage_names {
        assert!(
            a.critical_path
                .iter()
                .any(|p| p.name == *name && p.track == 0),
            "stage {name} missing from path"
        );
    }

    // A 4-rank run produces rank-lane stats and a communication matrix.
    assert!(
        a.stages.iter().any(|s| s.straggler.is_some()),
        "no hybrid stage found a straggler: {stage_names:?}"
    );
    assert!(!a.comm.is_empty(), "no mpi.* comm spans collected");
    for s in &a.stages {
        assert!(s.imbalance >= 1.0 - 1e-12, "{s:?}");
        assert!((0.0..=1.0).contains(&s.idle_frac), "{s:?}");
    }

    // The artifact round-trips losslessly.
    let text = obs::analyze::analysis_json(&a);
    assert_eq!(obs::analyze::parse_analysis(&text).unwrap(), a);
}

/// Every second of a rank's stage time sits under a span that names it: in
/// each cluster stage, every rank lane is busy for the stage's whole
/// duration, so the imbalance rows and the critical path are built from
/// all of a rank's time, not from whatever happened to be recorded.
#[test]
fn every_second_of_rank_stage_time_is_named() {
    let reads = common::tiny_reads(common::NAMED_TIME_SEED);
    for ranks in [1usize, 2, 4] {
        let mut cfg = PipelineConfig::small(12);
        if ranks > 1 {
            cfg.mode = PipelineMode::Hybrid {
                ranks,
                net: NetModel::idataplex(),
            };
        }
        let a = obs::analyze(&run_pipeline(&reads, &cfg).trace);
        for name in ["Bowtie", "GraphFromFasta", "ReadsToTranscripts"] {
            let stage = a.stages.iter().find(|s| s.name == name).expect(name);
            let dur = stage.duration();
            assert!(dur > 0.0, "{name} at {ranks} ranks");
            assert_eq!(stage.lane_busy.len(), ranks, "{name} at {ranks} ranks");
            for &(lane, busy) in &stage.lane_busy {
                assert!(
                    (busy - dur).abs() <= 1e-9 * dur,
                    "{name} at {ranks} ranks: lane {lane} names {busy:e} s of {dur:e} s"
                );
            }
        }
    }
}

#[test]
fn diff_flags_exactly_the_injected_regression() {
    let out = four_rank_run();
    let baseline = obs::analyze(&out.trace);

    // Inject a 3x slowdown into the longest stage (well past the 25%
    // relative and 2%-of-total absolute default bands).
    let slow = baseline
        .stages
        .iter()
        .max_by(|a, b| a.duration().total_cmp(&b.duration()))
        .unwrap()
        .name
        .clone();
    let mut base_series = obs::diff::analysis_series(&baseline);
    let mut cur_series = base_series.clone();
    let key = format!("stage:{slow}");
    let grow = base_series[&key].max(0.05) * 2.0;
    *cur_series.get_mut(&key).unwrap() += grow;
    *cur_series.get_mut("total").unwrap() += grow;

    let report = obs::diff::diff_series(&base_series, &cur_series, obs::Tolerance::default());
    assert!(!report.passed());
    let mut flagged: Vec<&str> = report.regressions.iter().map(|d| d.span.as_str()).collect();
    flagged.sort_unstable();
    assert_eq!(flagged, vec![&key as &str, "total"], "{report:#?}");
    assert!(report.improvements.is_empty());

    // Identical series pass.
    base_series.insert("noise".into(), 1.0);
    cur_series = base_series.clone();
    assert!(obs::diff::diff_series(&base_series, &cur_series, obs::Tolerance::default()).passed());
}

/// The CI perf gate on its own workload: under `trinity diff`'s default
/// tolerance a 2x slowdown of one critical-path stage of the committed
/// baseline is a regression. (The baseline's whole run is 4 ms; a fixed
/// 50 ms floor could only see a 12x slowdown of the total.)
#[test]
fn perf_gate_fires_on_a_doubled_stage_of_the_committed_baseline() {
    let baseline = obs::analyze::parse_analysis(include_str!("../baseline/analysis.json"))
        .expect("committed baseline parses");
    let mut slowed = baseline.clone();
    let stage = slowed
        .stages
        .iter_mut()
        .max_by(|a, b| a.duration().total_cmp(&b.duration()))
        .unwrap();
    let (name, grow) = (stage.name.clone(), stage.duration());
    stage.end += grow;
    let step = slowed.critical_path.iter_mut().find(|s| s.name == name);
    step.expect("the longest stage is on the critical path")
        .contribution += grow;
    slowed.total += grow;

    let report = obs::diff(&baseline, &slowed, obs::Tolerance::default());
    let flagged: Vec<&str> = report.regressions.iter().map(|d| d.span.as_str()).collect();
    assert!(
        flagged.contains(&format!("stage:{name}").as_str()),
        "gate must fire on {name} x2: {report:#?}"
    );
    assert!(obs::diff(&baseline, &baseline, obs::Tolerance::default()).passed());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// On *any* trace — random stages on track 0, random work spans on
    /// random rank lanes — contributions sum to the total and everything
    /// stays finite.
    #[test]
    fn path_total_matches_total_on_random_traces(
        stage_durs in proptest::collection::vec(0.0f64..5.0, 0..4),
        work in proptest::collection::vec(
            (1u32..4, 0.0f64..20.0, 0.0f64..5.0, any::<bool>()),
            0..24
        ),
    ) {
        let tr = obs::Tracer::new();
        let mut t = 0.0;
        for (i, d) in stage_durs.iter().enumerate() {
            tr.record(0, "stage", format!("stage{i}"), t, t + d);
            t += d;
        }
        for (i, &(lane, start, dur, comm)) in work.iter().enumerate() {
            let (cat, name) = if comm {
                ("comm", format!("mpi.op{}", i % 3))
            } else {
                ("work", format!("w{i}"))
            };
            tr.record(lane, cat, &name, start, start + dur);
        }
        let a = obs::analyze_vs(&tr.take(), Some(t * 2.0));

        let expected_total: f64 = stage_durs.iter().sum();
        prop_assert!((a.total - expected_total).abs() < 1e-9);
        prop_assert!(
            (a.path_total() - a.total).abs() < 1e-9 * a.total.max(1.0),
            "path {} != total {} ({a:#?})", a.path_total(), a.total
        );
        for s in &a.critical_path {
            prop_assert!(s.contribution.is_finite() && s.contribution >= 0.0);
            prop_assert!(s.slack.is_finite() && s.slack >= 0.0);
        }
        for s in &a.stages {
            prop_assert!(s.imbalance.is_finite() && s.imbalance >= 1.0 - 1e-12);
            prop_assert!(s.idle_frac.is_finite());
        }
        // The artifact round-trips even for degenerate random traces.
        let text = obs::analyze::analysis_json(&a);
        prop_assert_eq!(obs::analyze::parse_analysis(&text).unwrap(), a);
    }
}

// ---- the CLI, end to end ------------------------------------------------

fn trinity_bin() -> &'static str {
    env!("CARGO_BIN_EXE_trinity")
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "trinity_trace_analytics_{}_{tag}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_analysis(path: &Path, a: &obs::Analysis) {
    std::fs::write(path, obs::analyze::analysis_json(a)).unwrap();
}

#[test]
fn analyze_subcommand_writes_a_valid_artifact() {
    let dir = scratch_dir("analyze");
    let out = four_rank_run();
    let trace_path = dir.join("trace.json");
    std::fs::write(&trace_path, obs::export::trace_json(&out.trace)).unwrap();

    let artifact = dir.join("analysis.json");
    let st = Command::new(trinity_bin())
        .args(["analyze", trace_path.to_str().unwrap(), "--out"])
        .arg(&artifact)
        .output()
        .unwrap();
    assert!(
        st.status.success(),
        "{}",
        String::from_utf8_lossy(&st.stderr)
    );
    let stdout = String::from_utf8_lossy(&st.stdout);
    assert!(stdout.contains("critical path"), "{stdout}");
    assert!(stdout.contains("straggler"), "{stdout}");

    let a = obs::analyze::parse_analysis(&std::fs::read_to_string(&artifact).unwrap())
        .expect("artifact parses");
    assert!((a.path_total() - a.total).abs() < 1e-9 * a.total.max(1.0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_subcommand_exit_codes_follow_the_verdict() {
    let dir = scratch_dir("diff");
    let out = four_rank_run();
    let baseline = obs::analyze(&out.trace);
    let base_path = dir.join("baseline.json");
    write_analysis(&base_path, &baseline);

    // Same artifact on both sides: pass, exit 0.
    let st = Command::new(trinity_bin())
        .args(["diff"])
        .args([&base_path, &base_path])
        .output()
        .unwrap();
    assert!(
        st.status.success(),
        "identical diff failed: {}",
        String::from_utf8_lossy(&st.stderr)
    );

    // Inject a regression into the longest stage: fail, exit 1, and the
    // verdict names that stage (and only flags genuine regressions).
    let mut current = baseline.clone();
    let slow = current
        .stages
        .iter_mut()
        .max_by(|a, b| a.duration().total_cmp(&b.duration()))
        .unwrap();
    let grow = slow.duration().max(0.1) * 2.0;
    slow.end += grow;
    let slow_name = slow.name.clone();
    current.total += grow;
    let cur_path = dir.join("current.json");
    write_analysis(&cur_path, &current);

    let st = Command::new(trinity_bin())
        .args(["diff", "--json"])
        .args([&base_path, &cur_path])
        .output()
        .unwrap();
    assert_eq!(st.status.code(), Some(1), "regression must exit 1");
    let stdout = String::from_utf8_lossy(&st.stdout);
    assert!(
        stdout.contains(&format!("stage:{slow_name}")),
        "verdict names the slow stage: {stdout}"
    );
    let stderr = String::from_utf8_lossy(&st.stderr);
    assert!(
        stderr.contains("trinity analyze"),
        "failure explains how to refresh the baseline: {stderr}"
    );

    // Widening the absolute band (a multiple of the baseline's total) far
    // past the injected slowdown swallows it: exit 0.
    let st = Command::new(trinity_bin())
        .args(["diff", "--tol-abs", "1e6"])
        .args([&base_path, &cur_path])
        .output()
        .unwrap();
    assert!(
        st.status.success(),
        "tolerant diff should pass: {}",
        String::from_utf8_lossy(&st.stdout)
    );

    // Unreadable input is a usage error: exit 2.
    let st = Command::new(trinity_bin())
        .args(["diff"])
        .args([&base_path, &dir.join("missing.json")])
        .output()
        .unwrap();
    assert_eq!(st.status.code(), Some(2), "IO error must exit 2");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hostile_json_nesting_is_a_usage_error_not_an_abort() {
    // 300 000 unclosed `[` used to overflow the recursive-descent parser's
    // stack (SIGABRT); it is just an unparseable artifact: exit 2.
    let dir = scratch_dir("hostile");
    let bomb = dir.join("bomb.json");
    std::fs::write(&bomb, "[".repeat(300_000)).unwrap();
    let mut analyze = Command::new(trinity_bin());
    analyze.arg("analyze").arg(&bomb);
    let mut diff = Command::new(trinity_bin());
    diff.arg("diff").args([&bomb, &bomb]);
    for mut cmd in [analyze, diff] {
        let st = cmd.output().unwrap();
        let stderr = String::from_utf8_lossy(&st.stderr);
        assert_eq!(st.status.code(), Some(2), "{cmd:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cluster_flags_that_name_no_rank_are_usage_errors() {
    // `--nprocs 0` used to run serial and report "0 ranks"; a crash point
    // on a rank the cluster does not have used to be accepted and never
    // fire. Both are bad usage: exit 2, nothing run or written.
    let dir = scratch_dir("flags");
    let cases: [(&[&str], &str); 2] = [
        (&["--nprocs", "0"], "--nprocs must be at least 1"),
        (
            &["--nprocs", "2", "--faults", "42,crash=2@1"],
            "no such rank",
        ),
    ];
    for (flags, message) in cases {
        let out_dir = dir.join("out");
        let st = Command::new(trinity_bin())
            .args(["--simulate", "tiny:7", "--kmer", "12", "--out"])
            .arg(&out_dir)
            .args(flags)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&st.stderr);
        assert_eq!(st.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(stderr.contains(message), "{flags:?}: {stderr}");
        assert!(!out_dir.exists(), "{flags:?} must not run the pipeline");
    }
    std::fs::remove_dir_all(&dir).ok();
}
