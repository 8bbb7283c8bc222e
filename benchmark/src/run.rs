//! The untraced run: the seven end-to-end metrics of one workload.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use crate::host;
use crate::report::{metric, Report, RunContext};
use crate::stats::{median, range_over_median};
use crate::workload::{generate, kmer_recall_precision, run_op, run_plain, scratch_dir, Clocks};

/// Set-ups per run; `setup_s` is their median. Each is the whole set-up
/// (input generation, FASTA round trip, reference k-mer set, one untimed
/// warm-up rep), so it is seconds of CPU work rather than file-system noise.
const SETUPS: usize = 3;
/// Fewest timed reps of a full-scale run, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// A run whose reps spread wider than this is marked `noisy_host`.
pub const NOISY_SPREAD: f64 = 0.25;

/// Run `f`, turning a panic into an error line.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| p.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        Err(format!("panicked: {msg}"))
    })
}

/// The fastest of some samples of one quantity.
///
/// The reference host's noise is one-sided and slow: neighbours on the
/// same hardware stretch a fixed CPU-bound loop by 1.2–1.9× for seconds at
/// a time (measured; see the README), and nothing ever makes a run faster
/// than the code allows. The minimum therefore estimates the undisturbed
/// time, and repeats across invocations more tightly than the median of
/// the same samples.
pub fn fastest(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::INFINITY, f64::min)
}

/// The value a run reports for one clock: for each `run_pipeline_opts`
/// call of the operation its fastest sample over the reps, summed over the
/// calls. (The checkpoint cycle is two calls; taking each call's own
/// fastest sample gives the estimate twice as many quiet windows to find
/// as taking the fastest whole cycle.)
fn fastest_op(reps: &[Vec<Clocks>], clock: fn(&Clocks) -> f64) -> f64 {
    (0..reps[0].len())
        .map(|call| fastest(reps.iter().map(|runs| clock(&runs[call]))))
        .sum()
}

/// Measure the end-to-end metrics of `ctx.workload`.
///
/// `process_start` is when the process began: the first set-up is timed
/// from there, so `setup_s` includes everything before the first timed rep.
pub fn run(ctx: &RunContext, out_dir: &Path, process_start: Instant) -> Result<Report, String> {
    let w = &ctx.workload;
    let mut setup_s = Vec::new();
    let mut prepared = None;
    for i in 0..if ctx.smoke { 1 } else { SETUPS } {
        // Drop the previous set-up first: peak RSS should hold one input.
        drop(prepared.take());
        let t0 = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let input = generate(w, ctx.seed);
        // The warm-up is a plain uninterrupted run on every workload: its
        // digest is what each timed rep, resumed or not, must reproduce.
        let warm = guarded(|| Ok(run_plain(w, &input.reads)))
            .map_err(|e| format!("warm-up rep failed: {e}"))?;
        setup_s.push(t0.elapsed().as_secs_f64());
        prepared = Some((input, warm));
    }
    let (input, warm) = prepared.expect("at least one set-up");
    let (recall, precision) = kmer_recall_precision(&input.ref_kmers, &warm.output.transcripts);
    let mut report = Report {
        digest: warm.digest,
        ..Report::default()
    };
    drop(warm);

    let min_reps = if ctx.smoke { 1 } else { MIN_REPS };
    let timed = Instant::now();
    while report.reps.len() < min_reps || timed.elapsed().as_secs_f64() < ctx.seconds {
        let dir = scratch_dir(out_dir);
        report.attempted += 1;
        let outcome = guarded(|| run_op(w, &input.reads, &dir));
        match outcome {
            Ok(op) if op.digest == report.digest => report.reps.push(op.runs),
            Ok(op) => report.failures.push(format!(
                "rep {}: digest {:016x} differs from the warm-up's {:016x}",
                report.attempted, op.digest, report.digest
            )),
            Err(e) => report
                .failures
                .push(format!("rep {}: {e}", report.attempted)),
        }
        report.failed = report.failures.len() as u64;
        if report.failures.len() >= MIN_REPS {
            break; // every rep is failing: stop burning time
        }
    }
    if report.reps.is_empty() {
        return Err(format!(
            "no timed rep succeeded: {}",
            report.failures.join("; ")
        ));
    }

    let wall: Vec<f64> = report
        .reps
        .iter()
        .map(|runs| runs.iter().map(|c| c.wall_s).sum())
        .collect();
    report.noisy_host = wall.len() > 1 && range_over_median(&wall) > NOISY_SPREAD;
    report.metrics = vec![
        metric("wall_s", fastest_op(&report.reps, |c| c.wall_s), "s"),
        metric("cpu_s", fastest_op(&report.reps, |c| c.cpu_s), "s"),
        metric("virtual_s", fastest_op(&report.reps, |c| c.virtual_s), "s"),
        metric("peak_rss_mb", host::peak_rss_mb(), "MB"),
        metric("ref_kmer_recall", recall, "fraction"),
        metric("ref_kmer_precision", precision, "fraction"),
        metric("setup_s", median(&setup_s), "s"),
    ];
    Ok(report)
}
