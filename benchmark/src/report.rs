//! What a run reports: named metrics with units, the operation tally, and
//! the self-description every result carries.

use std::fmt::Write as _;

use crate::host;
use crate::workload::{Clocks, Workload};

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A finished run.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations attempted (timed reps, or digest-checked passes of a
    /// traced run) and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, one line each.
    pub failures: Vec<String>,
    /// Digest of the assembled output (identical across the run's reps).
    pub digest: u64,
    /// Every successful timed rep, in order: the clocks of each of its
    /// `run_pipeline_opts` calls.
    pub reps: Vec<Vec<Clocks>>,
    /// The timed reps' own (max − min) ÷ median exceeded 25 %.
    pub noisy_host: bool,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn driver_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    fn metrics_json(&self) -> String {
        let mut s = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        s.push('}');
        s
    }

    /// Every metric by name with its unit, then the operation tally.
    pub fn human(&self) -> String {
        let mut s = String::new();
        for m in &self.metrics {
            let _ = writeln!(s, "{:<32} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            s,
            "ops_attempted {}  ops_failed {}  digest {:016x}{}",
            self.attempted,
            self.failed,
            self.digest,
            if self.noisy_host { "  noisy_host" } else { "" }
        );
        for f in &self.failures {
            let _ = writeln!(s, "FAILED: {f}");
        }
        s
    }
}

/// JSON has no NaN/inf: a non-finite value is written as `null` (and makes
/// the report incorrect).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Who ran what, where: recorded once per run next to the metrics.
pub struct RunContext {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub nproc: usize,
    /// 1-minute load average when the process started.
    pub load_1m: f64,
}

/// One self-described result as a single JSON line (the format `aa` reads).
pub fn result_record(ctx: &RunContext, traced: bool, report: &Report) -> String {
    // Per rep, each clock summed over the rep's pipeline runs.
    let series = |f: fn(&Clocks) -> f64| {
        let v: Vec<String> = report
            .reps
            .iter()
            .map(|runs| json_number(runs.iter().map(f).sum()))
            .collect();
        v.join(", ")
    };
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"smoke\": {}, \"seconds\": {}, \
         \"reps\": {}, \"rep_wall_s\": [{}], \"rep_cpu_s\": [{}], \"rep_virtual_s\": [{}], \
         \"noisy_host\": {}, \"digest\": \"{:016x}\", \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
         \"host\": {{\"nproc\": {}, \"load_1m\": {}, \"git_sha\": \"{}\", \"rustc\": \"{}\"}}, \
         \"params\": {}, \"metrics\": {}}}",
        ctx.workload.name,
        ctx.seed,
        traced,
        ctx.smoke,
        json_number(ctx.seconds),
        report.reps.len(),
        series(|r| r.wall_s),
        series(|r| r.cpu_s),
        series(|r| r.virtual_s),
        report.noisy_host,
        report.digest,
        report.correct(),
        report.attempted,
        report.failed,
        ctx.nproc,
        json_number(ctx.load_1m),
        host::git_sha(),
        host::rustc_version(),
        ctx.workload.params_json(),
        report.metrics_json()
    )
}
