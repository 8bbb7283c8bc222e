//! Run-to-run performance diffing under one tolerance band.
//!
//! [`diff`] compares two [`Analysis`] artifacts — a committed baseline and
//! the current run — series by series and classifies every timing delta as
//! a regression, an improvement, or noise. The pipeline mixes virtual-clock
//! stage models with real wall-clock sections, so raw equality is
//! meaningless: a delta only counts when it is both 25 % of the series'
//! baseline value *and* 2 % of the baseline's total past it (the floor is
//! sized from the run it guards, so a blip on a span that is a sliver of
//! the run can never fail CI).
//!
//! The verdict renders as a table ([`DiffReport::render`]). The CI
//! perf-gate runs `trinity diff baseline/analysis.json current` and fails
//! the job when [`DiffReport::passed`] is false.

use crate::analyze::Analysis;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Relative band: a delta within ±25 % of the baseline value is noise.
const REL: f64 = 0.25;

/// Absolute band as a fraction of the baseline's total (its `"total"`
/// series, else the sum of its series): deltas under `ABS_FRAC × total`
/// never count, however large the ratio (guards tiny spans against
/// wall-clock jitter at any run length).
const ABS_FRAC: f64 = 0.02;

/// One significant timing delta.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Series name (`"total"`, `"stage:GraphFromFasta"` or
    /// `"path:gff.weld"`).
    pub span: String,
    /// Baseline value, seconds.
    pub baseline_s: f64,
    /// Current value, seconds.
    pub current_s: f64,
}

impl Delta {
    /// `current / baseline`; infinite baselines-of-zero map to `f64::INFINITY`.
    pub fn ratio(&self) -> f64 {
        if self.baseline_s > 0.0 {
            self.current_s / self.baseline_s
        } else if self.current_s > 0.0 {
            f64::INFINITY
        } else {
            1.0
        }
    }
}

/// The verdict of one [`diff`] run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DiffReport {
    /// Series that got significantly slower, worst ratio first.
    pub regressions: Vec<Delta>,
    /// Series that got significantly faster, best ratio first.
    pub improvements: Vec<Delta>,
    /// Series present only in the current run.
    pub added: Vec<String>,
    /// Series present only in the baseline.
    pub removed: Vec<String>,
}

impl DiffReport {
    /// True when nothing regressed (added/removed series are informational).
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Human-readable table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let row = |out: &mut String, tag: &str, d: &Delta| {
            let _ = writeln!(
                out,
                "  {tag:<10} {:<40} {:>10.1} ms -> {:>10.1} ms   ({:.2}x)",
                d.span,
                d.baseline_s * 1e3,
                d.current_s * 1e3,
                d.ratio(),
            );
        };
        if self.regressions.is_empty() && self.improvements.is_empty() {
            out.push_str("no significant timing changes\n");
        }
        for d in &self.regressions {
            row(&mut out, "REGRESSED", d);
        }
        for d in &self.improvements {
            row(&mut out, "improved", d);
        }
        for n in &self.added {
            let _ = writeln!(out, "  added      {n}");
        }
        for n in &self.removed {
            let _ = writeln!(out, "  removed    {n}");
        }
        out
    }
}

/// Compare two name→seconds series under the tolerance band.
fn diff_series(baseline: &BTreeMap<String, f64>, current: &BTreeMap<String, f64>) -> DiffReport {
    let mut report = DiffReport::default();
    let total = baseline
        .get("total")
        .copied()
        .unwrap_or_else(|| baseline.values().sum());
    let floor = ABS_FRAC * total;
    for (name, &base) in baseline {
        match current.get(name) {
            None => report.removed.push(name.clone()),
            Some(&cur) => {
                let d = Delta {
                    span: name.clone(),
                    baseline_s: base,
                    current_s: cur,
                };
                if cur > base * (1.0 + REL) && cur > base + floor {
                    report.regressions.push(d);
                } else if cur < base * (1.0 - REL) && cur < base - floor {
                    report.improvements.push(d);
                }
            }
        }
    }
    for name in current.keys() {
        if !baseline.contains_key(name) {
            report.added.push(name.clone());
        }
    }
    report
        .regressions
        .sort_by(|a, b| b.ratio().total_cmp(&a.ratio()));
    report
        .improvements
        .sort_by(|a, b| a.ratio().total_cmp(&b.ratio()));
    report
}

/// The timing series [`diff`] extracts from an [`Analysis`]: the `total`,
/// each stage's duration (`stage:<name>`) and each critical-path step's
/// exclusive contribution aggregated by name (`path:<name>` — a step can
/// recur across stages).
fn analysis_series(a: &Analysis) -> BTreeMap<String, f64> {
    let mut series = BTreeMap::new();
    series.insert("total".to_string(), a.total);
    for s in &a.stages {
        series.insert(format!("stage:{}", s.name), s.duration());
    }
    for step in &a.critical_path {
        *series.entry(format!("path:{}", step.name)).or_insert(0.0) += step.contribution;
    }
    series
}

/// Diff two analyses under the tolerance band. See the module docs for
/// semantics.
pub fn diff(baseline: &Analysis, current: &Analysis) -> DiffReport {
    diff_series(&analysis_series(baseline), &analysis_series(current))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::span::Tracer;

    fn trace(gff_end: f64) -> crate::span::Trace {
        let tr = Tracer::new();
        tr.record(0, "stage", "Jellyfish", 0.0, 2.0);
        tr.record(0, "stage", "GraphFromFasta", 2.0, gff_end);
        tr.record(1, "work", "gff.total", 2.0, gff_end - 1.0);
        tr.take()
    }

    #[test]
    fn identical_runs_pass() {
        let a = analyze(&trace(10.0));
        let r = diff(&a, &a);
        assert!(r.passed());
        assert!(r.regressions.is_empty() && r.improvements.is_empty());
        assert!(r.added.is_empty() && r.removed.is_empty());
    }

    #[test]
    fn injected_regression_is_flagged_exactly() {
        let base = analyze(&trace(10.0));
        let cur = analyze(&trace(16.0)); // GFF 8s -> 14s, well past 25%
        let r = diff(&base, &cur);
        assert!(!r.passed());
        let spans: Vec<&str> = r.regressions.iter().map(|d| d.span.as_str()).collect();
        // The stage, its path steps and the total regress; Jellyfish must not.
        assert!(spans.contains(&"stage:GraphFromFasta"), "{spans:?}");
        assert!(spans.contains(&"total"));
        assert!(!spans.iter().any(|s| s.contains("Jellyfish")), "{spans:?}");
        // Worst ratio sorts first.
        let ratios: Vec<f64> = r.regressions.iter().map(Delta::ratio).collect();
        assert!(ratios.windows(2).all(|w| w[0] >= w[1]), "{ratios:?}");
    }

    #[test]
    fn improvement_is_not_a_failure() {
        let base = analyze(&trace(16.0));
        let cur = analyze(&trace(10.0));
        let r = diff(&base, &cur);
        assert!(r.passed());
        assert!(!r.improvements.is_empty());
    }

    #[test]
    fn within_band_noise_is_ignored() {
        let base = analyze(&trace(10.0));
        let cur = analyze(&trace(11.0)); // GFF 8s -> 9s = +12.5% < 25%
        let r = diff(&base, &cur);
        assert!(r.passed());
        assert!(r.improvements.is_empty());
    }

    #[test]
    fn absolute_floor_guards_tiny_spans() {
        let mut base = BTreeMap::new();
        base.insert("total".to_string(), 1.0);
        base.insert("blip".to_string(), 0.001);
        let mut cur = base.clone();
        cur.insert("blip".to_string(), 0.010); // 10x but only +0.9% of the run
        let r = diff_series(&base, &cur);
        assert!(r.passed(), "{r:?}");
        // Past the floor (+2.9 % of the run) the same span fails.
        cur.insert("blip".to_string(), 0.030);
        let r = diff_series(&base, &cur);
        assert!(!r.passed());
        assert_eq!(r.regressions[0].span, "blip");
    }

    #[test]
    fn added_and_removed_series_are_informational() {
        let mut base = BTreeMap::new();
        base.insert("old".to_string(), 1.0);
        let mut cur = BTreeMap::new();
        cur.insert("new".to_string(), 1.0);
        let r = diff_series(&base, &cur);
        assert!(r.passed());
        assert_eq!(r.added, vec!["new"]);
        assert_eq!(r.removed, vec!["old"]);
    }

    #[test]
    fn zero_baseline_is_finite() {
        let mut base = BTreeMap::new();
        base.insert("from_zero".to_string(), 0.0);
        let mut cur = BTreeMap::new();
        cur.insert("from_zero".to_string(), 1.0);
        let r = diff_series(&base, &cur);
        assert!(!r.passed());
        assert!(r.regressions[0].ratio().is_infinite());
        assert!(r.render().contains("from_zero"));
    }

    #[test]
    fn render_mentions_every_delta() {
        let base = analyze(&trace(10.0));
        let cur = analyze(&trace(16.0));
        let r = diff(&base, &cur);
        let table = r.render();
        assert!(table.contains("REGRESSED"));
        assert!(table.contains("stage:GraphFromFasta"));
        let clean = diff(&base, &base);
        assert!(clean.render().contains("no significant timing changes"));
    }
}
