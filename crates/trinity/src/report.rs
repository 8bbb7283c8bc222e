//! Text rendering of pipeline traces and stage statistics.
//!
//! Both renderers read the pipeline-level `cat:"stage"` spans on track 0 of
//! an [`obs::Trace`] (spliced rank sub-traces on higher tracks carry their
//! own stage spans like `gff.total` and are deliberately ignored here).

use obs::{SpanRecord, Trace};

use crate::pipeline::SKIPPED_CAT;

/// Track-0 spans whose category is one of `cats`, in timeline order.
fn track0_spans<'t>(trace: &'t Trace, cats: &[&str]) -> Vec<&'t SpanRecord> {
    let mut spans: Vec<&SpanRecord> = trace
        .on_track(0)
        .filter(|s| cats.contains(&s.cat.as_str()))
        .collect();
    spans.sort_by(|a, b| a.start.total_cmp(&b.start));
    spans
}

/// Pipeline stage spans: `cat == "stage"` on track 0, in timeline order.
fn stage_spans(trace: &Trace) -> Vec<&SpanRecord> {
    track0_spans(trace, &["stage"])
}

/// Render a trace as an aligned text table (the textual Fig. 2 / Fig. 11).
///
/// The RAM column comes from each stage span's `"ram"` arg (bytes, rendered
/// as MB); the TOTAL row shows the timeline extent and the peak of the
/// `"ram"` counter series. A stage the driver skipped (its `cat:"skipped"`
/// marker) gets a row saying so instead of times.
pub fn render_trace(trace: &Trace) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<20} {:>12} {:>12} {:>12} {:>10}\n",
        "stage", "start (s)", "end (s)", "dur (s)", "RAM (MB)"
    ));
    for s in track0_spans(trace, &["stage", SKIPPED_CAT]) {
        if s.cat == SKIPPED_CAT {
            // The only stage the driver ever skips is Bowtie, and only
            // because the one consumer of its SAM resumed.
            out.push_str(&format!("{:<20} skipped (QuantifyGraph resumed)\n", s.name));
            continue;
        }
        out.push_str(&format!(
            "{:<20} {:>12.3} {:>12.3} {:>12.3} {:>10.1}\n",
            s.name,
            s.start,
            s.end,
            s.end - s.start,
            s.arg("ram").unwrap_or(0.0) / 1e6
        ));
    }
    out.push_str(&format!(
        "{:<20} {:>12} {:>12} {:>12.3} {:>10.1}\n",
        "TOTAL",
        "",
        "",
        trace.total_time(),
        trace.max_counter("ram").unwrap_or(0.0) / 1e6
    ));
    out
}

/// Render an ASCII bar chart of stage durations (quick terminal look at
/// where the time goes).
pub fn render_bars(trace: &Trace, width: usize) -> String {
    let total = trace.total_time().max(f64::MIN_POSITIVE);
    let mut out = String::new();
    for s in stage_spans(trace) {
        let dur = s.end - s.start;
        let bar = ((dur / total) * width as f64).round() as usize;
        out.push_str(&format!(
            "{:<20} |{:<width$}| {:6.1}%\n",
            s.name,
            "#".repeat(bar.min(width)),
            100.0 * dur / total,
            width = width
        ));
    }
    out
}

/// Render the top-`limit` frames by *self time* — the flamegraph fold of
/// every lane ([`obs::flame::collapsed_merged`]), re-grouped by leaf frame
/// name. Like a multi-thread CPU flamegraph, values sum across lanes, so a
/// phase that runs on every rank shows its total across ranks and the
/// percentages are shares of summed lane time, not of wall-clock.
pub fn render_self_time(trace: &Trace, limit: usize) -> String {
    let mut by_frame: std::collections::BTreeMap<&str, f64> = std::collections::BTreeMap::new();
    let folds = obs::flame::collapsed_merged(trace);
    for (path, t) in &folds {
        let leaf = path.rsplit(obs::flame::FRAME_SEP).next().unwrap_or(path);
        *by_frame.entry(leaf).or_insert(0.0) += t;
    }
    let total: f64 = by_frame.values().sum();
    let mut rows: Vec<(&str, f64)> = by_frame.into_iter().collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(b.0)));
    let mut out = format!(
        "{:<24} {:>12} {:>8}\n",
        "frame (by self time)", "self (s)", "share"
    );
    for (name, t) in rows.into_iter().take(limit) {
        out.push_str(&format!(
            "{:<24} {:>12.3} {:>7.1}%\n",
            name,
            t,
            100.0 * t / total.max(f64::MIN_POSITIVE)
        ));
    }
    out
}

/// Render the cross-rank critical path of an [`obs::Analysis`]: one row
/// per path step with its lane, exclusive contribution and slack (the
/// most total runtime fixing only that span could save). Contributions
/// sum to the analyzed total — the table *is* the wall-clock, itemized.
pub fn render_critical_path(analysis: &obs::Analysis) -> String {
    let mut out = format!(
        "critical path (total {:.3} s)\n{:<26} {:>6} {:>12} {:>12} {:>8}\n",
        analysis.total, "span", "lane", "contrib (s)", "slack (s)", "share"
    );
    for step in &analysis.critical_path {
        let lane = if step.track == 0 {
            "pipe".to_string()
        } else {
            format!("r{}", step.track - 1)
        };
        out.push_str(&format!(
            "{:<26} {:>6} {:>12.3} {:>12.3} {:>7.1}%\n",
            step.name,
            lane,
            step.contribution,
            step.slack,
            100.0 * step.contribution / analysis.total.max(f64::MIN_POSITIVE),
        ));
    }
    out
}

/// Render the per-stage load-imbalance table of an [`obs::Analysis`]:
/// max/mean rank busy time, the max/mean imbalance factor, the idle
/// fraction lost to waiting on the straggler, and which rank it was.
/// Serial stages (no rank lanes) render with a `-` straggler.
pub fn render_imbalance(analysis: &obs::Analysis) -> String {
    let mut out = format!(
        "{:<20} {:>6} {:>10} {:>10} {:>9} {:>7} {:>10}\n",
        "stage", "ranks", "max (s)", "mean (s)", "max/mean", "idle", "straggler"
    );
    for s in &analysis.stages {
        let straggler = match s.straggler {
            Some(t) => format!("r{}", t.saturating_sub(1)),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "{:<20} {:>6} {:>10.3} {:>10.3} {:>9.2} {:>6.1}% {:>10}\n",
            s.name,
            s.lane_busy.len(),
            s.max_busy,
            s.mean_busy,
            s.imbalance,
            100.0 * s.idle_frac,
            straggler,
        ));
    }
    out
}

/// Render the fault-injection / recovery summary from a run's metrics:
/// injected delays and retransmissions, rank crashes and stage replays,
/// checkpoint writes/resumes. Returns an empty string for a fault-free,
/// checkpoint-less run so callers can append it unconditionally.
pub fn render_faults(metrics: &obs::MetricsSnapshot) -> String {
    let rows = [
        ("fault.delays", "message delays injected"),
        ("fault.retries", "dropped messages retransmitted"),
        ("fault.rank_crashes", "rank crashes"),
        ("fault.replays", "stage replays after a crash"),
        ("ckpt.saved", "checkpoints written"),
        ("ckpt.resumed", "stages resumed from checkpoint"),
        ("ckpt.invalid", "corrupt checkpoints recomputed"),
    ];
    let mut body = String::new();
    for (name, label) in rows {
        if let Some(v) = metrics.counter(name).filter(|&v| v > 0) {
            body.push_str(&format!("{label:<36} {v:>8}\n"));
        }
    }
    if body.is_empty() {
        String::new()
    } else {
        format!("fault injection & recovery\n{body}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_faults_empty_for_clean_run() {
        let metrics = obs::MetricsRegistry::new();
        metrics.counter("comm.bytes_sent").add(100);
        assert_eq!(render_faults(&metrics.snapshot()), "");
    }

    #[test]
    fn render_faults_lists_nonzero_counters() {
        let metrics = obs::MetricsRegistry::new();
        metrics.counter("fault.retries").add(7);
        metrics.counter("fault.rank_crashes").add(1);
        metrics.counter("ckpt.resumed").add(3);
        let s = render_faults(&metrics.snapshot());
        assert!(s.contains("dropped messages retransmitted"));
        assert!(s.contains('7'));
        assert!(s.contains("rank crashes"));
        assert!(s.contains("stages resumed from checkpoint"));
        assert!(!s.contains("delays"), "zero counters are omitted");
    }

    fn trace() -> Trace {
        let obs = obs::Tracer::new();
        obs.record_with(0, "stage", "Jellyfish", 0.0, 1.0, &[("ram", 4e6)]);
        obs.record_with(0, "stage", "Chrysalis", 1.0, 10.0, &[("ram", 2e6)]);
        obs.counter(0, "ram", 0.5, 4e6);
        obs.counter(0, "ram", 5.0, 2e6);
        // A rank sub-trace stage span on track 1 must not show in the table.
        obs.record(1, "stage", "gff.total", 1.0, 9.0);
        obs.take()
    }

    #[test]
    fn table_contains_stages_and_total() {
        let s = render_trace(&trace());
        assert!(s.contains("Jellyfish"));
        assert!(s.contains("Chrysalis"));
        assert!(s.contains("TOTAL"));
        assert!(s.contains("10.000"));
        assert!(s.contains("4.0")); // RAM MB from the span arg
        assert!(!s.contains("gff.total"), "rank sub-spans excluded");
    }

    #[test]
    fn skipped_stage_gets_a_row_without_times() {
        let obs = obs::Tracer::new();
        obs.record(0, "stage", "Inchworm", 0.0, 1.0);
        obs.record(0, SKIPPED_CAT, "Bowtie", 1.0, 1.0);
        obs.record(0, "stage", "GraphFromFasta", 1.0, 2.0);
        let table = render_trace(&obs.take());
        let rows: Vec<&str> = table.lines().map(str::trim_end).collect();
        assert!(rows[1].starts_with("Inchworm"), "{table}");
        assert_eq!(
            rows[2].split_whitespace().collect::<Vec<_>>().join(" "),
            "Bowtie skipped (QuantifyGraph resumed)",
            "{table}"
        );
        assert!(rows[3].starts_with("GraphFromFasta"), "{table}");
    }

    #[test]
    fn bars_scale_with_share() {
        let s = render_bars(&trace(), 40);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        let hashes = |l: &str| l.matches('#').count();
        assert!(hashes(lines[1]) > hashes(lines[0]));
        assert!(s.contains("90.0%"));
    }

    #[test]
    fn empty_trace_renders() {
        let t = Trace::default();
        assert!(render_trace(&t).contains("TOTAL"));
        assert_eq!(render_bars(&t, 10), "");
        assert_eq!(render_self_time(&t, 5).lines().count(), 1, "header only");
    }

    #[test]
    fn critical_path_and_imbalance_tables() {
        let tr = obs::Tracer::new();
        tr.record(0, "stage", "Jellyfish", 0.0, 2.0);
        tr.record(0, "stage", "GraphFromFasta", 2.0, 10.0);
        tr.record(1, "work", "gff.total", 2.0, 7.0);
        tr.record(2, "work", "gff.total", 2.0, 9.0);
        let a = obs::analyze(&tr.take());
        let cp = render_critical_path(&a);
        assert!(cp.contains("critical path (total 10.000 s)"), "{cp}");
        assert!(cp.contains("GraphFromFasta"), "{cp}");
        assert!(cp.contains("gff.total"), "{cp}");
        assert!(cp.contains("r1"), "straggler lane labeled: {cp}");
        let im = render_imbalance(&a);
        assert!(im.contains("straggler"), "{im}");
        assert!(im.contains("GraphFromFasta"), "{im}");
        assert!(im.contains("r1"), "{im}");
        // Serial stage renders a dash, not a bogus rank.
        let jf_line = im.lines().find(|l| l.contains("Jellyfish")).unwrap();
        assert!(jf_line.trim_end().ends_with('-'), "{jf_line}");
        // Degenerate input stays renderable.
        let empty = obs::analyze(&Trace::default());
        assert!(render_critical_path(&empty).contains("critical path"));
        assert!(render_imbalance(&empty).contains("stage"));
    }

    #[test]
    fn self_time_table_ranks_leaves() {
        let obs = obs::Tracer::new();
        obs.record(1, "stage", "gff.total", 0.0, 10.0);
        obs.record(1, "stage", "gff.loop1", 0.0, 7.0);
        obs.record(2, "stage", "gff.total", 0.0, 10.0);
        obs.record(2, "stage", "gff.loop1", 0.0, 4.0);
        let s = render_self_time(&obs.take(), 10);
        let lines: Vec<&str> = s.lines().collect();
        // loop1 sums across ranks (11s) and outranks total's self (9s).
        assert!(lines[1].starts_with("gff.loop1"), "{s}");
        assert!(lines[1].contains("11.000"), "{s}");
        assert!(lines[2].starts_with("gff.total"), "{s}");
        assert!(lines[2].contains("9.000"), "{s}");
        // Limit truncates below the header.
        assert_eq!(render_self_time(&trace(), 1).lines().count(), 2);
    }
}
