//! Trace analytics: critical path, rank imbalance, communication matrix
//! and scaling efficiency over a finished [`Trace`].
//!
//! The paper's argument is a scaling story: hybrid stages whose wall-clock
//! is bound by the slowest rank plus the serial remainder. The obs layer
//! records what happened; this module computes *what bound the run*:
//!
//! * [`Analysis::critical_path`] — the longest chain of spans through the stage
//!   barriers. Pipeline stages (`cat:"stage"` spans on track 0) are
//!   serialized, so every stage is on the path; inside each stage the
//!   chain descends into the straggler lane (the rank track with the most
//!   busy time in the stage window) and then down the deepest-duration
//!   child at every nesting level. Each [`PathStep`] carries its exclusive
//!   `contribution` (steps sum exactly to the stage total) and its
//!   `slack` — the largest reduction of total runtime obtainable by
//!   shrinking *only* that span (capped, at the rank-selection point, by
//!   the gap to the runner-up rank: past that the runner-up becomes the
//!   straggler and further shrinking is invisible).
//! * [`Analysis::stages`] — per-stage load-imbalance: per-lane busy time,
//!   max/mean ratio, idle fraction and the straggler lane.
//! * [`Analysis::comm`] — bytes and virtual time per collective per lane,
//!   read off the `mpi.*` `cat:"comm"` spans and their `bytes*` args.
//! * [`Analysis::scaling`] — speedup/efficiency (and the Karp–Flatt serial
//!   fraction) against a serial-baseline total, when one is supplied.
//!
//! Every ratio is guarded for degenerate traces (empty, zero-duration,
//! single lane): the analysis of *any* trace is finite — no NaN ever
//! reaches the JSON artifact ([`analysis_json`] / [`parse_analysis`]).

use crate::span::{SpanNode, SpanRecord, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One step of the critical path (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct PathStep {
    /// Span name.
    pub name: String,
    /// Track the span lives on (0 = pipeline lane, `1 + r` = rank `r`).
    pub track: u32,
    /// Span start, clipped to the owning stage window, seconds.
    pub start: f64,
    /// Span end, clipped to the owning stage window, seconds.
    pub end: f64,
    /// Time attributed exclusively to this step (its clipped duration
    /// minus the clipped duration of the chain's next, nested step). Steps
    /// sum to the total stage time.
    pub contribution: f64,
    /// Largest total-runtime reduction obtainable by shrinking only this
    /// span, seconds.
    pub slack: f64,
}

/// Load-imbalance statistics for one pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageStats {
    /// Stage name (`"GraphFromFasta"`, …).
    pub name: String,
    /// Stage start on the pipeline timeline, seconds.
    pub start: f64,
    /// Stage end, seconds.
    pub end: f64,
    /// Busy time per active rank lane: `(track, seconds)`, track order.
    pub lane_busy: Vec<(u32, f64)>,
    /// Max lane busy time, seconds (0 for serial stages with no lanes).
    pub max_busy: f64,
    /// Mean lane busy time, seconds.
    pub mean_busy: f64,
    /// `max_busy / mean_busy`; 1.0 when there is nothing to compare.
    pub imbalance: f64,
    /// `1 - mean_busy / max_busy`: the fraction of the stage's rank-time
    /// budget lost to waiting on the straggler. 0.0 when degenerate.
    pub idle_frac: f64,
    /// Track of the straggler (the lane with `max_busy`), if any lane was
    /// active in the stage window.
    pub straggler: Option<u32>,
}

impl StageStats {
    /// Stage duration, seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// One cell of the communication matrix: a collective op on one lane.
#[derive(Debug, Clone, PartialEq)]
pub struct CommCell {
    /// Collective name (`"mpi.allgatherv"`, …).
    pub op: String,
    /// Lane (track) the calls were recorded on.
    pub track: u32,
    /// Number of calls.
    pub calls: u64,
    /// Payload bytes sent (sum of `bytes_sent`, falling back to `bytes`).
    pub bytes: f64,
    /// Virtual time spent inside the collective, seconds.
    pub time: f64,
}

/// Scaling-efficiency figures against a serial baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Scaling {
    /// Serial-baseline total, seconds.
    pub baseline_total: f64,
    /// This run's total, seconds.
    pub total: f64,
    /// Parallel lanes (ranks) this run used.
    pub ranks: usize,
    /// `baseline_total / total` (0 when total is 0).
    pub speedup: f64,
    /// `speedup / ranks`.
    pub efficiency: f64,
    /// Karp–Flatt experimentally determined serial fraction
    /// `(1/speedup - 1/ranks) / (1 - 1/ranks)`; `None` for 1 rank or a
    /// degenerate speedup.
    pub serial_fraction: Option<f64>,
}

/// Everything [`analyze`] computes from one trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Analysis {
    /// Total analyzed time: sum of stage durations (equals the trace
    /// horizon for barrier-serialized pipelines), seconds.
    pub total: f64,
    /// The cross-rank critical path, timeline order.
    pub critical_path: Vec<PathStep>,
    /// Per-stage imbalance statistics, timeline order.
    pub stages: Vec<StageStats>,
    /// Communication matrix, sorted by (op, track).
    pub comm: Vec<CommCell>,
    /// Scaling figures, when a serial baseline total was supplied.
    pub scaling: Option<Scaling>,
}

impl Analysis {
    /// Sum of critical-path contributions — by construction equal to
    /// [`Analysis::total`] (up to float rounding).
    pub fn path_total(&self) -> f64 {
        self.critical_path.iter().map(|s| s.contribution).sum()
    }
}

/// Duration of `span` clipped to the window `[lo, hi)`.
fn clip(start: f64, end: f64, lo: f64, hi: f64) -> f64 {
    (end.min(hi) - start.max(lo)).max(0.0)
}

/// The stage spans the analysis is anchored on: `cat == "stage"` spans on
/// track 0, timeline order. Falls back to the root spans of track 0's
/// nesting tree when nothing is categorized (hand-built traces), so the
/// analyzer still produces a path.
fn anchor_stages(trace: &Trace) -> Vec<SpanRecord> {
    let mut stages: Vec<SpanRecord> = trace
        .with_cat("stage")
        .into_iter()
        .filter(|s| s.track == 0)
        .cloned()
        .collect();
    if stages.is_empty() {
        stages = trace
            .tree(0)
            .into_iter()
            .map(|n| SpanRecord {
                name: n.name,
                cat: "stage".to_string(),
                track: 0,
                start: n.start,
                end: n.end,
                args: Vec::new(),
            })
            .collect();
    }
    stages.sort_by(|a, b| a.start.total_cmp(&b.start));
    stages
}

/// Rank lanes with at least one span: every track in
/// `(0, THREAD_TRACK_BASE)`. Track 0 is the serial pipeline lane; tracks at
/// or above [`crate::THREAD_TRACK_BASE`] are OpenMP thread lanes, which the
/// analyzer ignores (their busy/idle pairs are already summarized by the
/// makespan metrics).
fn rank_lanes(trace: &Trace) -> Vec<u32> {
    let mut lanes: Vec<u32> = trace
        .spans
        .iter()
        .map(|s| s.track)
        .filter(|&t| t > 0 && t < crate::THREAD_TRACK_BASE)
        .collect();
    lanes.sort_unstable();
    lanes.dedup();
    lanes
}

/// Busy time of `lane` inside `[lo, hi)`: the clipped durations of the
/// lane's *root* spans (nested children are already covered by their
/// parents, so roots alone avoid double counting).
fn lane_busy(roots: &[SpanNode], lo: f64, hi: f64) -> f64 {
    roots.iter().map(|n| clip(n.start, n.end, lo, hi)).sum()
}

/// Pick the chain child: maximum clipped duration, ties broken by earlier
/// start, then lexicographic name (deterministic on hand-built ties).
fn chain_child(nodes: &[SpanNode], lo: f64, hi: f64) -> Option<&SpanNode> {
    nodes
        .iter()
        .filter(|n| clip(n.start, n.end, lo, hi) > 0.0)
        .max_by(|a, b| {
            clip(a.start, a.end, lo, hi)
                .total_cmp(&clip(b.start, b.end, lo, hi))
                .then(b.start.total_cmp(&a.start))
                .then_with(|| b.name.cmp(&a.name))
        })
}

/// Descend the chain from `nodes` within `[lo, hi)`, pushing one step per
/// nesting level. Returns the clipped duration of the chain's head (what
/// the caller must subtract from its own contribution).
fn descend(
    nodes: &[SpanNode],
    track: u32,
    lo: f64,
    hi: f64,
    parent_slack: f64,
    steps: &mut Vec<PathStep>,
) -> f64 {
    let Some(head) = chain_child(nodes, lo, hi) else {
        return 0.0;
    };
    let dur = clip(head.start, head.end, lo, hi);
    let slack = parent_slack.min(dur);
    let idx = steps.len();
    steps.push(PathStep {
        name: head.name.clone(),
        track,
        start: head.start.max(lo),
        end: head.end.min(hi),
        contribution: dur,
        slack,
    });
    let child_dur = descend(&head.children, track, lo, hi, slack, steps);
    steps[idx].contribution = (dur - child_dur).max(0.0);
    dur
}

/// Compute the full [`Analysis`] of a trace (no scaling section).
pub fn analyze(trace: &Trace) -> Analysis {
    analyze_vs(trace, None)
}

/// Compute the [`Analysis`] of a trace; with `baseline_total` (a serial
/// run's total, seconds) the scaling section is filled in too.
///
/// Spans are analysed at the times the trace's Chrome file holds (the µs
/// grid of [`crate::export`]): a trace and its file analyse alike.
pub fn analyze_vs(trace: &Trace, baseline_total: Option<f64>) -> Analysis {
    let trace = &crate::export::spans_on_grid(trace);
    let stages = anchor_stages(trace);
    let lanes = rank_lanes(trace);
    let lane_trees: BTreeMap<u32, Vec<SpanNode>> =
        lanes.iter().map(|&t| (t, trace.tree(t))).collect();

    let mut critical_path = Vec::new();
    let mut stage_stats = Vec::new();
    for s in &stages {
        let (lo, hi) = (s.start, s.end);
        let dur = (hi - lo).max(0.0);
        // Per-lane busy time inside the stage window.
        let busy: Vec<(u32, f64)> = lanes
            .iter()
            .map(|&t| (t, lane_busy(&lane_trees[&t], lo, hi)))
            .filter(|&(_, b)| b > 0.0)
            .collect();
        let max_busy = busy.iter().map(|&(_, b)| b).fold(0.0, f64::max);
        let mean_busy = if busy.is_empty() {
            0.0
        } else {
            busy.iter().map(|&(_, b)| b).sum::<f64>() / busy.len() as f64
        };
        let straggler = busy
            .iter()
            .filter(|&&(_, b)| b == max_busy && max_busy > 0.0)
            .map(|&(t, _)| t)
            .next();
        // Runner-up lane busy time: bounds how much fixing the straggler
        // alone can help.
        let runner_up = straggler
            .map(|st| {
                busy.iter()
                    .filter(|&&(t, _)| t != st)
                    .map(|&(_, b)| b)
                    .fold(0.0, f64::max)
            })
            .unwrap_or(0.0);

        stage_stats.push(StageStats {
            name: s.name.clone(),
            start: lo,
            end: hi,
            lane_busy: busy,
            max_busy,
            mean_busy,
            imbalance: if mean_busy > 0.0 {
                max_busy / mean_busy
            } else {
                1.0
            },
            idle_frac: if max_busy > 0.0 {
                (1.0 - mean_busy / max_busy).max(0.0)
            } else {
                0.0
            },
            straggler,
        });

        // Stage step + descent into the straggler lane's chain.
        let idx = critical_path.len();
        critical_path.push(PathStep {
            name: s.name.clone(),
            track: 0,
            start: lo,
            end: hi,
            contribution: dur,
            slack: dur,
        });
        if let Some(st) = straggler {
            // Shrinking the straggler's chain stops helping once the
            // runner-up rank binds the stage.
            let lane_slack = (max_busy - runner_up).max(0.0).min(dur);
            let chain_dur = descend(&lane_trees[&st], st, lo, hi, lane_slack, &mut critical_path);
            critical_path[idx].contribution = (dur - chain_dur).max(0.0);
        }
    }

    // Communication matrix: `mpi.*` comm spans grouped by (op, lane).
    let mut comm_map: BTreeMap<(String, u32), CommCell> = BTreeMap::new();
    for s in &trace.spans {
        if s.cat != "comm" || !s.name.starts_with("mpi.") {
            continue;
        }
        let cell = comm_map
            .entry((s.name.clone(), s.track))
            .or_insert_with(|| CommCell {
                op: s.name.clone(),
                track: s.track,
                calls: 0,
                bytes: 0.0,
                time: 0.0,
            });
        cell.calls += 1;
        cell.bytes += s
            .arg("bytes_sent")
            .or_else(|| s.arg("bytes"))
            .unwrap_or(0.0);
        cell.time += s.duration();
    }

    let total: f64 = stage_stats.iter().map(StageStats::duration).sum();
    let scaling = baseline_total.map(|base| {
        let ranks = lanes.len().max(1);
        let speedup = if total > 0.0 { base / total } else { 0.0 };
        let serial_fraction = (ranks > 1 && speedup > 0.0).then(|| {
            let p = ranks as f64;
            ((1.0 / speedup - 1.0 / p) / (1.0 - 1.0 / p)).max(0.0)
        });
        Scaling {
            baseline_total: base,
            total,
            ranks,
            speedup,
            efficiency: speedup / lanes.len().max(1) as f64,
            serial_fraction,
        }
    });

    Analysis {
        total,
        critical_path,
        stages: stage_stats,
        comm: comm_map.into_values().collect(),
        scaling,
    }
}

// ---- JSON round trip ----------------------------------------------------

/// Schema tag written into every analysis artifact.
pub const ANALYSIS_SCHEMA: &str = "trinity-analysis/v1";

/// Export an [`Analysis`] as a self-describing JSON artifact
/// (`analysis.json`). Round-trips through [`parse_analysis`].
pub fn analysis_json(a: &Analysis) -> String {
    let esc = crate::export::esc;
    let num = crate::export::num;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n\"schema\":\"{ANALYSIS_SCHEMA}\",\n\"total_s\":{},\n\"critical_path\":[\n",
        num(a.total)
    );
    for (i, s) in a.critical_path.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"track\":{},\"start\":{},\"end\":{},\
             \"contribution_s\":{},\"slack_s\":{}}}",
            if i > 0 { ",\n" } else { "" },
            esc(&s.name),
            s.track,
            num(s.start),
            num(s.end),
            num(s.contribution),
            num(s.slack),
        );
    }
    out.push_str("\n],\n\"stages\":[\n");
    for (i, s) in a.stages.iter().enumerate() {
        let mut lanes = String::new();
        for (j, &(t, b)) in s.lane_busy.iter().enumerate() {
            let _ = write!(lanes, "{}[{t},{}]", if j > 0 { "," } else { "" }, num(b));
        }
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"start\":{},\"end\":{},\"duration_s\":{},\
             \"lane_busy_s\":[{lanes}],\"max_busy_s\":{},\"mean_busy_s\":{},\
             \"imbalance\":{},\"idle_frac\":{},\"straggler\":{}}}",
            if i > 0 { ",\n" } else { "" },
            esc(&s.name),
            num(s.start),
            num(s.end),
            num(s.duration()),
            num(s.max_busy),
            num(s.mean_busy),
            num(s.imbalance),
            num(s.idle_frac),
            s.straggler
                .map(|t| t.to_string())
                .unwrap_or_else(|| "null".to_string()),
        );
    }
    out.push_str("\n],\n\"comm\":[\n");
    for (i, c) in a.comm.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"op\":\"{}\",\"track\":{},\"calls\":{},\"bytes\":{},\"time_s\":{}}}",
            if i > 0 { ",\n" } else { "" },
            esc(&c.op),
            c.track,
            c.calls,
            num(c.bytes),
            num(c.time),
        );
    }
    out.push_str("\n],\n\"scaling\":");
    match &a.scaling {
        Some(s) => {
            let _ = write!(
                out,
                "{{\"baseline_total_s\":{},\"total_s\":{},\"ranks\":{},\
                 \"speedup\":{},\"efficiency\":{},\"serial_fraction\":{}}}",
                num(s.baseline_total),
                num(s.total),
                s.ranks,
                num(s.speedup),
                num(s.efficiency),
                s.serial_fraction
                    .map(num)
                    .unwrap_or_else(|| "null".to_string()),
            );
        }
        None => out.push_str("null"),
    }
    out.push_str("\n}\n");
    out
}

/// Parse an artifact produced by [`analysis_json`]. `None` when the text
/// is not JSON or not an analysis document.
pub fn parse_analysis(text: &str) -> Option<Analysis> {
    let v = crate::jsonio::parse(text)?;
    if v.str("schema") != Some(ANALYSIS_SCHEMA) {
        return None;
    }
    let mut a = Analysis {
        total: v.num("total_s")?,
        ..Analysis::default()
    };
    for s in v.get("critical_path")?.as_arr()? {
        a.critical_path.push(PathStep {
            name: s.str("name")?.to_string(),
            track: s.num("track")? as u32,
            start: s.num("start")?,
            end: s.num("end")?,
            contribution: s.num("contribution_s")?,
            slack: s.num("slack_s")?,
        });
    }
    for s in v.get("stages")?.as_arr()? {
        let mut lane_busy = Vec::new();
        for pair in s.get("lane_busy_s")?.as_arr()? {
            let p = pair.as_arr()?;
            lane_busy.push((p.first()?.as_f64()? as u32, p.get(1)?.as_f64()?));
        }
        a.stages.push(StageStats {
            name: s.str("name")?.to_string(),
            start: s.num("start")?,
            end: s.num("end")?,
            lane_busy,
            max_busy: s.num("max_busy_s")?,
            mean_busy: s.num("mean_busy_s")?,
            imbalance: s.num("imbalance")?,
            idle_frac: s.num("idle_frac")?,
            straggler: s.num("straggler").map(|t| t as u32),
        });
    }
    for c in v.get("comm")?.as_arr()? {
        a.comm.push(CommCell {
            op: c.str("op")?.to_string(),
            track: c.num("track")? as u32,
            calls: c.num("calls")? as u64,
            bytes: c.num("bytes")?,
            time: c.num("time_s")?,
        });
    }
    a.scaling = match v.get("scaling")? {
        crate::jsonio::Json::Null => None,
        s => Some(Scaling {
            baseline_total: s.num("baseline_total_s")?,
            total: s.num("total_s")?,
            ranks: s.num("ranks")? as usize,
            speedup: s.num("speedup")?,
            efficiency: s.num("efficiency")?,
            serial_fraction: s.num("serial_fraction"),
        }),
    };
    Some(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;

    /// Two serialized stages; stage two fans out to two rank lanes, rank
    /// on track 2 is the straggler with a nested chain.
    fn hybrid_trace() -> Trace {
        let tr = Tracer::new();
        tr.record(0, "stage", "Jellyfish", 0.0, 2.0);
        tr.record(0, "stage", "GraphFromFasta", 2.0, 10.0);
        tr.record(1, "work", "gff.total", 2.0, 7.0);
        tr.record(2, "work", "gff.total", 2.0, 9.0);
        tr.record(2, "work", "gff.loop1", 2.0, 8.0);
        tr.record(2, "work", "gff.weld", 3.0, 7.0);
        tr.record_with(
            1,
            "comm",
            "mpi.allgatherv",
            6.0,
            7.0,
            &[("bytes_sent", 100.0)],
        );
        tr.record_with(
            2,
            "comm",
            "mpi.allgatherv",
            8.0,
            9.0,
            &[("bytes_sent", 300.0)],
        );
        tr.take()
    }

    #[test]
    fn path_contributions_sum_to_total() {
        let a = analyze(&hybrid_trace());
        assert!((a.total - 10.0).abs() < 1e-9);
        assert!((a.path_total() - a.total).abs() < 1e-9, "{a:#?}");
    }

    #[test]
    fn path_descends_into_straggler_chain() {
        let a = analyze(&hybrid_trace());
        let names: Vec<(&str, u32)> = a
            .critical_path
            .iter()
            .map(|s| (s.name.as_str(), s.track))
            .collect();
        assert_eq!(
            names,
            vec![
                ("Jellyfish", 0),
                ("GraphFromFasta", 0),
                ("gff.total", 2),
                ("gff.loop1", 2),
                ("gff.weld", 2),
            ]
        );
        // Exclusive contributions: Jellyfish 2, stage remainder 8-7=1,
        // gff.total 7-6=1, loop1 6-4=2, weld 4.
        let contrib: Vec<f64> = a.critical_path.iter().map(|s| s.contribution).collect();
        assert_eq!(contrib, vec![2.0, 1.0, 1.0, 2.0, 4.0]);
    }

    #[test]
    fn slack_capped_by_runner_up_gap() {
        let a = analyze(&hybrid_trace());
        // Straggler (track 2) busy 7s vs runner-up (track 1) 5s: fixing
        // the straggler chain can win at most 2s.
        let total_step = &a.critical_path[2];
        assert_eq!(total_step.name, "gff.total");
        assert!((total_step.slack - 2.0).abs() < 1e-9, "{total_step:?}");
        // Deeper steps inherit the cap.
        assert!(a.critical_path[3].slack <= total_step.slack + 1e-9);
        // Serialized stage spans have full-duration slack.
        assert_eq!(a.critical_path[0].slack, 2.0);
    }

    #[test]
    fn imbalance_and_straggler_reported() {
        let a = analyze(&hybrid_trace());
        let gff = &a.stages[1];
        assert_eq!(gff.straggler, Some(2));
        assert!((gff.max_busy - 7.0).abs() < 1e-9);
        assert!((gff.mean_busy - 6.0).abs() < 1e-9);
        assert!((gff.imbalance - 7.0 / 6.0).abs() < 1e-9);
        assert!((gff.idle_frac - (1.0 - 6.0 / 7.0)).abs() < 1e-9);
        // Jellyfish has no rank lanes: degenerate guards hold.
        let jf = &a.stages[0];
        assert_eq!(jf.straggler, None);
        assert_eq!(jf.imbalance, 1.0);
        assert_eq!(jf.idle_frac, 0.0);
    }

    #[test]
    fn comm_matrix_collects_bytes_and_time() {
        let a = analyze(&hybrid_trace());
        assert_eq!(a.comm.len(), 2);
        let c2 = a.comm.iter().find(|c| c.track == 2).unwrap();
        assert_eq!(c2.op, "mpi.allgatherv");
        assert_eq!(c2.calls, 1);
        assert_eq!(c2.bytes, 300.0);
        assert!((c2.time - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_figures() {
        let a = analyze_vs(&hybrid_trace(), Some(30.0));
        let s = a.scaling.as_ref().unwrap();
        assert_eq!(s.ranks, 2);
        assert!((s.speedup - 3.0).abs() < 1e-9);
        assert!((s.efficiency - 1.5).abs() < 1e-9);
        let f = s.serial_fraction.unwrap();
        // Karp–Flatt: (1/3 - 1/2) / (1 - 1/2) < 0 -> clamped at 0.
        assert_eq!(f, 0.0);
    }

    #[test]
    fn degenerate_traces_are_finite() {
        for t in [
            Trace::default(),
            {
                let tr = Tracer::new();
                tr.record(0, "stage", "zero", 5.0, 5.0);
                tr.take()
            },
            {
                let tr = Tracer::new();
                tr.record(3, "work", "lonely", 0.0, 1.0); // no stage lane
                tr.take()
            },
        ] {
            let a = analyze_vs(&t, Some(0.0));
            let all_finite = a
                .critical_path
                .iter()
                .flat_map(|s| [s.start, s.end, s.contribution, s.slack])
                .chain(a.stages.iter().flat_map(|s| {
                    [
                        s.start,
                        s.end,
                        s.max_busy,
                        s.mean_busy,
                        s.imbalance,
                        s.idle_frac,
                    ]
                }))
                .chain([a.total])
                .all(f64::is_finite);
            assert!(all_finite, "{a:#?}");
            assert!(analysis_json(&a).len() > 2);
        }
    }

    #[test]
    fn uncategorized_trace_falls_back_to_roots() {
        let tr = Tracer::new();
        tr.record(0, "wall", "outer", 0.0, 4.0);
        tr.record(0, "wall", "inner", 1.0, 3.0);
        let a = analyze(&tr.take());
        assert_eq!(a.stages.len(), 1);
        assert_eq!(a.stages[0].name, "outer");
        // The chain descends within track 0's own tree only via lanes;
        // with no rank lanes the path is the root alone.
        assert_eq!(a.critical_path.len(), 1);
        assert!((a.path_total() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn tie_between_lanes_picks_lowest_track() {
        let tr = Tracer::new();
        tr.record(0, "stage", "S", 0.0, 4.0);
        tr.record(1, "w", "a", 0.0, 3.0);
        tr.record(2, "w", "b", 0.0, 3.0);
        let a = analyze(&tr.take());
        assert_eq!(a.stages[0].straggler, Some(1));
        // Perfectly balanced: straggler gap slack is 0.
        let lane_step = &a.critical_path[1];
        assert_eq!(lane_step.name, "a");
        assert_eq!(lane_step.slack, 0.0);
    }

    #[test]
    fn tie_between_siblings_picks_earliest() {
        let tr = Tracer::new();
        tr.record(0, "stage", "S", 0.0, 10.0);
        tr.record(1, "w", "root", 0.0, 10.0);
        tr.record(1, "w", "late", 6.0, 9.0);
        tr.record(1, "w", "beta", 1.0, 4.0);
        tr.record(1, "w", "alpha", 1.0, 4.0);
        let a = analyze(&tr.take());
        let names: Vec<&str> = a.critical_path.iter().map(|s| s.name.as_str()).collect();
        // "alpha" (recorded last over the identical [1,4) interval) wraps
        // "beta" in the tree; it ties with "late" on duration 3 but
        // starts earlier, so the chain is root -> alpha -> beta.
        assert_eq!(names, vec!["S", "root", "alpha", "beta"]);
        assert!((a.path_total() - 10.0).abs() < 1e-9);
        // alpha's time is fully covered by beta: zero exclusive share.
        assert_eq!(a.critical_path[2].contribution, 0.0);
    }

    #[test]
    fn partially_overlapping_siblings_stay_on_one_level() {
        // The PR 7 fix: [0,10] and [5,15] are siblings, not nested. The
        // chain picks the longer clipped one and contributions still sum.
        let tr = Tracer::new();
        tr.record(0, "stage", "S", 0.0, 15.0);
        tr.record(1, "w", "a", 0.0, 10.0);
        tr.record(1, "w", "b", 5.0, 15.0);
        let a = analyze(&tr.take());
        assert!((a.path_total() - 15.0).abs() < 1e-9);
        let names: Vec<&str> = a.critical_path.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["S", "a"]); // tie on clipped 10 -> earlier start
    }

    #[test]
    fn json_round_trips() {
        let a = analyze_vs(&hybrid_trace(), Some(30.0));
        let text = analysis_json(&a);
        let back = parse_analysis(&text).expect("parses");
        assert_eq!(back, a);
        // And the degenerate analysis round-trips too.
        let empty = analyze(&Trace::default());
        assert_eq!(parse_analysis(&analysis_json(&empty)).unwrap(), empty);
    }

    #[test]
    fn parse_rejects_non_analysis() {
        assert!(parse_analysis("{}").is_none());
        assert!(parse_analysis("not json").is_none());
        assert!(parse_analysis("{\"schema\":\"other/v1\"}").is_none());
    }
}
