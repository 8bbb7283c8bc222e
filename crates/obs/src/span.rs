//! Span tracing: explicit virtual-clock records and the [`Trace`] they
//! accumulate into.
//!
//! A *span* is a named, categorized `[start, end)` interval on a *track*.
//! Tracks are small integers that map onto Chrome/Perfetto thread lanes:
//! the convention across this workspace is track `r` for MPI rank `r`
//! (track 0 doubles as the serial/pipeline lane) and
//! [`crate::THREAD_TRACK_BASE`]` + t` for OpenMP worker thread `t`.
//!
//! Every span is on the *virtual* clock: [`Tracer::record`] takes explicit
//! start/end seconds, which is how the `mpisim` virtual clocks and the
//! `omp` makespan replays report (the timebase of every figure in the
//! paper). Wall time enters the program only as measured costs that those
//! clocks are charged with, never as a span's timestamps.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// One finished span: a named interval on a track.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name, e.g. `"gff.loop1"` or `"mpi.allgatherv"`.
    pub name: String,
    /// Category: `"stage"`, `"compute"`, `"comm"`, `"io"`, `"omp"`, … —
    /// becomes the Chrome `cat` field, filterable in Perfetto.
    pub cat: String,
    /// Track (Chrome `tid`): rank id, or `THREAD_TRACK_BASE + thread`.
    pub track: u32,
    /// Start time, virtual seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
    /// Numeric attributes (bytes moved, items processed, …), exported as
    /// Chrome `args`.
    pub args: Vec<(String, f64)>,
}

impl SpanRecord {
    /// Span duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }

    /// Look up a numeric attribute by name.
    pub fn arg(&self, name: &str) -> Option<f64> {
        self.args.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }
}

/// One sample of a named counter series (RAM, queue depth, …); exported as
/// a Chrome `ph:"C"` counter event.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Counter name.
    pub name: String,
    /// Track the sample belongs to.
    pub track: u32,
    /// Sample time, seconds.
    pub ts: f64,
    /// Sampled value.
    pub value: f64,
}

/// A finished trace: every recorded span and counter sample, plus optional
/// human-readable track names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// All spans, in recording order.
    pub spans: Vec<SpanRecord>,
    /// All counter samples, in recording order.
    pub counters: Vec<CounterSample>,
    /// Track id → display name (Chrome `thread_name` metadata).
    pub track_names: BTreeMap<u32, String>,
}

impl Trace {
    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty()
    }

    /// Latest end time across all spans and samples (the trace horizon).
    pub fn total_time(&self) -> f64 {
        let span_max = self.spans.iter().map(|s| s.end).fold(0.0, f64::max);
        let ctr_max = self.counters.iter().map(|c| c.ts).fold(0.0, f64::max);
        span_max.max(ctr_max)
    }

    /// Spans on `track`, in recording order.
    pub fn on_track(&self, track: u32) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(move |s| s.track == track)
    }

    /// Spans whose category equals `cat`, in recording order.
    pub fn with_cat(&self, cat: &str) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.cat == cat).collect()
    }

    /// Sum of durations of spans named exactly `name` on `track`.
    pub fn span_sum(&self, track: u32, name: &str) -> f64 {
        self.on_track(track)
            .filter(|s| s.name == name)
            .map(SpanRecord::duration)
            .sum()
    }

    /// `(start, end)` of the first span named `name` on `track`.
    pub fn span_bounds(&self, track: u32, name: &str) -> Option<(f64, f64)> {
        self.on_track(track)
            .find(|s| s.name == name)
            .map(|s| (s.start, s.end))
    }

    /// Maximum sampled value of counter `name` (any track), if sampled.
    pub fn max_counter(&self, name: &str) -> Option<f64> {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Absorb `other`, shifting its times by `dt` seconds and its tracks by
    /// `track_offset`. Used to splice per-rank cluster traces (whose virtual
    /// clocks start at 0) into a pipeline-level timeline.
    pub fn merge_shifted(&mut self, other: Trace, dt: f64, track_offset: u32) {
        // Track ids saturate instead of wrapping: splicing a sub-trace that
        // already carries high thread-lane ids (`THREAD_TRACK_BASE + t`)
        // must never panic or alias low rank lanes.
        self.merge_mapped(other, dt, |t| t.saturating_add(track_offset));
    }

    /// [`Trace::merge_shifted`] with an arbitrary track relabelling: each of
    /// `other`'s tracks `t` lands on `track_of(t)`.
    pub fn merge_mapped(&mut self, other: Trace, dt: f64, track_of: impl Fn(u32) -> u32) {
        for mut s in other.spans {
            s.start += dt;
            s.end = (s.end + dt).max(s.start);
            s.track = track_of(s.track);
            self.spans.push(s);
        }
        for mut c in other.counters {
            c.ts += dt;
            c.track = track_of(c.track);
            self.counters.push(c);
        }
        for (t, n) in other.track_names {
            self.track_names.entry(track_of(t)).or_insert(n);
        }
    }

    /// Build the nesting tree of one track's spans by interval containment:
    /// a span is a child of the tightest span that contains it. Spans are
    /// sorted by `(start asc, end desc)` so parents precede children; spans
    /// with *identical* intervals tie-break by recording order, later first
    /// — a wrapper span recorded just after the call it timed (e.g.
    /// `gff.comm1` around `mpi.allgatherv`) nests outside it.
    ///
    /// Partial overlap is **not** containment: a span that starts inside an
    /// open span but ends after it closes that span and becomes its sibling
    /// (or a new root). A span starting exactly at another's end is a
    /// sibling too.
    ///
    /// A zero-duration span (an *instant* — a collective on a free network,
    /// a fault marker) sits on a boundary its interval cannot place it
    /// either side of, so recording order decides; spans are recorded when
    /// they complete. An instant at a span's end is inside it if it was
    /// recorded *before* that span and is its next sibling if recorded
    /// after. An instant at a span's start precedes the span, unless it is
    /// what the span was timed from: the span has content and none of it
    /// begins at that moment (a wrapper around calls), which makes the
    /// instant its first child.
    pub fn tree(&self, track: u32) -> Vec<SpanNode> {
        const EPS: f64 = 1e-12;
        let instant = |s: &SpanRecord| s.end - s.start <= EPS;
        // Recording index, span; instants sweep before the spans that start
        // with them.
        let mut spans: Vec<(usize, &SpanRecord)> = self.on_track(track).enumerate().collect();
        spans.sort_by(|(ia, a), (ib, b)| {
            (a.start.total_cmp(&b.start))
                .then(instant(b).cmp(&instant(a)))
                .then(b.end.total_cmp(&a.end))
                .then(ib.cmp(ia))
        });
        /// Close the top open span onto its parent's children (or the
        /// roots), taking in first the instants it was timed from.
        fn close(stack: &mut Vec<(usize, SpanNode)>, roots: &mut Vec<SpanNode>) {
            let (_, mut done) = stack.pop().expect("non-empty");
            let siblings = match stack.last_mut() {
                Some((_, parent)) => &mut parent.children,
                None => roots,
            };
            let start = done.start;
            if done.children.first().is_some_and(|c| c.start > start + EPS) {
                let at_start = |c: &&SpanNode| c.start >= start - EPS && c.end <= start + EPS;
                let n = siblings.iter().rev().take_while(at_start).count();
                let timed_from = siblings.split_off(siblings.len() - n);
                done.children.splice(0..0, timed_from);
            }
            siblings.push(done);
        }
        let mut roots: Vec<SpanNode> = Vec::new();
        let mut stack: Vec<(usize, SpanNode)> = Vec::new();
        for (idx, s) in spans {
            // Pop finished ancestors (spans that end at or before this
            // one's start, unless this is an instant they were recorded
            // after) and partially-overlapped ones: if the top does not
            // contain this span's end, overlap is not containment — the top
            // closes and this span becomes its sibling.
            while let Some((top_idx, top)) = stack.last() {
                let finished = top.end <= s.start + EPS && !(instant(s) && idx < *top_idx);
                let contains = s.end <= top.end + EPS;
                if !finished && contains {
                    break;
                }
                close(&mut stack, &mut roots);
            }
            let node = SpanNode {
                name: s.name.clone(),
                start: s.start,
                end: s.end,
                children: Vec::new(),
            };
            stack.push((idx, node));
        }
        while !stack.is_empty() {
            close(&mut stack, &mut roots);
        }
        roots
    }

    /// Render [`Trace::tree`] as indented text — one line per span, two
    /// spaces per nesting level. Stable and diff-friendly; used by the
    /// golden span-tree test.
    pub fn render_tree(&self, track: u32) -> String {
        fn walk(nodes: &[SpanNode], depth: usize, out: &mut String) {
            for n in nodes {
                for _ in 0..depth {
                    out.push_str("  ");
                }
                out.push_str(&n.name);
                out.push('\n');
                walk(&n.children, depth + 1, out);
            }
        }
        let mut out = String::new();
        walk(&self.tree(track), 0, &mut out);
        out
    }
}

/// One node of a span nesting tree (see [`Trace::tree`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
    /// Spans nested inside this one.
    pub children: Vec<SpanNode>,
}

/// The span recorder. Cheap to clone; clones share storage. Thread-safe:
/// every simulated rank (an OS thread) can hold a clone and record
/// concurrently.
///
/// # Examples
///
/// ```
/// let tracer = obs::Tracer::new();
/// tracer.record(0, "compute", "index", 0.0, 1.0);
/// tracer.record(0, "comm", "exchange", 1.0, 2.5);
/// let trace = tracer.take();
/// assert_eq!(trace.spans.len(), 2);
/// assert_eq!(trace.span_sum(0, "exchange"), 1.5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Arc<Mutex<Trace>>,
}

impl Tracer {
    /// A fresh, empty tracer.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Record a span with explicit (virtual-clock) times.
    pub fn record(
        &self,
        track: u32,
        cat: impl Into<String>,
        name: impl Into<String>,
        start: f64,
        end: f64,
    ) {
        self.record_with(track, cat, name, start, end, &[]);
    }

    /// Record a span with explicit times and numeric attributes.
    pub fn record_with(
        &self,
        track: u32,
        cat: impl Into<String>,
        name: impl Into<String>,
        start: f64,
        end: f64,
        args: &[(&str, f64)],
    ) {
        let rec = SpanRecord {
            name: name.into(),
            cat: cat.into(),
            track,
            start,
            end: end.max(start),
            args: args.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        };
        self.inner.lock().expect("tracer lock").spans.push(rec);
    }

    /// Record one sample of a counter series.
    pub fn counter(&self, track: u32, name: impl Into<String>, ts: f64, value: f64) {
        self.inner
            .lock()
            .expect("tracer lock")
            .counters
            .push(CounterSample {
                name: name.into(),
                track,
                ts,
                value,
            });
    }

    /// Give a track a human-readable name (Chrome `thread_name`).
    pub fn name_track(&self, track: u32, name: impl Into<String>) {
        self.inner
            .lock()
            .expect("tracer lock")
            .track_names
            .insert(track, name.into());
    }

    /// Clone the trace recorded so far without clearing it.
    pub fn snapshot(&self) -> Trace {
        self.inner.lock().expect("tracer lock").clone()
    }

    /// Drain the recorded trace, leaving the tracer empty (track names are
    /// drained too).
    pub fn take(&self) -> Trace {
        std::mem::take(&mut *self.inner.lock().expect("tracer lock"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_records_are_exact() {
        let tr = Tracer::new();
        tr.record(3, "comm", "x", 1.0, 4.0);
        let t = tr.snapshot();
        assert_eq!(t.span_sum(3, "x"), 3.0);
        assert_eq!(t.span_bounds(3, "x"), Some((1.0, 4.0)));
        assert_eq!(t.span_sum(0, "x"), 0.0);
    }

    #[test]
    fn end_clamped_to_start() {
        let tr = Tracer::new();
        tr.record(0, "c", "bad", 5.0, 2.0);
        assert_eq!(tr.snapshot().spans[0].duration(), 0.0);
    }

    #[test]
    fn merge_shifted_offsets_everything() {
        let mut a = Trace::default();
        let tr = Tracer::new();
        tr.record(0, "x", "child", 0.5, 1.0);
        tr.counter(0, "ram", 0.5, 7.0);
        tr.name_track(0, "rank 0");
        a.merge_shifted(tr.take(), 10.0, 2);
        assert_eq!(a.spans[0].start, 10.5);
        assert_eq!(a.spans[0].track, 2);
        assert_eq!(a.counters[0].ts, 10.5);
        assert_eq!(a.track_names.get(&2).map(String::as_str), Some("rank 0"));
    }

    #[test]
    fn merge_shifted_edge_cases() {
        // Empty trace: a no-op either way round.
        let mut a = Trace::default();
        a.merge_shifted(Trace::default(), 5.0, 3);
        assert!(a.is_empty());
        // All-zero-duration spans survive the shift with end == start.
        let tr = Tracer::new();
        tr.record(0, "s", "instant", 2.0, 2.0);
        a.merge_shifted(tr.take(), 1.0, 0);
        assert_eq!(a.spans[0].start, 3.0);
        assert_eq!(a.spans[0].end, 3.0);
        // Track offsets saturate instead of overflowing: splicing a trace
        // that already carries thread-lane ids must not panic or wrap
        // around into the rank lanes.
        let tr = Tracer::new();
        tr.record(u32::MAX - 1, "s", "deep", 0.0, 1.0);
        tr.counter(u32::MAX - 1, "c", 0.5, 1.0);
        tr.name_track(u32::MAX - 1, "deep lane");
        a.merge_shifted(tr.take(), 0.0, 10);
        assert_eq!(a.spans.last().unwrap().track, u32::MAX);
        assert_eq!(a.counters.last().unwrap().track, u32::MAX);
        assert!(a.track_names.contains_key(&u32::MAX));
    }

    #[test]
    fn tree_nests_by_containment() {
        let tr = Tracer::new();
        tr.record(0, "s", "total", 0.0, 10.0);
        tr.record(0, "s", "phase1", 0.0, 4.0);
        tr.record(0, "s", "phase1.sub", 1.0, 2.0);
        tr.record(0, "s", "phase2", 4.0, 10.0);
        let roots = tr.snapshot().tree(0);
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "total");
        assert_eq!(roots[0].children.len(), 2);
        assert_eq!(roots[0].children[0].name, "phase1");
        assert_eq!(roots[0].children[0].children[0].name, "phase1.sub");
        assert_eq!(roots[0].children[1].name, "phase2");
    }

    #[test]
    fn equal_intervals_nest_later_recorded_outside() {
        // An inner call records its span first; the wrapper that timed it
        // records second over the identical interval. The wrapper must be
        // the parent.
        let tr = Tracer::new();
        tr.record(0, "comm", "mpi.allgatherv", 1.0, 2.0);
        tr.record(0, "stage", "gff.comm1", 1.0, 2.0);
        let roots = tr.snapshot().tree(0);
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "gff.comm1");
        assert_eq!(roots[0].children[0].name, "mpi.allgatherv");
    }

    #[test]
    fn partial_overlap_is_sibling_not_child() {
        // Regression: [0,10] then [5,15] — the second span starts inside
        // the first but ends after it, so it must NOT be adopted as a
        // child; the first closes and both are roots.
        let tr = Tracer::new();
        tr.record(0, "s", "a", 0.0, 10.0);
        tr.record(0, "s", "b", 5.0, 15.0);
        let roots = tr.snapshot().tree(0);
        assert_eq!(roots.len(), 2, "overlapping spans are siblings: {roots:?}");
        assert_eq!(roots[0].name, "a");
        assert!(roots[0].children.is_empty());
        assert_eq!(roots[1].name, "b");
    }

    #[test]
    fn partial_overlap_inside_common_parent() {
        // Overlap below a containing ancestor: the overlapped span closes
        // onto the ancestor and the overlapping one becomes its sibling
        // *under* that ancestor.
        let tr = Tracer::new();
        tr.record(0, "s", "outer", 0.0, 100.0);
        tr.record(0, "s", "a", 0.0, 10.0);
        tr.record(0, "s", "b", 5.0, 15.0);
        let roots = tr.snapshot().tree(0);
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "outer");
        let kids: Vec<&str> = roots[0].children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(kids, vec!["a", "b"]);
        assert!(roots[0].children[0].children.is_empty());
    }

    #[test]
    fn exact_tie_spans_are_siblings() {
        // [0,5] then [5,10]: touching at one instant is not containment.
        let tr = Tracer::new();
        tr.record(0, "s", "first", 0.0, 5.0);
        tr.record(0, "s", "second", 5.0, 10.0);
        let roots = tr.snapshot().tree(0);
        assert_eq!(roots.len(), 2);
        assert!(roots.iter().all(|r| r.children.is_empty()));
    }

    #[test]
    fn zero_duration_span_nests_at_its_instant() {
        let tr = Tracer::new();
        tr.record(0, "s", "outer", 0.0, 10.0);
        tr.record(0, "s", "marker", 4.0, 4.0); // instant inside outer
        tr.record(0, "s", "at_end", 10.0, 10.0); // instant at outer's end
        let roots = tr.snapshot().tree(0);
        assert_eq!(roots.len(), 2);
        assert_eq!(roots[0].name, "outer");
        assert_eq!(roots[0].children.len(), 1);
        assert_eq!(roots[0].children[0].name, "marker");
        assert_eq!(roots[1].name, "at_end");
    }

    #[test]
    fn instants_are_placed_by_recording_order() {
        // One rank on a free network: every collective is an instant, and
        // the tree must still be the one a costed network gives.
        let tr = Tracer::new();
        tr.record(0, "comm", "mpi.bcast", 1.0, 1.0); // the previous stage's last call
        tr.record(0, "compute", "prep", 1.0, 2.0);
        tr.record(0, "comm", "mpi.allgatherv", 2.0, 2.0);
        tr.record(0, "comm", "comm1", 2.0, 2.0);
        tr.record(0, "compute", "index", 2.0, 3.0);
        tr.record(0, "comm", "mpi.gatherv", 3.0, 3.0);
        tr.record(0, "comm", "mpi.bcast", 4.0, 4.0);
        tr.record(0, "comm", "concat", 3.0, 4.0);
        tr.record(0, "compute", "cluster", 4.0, 5.0);
        tr.record(0, "comm", "mpi.barrier", 5.0, 5.0);
        tr.record(0, "stage", "total", 1.0, 5.0);
        assert_eq!(
            tr.snapshot().render_tree(0),
            "mpi.bcast\n\
             total\n  prep\n  comm1\n    mpi.allgatherv\n  index\n\
             \x20 concat\n    mpi.gatherv\n    mpi.bcast\n  cluster\n  mpi.barrier\n"
        );
    }

    #[test]
    fn render_tree_is_indented() {
        let tr = Tracer::new();
        tr.record(0, "s", "a", 0.0, 2.0);
        tr.record(0, "s", "b", 0.5, 1.0);
        let text = tr.snapshot().render_tree(0);
        assert_eq!(text, "a\n  b\n");
    }

    #[test]
    fn counters_and_max() {
        let tr = Tracer::new();
        tr.counter(0, "ram", 0.0, 5.0);
        tr.counter(0, "ram", 1.0, 9.0);
        tr.counter(0, "other", 2.0, 100.0);
        let t = tr.take();
        assert_eq!(t.max_counter("ram"), Some(9.0));
        assert_eq!(t.max_counter("missing"), None);
        assert_eq!(t.total_time(), 2.0);
    }

    #[test]
    fn concurrent_recording() {
        let tr = Tracer::new();
        std::thread::scope(|s| {
            for r in 0..8u32 {
                let tr = tr.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        tr.record(r, "t", format!("s{i}"), i as f64, i as f64 + 0.5);
                    }
                });
            }
        });
        assert_eq!(tr.take().spans.len(), 800);
    }
}
