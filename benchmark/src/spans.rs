//! Benchmark-side span recorder: the layers are timed from outside, by
//! wrapping each call into a layer's public functions in a span here. The
//! program under test is not instrumented by this file and does not see it.

use std::time::Instant;

/// One finished span on the wall clock, seconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Layer-qualified name, e.g. `"kcount.count"`.
    pub name: &'static str,
    /// Start, seconds.
    pub start: f64,
    /// End, seconds.
    pub end: f64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// Which staged pass recorded it (spans of one pass share it).
    pub pass: usize,
    /// Counts taken at the same boundary (work done, bytes, items).
    pub counts: Vec<(&'static str, f64)>,
}

/// In-memory span store; written out once, when the benchmark ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<SpanRec>,
    open: Vec<usize>,
    pass: usize,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    /// Spans recorded from now on belong to staged pass `pass`.
    pub fn set_pass(&mut self, pass: usize) {
        self.pass = pass;
    }

    /// Time `f` as a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(SpanRec {
            name,
            start: self.epoch.elapsed().as_secs_f64(),
            end: f64::NAN,
            parent: self.open.last().copied(),
            pass: self.pass,
            counts: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Attach a count to the innermost open span.
    pub fn count(&mut self, key: &'static str, value: f64) {
        let id = *self.open.last().expect("count outside any span");
        self.spans[id].counts.push((key, value));
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children clipped to the parent, overlaps
/// between children counted once).
pub fn self_times(spans: &[SpanRec]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start.max(spans[p].start), s.end.min(spans[p].end));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end - s.start - covered).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start,
            end,
            parent,
            pass: 0,
            counts: Vec::new(),
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root 0..10, child 2..6, grandchild 3..4.
        let spans = [
            rec("root", 0.0, 10.0, None),
            rec("child", 2.0, 6.0, Some(0)),
            rec("grandchild", 3.0, 4.0, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![6.0, 3.0, 1.0]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Children 1..5 and 3..8 cover 1..8 = 7 of the parent's 10.
        let spans = [
            rec("root", 0.0, 10.0, None),
            rec("a", 1.0, 5.0, Some(0)),
            rec("b", 3.0, 8.0, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 3.0);
    }

    #[test]
    fn child_reaching_past_its_parent_is_clipped() {
        let spans = [rec("root", 0.0, 10.0, None), rec("a", 8.0, 14.0, Some(0))];
        assert_eq!(self_times(&spans), vec![8.0, 6.0]);
    }

    #[test]
    fn zero_length_children_change_nothing() {
        let spans = [
            rec("root", 0.0, 4.0, None),
            rec("a", 1.0, 1.0, Some(0)),
            rec("b", 4.0, 4.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![4.0, 0.0, 0.0]);
    }

    #[test]
    fn recorder_links_parents_and_keeps_counts() {
        let mut r = Recorder::new();
        r.set_pass(1);
        r.span("root", |r| {
            r.span("leaf", |r| r.count("items", 3.0));
            r.span("leaf", |_| ());
        });
        assert_eq!(r.spans[0].parent, None);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[2].parent, Some(0));
        assert_eq!(r.spans[1].counts, vec![("items", 3.0)]);
        assert!(r.spans.iter().all(|s| s.end >= s.start && s.pass == 1));
        assert_eq!(self_times(&r.spans).len(), 3);
    }
}
