//! Post-hoc sampling profiler over a finished [`Trace`].
//!
//! Long stages (`gff.loop1`, `gff.loop2`, the `rtt.loop` chunks) record as
//! one opaque span each: a viewer shows *that* they ran, not how work
//! progressed inside them. A [`Sampler`] walks the open-span stack of a
//! track at a fixed period — midpoint sampling, so boundaries never
//! double-attribute — and turns the samples into [`CounterSample`] series
//! ([`Sampler::annotate`]): `profile.depth` (how deep the stack is at each
//! instant) plus one cumulative `profile.samples.<leaf>` staircase per leaf
//! frame, which Perfetto renders as a progress ramp under the span.
//!
//! The period is in *trace* time — the virtual clock every span is on.

use crate::span::{CounterSample, SpanNode, Trace};
use std::collections::BTreeMap;

/// A fixed-period stack sampler over finished traces (see module docs).
///
/// # Examples
///
/// ```
/// let tr = obs::Tracer::new();
/// tr.record(0, "stage", "gff.total", 0.0, 8.0);
/// tr.record(0, "stage", "gff.loop1", 0.0, 6.0);
/// let mut trace = tr.take();
/// // Four samples over the 8 s horizon: midpoints t = 1, 3, 5, 7.
/// let n = obs::Sampler::with_samples(&trace, 4).annotate(&mut trace, 0);
/// assert_eq!(n, 4);
/// assert_eq!(trace.max_counter("profile.samples.gff.loop1"), Some(3.0));
/// assert_eq!(trace.max_counter("profile.samples.gff.total"), Some(1.0));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Sampler {
    period: f64,
}

impl Sampler {
    /// A sampler with the given period (seconds of trace time). Periods
    /// that are zero, negative or non-finite fall back to 1.0.
    fn new(period: f64) -> Self {
        Sampler {
            period: if period.is_finite() && period > 0.0 {
                period
            } else {
                1.0
            },
        }
    }

    /// A sampler taking ~`n` samples across `trace`'s horizon (at least
    /// one).
    pub fn with_samples(trace: &Trace, n: usize) -> Self {
        let horizon = trace.total_time();
        Sampler::new(if horizon > 0.0 {
            horizon / n.max(1) as f64
        } else {
            1.0
        })
    }

    /// Walk `track`'s open-span stack at each midpoint instant
    /// `(i + 1/2) * period` up to the track's horizon: `(ts, frames)`,
    /// the open spans outermost first. Sample times where no span is open
    /// yield empty `frames` (idle), so sample counts are comparable across
    /// tracks.
    fn samples(&self, trace: &Trace, track: u32) -> Vec<(f64, Vec<String>)> {
        // Non-finite ends (a NaN-poisoned clock) would make `ts >= horizon`
        // unreachable and loop forever — skip them when sizing the horizon.
        let horizon = trace
            .on_track(track)
            .map(|s| s.end)
            .filter(|e| e.is_finite())
            .fold(0.0_f64, f64::max);
        let tree = trace.tree(track);
        let mut out = Vec::new();
        let mut i = 0u64;
        loop {
            let ts = (i as f64 + 0.5) * self.period;
            if ts >= horizon {
                break;
            }
            let mut frames = Vec::new();
            descend(&tree, ts, &mut frames);
            out.push((ts, frames));
            i += 1;
        }
        out
    }

    /// Sample `track` and append the result to `trace` as counter series:
    /// `profile.depth` (stack depth per instant) and one cumulative
    /// `profile.samples.<leaf>` series per leaf frame. Returns how many
    /// samples were taken.
    ///
    /// # Examples
    ///
    /// ```
    /// let tr = obs::Tracer::new();
    /// tr.record(0, "stage", "rtt.loop", 0.0, 4.0);
    /// let mut trace = tr.take();
    /// let n = obs::Sampler::with_samples(&trace, 4).annotate(&mut trace, 0);
    /// assert_eq!(n, 4);
    /// assert_eq!(trace.max_counter("profile.samples.rtt.loop"), Some(4.0));
    /// assert_eq!(trace.max_counter("profile.depth"), Some(1.0));
    /// ```
    pub fn annotate(&self, trace: &mut Trace, track: u32) -> usize {
        let samples = self.samples(trace, track);
        let mut cumulative: BTreeMap<String, u64> = BTreeMap::new();
        for (ts, frames) in &samples {
            trace.counters.push(CounterSample {
                name: "profile.depth".to_string(),
                track,
                ts: *ts,
                value: frames.len() as f64,
            });
            if let Some(leaf) = frames.last() {
                let c = cumulative.entry(leaf.clone()).or_insert(0);
                *c += 1;
                trace.counters.push(CounterSample {
                    name: format!("profile.samples.{leaf}"),
                    track,
                    ts: *ts,
                    value: *c as f64,
                });
            }
        }
        samples.len()
    }
}

/// Push the names of the nodes covering `ts` onto `frames`, outermost
/// first. Children are disjoint (see [`Trace::tree`]), so at most one
/// branch matches per level.
fn descend(nodes: &[SpanNode], ts: f64, frames: &mut Vec<String>) {
    for n in nodes {
        if n.start <= ts && ts < n.end {
            frames.push(n.name.clone());
            descend(&n.children, ts, frames);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;

    fn staged_trace() -> Trace {
        let tr = Tracer::new();
        tr.record(0, "stage", "total", 0.0, 10.0);
        tr.record(0, "stage", "loop1", 0.0, 6.0);
        tr.record(0, "stage", "loop2", 6.0, 9.0);
        tr.take()
    }

    /// The innermost open span of each sample (`None` when idle).
    fn leaves(samples: &[(f64, Vec<String>)]) -> Vec<Option<&str>> {
        samples
            .iter()
            .map(|(_, frames)| frames.last().map(String::as_str))
            .collect()
    }

    #[test]
    fn midpoint_samples_attribute_phases() {
        let t = staged_trace();
        let samples = Sampler::new(1.0).samples(&t, 0);
        assert_eq!(samples.len(), 10);
        let leaves = leaves(&samples);
        assert_eq!(leaves.iter().filter(|&&l| l == Some("loop1")).count(), 6);
        assert_eq!(leaves.iter().filter(|&&l| l == Some("loop2")).count(), 3);
        assert_eq!(leaves.iter().filter(|&&l| l == Some("total")).count(), 1);
    }

    #[test]
    fn idle_gaps_sample_empty() {
        let tr = Tracer::new();
        tr.record(0, "s", "a", 0.0, 1.0);
        tr.record(0, "s", "b", 3.0, 4.0);
        let samples = Sampler::new(1.0).samples(&tr.take(), 0);
        assert_eq!(leaves(&samples), vec![Some("a"), None, None, Some("b")]);
    }

    #[test]
    fn annotate_emits_progress_staircase() {
        let mut t = staged_trace();
        let n = Sampler::new(1.0).annotate(&mut t, 0);
        assert_eq!(n, 10);
        let loop1: Vec<f64> = t
            .counters
            .iter()
            .filter(|c| c.name == "profile.samples.loop1")
            .map(|c| c.value)
            .collect();
        assert_eq!(loop1, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.max_counter("profile.depth"), Some(2.0));
    }

    #[test]
    fn degenerate_periods_are_clamped() {
        assert_eq!(Sampler::new(0.0).period, 1.0);
        assert_eq!(Sampler::new(-3.0).period, 1.0);
        assert_eq!(Sampler::new(f64::NAN).period, 1.0);
        // Empty trace: no samples, no panic.
        assert!(Sampler::new(1.0).samples(&Trace::default(), 0).is_empty());
    }

    #[test]
    fn non_finite_span_ends_do_not_hang() {
        // Before the horizon guard these looped forever: `ts >= NaN` and
        // `ts >= inf` are both always false.
        for end in [f64::NAN, f64::INFINITY] {
            let tr = Tracer::new();
            tr.record(0, "s", "poisoned", 0.0, end);
            tr.record(0, "s", "ok", 0.0, 2.0);
            let samples = Sampler::new(1.0).samples(&tr.take(), 0);
            assert_eq!(samples.len(), 2, "end={end}");
        }
    }

    #[test]
    fn zero_duration_and_single_span_traces() {
        // An instant at t = 5: every sample before it is idle.
        let tr = Tracer::new();
        tr.record(0, "s", "instant", 5.0, 5.0);
        let t = tr.take();
        let samples = Sampler::new(1.0).samples(&t, 0);
        assert_eq!(samples.len(), 5);
        assert!(samples.iter().all(|(_, frames)| frames.is_empty()));
        // One span, one rank: annotate emits a well-formed staircase.
        let tr = Tracer::new();
        tr.record(1, "s", "only", 0.0, 3.0);
        let mut t = tr.take();
        assert_eq!(Sampler::with_samples(&t, 3).annotate(&mut t, 1), 3);
        assert_eq!(t.max_counter("profile.samples.only"), Some(3.0));
    }

    #[test]
    fn with_samples_targets_count() {
        let t = staged_trace();
        let s = Sampler::with_samples(&t, 20);
        assert!((s.period - 0.5).abs() < 1e-12);
        assert_eq!(s.samples(&t, 0).len(), 20);
    }
}
