//! Flamegraph folding and rendering over [`Trace::tree`].
//!
//! [`collapsed_merged`] folds every track's span tree into Brendan-Gregg
//! collapsed-stack lines (`gff.total;gff.loop1 3.2`) with *self-time*
//! accounting: each stack's value is the time its leaf frame was open
//! minus the time any child span was open, so the values of all stacks
//! sum exactly to the root span durations. Identical stacks merge across
//! tracks — the cross-rank aggregate view, where the common phase names of
//! all ranks pile up.
//! [`to_text`] serializes folds for `inferno` / [speedscope](https://speedscope.app),
//! and [`svg`] renders a small self-contained flamegraph directly.
//!
//! Folding is only trustworthy because [`Trace::tree`] treats partial
//! overlap as sibling-ship, never containment: sibling spans under one
//! parent are disjoint, so self time is never negative.

use crate::span::{SpanNode, Trace};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Separator between frames of a folded stack path.
pub const FRAME_SEP: char = ';';

/// Fold every track of `trace` into collapsed stacks and merge identical
/// stacks — the across-ranks view.
///
/// Returns `(path, self_seconds)` pairs sorted by path; identical paths
/// (the per-chunk `rtt.loop` spans, or one phase on several ranks) are
/// merged. Self time is the span's duration minus its children's
/// durations, clamped at zero against floating-point dust. Phases that run
/// on all ranks (`gff.loop1`, …) aggregate into one tower whose value is
/// the *summed* per-rank time, exactly like a multi-thread CPU flamegraph.
///
/// # Examples
///
/// ```
/// let tr = obs::Tracer::new();
/// tr.record(0, "stage", "gff.total", 0.0, 10.0);
/// tr.record(0, "stage", "gff.loop1", 0.0, 6.0);
/// tr.record(0, "stage", "gff.loop2", 6.0, 9.0);
/// let folds = obs::flame::collapsed_merged(&tr.take());
/// assert_eq!(folds, vec![
///     ("gff.total".to_string(), 1.0),            // 10 - 6 - 3 of self time
///     ("gff.total;gff.loop1".to_string(), 6.0),
///     ("gff.total;gff.loop2".to_string(), 3.0),
/// ]);
/// let total: f64 = folds.iter().map(|(_, t)| t).sum();
/// assert!((total - 10.0).abs() < 1e-9);          // sums to the root span
///
/// let tr = obs::Tracer::new();
/// tr.record(1, "stage", "gff.loop1", 0.0, 2.0); // rank 0
/// tr.record(2, "stage", "gff.loop1", 0.0, 3.0); // rank 1
/// let folds = obs::flame::collapsed_merged(&tr.take());
/// assert_eq!(folds, vec![("gff.loop1".to_string(), 5.0)]);
/// ```
pub fn collapsed_merged(trace: &Trace) -> Vec<(String, f64)> {
    let tracks: std::collections::BTreeSet<u32> = trace.spans.iter().map(|s| s.track).collect();
    let mut acc: BTreeMap<String, f64> = BTreeMap::new();
    for track in tracks {
        fold_nodes(&trace.tree(track), "", &mut acc);
    }
    acc.into_iter().collect()
}

fn fold_nodes(nodes: &[SpanNode], prefix: &str, acc: &mut BTreeMap<String, f64>) {
    for n in nodes {
        let path = if prefix.is_empty() {
            n.name.clone()
        } else {
            format!("{prefix}{FRAME_SEP}{}", n.name)
        };
        let child_time: f64 = n.children.iter().map(|c| c.end - c.start).sum();
        let self_time = ((n.end - n.start) - child_time).max(0.0);
        if self_time > 0.0 || n.children.is_empty() {
            *acc.entry(path.clone()).or_insert(0.0) += self_time;
        }
        fold_nodes(&n.children, &path, acc);
    }
}

/// Serialize folds as collapsed-stack text: one `path value` line per
/// stack, parseable by `inferno-flamegraph`, speedscope, and
/// `flamegraph.pl`.
///
/// # Examples
///
/// ```
/// let folds = vec![("a;b".to_string(), 1.5), ("a".to_string(), 0.5)];
/// assert_eq!(obs::flame::to_text(&folds), "a;b 1.5\na 0.5\n");
/// ```
pub fn to_text(folds: &[(String, f64)]) -> String {
    let mut out = String::new();
    for (path, t) in folds {
        // Shortest round-trippable float form keeps the file diffable.
        let _ = writeln!(out, "{path} {t}");
    }
    out
}

/// Escape a string for XML text/attribute context.
fn xml_esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// Deterministic warm color for a frame name (the classic flamegraph
/// orange/red family), stable across runs so diffs stay readable.
fn frame_color(name: &str) -> String {
    // FNV-1a; any stable small hash works here.
    let mut h: u32 = 0x811c9dc5;
    for b in name.bytes() {
        h ^= b as u32;
        h = h.wrapping_mul(0x01000193);
    }
    let r = 205 + (h % 50);
    let g = 60 + ((h >> 8) % 120);
    let b = (h >> 16) % 40;
    format!("rgb({r},{g},{b})")
}

/// Reconstructed frame tree for SVG layout (built back from folds, so the
/// same renderer serves per-track and merged views).
#[derive(Default)]
struct FrameNode {
    self_time: f64,
    children: BTreeMap<String, FrameNode>,
}

impl FrameNode {
    fn total(&self) -> f64 {
        self.self_time + self.children.values().map(FrameNode::total).sum::<f64>()
    }

    fn depth(&self) -> usize {
        1 + self
            .children
            .values()
            .map(FrameNode::depth)
            .max()
            .unwrap_or(0)
    }
}

/// Render folds as a small self-contained SVG flamegraph (icicle layout,
/// root row on top, hover a frame for its full path and time). No
/// scripts, no external assets — the file opens in any browser.
///
/// # Examples
///
/// ```
/// let folds = vec![
///     ("gff.total".to_string(), 1.0),
///     ("gff.total;gff.loop1".to_string(), 6.0),
/// ];
/// let svg = obs::flame::svg(&folds, "GraphFromFasta");
/// assert!(svg.starts_with("<svg"));
/// assert!(svg.contains("gff.loop1") && svg.ends_with("</svg>\n"));
/// ```
pub fn svg(folds: &[(String, f64)], title: &str) -> String {
    const WIDTH: f64 = 1200.0;
    const ROW: f64 = 17.0;
    const TOP: f64 = 28.0;

    let mut root = FrameNode::default();
    for (path, t) in folds {
        let mut node = &mut root;
        for frame in path.split(FRAME_SEP) {
            node = node.children.entry(frame.to_string()).or_default();
        }
        node.self_time += t;
    }
    let total = root.total();
    let rows = root.depth().saturating_sub(1).max(1);
    let height = TOP + rows as f64 * ROW + 4.0;

    let mut out = String::new();
    let _ = write!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" height=\"{height}\" \
         font-family=\"monospace\" font-size=\"12\">\n\
         <rect width=\"100%\" height=\"100%\" fill=\"#fdf6e3\"/>\n\
         <text x=\"{}\" y=\"18\" text-anchor=\"middle\" font-size=\"14\">{} ({:.3}s)</text>\n",
        WIDTH / 2.0,
        xml_esc(title),
        total,
    );
    if total > 0.0 {
        let scale = WIDTH / total;
        // Roots start at x=0, laid out in key order; children pack inside
        // their parent's x extent.
        fn draw(
            out: &mut String,
            children: &BTreeMap<String, FrameNode>,
            parent_path: &str,
            mut x: f64,
            depth: usize,
            scale: f64,
            total: f64,
        ) {
            const ROW: f64 = 17.0;
            const TOP: f64 = 28.0;
            // Average glyph advance of a 12px monospace font, for label
            // fitting.
            const CHAR_W: f64 = 7.3;
            for (name, node) in children {
                let w = node.total() * scale;
                let path = if parent_path.is_empty() {
                    name.clone()
                } else {
                    format!("{parent_path};{name}")
                };
                if w >= 0.2 {
                    let y = TOP + depth as f64 * ROW;
                    let _ = write!(
                        out,
                        "<g><title>{} — {:.4}s ({:.1}%)</title>\
                         <rect x=\"{:.2}\" y=\"{:.1}\" width=\"{:.2}\" height=\"{:.1}\" \
                         fill=\"{}\" stroke=\"#fdf6e3\" stroke-width=\"0.5\"/>",
                        xml_esc(&path),
                        node.total(),
                        100.0 * node.total() / total,
                        x,
                        y,
                        w,
                        ROW - 1.0,
                        frame_color(name),
                    );
                    let fit = ((w - 4.0) / CHAR_W).floor() as usize;
                    if fit >= 3 {
                        let label: String = if name.chars().count() <= fit {
                            name.clone()
                        } else {
                            name.chars().take(fit.saturating_sub(1)).collect::<String>() + "…"
                        };
                        let _ = write!(
                            out,
                            "<text x=\"{:.2}\" y=\"{:.1}\">{}</text>",
                            x + 2.0,
                            y + 12.0,
                            xml_esc(&label),
                        );
                    }
                    out.push_str("</g>\n");
                }
                draw(out, &node.children, &path, x, depth + 1, scale, total);
                x += w;
            }
        }
        draw(&mut out, &root.children, "", 0.0, 0, scale, total);
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;

    fn gff_like_trace() -> Trace {
        let tr = Tracer::new();
        tr.record(1, "stage", "gff.total", 0.0, 10.0);
        tr.record(1, "stage", "gff.prep", 0.0, 1.0);
        tr.record(1, "stage", "gff.loop1", 1.0, 6.0);
        // The collective records itself first; the wrapper that timed it
        // records second over the identical interval and becomes parent.
        tr.record(1, "comm", "mpi.allgatherv", 6.0, 7.5);
        tr.record(1, "comm", "gff.comm1", 6.0, 7.5);
        tr.record(1, "stage", "gff.loop2", 7.5, 9.5);
        tr.take()
    }

    #[test]
    fn self_times_sum_to_root_durations() {
        let t = gff_like_trace();
        let folds = collapsed_merged(&t);
        let total: f64 = folds.iter().map(|(_, v)| v).sum();
        let roots: f64 = t.tree(1).iter().map(|r| r.end - r.start).sum();
        assert!((total - roots).abs() < 1e-9, "{total} vs {roots}");
        assert!((total - 10.0).abs() < 1e-9);
    }

    #[test]
    fn leaf_self_time_equals_span_sum() {
        // Round-trip against the raw trace: a leaf phase's folded self
        // time is exactly its span_sum.
        let t = gff_like_trace();
        let folds = collapsed_merged(&t);
        let loop1 = folds
            .iter()
            .find(|(p, _)| p.ends_with("gff.loop1"))
            .expect("loop1 stack");
        assert!((loop1.1 - t.span_sum(1, "gff.loop1")).abs() < 1e-12);
    }

    #[test]
    fn nested_paths_and_self_accounting() {
        let t = gff_like_trace();
        let folds = collapsed_merged(&t);
        let get = |p: &str| folds.iter().find(|(q, _)| q == p).map(|(_, v)| *v);
        // comm1 wraps the collective tightly: zero self, child has it all.
        assert_eq!(get("gff.total;gff.comm1;mpi.allgatherv"), Some(1.5));
        assert_eq!(get("gff.total;gff.comm1"), None, "zero-self interior");
        // total's residual: 10 - 1 - 5 - 1.5 - 2 = 0.5 of untraced time.
        assert!((get("gff.total").unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn repeated_identical_paths_merge() {
        let tr = Tracer::new();
        tr.record(0, "stage", "rtt.total", 0.0, 10.0);
        tr.record(0, "stage", "rtt.loop", 0.0, 3.0);
        tr.record(0, "stage", "rtt.loop", 3.0, 7.0);
        let folds = collapsed_merged(&tr.take());
        let loops = folds
            .iter()
            .find(|(p, _)| p == "rtt.total;rtt.loop")
            .unwrap();
        assert!((loops.1 - 7.0).abs() < 1e-12, "per-chunk spans merged");
    }

    #[test]
    fn overlap_does_not_go_negative() {
        // Regression companion to Trace::tree's overlap fix: before the
        // fix, [0,10] adopting [5,15] gave 10 - 10 = 0 self for the outer
        // and a child longer than its parent; folds now treat them as
        // siblings and conserve total time.
        let tr = Tracer::new();
        tr.record(0, "s", "a", 0.0, 10.0);
        tr.record(0, "s", "b", 5.0, 15.0);
        let folds = collapsed_merged(&tr.take());
        assert_eq!(folds.len(), 2);
        assert!(folds.iter().all(|(p, _)| !p.contains(FRAME_SEP)));
        let total: f64 = folds.iter().map(|(_, v)| v).sum();
        assert!((total - 20.0).abs() < 1e-12);
    }

    #[test]
    fn merged_aggregates_across_tracks() {
        let tr = Tracer::new();
        tr.record(1, "s", "gff.loop1", 0.0, 2.0);
        tr.record(2, "s", "gff.loop1", 0.0, 3.0);
        tr.record(2, "s", "gff.loop2", 3.0, 4.0);
        let folds = collapsed_merged(&tr.take());
        assert_eq!(
            folds,
            vec![
                ("gff.loop1".to_string(), 5.0),
                ("gff.loop2".to_string(), 1.0),
            ]
        );
    }

    #[test]
    fn text_format_is_line_per_stack() {
        let folds = vec![("a;b c".to_string(), 0.25)];
        let text = to_text(&folds);
        assert_eq!(text, "a;b c 0.25\n");
        // Tools split on the *last* space: path may contain spaces.
        let (path, v) = text.trim_end().rsplit_once(' ').unwrap();
        assert_eq!(path, "a;b c");
        assert_eq!(v.parse::<f64>().unwrap(), 0.25);
    }

    #[test]
    fn svg_renders_all_visible_frames() {
        let t = gff_like_trace();
        let folds = collapsed_merged(&t);
        let svg = svg(&folds, "gff");
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        for name in ["gff.total", "gff.loop1", "gff.loop2", "mpi.allgatherv"] {
            assert!(svg.contains(name), "missing {name}");
        }
    }

    #[test]
    fn svg_escapes_and_handles_empty() {
        let empty = svg(&[], "no<data>&stuff");
        assert!(empty.starts_with("<svg") && empty.contains("&lt;data&gt;&amp;"));
        let folds = vec![("<evil>&\"frame\"".to_string(), 1.0)];
        let s = svg(&folds, "t");
        assert!(!s.contains("<evil>"), "frame name must be escaped: {s}");
        assert!(s.contains("&lt;evil&gt;"));
    }
}
