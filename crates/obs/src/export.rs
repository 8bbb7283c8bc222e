//! Exporters: Chrome `trace_event` JSON, its reader, and plain JSON.
//!
//! [`chrome_trace`] emits the [Trace Event Format](https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU)
//! consumed by `chrome://tracing` and [Perfetto](https://ui.perfetto.dev):
//! spans become `ph:"X"` complete events (timestamps in microseconds),
//! counter samples become `ph:"C"` counter events, and track names become
//! `ph:"M"` `thread_name` metadata; [`trace_from_json`] reads it back,
//! which is how `trinity analyze` loads a run. [`metrics_json`] emits
//! simpler self-describing JSON for scripted post-processing, and
//! [`trace_json`] the same for a trace (written, never read back).
//!
//! **The µs grid.** The file holds `ts = start · 10⁶` and a `dur` with
//! `ts + dur` exactly `end · 10⁶`. The reader divides by 10⁶ (multiplying
//! by the inexact `1e-6` is not idempotent), so a time read back writes
//! the same µs again. [`crate::analyze()`] analyses a trace at these grid
//! times: a trace and its file give the same analysis.
//!
//! All serialization is hand-rolled (the crate is zero-dependency); only
//! finite numbers are emitted, so the output is always strict JSON.

use crate::metrics::{MetricValue, MetricsSnapshot};
use crate::span::Trace;
use std::fmt::Write;

/// Escape a string for inclusion in a JSON string literal.
pub(crate) fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Format a number as strict JSON: non-finite values become 0.
pub(crate) fn num(v: f64) -> String {
    if v.is_finite() {
        let mut s = format!("{v}");
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            s.push_str(".0");
        }
        s
    } else {
        "0.0".to_string()
    }
}

/// A span's args as the members of a JSON object.
fn args_json(args: &[(String, f64)]) -> String {
    let members = args
        .iter()
        .map(|(k, v)| format!("\"{}\":{}", esc(k), num(*v)));
    members.collect::<Vec<_>>().join(",")
}

/// Microseconds per second (see the module docs).
const US: f64 = 1e6;

/// A span's `(ts, dur)` in the file: `ts = start * US` and `dur` a few ulps
/// off `end * US − ts`, so that `ts + dur == end * US` exactly. Where no
/// `dur` does (an odd last bit of `end * US`, `ts` half an ulp off its grid:
/// one random span in 30), `end` steps back an ulp at a time until one does.
fn span_us(start: f64, mut end: f64) -> (f64, f64) {
    let step = |x: f64, ulps: i64| f64::from_bits(x.to_bits().wrapping_add_signed(ulps));
    let ts = start * US;
    while ts.is_finite() && end * US > ts {
        let e = end * US;
        let mut dur = e - ts;
        while ts + dur < e {
            dur = step(dur, 1);
        }
        while ts + dur > e {
            dur = step(dur, -1);
        }
        if ts + dur == e {
            return (ts, dur);
        }
        end = step(end, -1);
    }
    (ts, 0.0)
}

/// `trace`'s spans (only) at the times its file holds, as [`trace_from_json`] reads them.
pub(crate) fn spans_on_grid(trace: &Trace) -> Trace {
    let mut spans = trace.spans.clone();
    for s in &mut spans {
        let (ts, dur) = span_us(s.start, s.end);
        (s.start, s.end) = (ts / US, (ts + dur) / US);
    }
    Trace {
        spans,
        ..Trace::default()
    }
}

/// Export a [`Trace`] as Chrome `trace_event` JSON. Open the result in
/// `chrome://tracing` or <https://ui.perfetto.dev>.
///
/// Layout: everything shares `pid` 1; each obs track becomes a `tid`
/// (thread lane). Span/sample times are converted from seconds to the
/// format's microseconds, on the grid of the module docs.
pub fn chrome_trace(trace: &Trace) -> String {
    let mut events: Vec<String> = Vec::new();
    for (&track, name) in &trace.track_names {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{track},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            esc(name)
        ));
    }
    for s in &trace.spans {
        let (ts, dur) = span_us(s.start, s.end);
        events.push(format!(
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"cat\":\"{}\",\
             \"ts\":{},\"dur\":{},\"args\":{{{}}}}}",
            s.track,
            esc(&s.name),
            esc(&s.cat),
            num(ts),
            num(dur),
            args_json(&s.args),
        ));
    }
    for c in &trace.counters {
        events.push(format!(
            "{{\"ph\":\"C\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{},\
             \"args\":{{\"value\":{}}}}}",
            c.track,
            esc(&c.name),
            num(c.ts * US),
            num(c.value),
        ));
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

/// Export a [`Trace`] as plain JSON: `{"spans": [...], "counters": [...],
/// "tracks": {...}}`, times in seconds. Field names are stable — scripts
/// may depend on them.
pub fn trace_json(trace: &Trace) -> String {
    let mut out = String::from("{\"spans\":[\n");
    for (i, s) in trace.spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"track\":{},\"start\":{},\
             \"end\":{},\"args\":{{{}}}}}",
            esc(&s.name),
            esc(&s.cat),
            s.track,
            num(s.start),
            num(s.end),
            args_json(&s.args),
        );
    }
    out.push_str("\n],\"counters\":[\n");
    for (i, c) in trace.counters.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"track\":{},\"ts\":{},\"value\":{}}}",
            esc(&c.name),
            c.track,
            num(c.ts),
            num(c.value),
        );
    }
    out.push_str("\n],\"tracks\":{");
    for (i, (t, n)) in trace.track_names.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{t}\":\"{}\"", esc(n));
    }
    out.push_str("}}\n");
    out
}

/// Export a [`MetricsSnapshot`] as plain JSON, one entry per metric in
/// name order. Counters export as `{"type":"counter","value":N}`, gauges
/// as `{"type":"gauge","value":X}`, histograms as
/// `{"type":"histogram","count":N,"sum":N,"mean":X,"buckets":[[bound,count],...]}`
/// (empty buckets omitted).
pub fn metrics_json(snap: &MetricsSnapshot) -> String {
    let mut out = String::from("{\n");
    for (i, (name, value)) in snap.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(out, "\"{}\":", esc(name));
        match value {
            MetricValue::Counter(v) => {
                let _ = write!(out, "{{\"type\":\"counter\",\"value\":{v}}}");
            }
            MetricValue::Gauge(v) => {
                let _ = write!(out, "{{\"type\":\"gauge\",\"value\":{}}}", num(*v));
            }
            MetricValue::Histogram(h) => {
                let _ = write!(
                    out,
                    "{{\"type\":\"histogram\",\"count\":{},\"sum\":{},\"mean\":{},\
                     \"buckets\":[",
                    h.count,
                    h.sum,
                    num(h.mean()),
                );
                let mut first = true;
                for (b, &c) in h.buckets.iter().enumerate() {
                    if c == 0 {
                        continue;
                    }
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    let bound: u128 = if b == 0 { 1 } else { 1u128 << b };
                    let _ = write!(out, "[{bound},{c}]");
                }
                out.push_str("]}");
            }
        }
    }
    out.push_str("\n}\n");
    out
}

/// Load a [`Trace`] back from Chrome [`chrome_trace`] JSON (`{"traceEvents":
/// [...]}`, microseconds): a span is `[ts / US, (ts + dur) / US]`.
/// `None` when the text is not one, or an event's `ts` or end is not
/// finite or its `dur` is negative.
///
/// This is the entry point for `trinity analyze <trace.json>`: any
/// trace the pipeline or the figure drivers wrote can be re-analyzed
/// offline.
pub fn trace_from_json(text: &str) -> Option<Trace> {
    use crate::span::{CounterSample, SpanRecord};
    let v = crate::jsonio::parse(text)?;
    let events = v.get("traceEvents")?.as_arr()?;
    let mut trace = Trace::default();
    for e in events {
        let track = e.num("tid").unwrap_or(0.0) as u32;
        let ts = e.num("ts").filter(|ts| ts.is_finite());
        match e.str("ph")? {
            "X" => {
                let (ts, dur) = (ts?, e.num("dur").unwrap_or(0.0));
                if !(dur >= 0.0 && (ts + dur).is_finite()) {
                    return None;
                }
                let args = e
                    .get("args")
                    .and_then(|a| a.as_obj())
                    .map(|fields| {
                        fields
                            .iter()
                            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                            .collect()
                    })
                    .unwrap_or_default();
                trace.spans.push(SpanRecord {
                    name: e.str("name")?.to_string(),
                    cat: e.str("cat").unwrap_or("").to_string(),
                    track,
                    start: ts / US,
                    end: (ts + dur) / US,
                    args,
                });
            }
            "C" => trace.counters.push(CounterSample {
                name: e.str("name")?.to_string(),
                track,
                ts: ts? / US,
                value: e.get("args")?.num("value")?,
            }),
            "M" if e.str("name") == Some("thread_name") => {
                if let Some(n) = e.get("args").and_then(|a| a.str("name")) {
                    trace.track_names.insert(track, n.to_string());
                }
            }
            _ => {}
        }
    }
    Some(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Tracer;
    use crate::MetricsRegistry;

    /// Minimal recursive-descent JSON validator: returns true iff `s` is a
    /// single well-formed JSON value. Enough to catch escaping/comma bugs
    /// without a parser dependency.
    fn is_valid_json(s: &str) -> bool {
        fn skip_ws(b: &[u8], mut i: usize) -> usize {
            while i < b.len() && (b[i] as char).is_ascii_whitespace() {
                i += 1;
            }
            i
        }
        fn value(b: &[u8], i: usize) -> Option<usize> {
            let i = skip_ws(b, i);
            match b.get(i)? {
                b'{' => {
                    let mut i = skip_ws(b, i + 1);
                    if b.get(i) == Some(&b'}') {
                        return Some(i + 1);
                    }
                    loop {
                        i = string(b, skip_ws(b, i))?;
                        i = skip_ws(b, i);
                        if b.get(i) != Some(&b':') {
                            return None;
                        }
                        i = value(b, i + 1)?;
                        i = skip_ws(b, i);
                        match b.get(i)? {
                            b',' => i += 1,
                            b'}' => return Some(i + 1),
                            _ => return None,
                        }
                    }
                }
                b'[' => {
                    let mut i = skip_ws(b, i + 1);
                    if b.get(i) == Some(&b']') {
                        return Some(i + 1);
                    }
                    loop {
                        i = value(b, i)?;
                        i = skip_ws(b, i);
                        match b.get(i)? {
                            b',' => i += 1,
                            b']' => return Some(i + 1),
                            _ => return None,
                        }
                    }
                }
                b'"' => string(b, i),
                b't' => b[i..].starts_with(b"true").then_some(i + 4),
                b'f' => b[i..].starts_with(b"false").then_some(i + 5),
                b'n' => b[i..].starts_with(b"null").then_some(i + 4),
                _ => number(b, i),
            }
        }
        fn string(b: &[u8], mut i: usize) -> Option<usize> {
            if b.get(i) != Some(&b'"') {
                return None;
            }
            i += 1;
            while let Some(&c) = b.get(i) {
                match c {
                    b'"' => return Some(i + 1),
                    b'\\' => i += 2,
                    c if c < 0x20 => return None,
                    _ => i += 1,
                }
            }
            None
        }
        fn number(b: &[u8], mut i: usize) -> Option<usize> {
            let start = i;
            if b.get(i) == Some(&b'-') {
                i += 1;
            }
            let digits = |b: &[u8], mut i: usize| {
                let s = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                (i > s).then_some(i)
            };
            i = digits(b, i)?;
            if b.get(i) == Some(&b'.') {
                i = digits(b, i + 1)?;
            }
            if matches!(b.get(i), Some(&b'e') | Some(&b'E')) {
                i += 1;
                if matches!(b.get(i), Some(&b'+') | Some(&b'-')) {
                    i += 1;
                }
                i = digits(b, i)?;
            }
            (i > start).then_some(i)
        }
        let b = s.as_bytes();
        match value(b, 0) {
            Some(end) => skip_ws(b, end) == b.len(),
            None => false,
        }
    }

    fn sample_trace() -> Trace {
        let tr = Tracer::new();
        tr.name_track(0, "rank 0");
        tr.name_track(1, "rank \"1\"\n"); // needs escaping
        tr.record_with(0, "stage", "inchworm", 0.0, 2.0, &[("ram", 4.5)]);
        tr.record(1, "comm", "mpi.allgatherv", 0.5, 0.75);
        tr.counter(0, "ram", 1.0, 4.5);
        tr.take()
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        assert!(is_valid_json(&chrome_trace(&sample_trace())));
    }

    #[test]
    fn chrome_trace_field_names_are_stable() {
        let out = chrome_trace(&sample_trace());
        for field in [
            "\"traceEvents\"",
            "\"displayTimeUnit\"",
            "\"ph\":\"X\"",
            "\"ph\":\"C\"",
            "\"ph\":\"M\"",
            "\"thread_name\"",
            "\"ts\":",
            "\"dur\":",
            "\"pid\":1",
            "\"tid\":0",
            "\"cat\":\"stage\"",
        ] {
            assert!(out.contains(field), "missing {field} in:\n{out}");
        }
    }

    #[test]
    fn chrome_trace_times_are_microseconds() {
        let out = chrome_trace(&sample_trace());
        // the 2 s inchworm span must appear as dur 2_000_000 µs
        assert!(out.contains("\"dur\":2000000"), "{out}");
        // the 0.5 s comm start as ts 500000 µs
        assert!(out.contains("\"ts\":500000"), "{out}");
    }

    #[test]
    fn trace_json_is_valid_and_stable() {
        let out = trace_json(&sample_trace());
        assert!(is_valid_json(&out), "{out}");
        for field in [
            "\"spans\"",
            "\"counters\"",
            "\"tracks\"",
            "\"start\"",
            "\"end\"",
        ] {
            assert!(out.contains(field), "missing {field}");
        }
        assert!(out.contains("\"ram\":4.5"));
    }

    #[test]
    fn metrics_json_is_valid_and_stable() {
        let reg = MetricsRegistry::new();
        reg.counter("comm.bytes").add(9);
        reg.gauge("table.load\"factor").set(0.5);
        let h = reg.histogram("probe");
        h.record(0);
        h.record(5);
        let out = metrics_json(&reg.snapshot());
        assert!(is_valid_json(&out), "{out}");
        assert!(out.contains("\"type\":\"counter\",\"value\":9"));
        assert!(out.contains("\"type\":\"gauge\""));
        assert!(out.contains("\"type\":\"histogram\",\"count\":2,\"sum\":5"));
    }

    /// A span name engineered to break naive serializers: quotes,
    /// backslashes, newlines, tabs, raw control bytes, and an escape-like
    /// suffix that must not eat the closing quote.
    const EVIL: &str = "gff\"loop\\1\n\t\u{1}\u{1f}end\\";

    #[test]
    fn adversarial_names_stay_valid_json() {
        let tr = Tracer::new();
        tr.name_track(0, EVIL);
        tr.record_with(
            0,
            EVIL,
            EVIL,
            0.0,
            1.0,
            &[
                (EVIL, 1.5),
                ("nan\"arg", f64::NAN),
                ("inf\\arg", f64::NEG_INFINITY),
            ],
        );
        tr.counter(0, EVIL, 0.5, f64::INFINITY);
        let trace = tr.take();
        for out in [chrome_trace(&trace), trace_json(&trace)] {
            assert!(is_valid_json(&out), "unparseable:\n{out}");
            // Control characters must be escaped, never emitted raw.
            assert!(
                !out.bytes().any(|b| b < 0x20 && b != b'\n'),
                "raw control byte"
            );
            assert!(out.contains("\\u0001") && out.contains("\\u001f"), "{out}");
        }
    }

    #[test]
    fn adversarial_metric_names_stay_valid_json() {
        let reg = MetricsRegistry::new();
        reg.counter(EVIL).add(1);
        reg.gauge(format!("{EVIL}.gauge")).set(f64::NAN);
        reg.histogram(format!("{EVIL}.hist")).record(u64::MAX);
        let out = metrics_json(&reg.snapshot());
        assert!(is_valid_json(&out), "unparseable:\n{out}");
        assert!(!out.contains("NaN"), "{out}");
    }

    #[test]
    fn non_finite_values_become_zero() {
        let tr = Tracer::new();
        tr.record_with(
            0,
            "c",
            "weird",
            0.0,
            1.0,
            &[("x", f64::NAN), ("y", f64::INFINITY)],
        );
        let out = chrome_trace(&tr.take());
        assert!(is_valid_json(&out), "{out}");
        assert!(!out.contains("NaN") && !out.contains("inf"), "{out}");
    }

    #[test]
    fn exported_spans_are_monotone() {
        // every exported span must satisfy dur >= 0 (end clamped at record
        // time); spot-check through the plain JSON export
        let tr = Tracer::new();
        tr.record(0, "c", "clamped", 3.0, 1.0);
        let t = tr.take();
        assert!(t.spans.iter().all(|s| s.duration() >= 0.0));
        let out = trace_json(&t);
        assert!(out.contains("\"start\":3.0,\"end\":3.0"), "{out}");
    }

    #[test]
    fn empty_trace_exports_cleanly() {
        let t = Trace::default();
        assert!(is_valid_json(&chrome_trace(&t)));
        assert!(is_valid_json(&trace_json(&t)));
        assert!(is_valid_json(&metrics_json(&MetricsSnapshot::default())));
    }

    #[test]
    fn chrome_json_round_trips_through_trace_from_json() {
        let t = sample_trace();
        let back = trace_from_json(&chrome_trace(&t)).expect("parses");
        assert_eq!(back.spans.len(), t.spans.len());
        assert_eq!(back.counters.len(), t.counters.len());
        assert_eq!(back.track_names, t.track_names);
        for (a, b) in back.spans.iter().zip(&t.spans) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.cat, b.cat);
            assert_eq!(a.track, b.track);
            assert!((a.start - b.start).abs() < 1e-9, "{a:?} vs {b:?}");
            assert!((a.end - b.end).abs() < 1e-9);
            assert_eq!(a.args, b.args);
        }
    }

    #[test]
    fn trace_from_json_rejects_non_traces() {
        assert!(trace_from_json("{}").is_none());
        assert!(trace_from_json("not json").is_none());
        assert!(trace_from_json("{\"spans\": 3}").is_none());
        // The plain export is written for scripts, not read back.
        assert!(trace_from_json(&trace_json(&sample_trace())).is_none());
        // Times that are not finite (JSON `1e400` parses to ∞), negative
        // durations, and ends past the largest double.
        for event in [
            r#"{"ph":"X","name":"a","ts":1e400,"dur":1}"#,
            r#"{"ph":"X","name":"a","ts":0,"dur":1e400}"#,
            r#"{"ph":"X","name":"a","ts":0,"dur":-5.0}"#,
            r#"{"ph":"X","name":"a","ts":1e308,"dur":1e308}"#,
            r#"{"ph":"C","name":"a","ts":-1e400,"args":{"value":1}}"#,
        ] {
            let text = format!("{{\"traceEvents\":[{event}]}}");
            assert!(trace_from_json(&text).is_none(), "{event}");
        }
    }

    /// A xorshift stream for the random traces below (the crate has no
    /// dependencies, test ones included).
    struct Rng(u64);

    impl Rng {
        /// Uniform in [0, 1), off every decimal grid.
        fn unit(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Uniform in `[lo, hi)`.
        fn within(&mut self, lo: f64, hi: f64) -> f64 {
            lo + self.unit() * (hi - lo)
        }
    }

    /// Stages on track 0 that share their boundaries, anywhere in
    /// [0, 10⁴) s and sometimes of zero length; on three rank lanes, a span
    /// over each stage's tail with a child ending at its end, a zero-length
    /// marker, a collective with a byte count, and a counter sample.
    fn random_trace(rng: &mut Rng) -> Trace {
        let tr = Tracer::new();
        let mut bounds: Vec<f64> = (0..2 + (rng.unit() * 5.0) as usize)
            .map(|_| rng.within(0.0, 1e4))
            .collect();
        bounds.sort_by(f64::total_cmp);
        if rng.unit() < 0.3 {
            bounds[1] = bounds[0];
        }
        for (i, w) in bounds.windows(2).enumerate() {
            let (lo, hi) = (w[0], w[1]);
            tr.record(0, "stage", format!("stage{i}"), lo, hi);
            for lane in 1..=3 {
                let start = rng.within(lo, hi);
                tr.record(lane, "stage", "rank.total", start, hi);
                tr.record(lane, "compute", "rank.loop", rng.within(start, hi), hi);
                let at = rng.within(start, hi);
                tr.record(lane, "fault", "fault.crash", at, at);
                let (from, to) = (rng.within(start, hi), rng.within(start, hi));
                let bytes = [("bytes_sent", (rng.unit() * 1e6).floor())];
                tr.record_with(
                    lane,
                    "comm",
                    "mpi.gatherv",
                    from.min(to),
                    to.max(from),
                    &bytes,
                );
                tr.counter(lane, "ram", rng.within(lo, hi), rng.unit() * 1e9);
            }
        }
        tr.take()
    }

    #[test]
    fn a_trace_and_its_file_analyse_and_write_alike() {
        use crate::analyze::{analysis_json, analyze};
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        let mut stepped_back = 0;
        for _ in 0..400 {
            let trace = random_trace(&mut rng);
            let text = chrome_trace(&trace);
            let back = trace_from_json(&text).expect("parses");
            assert_eq!(chrome_trace(&back), text);
            assert_eq!(
                analysis_json(&analyze(&back)),
                analysis_json(&analyze(&trace))
            );
            let ends = back.spans.iter().zip(&trace.spans);
            stepped_back += ends.filter(|(b, t)| b.end != t.end * US / US).count();
        }
        assert!(stepped_back > 0, "no end needed the step back");
    }

    /// An off-grid boundary the old reader (`ts · 1e-6 + dur · 1e-6`) put a
    /// rank span across: `gff.total` ended after Butterfly began and became
    /// a critical-path step under the one-node stage.
    #[test]
    fn a_shared_boundary_stays_shared_in_the_file() {
        let tr = Tracer::new();
        tr.record(0, "stage", "GraphFromFasta", 0.0, 0.1);
        tr.record(0, "stage", "Butterfly", 0.1, 0.3);
        tr.record(1, "stage", "gff.total", 0.01, 0.1);
        let back = trace_from_json(&chrome_trace(&tr.take())).expect("parses");
        let path = crate::analyze(&back).critical_path;
        let names: Vec<&str> = path.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["GraphFromFasta", "gff.total", "Butterfly"]);
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(!is_valid_json("{\"a\":}"));
        assert!(!is_valid_json("[1,]"));
        assert!(!is_valid_json("{\"a\":1"));
        assert!(!is_valid_json("nope"));
        assert!(is_valid_json("{\"a\":[1,2.5e-3,\"x\\\"y\"],\"b\":null}"));
    }
}
