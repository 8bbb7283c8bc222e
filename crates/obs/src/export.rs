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

/// Export a [`Trace`] as Chrome `trace_event` JSON. Open the result in
/// `chrome://tracing` or <https://ui.perfetto.dev>.
///
/// Layout: everything shares `pid` 1; each obs track becomes a `tid`
/// (thread lane). Span/sample times are converted from seconds to the
/// format's microseconds.
pub fn chrome_trace(trace: &Trace) -> String {
    const US: f64 = 1e6;
    let mut events: Vec<String> = Vec::new();
    for (&track, name) in &trace.track_names {
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{track},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            esc(name)
        ));
    }
    for s in &trace.spans {
        let mut args = String::new();
        for (i, (k, v)) in s.args.iter().enumerate() {
            if i > 0 {
                args.push(',');
            }
            let _ = write!(args, "\"{}\":{}", esc(k), num(*v));
        }
        events.push(format!(
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"cat\":\"{}\",\
             \"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
            s.track,
            esc(&s.name),
            esc(&s.cat),
            num(s.start * US),
            num(s.duration() * US),
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
        let mut args = String::new();
        for (j, (k, v)) in s.args.iter().enumerate() {
            if j > 0 {
                args.push(',');
            }
            let _ = write!(args, "\"{}\":{}", esc(k), num(*v));
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"track\":{},\"start\":{},\
             \"end\":{},\"args\":{{{args}}}}}",
            esc(&s.name),
            esc(&s.cat),
            s.track,
            num(s.start),
            num(s.end),
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
/// [...]}`, microseconds). `None` when the text is not one.
///
/// This is the entry point for `trinity analyze <trace.json>`: any
/// trace the pipeline or the figure drivers wrote can be re-analyzed
/// offline.
pub fn trace_from_json(text: &str) -> Option<Trace> {
    use crate::span::{CounterSample, SpanRecord};
    let v = crate::jsonio::parse(text)?;
    let events = v.get("traceEvents")?.as_arr()?;
    let mut trace = Trace::default();
    const US: f64 = 1e-6;
    for e in events {
        let track = e.num("tid").unwrap_or(0.0) as u32;
        match e.str("ph")? {
            "X" => {
                let start = e.num("ts")? * US;
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
                    start,
                    end: start + e.num("dur").unwrap_or(0.0) * US,
                    args,
                });
            }
            "C" => trace.counters.push(CounterSample {
                name: e.str("name")?.to_string(),
                track,
                ts: e.num("ts")? * US,
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
