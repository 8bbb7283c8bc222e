//! Unified observability layer for the pipeline: span tracing + metrics.
//!
//! The paper's whole argument rests on per-phase timing breakdowns — the
//! loop/comm/serial splits of Figs. 7–10 and the collectl-style stage
//! traces of Figs. 2/11. Before this crate those numbers were produced by
//! hand-threaded floats scattered over `core::timings` and a bespoke
//! `trinity::collectl` emulator; now every crate records into the same two
//! primitives:
//!
//! * [`Tracer`] — a thread-safe recorder of named, categorized time
//!   intervals ([`SpanRecord`]s) on per-rank/per-thread *tracks*, all on
//!   the virtual clock: [`Tracer::record`] takes explicit timestamps;
//! * [`MetricsRegistry`] — named typed counters, gauges and power-of-two
//!   histograms (bytes sent, k-mers welded, probe lengths, queue depths).
//!
//! A finished [`Trace`] exports to plain JSON ([`export::trace_json`]) or
//! to the Chrome `trace_event` format ([`export::chrome_trace`]) so any
//! run opens directly in `chrome://tracing` / [Perfetto](https://ui.perfetto.dev).
//!
//! On top of the trace sit two profiling views: [`flame`] folds a track's
//! span tree into collapsed-stack format with self-time accounting (plus a
//! self-contained SVG flamegraph renderer), and [`Sampler`] replays a
//! fixed-period stack sampler over a finished trace, turning opaque
//! long-running spans into `profile.*` progress counter series.
//!
//! The analytics layer closes the loop: [`analyze`](analyze()) reduces a
//! finished trace to an [`Analysis`] — the cross-rank critical path with
//! per-step slack, per-stage load-imbalance statistics, a communication
//! matrix and scaling-efficiency figures — and [`diff`](diff::diff)
//! compares two analyses under configurable tolerance bands so CI can
//! fail a pull request that regresses the critical path.
//!
//! The crate is deliberately **zero-dependency** (std only): it sits at
//! the root of the workspace dependency graph so `mpisim`, `omp`,
//! `kmertable`, `kcount`, `chrysalis` and `trinity` can all record into it.
//!
//! # Examples
//!
//! ```
//! use obs::{export, MetricsRegistry, Tracer};
//!
//! let tracer = Tracer::new();
//! let metrics = MetricsRegistry::new();
//! tracer.record(0, "compute", "assemble", 0.0, 0.5);
//! metrics.counter("contigs").add(3);
//! tracer.record(1, "comm", "mpi.allgatherv", 0.5, 0.9);
//! let trace = tracer.take();
//! assert_eq!(trace.spans.len(), 2);
//! let json = export::chrome_trace(&trace);
//! assert!(json.contains("\"traceEvents\""));
//! ```

#![warn(missing_docs)]

pub mod analyze;
pub mod diff;
pub mod export;
pub mod flame;
pub mod jsonio;
pub mod metrics;
pub mod sampler;
pub mod span;
pub mod stats;

pub use analyze::{analyze, analyze_vs, Analysis, CommCell, PathStep, Scaling, StageStats};
pub use diff::{diff, DiffReport, Tolerance};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSummary, MetricValue, MetricsRegistry, MetricsSnapshot,
};
pub use sampler::{Sampler, StackSample};
pub use span::{CounterSample, SpanNode, SpanRecord, Trace, Tracer};
pub use stats::PhaseSpread;

/// First track id used for per-thread (OpenMP worker) spans, keeping them
/// visually separate from rank tracks in Chrome/Perfetto. Rank `r` records
/// on track `r`; thread `t` of a replayed loop records on
/// `THREAD_TRACK_BASE + t`.
pub const THREAD_TRACK_BASE: u32 = 1000;
