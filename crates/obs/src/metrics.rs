//! Typed metrics: counters, gauges and power-of-two histograms behind a
//! shared [`MetricsRegistry`].
//!
//! Handles returned by the registry ([`Counter`], [`Gauge`], [`Histogram`])
//! are cheap `Arc`-backed clones that update lock-free atomics, so they can
//! be hoisted out of hot loops and shared across threads. A
//! [`MetricsSnapshot`] freezes every metric, sorted by name, for stable
//! export.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of power-of-two buckets in a [`Histogram`]: bucket `i` counts
/// values of bit length `i` — bucket 0 holds zeros, bucket `i` holds
/// `[2^(i-1), 2^i)`, and bucket 63 absorbs everything from `2^62` up.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing event count (bytes sent, k-mers welded, …).
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one to the counter.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins instantaneous measurement (load factor, queue depth).
/// Stores the `f64` bit pattern in an atomic, so updates are lock-free.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A power-of-two-bucket histogram of `u64` samples (probe lengths, chunk
/// sizes). Recording is two relaxed atomic adds — safe on hot paths.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramInner>);

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Freeze the histogram into a summary.
    pub fn summary(&self) -> HistogramSummary {
        let buckets: Vec<u64> = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        HistogramSummary {
            count,
            sum: self.0.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A frozen [`Histogram`]: total count/sum plus per-bucket counts.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all recorded samples.
    pub sum: u64,
    /// Per-bucket counts; bucket `i` covers `[2^(i-1), 2^i)`, bucket 0
    /// holds zeros. Always [`HISTOGRAM_BUCKETS`] long.
    pub buckets: Vec<u64>,
}

impl HistogramSummary {
    /// Mean sample value, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A registry of named metrics. Cheap to clone; clones share storage.
/// Registration takes a lock, updates through the returned handles do not —
/// fetch handles once, outside hot loops.
///
/// Names are dotted paths (`"comm.bytes_sent"`, `"kmertable.probe_len"`);
/// re-requesting a name returns a handle to the same metric. Requesting an
/// existing name as a different type panics — that is always an
/// instrumentation bug.
///
/// # Examples
///
/// ```
/// use obs::MetricsRegistry;
///
/// let reg = MetricsRegistry::new();
/// let bytes = reg.counter("comm.bytes_sent");
/// bytes.add(1024);
/// reg.gauge("table.load_factor").set(0.42);
/// reg.histogram("table.probe_len").record(3);
///
/// let snap = reg.snapshot();
/// assert_eq!(snap.counter("comm.bytes_sent"), Some(1024));
/// assert_eq!(snap.gauge("table.load_factor"), Some(0.42));
/// assert_eq!(snap.histogram("table.probe_len").unwrap().count, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Get or create the counter named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn counter(&self, name: impl Into<String>) -> Counter {
        let name = name.into();
        let mut map = self.inner.lock().expect("metrics lock");
        match map
            .entry(name.clone())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with another type"),
        }
    }

    /// Get or create the gauge named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn gauge(&self, name: impl Into<String>) -> Gauge {
        let name = name.into();
        let mut map = self.inner.lock().expect("metrics lock");
        match map
            .entry(name.clone())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with another type"),
        }
    }

    /// Get or create the histogram named `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric type.
    pub fn histogram(&self, name: impl Into<String>) -> Histogram {
        let name = name.into();
        let mut map = self.inner.lock().expect("metrics lock");
        match map
            .entry(name.clone())
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with another type"),
        }
    }

    /// Freeze every metric into a [`MetricsSnapshot`], sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.inner.lock().expect("metrics lock");
        MetricsSnapshot {
            metrics: map
                .iter()
                .map(|(name, m)| {
                    let value = match m {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.summary()),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

/// The frozen value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter's value.
    Counter(u64),
    /// A gauge's value.
    Gauge(f64),
    /// A histogram's summary.
    Histogram(HistogramSummary),
}

/// A point-in-time freeze of a [`MetricsRegistry`], sorted by name (the
/// order is stable across runs, so exports diff cleanly).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs in ascending name order.
    pub metrics: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// Look up a metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.metrics[i].1)
    }

    /// The value of counter `name`, if present and a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The value of gauge `name`, if present and a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The summary of histogram `name`, if present and a histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        match self.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_clones() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("c");
        let b = reg.counter("c");
        a.add(2);
        b.inc();
        assert_eq!(reg.snapshot().counter("c"), Some(3));
    }

    #[test]
    fn gauge_last_value_wins() {
        let reg = MetricsRegistry::new();
        reg.gauge("g").set(1.5);
        reg.gauge("g").set(-2.5);
        assert_eq!(reg.snapshot().gauge("g"), Some(-2.5));
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 63);
    }

    #[test]
    fn histogram_summary_stats() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("h");
        for v in [0, 1, 3, 100] {
            h.record(v);
        }
        let s = reg.snapshot();
        let s = s.histogram("h").unwrap();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 104);
        assert_eq!(s.mean(), 26.0);
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 1); // 3
        assert_eq!(s.buckets[7], 1); // 100
    }

    #[test]
    fn empty_histogram() {
        let s = Histogram::default().summary();
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn snapshot_is_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("z");
        reg.counter("a");
        reg.counter("m");
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn concurrent_updates() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("n");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }
}
