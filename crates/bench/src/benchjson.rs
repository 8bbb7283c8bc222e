//! The shared `BENCH_*.json` writer — one schema for every microbenchmark.
//!
//! Both benches (`hotloops`, `kmertable_vs_hashmap`) historically wrote
//! divergent ad-hoc JSON (`naive_s`/`rolling_s` vs `hashmap_s`/
//! `kmertable_s`), so nothing downstream could parse the perf trajectory
//! uniformly. Every artifact now goes through [`render`]:
//!
//! ```json
//! {
//!   "schema": "trinity-bench/v1",
//!   "bench": "hotloops",
//!   "k": 24,
//!   "cores": 8,
//!   "workloads": [
//!     {"name": "kmer_count", "baseline_ns": 1.2e7,
//!      "candidate_ns": 5.9e6, "speedup": 2.034}
//!   ]
//! }
//! ```
//!
//! `baseline_ns` is the old implementation, `candidate_ns` the one the
//! repo ships. CI's bench-smoke job reads these files; `trinity diff`
//! does not (it compares `analysis.json` files only).

/// Schema tag of every bench artifact.
pub const BENCH_SCHEMA: &str = "trinity-bench/v1";

/// One measured workload: before/after times in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Workload name (`"kmer_count"`, `"rtt_assign"`, ...).
    pub name: String,
    /// Old-implementation time, nanoseconds.
    pub baseline_ns: f64,
    /// Shipped-implementation time, nanoseconds.
    pub candidate_ns: f64,
}

impl Workload {
    /// `baseline_ns / candidate_ns` (0 when the candidate time is 0).
    pub fn speedup(&self) -> f64 {
        if self.candidate_ns > 0.0 {
            self.baseline_ns / self.candidate_ns
        } else {
            0.0
        }
    }
}

/// Render a `trinity-bench/v1` document. `k` is the k-mer size the bench
/// ran at; `cores` should come from [`detected_cores`] so artifacts record
/// the hardware they were measured on.
pub fn render(bench: &str, k: usize, cores: usize, workloads: &[Workload]) -> String {
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let num = |v: f64| if v.is_finite() { v } else { 0.0 };
    let mut out = format!(
        "{{\n  \"schema\": \"{BENCH_SCHEMA}\",\n  \"bench\": \"{}\",\n  \
         \"k\": {k},\n  \"cores\": {cores},\n  \"workloads\": [\n",
        esc(bench)
    );
    for (i, w) in workloads.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"baseline_ns\": {:.6e}, \
             \"candidate_ns\": {:.6e}, \"speedup\": {:.3}}}{}\n",
            esc(&w.name),
            num(w.baseline_ns),
            num(w.candidate_ns),
            num(w.speedup()),
            if i + 1 == workloads.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// The core count to stamp into artifacts.
pub fn detected_cores() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

/// Render and write a bench artifact; prints the path on success.
pub fn write(path: &str, bench: &str, k: usize, workloads: &[Workload]) {
    let text = render(bench, k, detected_cores(), workloads);
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Workload> {
        vec![
            Workload {
                name: "kmer_count".into(),
                baseline_ns: 2.0e7,
                candidate_ns: 1.0e7,
            },
            Workload {
                name: "rtt_assign".into(),
                baseline_ns: 3.5e6,
                candidate_ns: 1.0e6,
            },
        ]
    }

    #[test]
    fn schema_fields_round_trip_through_obs_parser() {
        let text = render("hotloops", 24, 8, &sample());
        let v = obs::jsonio::parse(&text).expect("valid json");
        assert_eq!(v.str("schema"), Some(BENCH_SCHEMA));
        assert_eq!(v.str("bench"), Some("hotloops"));
        assert_eq!(v.num("k"), Some(24.0));
        assert_eq!(v.num("cores"), Some(8.0));
        let ws = v.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].str("name"), Some("kmer_count"));
        assert_eq!(ws[0].num("baseline_ns"), Some(2.0e7));
        assert_eq!(ws[0].num("speedup"), Some(2.0));
    }

    #[test]
    fn degenerate_values_stay_strict_json() {
        let ws = vec![Workload {
            name: "zero\"quote".into(),
            baseline_ns: f64::NAN,
            candidate_ns: 0.0,
        }];
        let text = render("weird", 16, 1, &ws);
        assert!(obs::jsonio::parse(&text).is_some(), "{text}");
    }
}
