//! `benchmark aa <results-A> <results-B>`: compare two result sets of the
//! same workloads — two back-to-back sets of one commit for the A/A
//! acceptance check, or parent vs change for a later report.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use obs::jsonio::{self, Json};

use crate::stats::{median, quartiles};

/// Fewest runs per workload in each set.
pub const MIN_RUNS: usize = 5;

/// One end-to-end metric's contract, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// Values per workload per metric, plus each run's `(seed, digest)`.
#[derive(Debug, Default)]
pub struct ResultSet {
    pub values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    pub digests: BTreeMap<String, Vec<(u64, String)>>,
}

/// The `end_to_end` entries of a `BENCHMARK.json` text.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let doc = jsonio::parse(text).ok_or("BENCHMARK.json is not JSON")?;
    let entries = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            Ok(Bound {
                name: e.str("name").ok_or("metric without a name")?.to_string(),
                lower_is_better: match e.str("better") {
                    Some("lower") => true,
                    Some("higher") => false,
                    _ => return Err("metric without a direction".to_string()),
                },
                bound: e.num("bound").ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// Parse a results file: one self-described JSON record per line (traced
/// runs are skipped: they carry no end-to-end metric).
pub fn parse_results(text: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet::default();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = jsonio::parse(line).ok_or(format!("line {}: not JSON", n + 1))?;
        let field = |k: &str| rec.get(k).ok_or(format!("line {}: no \"{k}\"", n + 1));
        if matches!(field("trace")?, Json::Bool(true)) {
            continue;
        }
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let seed = field("seed")?.as_f64().unwrap_or(0.0) as u64;
        let digest = field("digest")?.as_str().unwrap_or_default().to_string();
        set.digests
            .entry(workload.clone())
            .or_default()
            .push((seed, digest));
        let per_metric = set.values.entry(workload).or_default();
        for (name, m) in field("metrics")?.as_obj().unwrap_or_default() {
            let v = m
                .num("value")
                .ok_or(format!("line {}: {name} has no value", n + 1))?;
            per_metric.entry(name.clone()).or_default().push(v);
        }
    }
    Ok(set)
}

/// By how much of A's median B's median is *worse* (negative = better).
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

/// The comparison table and whether every difference is within its bound.
pub fn compare(a: &ResultSet, b: &ResultSet, bounds: &[Bound]) -> Result<(String, bool), String> {
    let mut table = String::new();
    let mut ok = true;
    let _ = writeln!(
        table,
        "{:<16} {:<19} {:>3} {:>11} {:>11} {:>11} {:>7}  {:>11} {:>7}  {:>8} {:>6}",
        "workload",
        "metric",
        "n",
        "A median",
        "A q1",
        "A q3",
        "A iqr%",
        "B median",
        "B iqr%",
        "worse%",
        "bound%"
    );
    for (workload, metrics_a) in &a.values {
        let metrics_b = b
            .values
            .get(workload)
            .ok_or(format!("{workload}: missing from the second set"))?;
        for bound in bounds {
            let (va, vb) = match (metrics_a.get(&bound.name), metrics_b.get(&bound.name)) {
                (Some(va), Some(vb)) => (va, vb),
                _ => return Err(format!("{workload}: {} missing from a set", bound.name)),
            };
            if va.len() < MIN_RUNS || vb.len() < MIN_RUNS {
                return Err(format!(
                    "{workload}: {} has {} and {} runs, need {MIN_RUNS} in each set",
                    bound.name,
                    va.len(),
                    vb.len()
                ));
            }
            let (ma, mb) = (median(va), median(vb));
            let ((a1, a3), (b1, b3)) = (quartiles(va), quartiles(vb));
            let worse = worsening(ma, mb, bound.lower_is_better);
            let within = worse <= bound.bound;
            ok &= within;
            let _ = writeln!(
                table,
                "{:<16} {:<19} {:>3} {:>11.5} {:>11.5} {:>11.5} {:>7.2}  {:>11.5} {:>7.2}  {:>+8.2} {:>6.1}{}",
                workload,
                bound.name,
                va.len().min(vb.len()),
                ma,
                a1,
                a3,
                100.0 * (a3 - a1) / ma,
                mb,
                100.0 * (b3 - b1) / mb,
                100.0 * worse,
                100.0 * bound.bound,
                if within { "" } else { "  EXCEEDS" }
            );
        }
    }
    // Cross-workload invariant: at equal seed the hybrid and serial layouts
    // assemble the same output.
    let all_digests = |w: &str| {
        let mut v: Vec<&(u64, String)> = Vec::new();
        for set in [a, b] {
            v.extend(set.digests.get(w).into_iter().flatten());
        }
        v
    };
    for (seed, hybrid) in all_digests("wide_hybrid2") {
        for (_, serial) in all_digests("wide_serial")
            .into_iter()
            .filter(|(s, _)| s == seed)
        {
            if serial != hybrid {
                ok = false;
                let _ = writeln!(
                    table,
                    "seed {seed}: wide_hybrid2 digest {hybrid} != wide_serial digest {serial}  EXCEEDS"
                );
            }
        }
    }
    Ok((table, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.08},
        {"name": "ref_kmer_recall", "unit": "fraction", "better": "higher", "bound": 0.01}]}"#;

    fn set(workload: &str, wall: &[f64], recall: f64, digest: &str) -> String {
        wall.iter()
            .map(|w| {
                format!(
                    "{{\"workload\": \"{workload}\", \"seed\": 7, \"trace\": false, \
                     \"digest\": \"{digest}\", \"metrics\": {{\"wall_s\": {{\"value\": {w}, \
                     \"unit\": \"s\"}}, \"ref_kmer_recall\": {{\"value\": {recall}, \
                     \"unit\": \"fraction\"}}}}}}\n"
                )
            })
            .collect()
    }

    #[test]
    fn equal_sets_pass_and_a_slowdown_past_the_bound_fails() {
        let bounds = parse_bounds(BENCH).unwrap();
        assert_eq!(bounds.len(), 2);
        let a = parse_results(&set("deep_serial", &[3.0, 3.1, 3.2, 3.0, 3.1], 0.8, "aa")).unwrap();
        let same =
            parse_results(&set("deep_serial", &[3.1, 3.0, 3.2, 3.1, 3.0], 0.8, "aa")).unwrap();
        assert!(compare(&a, &same, &bounds).unwrap().1);
        let slow =
            parse_results(&set("deep_serial", &[3.5, 3.5, 3.6, 3.5, 3.4], 0.8, "aa")).unwrap();
        let (table, ok) = compare(&a, &slow, &bounds).unwrap();
        assert!(!ok && table.contains("EXCEEDS"));
        // Faster is never a failure; lower recall past its bound is.
        assert!(compare(&slow, &a, &bounds).unwrap().1);
        let junk =
            parse_results(&set("deep_serial", &[3.0, 3.1, 3.2, 3.0, 3.1], 0.7, "aa")).unwrap();
        assert!(!compare(&a, &junk, &bounds).unwrap().1);
    }

    #[test]
    fn too_few_runs_and_traced_records_are_refused_or_skipped() {
        let bounds = parse_bounds(BENCH).unwrap();
        let a = parse_results(&set("deep_serial", &[3.0, 3.1, 3.2, 3.0], 0.8, "aa")).unwrap();
        assert!(compare(&a, &a, &bounds).is_err());
        let traced = "{\"workload\": \"w\", \"seed\": 1, \"trace\": true, \"digest\": \"x\", \"metrics\": {}}\n";
        assert!(parse_results(traced).unwrap().values.is_empty());
    }

    #[test]
    fn hybrid_and_serial_digests_must_agree_at_equal_seed() {
        let bounds = parse_bounds(BENCH).unwrap();
        let wall = [3.0, 3.1, 3.2, 3.0, 3.1];
        let mut text = set("wide_serial", &wall, 0.8, "aaaa");
        text.push_str(&set("wide_hybrid2", &wall, 0.8, "bbbb"));
        let s = parse_results(&text).unwrap();
        let (table, ok) = compare(&s, &s, &bounds).unwrap();
        assert!(!ok && table.contains("wide_hybrid2 digest"));
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(2.0, 2.2, true) - 0.1).abs() < 1e-12);
        assert!((worsening(0.8, 0.76, false) - 0.05).abs() < 1e-12);
        assert!(worsening(2.0, 1.0, true) < 0.0);
    }
}
