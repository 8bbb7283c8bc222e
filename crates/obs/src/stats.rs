//! Cross-rank summary statistics over recorded spans.

/// Min/max/mean of one phase across ranks — the load-imbalance bars of
/// Figs. 7 and 9.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseSpread {
    /// Fastest rank's time.
    pub min: f64,
    /// Slowest rank's time (the representative time, per §V-A).
    pub max: f64,
    /// Mean across ranks.
    pub mean: f64,
}

impl PhaseSpread {
    /// Compute the spread of one extracted phase over per-rank records.
    pub fn over<T>(records: &[T], phase: impl Fn(&T) -> f64) -> PhaseSpread {
        if records.is_empty() {
            return PhaseSpread::default();
        }
        let mut min = f64::INFINITY;
        let mut max = 0.0f64;
        let mut sum = 0.0f64;
        for r in records {
            let v = phase(r);
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        PhaseSpread {
            min,
            max,
            mean: sum / records.len() as f64,
        }
    }

    /// Max/min ratio (the paper quotes "the highest time of a process more
    /// than three times the process with the lowest time" at 192 nodes).
    pub fn imbalance(&self) -> f64 {
        if self.min == 0.0 {
            1.0
        } else {
            self.max / self.min
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_over_records() {
        let times = [1.0f64, 3.0, 2.0];
        let s = PhaseSpread::over(&times, |&t| t);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.imbalance() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_spread() {
        let s = PhaseSpread::over::<f64>(&[], |&t| t);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.imbalance(), 1.0);
    }
}
