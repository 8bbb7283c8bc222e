//! Assembly statistics: length distributions, N50 and friends.
//!
//! Used by the pipeline reports and by the validation experiments to
//! summarise contig and transcript sets.

/// Summary statistics over a set of sequence lengths.
#[derive(Debug, Clone, PartialEq)]
pub struct LengthStats {
    /// Number of sequences.
    pub count: usize,
    /// Total bases.
    pub total: usize,
    /// Shortest sequence (0 if empty set).
    pub min: usize,
    /// Longest sequence (0 if empty set).
    pub max: usize,
    /// Mean length (0.0 if empty set).
    pub mean: f64,
    /// Median length (0 if empty set).
    pub median: usize,
    /// N50: length L such that sequences of length >= L cover >= half the
    /// total bases.
    pub n50: usize,
}

/// Compute [`LengthStats`] from an iterator of lengths.
pub fn length_stats<I: IntoIterator<Item = usize>>(lengths: I) -> LengthStats {
    let mut v: Vec<usize> = lengths.into_iter().collect();
    if v.is_empty() {
        return LengthStats {
            count: 0,
            total: 0,
            min: 0,
            max: 0,
            mean: 0.0,
            median: 0,
            n50: 0,
        };
    }
    v.sort_unstable();
    let count = v.len();
    let total: usize = v.iter().sum();
    let min = v[0];
    let max = v[count - 1];
    let mean = total as f64 / count as f64;
    let median = if count % 2 == 1 {
        v[count / 2]
    } else {
        (v[count / 2 - 1] + v[count / 2]) / 2
    };
    // N50: walk from the longest down until half the bases are covered.
    let half = total.div_ceil(2);
    let mut acc = 0usize;
    let mut n50 = 0usize;
    for &len in v.iter().rev() {
        acc += len;
        if acc >= half {
            n50 = len;
            break;
        }
    }
    LengthStats {
        count,
        total,
        min,
        max,
        mean,
        median,
        n50,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set() {
        let s = length_stats(std::iter::empty());
        assert_eq!(s.count, 0);
        assert_eq!(s.n50, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn single_sequence() {
        let s = length_stats([100]);
        assert_eq!(s.count, 1);
        assert_eq!(s.total, 100);
        assert_eq!(s.min, 100);
        assert_eq!(s.max, 100);
        assert_eq!(s.median, 100);
        assert_eq!(s.n50, 100);
    }

    #[test]
    fn classic_n50_example() {
        // Lengths 2,3,4,5,6: total 20, half 10; from longest: 6+5=11 >= 10
        // so N50 = 5.
        let s = length_stats([2, 3, 4, 5, 6]);
        assert_eq!(s.n50, 5);
        assert_eq!(s.median, 4);
        assert_eq!(s.total, 20);
    }

    #[test]
    fn even_count_median_averages() {
        let s = length_stats([1, 3, 5, 7]);
        assert_eq!(s.median, 4);
    }

    #[test]
    fn n50_at_least_median_for_skewed() {
        let s = length_stats([1, 1, 1, 1, 100]);
        assert_eq!(s.n50, 100);
    }
}
