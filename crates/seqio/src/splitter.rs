//! PyFasta-equivalent FASTA partitioner.
//!
//! The paper's distributed Bowtie step splits the Inchworm-contig FASTA into
//! `n` pieces — one per MPI rank — with PyFasta (`pyfasta split -n`), which
//! balances pieces by total bases rather than by record count. Note that
//! PyFasta is single-threaded, which the paper identifies as the dominant
//! overhead of the parallel Bowtie step (Fig. 10); callers that model time
//! should therefore charge the whole split to one serial clock.

use crate::error::{Error, Result};
use crate::fasta::Record;

/// A partition plan: for each output piece, the indices of input records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitPlan {
    /// `pieces[p]` lists indices (into the input record slice) assigned to
    /// piece `p`, in input order.
    pub pieces: Vec<Vec<usize>>,
}

/// Plan an even-by-bases split of `records` into `n` pieces.
///
/// Mirrors PyFasta's greedy strategy: records are assigned, in input order,
/// to the piece with the least accumulated bases so far (ties broken by the
/// lowest piece index, so the plan is deterministic). Every piece index
/// exists in the plan even if it receives no records (possible when there
/// are fewer records than pieces).
pub fn plan_split(records: &[Record], n: usize) -> Result<SplitPlan> {
    if n == 0 {
        return Err(Error::Format("cannot split into 0 pieces".into()));
    }
    let mut pieces = vec![Vec::new(); n];
    let mut load = vec![0usize; n];
    for (i, rec) in records.iter().enumerate() {
        // O(n) argmin is fine: n is the rank count (≤ a few hundred).
        let p = (0..n).min_by_key(|&p| (load[p], p)).expect("n > 0");
        pieces[p].push(i);
        load[p] += rec.seq.len();
    }
    Ok(SplitPlan { pieces })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recs(lens: &[usize]) -> Vec<Record> {
        lens.iter()
            .enumerate()
            .map(|(i, &l)| Record::new(format!("r{i}"), vec![b'A'; l]))
            .collect()
    }

    /// Imbalance of a plan: `max_piece_bases / mean_piece_bases` (1.0 = perfect).
    /// Returns 1.0 for degenerate inputs (no bases).
    fn plan_imbalance(records: &[Record], plan: &SplitPlan) -> f64 {
        let loads: Vec<usize> = plan
            .pieces
            .iter()
            .map(|idxs| idxs.iter().map(|&i| records[i].seq.len()).sum())
            .collect();
        let total: usize = loads.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let mean = total as f64 / loads.len() as f64;
        let max = *loads.iter().max().expect("nonempty") as f64;
        max / mean
    }

    #[test]
    fn covers_every_record_exactly_once() {
        let records = recs(&[5, 1, 9, 2, 2, 7, 3]);
        let plan = plan_split(&records, 3).unwrap();
        let mut seen: Vec<usize> = plan.pieces.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..records.len()).collect::<Vec<_>>());
    }

    #[test]
    fn single_piece_gets_everything_in_order() {
        let records = recs(&[3, 1, 2]);
        let plan = plan_split(&records, 1).unwrap();
        assert_eq!(plan.pieces[0], vec![0, 1, 2]);
    }

    #[test]
    fn more_pieces_than_records() {
        let records = recs(&[4, 4]);
        let plan = plan_split(&records, 5).unwrap();
        assert_eq!(plan.pieces.len(), 5);
        assert_eq!(plan.pieces.iter().map(Vec::len).sum::<usize>(), 2);
        assert!(plan.pieces.iter().filter(|p| p.is_empty()).count() == 3);
    }

    #[test]
    fn zero_pieces_is_an_error() {
        assert!(plan_split(&recs(&[1]), 0).is_err());
    }

    #[test]
    fn balances_by_bases_not_count() {
        // One huge record plus many tiny ones: the huge one should sit alone.
        let mut lens = vec![1000];
        lens.extend(std::iter::repeat_n(10, 100));
        let records = recs(&lens);
        let plan = plan_split(&records, 2).unwrap();
        let piece_of_big = plan
            .pieces
            .iter()
            .position(|p| p.contains(&0))
            .expect("record 0 assigned");
        // The big record's piece should have far fewer records.
        let other = 1 - piece_of_big;
        assert!(plan.pieces[piece_of_big].len() < plan.pieces[other].len());
        assert!(plan_imbalance(&records, &plan) < 1.5);
    }

    #[test]
    fn uniform_records_split_evenly() {
        let records = recs(&[10; 64]);
        let plan = plan_split(&records, 8).unwrap();
        for piece in &plan.pieces {
            assert_eq!(piece.len(), 8);
        }
        assert!((plan_imbalance(&records, &plan) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic() {
        let records = recs(&[7, 3, 3, 9, 1, 1, 4]);
        let a = plan_split(&records, 3).unwrap();
        let b = plan_split(&records, 3).unwrap();
        assert_eq!(a, b);
    }
}
