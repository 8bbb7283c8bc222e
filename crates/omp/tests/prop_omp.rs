//! Property-based tests for the scheduling substrate.

use omp::makespan::simulate_loop;
use omp::schedule::{chunk_sequence, chunked_round_robin, Schedule};
use proptest::prelude::*;

fn any_schedule() -> impl Strategy<Value = Schedule> {
    prop_oneof![
        Just(Schedule::Static { chunk: None }),
        (1usize..20).prop_map(|c| Schedule::Static { chunk: Some(c) }),
        (1usize..20).prop_map(|c| Schedule::Dynamic { chunk: c }),
        (1usize..20).prop_map(|c| Schedule::Guided { min_chunk: c }),
    ]
}

proptest! {
    #[test]
    fn chunks_partition_iterations(n in 0usize..500, threads in 1usize..32, s in any_schedule()) {
        let chunks = chunk_sequence(n, threads, s);
        let mut covered = vec![0u8; n];
        for c in &chunks {
            prop_assert!(c.start < c.end || n == 0);
            prop_assert!(c.end <= n);
            for seen in &mut covered[c.start..c.end] {
                *seen += 1;
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1));
        // Chunks are emitted in increasing order.
        for w in chunks.windows(2) {
            prop_assert!(w[0].end <= w[1].start);
        }
    }

    #[test]
    fn chunked_rr_partitions(n in 0usize..500, ranks in 1usize..16, chunk in 1usize..40) {
        let per_rank = chunked_round_robin(n, ranks, chunk);
        prop_assert_eq!(per_rank.len(), ranks);
        let mut covered = vec![0u8; n];
        for chunks in &per_rank {
            for c in chunks {
                for seen in &mut covered[c.start..c.end] {
                    *seen += 1;
                }
            }
        }
        prop_assert!(covered.iter().all(|&c| c == 1));
    }

    #[test]
    fn makespan_bounds_hold(
        costs in proptest::collection::vec(0.0f64..10.0, 0..200),
        threads in 1usize..32,
        s in any_schedule(),
    ) {
        let sim = simulate_loop(&costs, threads, s);
        let serial: f64 = costs.iter().sum();
        let max_item = costs.iter().cloned().fold(0.0, f64::max);
        prop_assert!(sim.makespan <= serial + 1e-9);
        prop_assert!(sim.makespan + 1e-9 >= max_item);
        prop_assert!(sim.makespan + 1e-9 >= serial / threads as f64);
        let busy_total: f64 = sim.thread_busy.iter().sum();
        prop_assert!((busy_total - serial).abs() < 1e-6 * serial.max(1.0));
    }

    #[test]
    fn more_threads_never_slower_dynamic(
        costs in proptest::collection::vec(0.0f64..10.0, 1..100),
        threads in 1usize..16,
    ) {
        let a = simulate_loop(&costs, threads, Schedule::Dynamic { chunk: 1 });
        let b = simulate_loop(&costs, threads + 1, Schedule::Dynamic { chunk: 1 });
        // Greedy list scheduling with chunk 1 is monotone in thread count.
        prop_assert!(b.makespan <= a.makespan + 1e-9);
    }
}
