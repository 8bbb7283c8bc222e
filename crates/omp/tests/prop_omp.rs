//! Property-based tests for the scheduling substrate.

use omp::makespan::{simulate_loop, simulate_ordered, LoopSim};
use omp::schedule::{chunk_sequence, chunked_round_robin, Schedule};
use proptest::prelude::*;

fn any_schedule() -> impl Strategy<Value = Schedule> {
    (1usize..20).prop_map(|c| Schedule::Dynamic { chunk: c })
}

proptest! {
    #[test]
    fn chunks_partition_iterations(n in 0usize..500, chunk in 0usize..20) {
        let chunks = chunk_sequence(n, chunk);
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

/// What an ordered-loop replay did, on the modelled clock.
#[derive(Default)]
struct Log {
    /// Each stay in the lock: start and end.
    stays: Vec<(f64, f64)>,
    /// Each commit in call order: the task and when it ended.
    commits: Vec<(usize, f64)>,
    /// When each task's work started.
    starts: Vec<f64>,
}

/// `costs.len()` tasks in an ordered loop on `threads` workers, a take
/// costing `take` and a commit `commit`.
fn replay_ordered(
    costs: &[f64],
    threads: usize,
    window: usize,
    (take, commit): (f64, f64),
) -> (LoopSim, Log) {
    let mut log = Log::default();
    let mut taken = 0;
    let sim = {
        let log = std::cell::RefCell::new(&mut log);
        let stay = |commits: std::ops::Range<usize>, claim: bool, t: f64| {
            let mut log = log.borrow_mut();
            let mut end = t;
            for i in commits {
                end += commit;
                log.commits.push((i, end));
            }
            let claimed = claim && taken < costs.len();
            taken += usize::from(claimed);
            end += if claim { take } else { 0.0 };
            log.stays.push((t, end));
            (claimed, end - t)
        };
        let work = |i: usize, t: f64| {
            log.borrow_mut().starts.push(t);
            costs[i]
        };
        simulate_ordered(threads, window, stay, work)
    };
    (sim, log)
}

proptest! {
    #[test]
    fn free_lock_and_a_wide_window_is_the_dynamic_loop(
        costs in proptest::collection::vec(0.0f64..10.0, 0..100),
        threads in 1usize..17,
        extra in 0usize..8,
    ) {
        let (sim, _) = replay_ordered(&costs, threads, costs.len() + extra, (0.0, 0.0));
        let dynamic = simulate_loop(&costs, threads, Schedule::Dynamic { chunk: 1 });
        prop_assert_eq!(sim.makespan, dynamic.makespan);
        prop_assert_eq!(&sim.thread_busy, &dynamic.thread_busy);
        prop_assert_eq!(sim.chunks, costs.len());
    }

    #[test]
    fn a_window_of_one_is_the_serial_loop(
        costs in proptest::collection::vec(0.0f64..10.0, 0..60),
        threads in 1usize..9,
        take in 0.0f64..2.0,
        commit in 0.0f64..2.0,
    ) {
        let (sim, _) = replay_ordered(&costs, threads, 1, (take, commit));
        let n = costs.len() as f64;
        let serial = (n + 1.0) * take + costs.iter().sum::<f64>() + n * commit;
        prop_assert!((sim.makespan - serial).abs() <= 1e-9 * serial.max(1.0));
    }

    #[test]
    fn ordered_replay_keeps_the_contract(
        costs in proptest::collection::vec(0.0f64..10.0, 0..120),
        threads in 1usize..17,
        window in 1usize..40,
        take in 0.0f64..1.0,
        commit in 0.0f64..1.0,
    ) {
        let (sim, log) = replay_ordered(&costs, threads, window, (take, commit));
        let eps = 1e-9;
        // Every task committed once, in index order.
        let order: Vec<usize> = log.commits.iter().map(|&(i, _)| i).collect();
        prop_assert_eq!(order, (0..costs.len()).collect::<Vec<_>>());
        // One worker in the lock at a time.
        for pair in log.stays.windows(2) {
            prop_assert!(pair[1].0 + eps >= pair[0].1, "stays overlap: {:?}", pair);
        }
        let held: f64 = log.stays.iter().map(|(s, e)| e - s).sum();
        prop_assert!((sim.lock_time - held).abs() <= eps * held.max(1.0));
        // Task i is taken only once task i − window has committed.
        for (i, &start) in log.starts.iter().enumerate().skip(window) {
            prop_assert!(start + eps >= log.commits[i - window].1);
        }
        // Each lane's busy and idle spans tile the makespan.
        let tracer = obs::Tracer::new();
        sim.record_spans(&tracer, 0.0, 0, "ord");
        let trace = tracer.take();
        for (t, &busy) in sim.thread_busy.iter().enumerate() {
            let spans = trace.span_sum(t as u32, "ord.busy") + trace.span_sum(t as u32, "ord.idle");
            prop_assert!(busy <= sim.makespan + eps);
            prop_assert!((spans - sim.makespan).abs() <= eps * sim.makespan.max(1.0));
        }
        let work: f64 = costs.iter().sum();
        prop_assert!((sim.serial_time - (work + held)).abs() <= eps * sim.serial_time.max(1.0));
    }
}
