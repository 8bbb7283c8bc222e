//! Property tests for the fault-injection layer: over arbitrary seeds,
//! probabilities, rank counts and crash points, a plan that eventually
//! delivers never changes what the collectives return — it only moves
//! virtual time — and a crashed run replays to clean convergence.

use std::sync::Arc;

use mpisim::{run_cluster, run_cluster_faulty, Comm, FaultPlan, NetModel};
use proptest::prelude::*;

/// A rank program with four communication operations (the sum is a second
/// allgatherv), giving crash points at ops 0..=3 something to hit and
/// drop/delay streams a few draws per rank.
fn program(comm: &mut Comm) -> (Vec<Vec<u8>>, u64, Vec<u8>) {
    let mine = vec![comm.rank() as u8 + 1; comm.rank() % 4 + 1];
    let pooled = comm.allgatherv(&mine);
    let words = comm.allgatherv(&(comm.rank() as u64 + 7).to_le_bytes());
    let sum = words
        .iter()
        .map(|w| u64::from_le_bytes(w[..].try_into().expect("8-byte part")))
        .sum();
    let bc = comm.bcast(0, &mine);
    comm.barrier();
    (pooled, sum, bc)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Crash-free plans: payloads are byte-identical to the fault-free
    /// run, per-rank virtual time only ever grows, and the whole run —
    /// times, stats, payloads — is a deterministic function of the seed.
    #[test]
    fn drops_and_delays_move_time_not_payloads(
        seed in any::<u64>(),
        delay_prob in 0.0f64..1.0,
        drop_prob in 0.0f64..1.0,
        ranks in 1usize..7,
    ) {
        let clean = run_cluster(ranks, NetModel::idataplex(), program);
        let plan = || Arc::new(
            FaultPlan::new(seed).with_delays(delay_prob).with_drops(drop_prob),
        );
        let a = run_cluster_faulty(ranks, NetModel::idataplex(), plan(), program);
        let b = run_cluster_faulty(ranks, NetModel::idataplex(), plan(), program);
        prop_assert!(a.failed.is_empty());
        for ((fa, fb), cl) in a.outputs.iter().zip(&b.outputs).zip(&clean) {
            // Golden invariant: identical payloads, never-smaller clocks.
            prop_assert_eq!(&fa.value, &cl.value);
            prop_assert!(fa.time >= cl.time - 1e-12,
                "faults may only add virtual time ({} < {})", fa.time, cl.time);
            // Determinism: the same seed reproduces the run exactly.
            prop_assert_eq!(&fa.value, &fb.value);
            prop_assert_eq!(fa.time.to_bits(), fb.time.to_bits());
            prop_assert_eq!(fa.stats.retries, fb.stats.retries);
            prop_assert_eq!(fa.stats.delays, fb.stats.delays);
        }
    }

    /// An inactive plan is indistinguishable from no plan at all.
    #[test]
    fn inactive_plan_is_a_no_op(seed in any::<u64>(), ranks in 1usize..7) {
        let clean = run_cluster(ranks, NetModel::idataplex(), program);
        let run = run_cluster_faulty(
            ranks, NetModel::idataplex(), Arc::new(FaultPlan::new(seed)), program);
        prop_assert!(run.failed.is_empty());
        for (f, c) in run.outputs.iter().zip(&clean) {
            prop_assert_eq!(&f.value, &c.value);
            prop_assert_eq!(f.time.to_bits(), c.time.to_bits());
            prop_assert_eq!((f.stats.retries, f.stats.delays), (0, 0));
        }
    }

    /// Any single crash point kills exactly one rank in exactly one failed
    /// attempt (everyone else unwinds rather than deadlocking, and nobody
    /// "completes" a collective program a peer never finished), and the
    /// replay converges to the fault-free result — crash points are
    /// one-shot.
    #[test]
    fn any_crash_point_replays_to_convergence(
        seed in any::<u64>(),
        ranks in 2usize..6,
        crash_rank in 0usize..8,
        crash_op in 0u64..4,
        drop_prob in 0.0f64..0.8,
    ) {
        let crash_rank = crash_rank % ranks;
        let plan = Arc::new(
            FaultPlan::new(seed)
                .with_drops(drop_prob)
                .with_crash(crash_rank, crash_op),
        );
        let clean = run_cluster(ranks, NetModel::idataplex(), program);

        let run = run_cluster_faulty(ranks, NetModel::idataplex(), plan, program);
        prop_assert_eq!(run.failed.len(), 1);
        for o in &run.failed[0] {
            // The trailing barrier means no rank can finish while a peer
            // is dead: every rank is either the victim or unwound.
            prop_assert!(o.stats.collectives < 4, "rank {} completed", o.rank);
            let markers: Vec<f64> = o.trace.spans.iter()
                .filter(|s| s.name == "fault.crash")
                .filter_map(|s| s.arg("op"))
                .collect();
            if o.rank == crash_rank {
                prop_assert_eq!(o.stats.crashes, 1);
                prop_assert_eq!(markers, vec![crash_op as f64]);
            } else {
                prop_assert_eq!(o.stats.crashes, 0);
                prop_assert!(markers.is_empty());
            }
        }
        for (f, c) in run.outputs.iter().zip(&clean) {
            prop_assert_eq!(&f.value, &c.value);
        }
    }
}
