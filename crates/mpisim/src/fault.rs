//! Deterministic fault injection for the simulated cluster.
//!
//! Real runs of the paper's pipeline occupy up to 192 nodes for hours;
//! at that scale dropped messages, slow links and outright node failures
//! are routine, and extreme-scale assemblers treat them as first-class
//! inputs. A [`FaultPlan`] makes those perturbations *reproducible*: it is
//! seeded, every rank derives an independent RNG stream from
//! `(seed, rank)`, and faults are decided per **operation index** — the
//! count of communication calls the rank has issued — which is a
//! deterministic function of the rank program alone. The same plan against
//! the same program therefore injects byte-for-byte the same faults on
//! every run, regardless of thread scheduling.
//!
//! Three fault kinds are modeled:
//!
//! * **delays** — extra virtual seconds charged to the rank's clock before
//!   the operation (a congested link, a slow NIC). Recorded as `mpi.delay`
//!   spans, `cat:"fault"`.
//! * **drops with retry** — the message is lost and retransmitted: each
//!   failed attempt charges a detection timeout plus exponential backoff
//!   ([`crate::NetModel::retry_cost`]) to the virtual clock, bounded by
//!   [`FaultPlan::max_retries`]. Recorded as `mpi.retry` spans and counted
//!   in [`crate::CommStats::retries`]. Because the payload is eventually
//!   delivered unchanged, drops perturb *time only* — the golden invariant
//!   the chaos tests pin.
//! * **crashes** — at a chosen `(rank, op)` the rank dies. The cluster
//!   aborts (peers blocked in collectives unwind instead of deadlocking)
//!   and the crash is reported in the rank's
//!   [`crate::cluster::RankOutput`]. Crash points fire **once** per plan
//!   instance, so re-running the same plan replays the rank deterministically
//!   to completion — the substrate of stage-level checkpoint/resume.
//!
//! # Examples
//!
//! ```
//! use mpisim::fault::FaultPlan;
//! use mpisim::{run_cluster_faulty, NetModel};
//! use std::sync::Arc;
//!
//! // Drops and delays never change what a collective returns.
//! let plan = Arc::new(FaultPlan::new(7).with_drops(0.5, 3).with_delays(0.5, 1e-3));
//! let outs = run_cluster_faulty(4, NetModel::ideal(), Arc::clone(&plan), |comm| {
//!     comm.allgatherv(&[comm.rank() as u8])
//! });
//! for o in &outs {
//!     let parts = o.value.as_ref().expect("no crashes in this plan");
//!     assert_eq!(parts.len(), 4);
//! }
//! ```

use std::sync::atomic::{AtomicBool, Ordering};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A rank crash scheduled at a communication-operation index.
#[derive(Debug)]
pub struct CrashPoint {
    /// Rank that dies.
    pub rank: usize,
    /// Zero-based index of the communication operation at which it dies
    /// (the op is never started).
    pub op: u64,
    fired: AtomicBool,
}

impl CrashPoint {
    /// A crash of `rank` at its `op`-th communication call.
    pub fn new(rank: usize, op: u64) -> Self {
        CrashPoint {
            rank,
            op,
            fired: AtomicBool::new(false),
        }
    }

    /// True once the crash has been injected (crash points are one-shot).
    pub fn has_fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }
}

/// A seeded, deterministic fault-injection schedule for one cluster run
/// (or a sequence of replays — crash points persist their fired state
/// across runs sharing the same plan instance).
#[derive(Debug)]
pub struct FaultPlan {
    /// Base seed; rank `r` draws from a stream derived from `(seed, r)`.
    pub seed: u64,
    /// Per-operation probability of an injected delay.
    pub delay_prob: f64,
    /// Maximum injected delay in virtual seconds (uniform in `(0, max]`).
    pub max_delay: f64,
    /// Per-attempt probability that the operation's message is dropped.
    pub drop_prob: f64,
    /// Upper bound on retransmissions per operation: however unlucky the
    /// stream, the payload is delivered after at most this many retries —
    /// the "eventually delivers" guarantee the chaos invariant relies on.
    pub max_retries: u32,
    crashes: Vec<CrashPoint>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            delay_prob: 0.0,
            max_delay: 0.0,
            drop_prob: 0.0,
            max_retries: 0,
            crashes: Vec::new(),
        }
    }

    /// A plan that injects nothing (alias for [`FaultPlan::new`]).
    pub fn none() -> Self {
        FaultPlan::new(0)
    }

    /// Enable message drops: each communication operation independently
    /// loses its payload with probability `prob` per attempt, retried at
    /// most `max_retries` times before succeeding unconditionally.
    pub fn with_drops(mut self, prob: f64, max_retries: u32) -> Self {
        self.drop_prob = prob.clamp(0.0, 1.0);
        self.max_retries = max_retries;
        self
    }

    /// Enable delays: each operation is preceded by an extra virtual-time
    /// charge uniform in `(0, max_delay]` with probability `prob`.
    pub fn with_delays(mut self, prob: f64, max_delay: f64) -> Self {
        self.delay_prob = prob.clamp(0.0, 1.0);
        self.max_delay = max_delay.max(0.0);
        self
    }

    /// Schedule a one-shot crash of `rank` at its `op`-th communication
    /// operation.
    pub fn with_crash(mut self, rank: usize, op: u64) -> Self {
        self.crashes.push(CrashPoint::new(rank, op));
        self
    }

    /// The scheduled crash points.
    pub fn crashes(&self) -> &[CrashPoint] {
        &self.crashes
    }

    /// True if any fault kind can fire.
    pub fn is_active(&self) -> bool {
        self.delay_prob > 0.0 || self.drop_prob > 0.0 || !self.crashes.is_empty()
    }

    /// Atomically claim the crash scheduled for `(rank, op)`, if any.
    /// Returns true exactly once per matching crash point.
    pub(crate) fn claim_crash(&self, rank: usize, op: u64) -> bool {
        self.crashes.iter().any(|c| {
            c.rank == rank
                && c.op == op
                && c.fired
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
        })
    }

    /// The per-rank decision stream: independent of every other rank's,
    /// deterministic in `(seed, rank)`.
    pub(crate) fn stream(&self, rank: usize) -> StdRng {
        // Decorrelate per-rank streams with a golden-ratio hash of the rank.
        StdRng::seed_from_u64(self.seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// What the plan decided for one communication operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OpFaults {
    /// Operation index this decision applies to.
    pub op: u64,
    /// Injected delay in virtual seconds (0 = none).
    pub delay: f64,
    /// Number of failed delivery attempts before the one that succeeds.
    pub retries: u32,
}

/// A rank's live view of the plan: its RNG stream plus its operation
/// counter. Owned by the rank's `Comm`.
#[derive(Debug)]
pub(crate) struct FaultState {
    pub plan: std::sync::Arc<FaultPlan>,
    rng: StdRng,
    rank: usize,
    next_op: u64,
}

impl FaultState {
    pub fn new(plan: std::sync::Arc<FaultPlan>, rank: usize) -> Self {
        let rng = plan.stream(rank);
        FaultState {
            plan,
            rng,
            rank,
            next_op: 0,
        }
    }

    /// Claim the rank's scheduled, unfired crash at the current op, if
    /// there is one (one-shot across the plan). Consumes no RNG draws and
    /// does not advance the op counter.
    pub fn claim_crash(&self) -> Option<u64> {
        let claimed = self.plan.claim_crash(self.rank, self.next_op);
        claimed.then_some(self.next_op)
    }

    /// Decide this operation's delay and retry count, advancing the op
    /// counter and the RNG stream. The draw sequence per op is fixed
    /// (delay decision, optional magnitude, then one drop decision per
    /// attempt until delivery or the retry bound), so the stream stays
    /// aligned with the op sequence whatever the probabilities are.
    pub fn next_op(&mut self) -> OpFaults {
        let op = self.next_op;
        self.next_op += 1;
        let mut delay = 0.0;
        if self.plan.delay_prob > 0.0 && self.rng.random::<f64>() < self.plan.delay_prob {
            delay = self.rng.random_range(0.0..=1.0) * self.plan.max_delay;
        }
        let mut retries = 0u32;
        if self.plan.drop_prob > 0.0 {
            while retries < self.plan.max_retries && self.rng.random::<f64>() < self.plan.drop_prob
            {
                retries += 1;
            }
        }
        OpFaults { op, delay, retries }
    }
}

/// Panic payload of a rank killed by its fault plan. Caught by
/// [`crate::run_cluster_faulty`] and reported as
/// [`crate::cluster::RankState::Crashed`].
#[derive(Debug, Clone, Copy)]
pub struct RankCrash {
    /// The rank that died.
    pub rank: usize,
    /// The operation index at which it died.
    pub op: u64,
}

/// Panic payload of a rank that unwound because a peer crashed (it would
/// otherwise block forever in a collective). Reported as
/// [`crate::cluster::RankState::Aborted`].
#[derive(Debug, Clone, Copy)]
pub struct PeerAborted;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_rank_decorrelated() {
        let plan = FaultPlan::new(42).with_drops(0.5, 4).with_delays(0.5, 1.0);
        let plan = std::sync::Arc::new(plan);
        let mut a = FaultState::new(std::sync::Arc::clone(&plan), 0);
        let mut b = FaultState::new(std::sync::Arc::clone(&plan), 0);
        let mut c = FaultState::new(std::sync::Arc::clone(&plan), 1);
        let da: Vec<OpFaults> = (0..64).map(|_| a.next_op()).collect();
        let db: Vec<OpFaults> = (0..64).map(|_| b.next_op()).collect();
        let dc: Vec<OpFaults> = (0..64).map(|_| c.next_op()).collect();
        assert_eq!(da, db, "same (seed, rank) => same decisions");
        assert_ne!(da, dc, "different ranks draw independent streams");
    }

    #[test]
    fn retries_are_bounded() {
        let plan = std::sync::Arc::new(FaultPlan::new(1).with_drops(1.0, 3));
        let mut st = FaultState::new(std::sync::Arc::clone(&plan), 0);
        for _ in 0..32 {
            let d = st.next_op();
            assert_eq!(d.retries, 3, "prob 1.0 always hits the retry bound");
        }
    }

    #[test]
    fn no_faults_means_no_decisions() {
        let plan = std::sync::Arc::new(FaultPlan::new(9));
        let mut st = FaultState::new(plan, 2);
        for op in 0..8 {
            let d = st.next_op();
            assert_eq!((d.op, d.delay, d.retries), (op, 0.0, 0));
        }
    }

    #[test]
    fn crash_points_fire_once() {
        let plan = FaultPlan::new(5).with_crash(1, 3);
        assert!(!plan.claim_crash(1, 2));
        assert!(!plan.claim_crash(0, 3));
        assert!(plan.claim_crash(1, 3));
        assert!(!plan.claim_crash(1, 3), "one-shot");
        assert!(plan.crashes()[0].has_fired());
    }

    #[test]
    fn delay_magnitude_within_bounds() {
        let plan = std::sync::Arc::new(FaultPlan::new(3).with_delays(1.0, 0.25));
        let mut st = FaultState::new(plan, 0);
        for _ in 0..256 {
            let d = st.next_op();
            assert!(d.delay >= 0.0 && d.delay <= 0.25);
        }
    }
}
