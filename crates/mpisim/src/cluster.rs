//! Cluster driver: run a rank program on `P` ranks — rank 0 on the caller's
//! thread, the rest as threads of their own — optionally under a
//! deterministic fault plan.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::barrier::SimBarrier;
use crate::comm::{Comm, Message, Shared};
use crate::fault::{FaultPlan, FaultState, PeerAborted, RankCrash};
use crate::netmodel::NetModel;
use crate::stats::CommStats;

/// How a rank's execution ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankState {
    /// The rank program ran to completion.
    Completed,
    /// The rank was killed by its fault plan at communication operation
    /// `op` (see [`crate::fault::FaultPlan::with_crash`]).
    Crashed {
        /// Operation index at which the rank died.
        op: u64,
    },
    /// The rank unwound mid-run because a peer crashed (it would otherwise
    /// have blocked forever in a collective).
    Aborted,
}

impl RankState {
    /// True for [`RankState::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, RankState::Completed)
    }
}

/// What one rank produced: its return value, final virtual clock and
/// communication counters. [`run_cluster`] guarantees
/// [`RankState::Completed`]; [`run_cluster_faulty`] may report crashed or
/// aborted ranks, whose `value` is `None` but whose partial clock, stats
/// and trace (including the `fault.crash` marker span) are still salvaged.
#[derive(Debug, Clone)]
pub struct RankOutput<T> {
    /// The rank id.
    pub rank: usize,
    /// The rank program's return value.
    pub value: T,
    /// Final virtual time of the rank, seconds.
    pub time: f64,
    /// Communication counters.
    pub stats: CommStats,
    /// Spans recorded by the rank (collectives, named measured sections,
    /// injected faults), on track `rank`, in virtual time.
    pub trace: obs::Trace,
    /// How the rank ended.
    pub state: RankState,
}

/// Install (once, process-wide) a panic hook that silences the panics used
/// as unwind vehicles for simulated faults — a [`RankCrash`] is an injected,
/// *expected* event reported via [`RankState`], not a bug worth a backtrace.
/// All other panics go to the previous hook untouched.
fn install_quiet_fault_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if p.is::<RankCrash>() || p.is::<PeerAborted>() {
                return;
            }
            prev(info);
        }));
    });
}

fn run_cluster_inner<T, F>(
    ranks: usize,
    net: NetModel,
    plan: Option<Arc<FaultPlan>>,
    f: F,
) -> Vec<RankOutput<Option<T>>>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    assert!(ranks > 0, "need at least one rank");
    if plan.is_some() {
        install_quiet_fault_hook();
    }
    let mut senders = Vec::with_capacity(ranks);
    let mut receivers = Vec::with_capacity(ranks);
    for _ in 0..ranks {
        let (tx, rx) = crossbeam::channel::unbounded::<Message>();
        senders.push(tx);
        receivers.push(rx);
    }
    let shared = Arc::new(Shared {
        size: ranks,
        barrier: SimBarrier::new(ranks),
        slots: (0..ranks).map(|_| Mutex::new(Vec::new())).collect(),
        times: (0..ranks).map(|_| Mutex::new(0.0)).collect(),
        mail: senders,
        fail_reports: (0..ranks).map(|_| Mutex::new(None)).collect(),
    });

    let genuine_panic = std::sync::atomic::AtomicBool::new(false);
    let run_rank = |rank: usize, inbox| {
        let fault = plan
            .clone()
            .filter(|p| p.is_active())
            .map(|p| FaultState::new(p, rank));
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut comm = Comm::new(rank, Arc::clone(&shared), inbox, net, fault);
            let value = f(&mut comm);
            RankOutput {
                rank,
                value: Some(value),
                time: comm.clock.now(),
                trace: comm.obs.take(),
                stats: comm.stats,
                state: RankState::Completed,
            }
        }));
        run.unwrap_or_else(|payload| {
            let state = if let Some(c) = payload.downcast_ref::<RankCrash>() {
                RankState::Crashed { op: c.op }
            } else if payload.is::<PeerAborted>() {
                RankState::Aborted
            } else {
                // A real bug in the rank program: make sure peers blocked
                // in collectives unwind, then re-raise after joins.
                genuine_panic.store(true, std::sync::atomic::Ordering::SeqCst);
                shared.barrier.abort();
                RankState::Aborted
            };
            let report = shared.fail_reports[rank].lock().take();
            let (time, stats, trace) = report
                .map(|r| (r.time, r.stats, r.trace))
                .unwrap_or_default();
            RankOutput {
                rank,
                value: None,
                time,
                stats,
                trace,
                state,
            }
        })
    };

    // Rank 0 runs on the caller's thread, every other rank on its own: a
    // one-rank cluster spawns nothing and allocates where its caller does.
    let mut inboxes = receivers.into_iter().enumerate();
    let (_, inbox0) = inboxes.next().expect("ranks > 0");
    let outputs = std::thread::scope(|scope| {
        let run_rank = &run_rank;
        let peers: Vec<_> = inboxes
            .map(|(rank, inbox)| {
                std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .stack_size(4 << 20)
                    .spawn_scoped(scope, move || run_rank(rank, inbox))
                    .expect("failed to spawn rank thread")
            })
            .collect();
        let mut outputs = vec![run_rank(0, inbox0)];
        let joined = peers.into_iter().map(|h| h.join());
        outputs.extend(joined.map(|o| o.expect("a rank catches its own panics")));
        outputs
    });

    if genuine_panic.load(std::sync::atomic::Ordering::SeqCst) {
        // Preserve the historical contract: a panicking rank program
        // aborts the whole cluster run loudly.
        panic!("a simulated rank panicked; aborting cluster run");
    }
    outputs
}

/// Run `f` on `ranks` simulated MPI ranks and collect every rank's output,
/// ordered by rank.
///
/// Rank 0 executes on the calling thread and every other rank on an OS
/// thread of its own, each with a private [`Comm`]. The closure receives
/// the communicator and returns the rank's result. Panics
/// in any rank abort the whole cluster (a panicking rank would deadlock
/// peers blocked in collectives, so we propagate instead). No faults are
/// injected; see [`run_cluster_faulty`] for that.
pub fn run_cluster<T, F>(ranks: usize, net: NetModel, f: F) -> Vec<RankOutput<T>>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    unwrap_clean(run_cluster_inner(ranks, net, None, f))
        .expect("fault-free cluster ranks completed")
}

/// Run `f` on `ranks` simulated MPI ranks under a deterministic
/// [`FaultPlan`]. Delays and dropped-message retries are charged to the
/// virtual clocks (and recorded as `cat:"fault"` spans) without changing
/// any payload; a scheduled crash kills its rank at the chosen operation
/// and unwinds the surviving ranks.
///
/// Crashed ranks report `value: None` with
/// [`RankState::Crashed`]; survivors that had to unwind report
/// [`RankState::Aborted`]. Because crash points are one-shot on the shared
/// plan instance and every rank's fault stream restarts identically,
/// re-invoking with the *same* `plan` deterministically re-executes the
/// crashed rank to completion — the replay primitive stage-level
/// checkpoint/resume builds on.
pub fn run_cluster_faulty<T, F>(
    ranks: usize,
    net: NetModel,
    plan: Arc<FaultPlan>,
    f: F,
) -> Vec<RankOutput<Option<T>>>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    run_cluster_inner(ranks, net, Some(plan), f)
}

/// Ranks that were killed by the fault plan in a [`run_cluster_faulty`]
/// result.
pub fn crashed_ranks<T>(outputs: &[RankOutput<Option<T>>]) -> Vec<usize> {
    outputs
        .iter()
        .filter(|o| matches!(o.state, RankState::Crashed { .. }))
        .map(|o| o.rank)
        .collect()
}

/// Unwrap a [`run_cluster_faulty`] result in which every rank completed;
/// `None` if any rank crashed or aborted.
pub fn unwrap_clean<T>(outputs: Vec<RankOutput<Option<T>>>) -> Option<Vec<RankOutput<T>>> {
    outputs
        .into_iter()
        .map(|o| {
            o.value.map(|value| RankOutput {
                rank: o.rank,
                value,
                time: o.time,
                stats: o.stats,
                trace: o.trace,
                state: o.state,
            })
        })
        .collect()
}

/// Convenience: the maximum virtual time across ranks — the cluster's
/// elapsed time for the run (what the paper plots).
pub fn cluster_time<T>(outputs: &[RankOutput<T>]) -> f64 {
    outputs.iter().map(|o| o.time).fold(0.0, f64::max)
}

/// Merge every rank's recorded spans into one [`obs::Trace`] (per-rank
/// tracks already equal rank ids, so no shifting is needed).
pub fn merge_traces<T>(outputs: &[RankOutput<T>]) -> obs::Trace {
    let mut merged = obs::Trace::default();
    for o in outputs {
        merged.merge_shifted(o.trace.clone(), 0.0, 0);
    }
    merged
}

/// Convenience: (min, max) rank times — the paper's load-imbalance bars.
pub fn rank_time_spread<T>(outputs: &[RankOutput<T>]) -> (f64, f64) {
    let min = outputs.iter().map(|o| o.time).fold(f64::INFINITY, f64::min);
    let max = cluster_time(outputs);
    (min, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_runs() {
        let out = run_cluster(1, NetModel::ideal(), |comm| {
            assert_eq!(comm.rank(), 0);
            assert_eq!(comm.size(), 1);
            comm.barrier();
            comm.rank() + 100
        });
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, 100);
        assert!(out[0].state.is_completed());
    }

    #[test]
    fn ranks_see_distinct_ids() {
        let out = run_cluster(8, NetModel::ideal(), |comm| comm.rank());
        let ids: Vec<usize> = out.iter().map(|o| o.value).collect();
        assert_eq!(ids, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn allgatherv_collects_everything() {
        let out = run_cluster(4, NetModel::ideal(), |comm| {
            let mine = vec![comm.rank() as u8; comm.rank() + 1];
            comm.allgatherv(&mine)
        });
        for o in &out {
            assert_eq!(o.value.len(), 4);
            for (r, part) in o.value.iter().enumerate() {
                assert_eq!(part, &vec![r as u8; r + 1]);
            }
        }
    }

    #[test]
    fn repeated_collectives_are_safe() {
        let out = run_cluster(3, NetModel::ideal(), |comm| {
            let mut acc = 0u64;
            for round in 0..10u64 {
                acc += comm.allreduce_sum_u64(round + comm.rank() as u64);
            }
            acc
        });
        // Each round: sum over ranks of (round + rank) = 3*round + 3.
        let expect: u64 = (0..10).map(|r| 3 * r + 3).sum();
        for o in &out {
            assert_eq!(o.value, expect);
        }
    }

    #[test]
    fn bcast_from_nonzero_root() {
        let out = run_cluster(4, NetModel::ideal(), |comm| {
            let data = if comm.rank() == 2 {
                b"seed".to_vec()
            } else {
                vec![]
            };
            comm.bcast(2, &data)
        });
        for o in &out {
            assert_eq!(o.value, b"seed");
        }
    }

    #[test]
    fn gatherv_only_root_gets_data() {
        let out = run_cluster(4, NetModel::ideal(), |comm| {
            let mine = vec![comm.rank() as u8];
            comm.gatherv(0, &mine)
        });
        assert!(out[0].value.is_some());
        assert_eq!(out[0].value.as_ref().unwrap().len(), 4);
        for o in &out[1..] {
            assert!(o.value.is_none());
        }
    }

    #[test]
    fn p2p_ring() {
        let out = run_cluster(5, NetModel::ideal(), |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 7, vec![comm.rank() as u8]);
            let got = comm.recv(prev, 7);
            got[0] as usize
        });
        for o in &out {
            assert_eq!(o.value, (o.rank + 4) % 5);
        }
    }

    #[test]
    fn p2p_tag_matching_out_of_order() {
        let out = run_cluster(2, NetModel::ideal(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, vec![b'a']);
                comm.send(1, 2, vec![b'b']);
                0
            } else {
                // Receive tag 2 first even though tag 1 arrived first.
                let b = comm.recv(0, 2);
                let a = comm.recv(0, 1);
                assert_eq!((a[0], b[0]), (b'a', b'b'));
                1
            }
        });
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn virtual_time_synchronizes_at_barrier() {
        let out = run_cluster(4, NetModel::ideal(), |comm| {
            comm.charge(comm.rank() as f64); // rank r works r seconds
            comm.barrier();
            comm.clock.now()
        });
        for o in &out {
            assert!(
                (o.value - 3.0).abs() < 1e-12,
                "all ranks leave at max entry time"
            );
        }
    }

    #[test]
    fn allgatherv_costs_scale_with_bytes() {
        let big = run_cluster(4, NetModel::idataplex(), |comm| {
            let data = vec![0u8; 1 << 20];
            comm.allgatherv(&data);
            comm.clock.now()
        });
        let small = run_cluster(4, NetModel::idataplex(), |comm| {
            let data = vec![0u8; 16];
            comm.allgatherv(&data);
            comm.clock.now()
        });
        assert!(big[0].value > small[0].value);
    }

    #[test]
    fn stats_are_counted() {
        let out = run_cluster(2, NetModel::ideal(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, vec![1, 2, 3]);
            } else {
                comm.recv(0, 0);
            }
            comm.barrier();
            comm.allgatherv(&[9]);
        });
        assert_eq!(out[0].stats.p2p_sends, 1);
        assert_eq!(out[1].stats.p2p_recvs, 1);
        assert_eq!(out[1].stats.bytes_received, 3 + 1);
        assert!(out[0].stats.collectives >= 2);
    }

    #[test]
    fn spread_helpers() {
        let out = run_cluster(3, NetModel::ideal(), |comm| {
            comm.charge((comm.rank() + 1) as f64);
            comm.rank()
        });
        let (min, max) = rank_time_spread(&out);
        assert!((min - 1.0).abs() < 1e-12);
        assert!((max - 3.0).abs() < 1e-12);
        assert!((cluster_time(&out) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn collectives_record_spans() {
        let out = run_cluster(2, NetModel::idataplex(), |comm| {
            comm.charge(1.0);
            comm.allgatherv(&[0u8; 256]);
            comm.barrier();
            comm.charge_costed("compute", "work", &[], || ((), 0.5));
        });
        let trace = merge_traces(&out);
        for rank in 0..2u32 {
            let names: Vec<&str> = trace.on_track(rank).map(|s| s.name.as_str()).collect();
            assert_eq!(names, vec!["mpi.allgatherv", "mpi.barrier", "work"]);
        }
        let ag = trace.with_cat("comm")[0];
        assert_eq!(ag.arg("bytes_sent"), Some(256.0));
        assert!(ag.start >= 1.0 && ag.end > ag.start);
        assert_eq!(
            trace.track_names.get(&1).map(String::as_str),
            Some("rank 1")
        );
    }

    #[test]
    fn many_ranks_smoke() {
        let out = run_cluster(64, NetModel::idataplex(), |comm| {
            let total = comm.allreduce_sum_u64(1);
            comm.barrier();
            total
        });
        assert!(out.iter().all(|o| o.value == 64));
    }

    // ---- fault injection ------------------------------------------------

    #[test]
    fn drops_and_delays_change_time_not_payloads() {
        let clean = run_cluster(4, NetModel::idataplex(), |comm| {
            comm.allgatherv(&[comm.rank() as u8; 64])
        });
        let plan = Arc::new(FaultPlan::new(11).with_drops(0.8, 4).with_delays(0.8, 1e-2));
        let faulty = run_cluster_faulty(4, NetModel::idataplex(), plan, |comm| {
            comm.allgatherv(&[comm.rank() as u8; 64])
        });
        let total_faults: u64 = faulty
            .iter()
            .map(|o| o.stats.retries + o.stats.delays)
            .sum();
        assert!(total_faults > 0, "plan with prob 0.8 injected nothing");
        for (c, f) in clean.iter().zip(&faulty) {
            assert!(f.state.is_completed());
            assert_eq!(f.value.as_ref().unwrap(), &c.value, "payloads must match");
            assert!(f.time >= c.time, "faults only ever add virtual time");
        }
    }

    #[test]
    fn retries_surface_as_spans() {
        let plan = Arc::new(FaultPlan::new(3).with_drops(1.0, 2));
        let out = run_cluster_faulty(2, NetModel::ideal(), plan, |comm| {
            comm.barrier();
            comm.allgatherv(&[comm.rank() as u8])
        });
        for o in &out {
            let retries: Vec<_> = o
                .trace
                .spans
                .iter()
                .filter(|s| s.name == "mpi.retry")
                .collect();
            assert_eq!(retries.len() as u64, o.stats.retries);
            assert_eq!(retries.len(), 4, "2 ops x 2 forced retries");
            assert!(retries.iter().all(|s| s.cat == "fault"));
            assert_eq!(retries[0].arg("attempt"), Some(1.0));
            // Even an ideal (zero-latency) net charges the RTO for drops.
            assert!(o.time > 0.0);
        }
    }

    #[test]
    fn same_plan_seed_is_fully_deterministic() {
        let run = || {
            let plan = Arc::new(FaultPlan::new(77).with_drops(0.5, 3).with_delays(0.5, 1e-3));
            run_cluster_faulty(4, NetModel::idataplex(), plan, |comm| {
                let pooled = comm.allgatherv(&[comm.rank() as u8; 32]);
                comm.barrier();
                (pooled, comm.clock.now())
            })
        };
        let a = run();
        let b = run();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.value, y.value);
            assert_eq!(x.stats, y.stats);
            assert_eq!(x.time, y.time, "virtual times replay exactly");
        }
    }

    #[test]
    fn crash_is_reported_and_peers_unwind() {
        let plan = Arc::new(FaultPlan::new(0).with_crash(1, 2));
        let outs = run_cluster_faulty(3, NetModel::ideal(), Arc::clone(&plan), |comm| {
            for _ in 0..5 {
                comm.allgatherv(&[comm.rank() as u8]);
            }
            comm.rank()
        });
        assert_eq!(outs[1].state, RankState::Crashed { op: 2 });
        assert!(outs[1].value.is_none());
        assert!(
            outs[1].trace.spans.iter().any(|s| s.name == "fault.crash"),
            "crash marker span is salvaged from the dead rank"
        );
        assert_eq!(crashed_ranks(&outs), vec![1]);
        for o in [&outs[0], &outs[2]] {
            assert!(
                !o.state.is_completed(),
                "peers blocked on the crashed rank must unwind, not hang"
            );
        }
        assert!(unwrap_clean(outs).is_none());

        // Crash points are one-shot on the plan: the replay runs clean and
        // reproduces the fault-free payloads.
        let replay = run_cluster_faulty(3, NetModel::ideal(), plan, |comm| {
            for _ in 0..5 {
                comm.allgatherv(&[comm.rank() as u8]);
            }
            comm.rank()
        });
        let replay = unwrap_clean(replay).expect("replay is clean");
        let clean = run_cluster(3, NetModel::ideal(), |comm| {
            for _ in 0..5 {
                comm.allgatherv(&[comm.rank() as u8]);
            }
            comm.rank()
        });
        for (r, c) in replay.iter().zip(&clean) {
            assert_eq!(r.value, c.value);
        }
    }

    #[test]
    fn crash_during_p2p_wait_unwinds_receiver() {
        // Rank 0 crashes before sending; rank 1 is blocked in recv and must
        // unwind once the cluster aborts instead of waiting forever.
        let plan = Arc::new(FaultPlan::new(0).with_crash(0, 0));
        let outs = run_cluster_faulty(2, NetModel::ideal(), plan, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 9, vec![42]);
            } else {
                comm.recv(0, 9);
            }
        });
        assert_eq!(outs[0].state, RankState::Crashed { op: 0 });
        assert_eq!(outs[1].state, RankState::Aborted);
    }

    #[test]
    fn inactive_plan_is_equivalent_to_fault_free() {
        let plan = Arc::new(FaultPlan::new(123));
        let faulty = run_cluster_faulty(3, NetModel::idataplex(), plan, |comm| {
            comm.allgatherv(&[comm.rank() as u8; 16])
        });
        let clean = run_cluster(3, NetModel::idataplex(), |comm| {
            comm.allgatherv(&[comm.rank() as u8; 16])
        });
        for (f, c) in faulty.iter().zip(&clean) {
            assert_eq!(f.value.as_ref().unwrap(), &c.value);
            assert_eq!(f.time, c.time, "inactive plan charges nothing");
        }
    }
}
