//! Cluster driver: run a rank program on `P` ranks — rank 0 on the caller's
//! thread, the rest as threads of their own — optionally under a
//! deterministic fault plan, replaying a crashed attempt until it runs
//! clean.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::barrier::SimBarrier;
use crate::comm::{Comm, Shared};
use crate::fault::{FaultPlan, FaultState, PeerAborted, RankCrash};
use crate::netmodel::NetModel;
use crate::stats::CommStats;

/// What one rank produced: its return value, final virtual clock,
/// communication counters and trace. A rank of a failed attempt (see
/// [`Replayed::failed`]) has no value, but its partial clock, counters and
/// trace (the `fault.crash` marker span included) are still salvaged.
#[derive(Debug, Clone, Default)]
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
}

/// What [`run_cluster_faulty`] returns: the attempt in which every rank
/// completed, and before it each failed attempt's ranks as salvaged.
#[derive(Debug, Clone)]
pub struct Replayed<T> {
    /// Every rank's output from the clean attempt, ordered by rank.
    pub outputs: Vec<RankOutput<T>>,
    /// Each failed attempt, in order, with its ranks ordered by rank.
    pub failed: Vec<Vec<RankOutput<()>>>,
}

/// Install (once, process-wide) a panic hook that silences the panics used
/// as unwind vehicles for simulated faults — a [`RankCrash`] is an injected,
/// *expected* event counted in [`CommStats::crashes`], not a bug worth a
/// backtrace. All other panics go to the previous hook untouched.
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

/// One attempt of `f` on `ranks` ranks: every rank's output if all of them
/// completed, else every rank's salvaged output. A genuine panic in a rank
/// program aborts the attempt and is re-raised once every rank has joined.
fn attempt<T, F>(
    ranks: usize,
    net: NetModel,
    plan: Option<&Arc<FaultPlan>>,
    f: &F,
) -> Result<Vec<RankOutput<T>>, Vec<RankOutput<()>>>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    assert!(ranks > 0, "need at least one rank");
    let shared = Arc::new(Shared {
        size: ranks,
        barrier: SimBarrier::new(ranks),
        slots: (0..ranks).map(|_| Mutex::new(Vec::new())).collect(),
        times: (0..ranks).map(|_| Mutex::new(0.0)).collect(),
        salvaged: (0..ranks).map(|_| Mutex::new(None)).collect(),
    });

    let genuine_panic = std::sync::atomic::AtomicBool::new(false);
    let run_rank = |rank: usize| {
        let fault = plan
            .filter(|p| p.is_active())
            .map(|p| FaultState::new(Arc::clone(p), rank));
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let mut comm = Comm::new(rank, Arc::clone(&shared), net, fault);
            let value = f(&mut comm);
            (Some(value), comm.take_output())
        }));
        run.unwrap_or_else(|payload| {
            if !payload.is::<RankCrash>() && !payload.is::<PeerAborted>() {
                // A real bug in the rank program: make sure peers blocked
                // in collectives unwind, then re-raise after joins.
                genuine_panic.store(true, std::sync::atomic::Ordering::SeqCst);
                shared.barrier.abort();
            }
            let salvaged = shared.salvaged[rank].lock().take();
            (None, salvaged.unwrap_or_default())
        })
    };

    // Rank 0 runs on the caller's thread, every other rank on its own: a
    // one-rank cluster spawns nothing and allocates where its caller does.
    let outputs = std::thread::scope(|scope| {
        let run_rank = &run_rank;
        let peers: Vec<_> = (1..ranks)
            .map(|rank| {
                std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .stack_size(4 << 20)
                    .spawn_scoped(scope, move || run_rank(rank))
                    .expect("failed to spawn rank thread")
            })
            .collect();
        let mut outputs = vec![run_rank(0)];
        let joined = peers.into_iter().map(|h| h.join());
        outputs.extend(joined.map(|o| o.expect("a rank catches its own panics")));
        outputs
    });

    if genuine_panic.load(std::sync::atomic::Ordering::SeqCst) {
        // Preserve the historical contract: a panicking rank program
        // aborts the whole cluster run loudly.
        panic!("a simulated rank panicked; aborting cluster run");
    }
    if outputs.iter().any(|(value, _)| value.is_none()) {
        return Err(outputs.into_iter().map(|(_, o)| o).collect());
    }
    let complete = |(value, o): (Option<T>, RankOutput<()>)| RankOutput {
        rank: o.rank,
        value: value.expect("every rank completed"),
        time: o.time,
        stats: o.stats,
        trace: o.trace,
    };
    Ok(outputs.into_iter().map(complete).collect())
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
    attempt(ranks, net, None, &f).expect("fault-free cluster ranks completed")
}

/// Run `f` on `ranks` simulated MPI ranks under a deterministic
/// [`FaultPlan`], replaying it until every rank completes. Delays and
/// dropped-message retries are charged to the virtual clocks (and recorded
/// as `cat:"fault"` spans) without changing any payload; a scheduled crash
/// kills its rank at the chosen operation (counted in
/// [`CommStats::crashes`]) and unwinds the surviving ranks, and the
/// attempt's salvaged outputs go to [`Replayed::failed`].
///
/// Crash points are one-shot on the shared plan and every rank's fault
/// stream restarts identically, so each failed attempt fires at least one
/// crash point and the replay after the last one runs clean: at most
/// `plan.crashes().len() + 1` attempts.
pub fn run_cluster_faulty<T, F>(
    ranks: usize,
    net: NetModel,
    plan: Arc<FaultPlan>,
    f: F,
) -> Replayed<T>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    install_quiet_fault_hook();
    let mut failed = Vec::new();
    for _ in 0..=plan.crashes().len() {
        match attempt(ranks, net, Some(&plan), &f) {
            Ok(outputs) => return Replayed { outputs, failed },
            Err(salvaged) => failed.push(salvaged),
        }
    }
    unreachable!("crash points are one-shot; a replay must eventually run clean")
}

/// Convenience: the maximum virtual time across ranks — the cluster's
/// elapsed time for the run (what the paper plots).
pub fn cluster_time<T>(outputs: &[RankOutput<T>]) -> f64 {
    outputs.iter().map(|o| o.time).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sum a `u64` over every rank with one `allgatherv`.
    fn sum_over_ranks(comm: &mut Comm, value: u64) -> u64 {
        let parts = comm.allgatherv(&value.to_le_bytes());
        let word = |p: &Vec<u8>| u64::from_le_bytes(p[..].try_into().expect("8-byte part"));
        parts.iter().map(word).sum()
    }

    /// Charge `seconds` of compute to `comm`'s clock as a span `name`.
    fn work(comm: &mut Comm, name: &str, seconds: f64) {
        comm.charge_costed("compute", name, &[], || ((), seconds));
    }

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
                acc += sum_over_ranks(comm, round + comm.rank() as u64);
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

    /// `bcast` from the last rank, then an uneven `gatherv` to rank 0, each
    /// rank entering late by its own precharge: per rank, the counters, the
    /// clock (the latest entry time plus `tree_move` of what was read) and
    /// each span's args.
    #[test]
    fn bcast_and_gatherv_charge_what_they_move() {
        let net = NetModel::idataplex();
        let pre = [0.3, 0.1, 0.5, 0.2, 0.4];
        let len = |r: usize| 10 * r + 3;
        for size in [1, 2, 3, 5] {
            let root = size - 1;
            let out = run_cluster(size, net, |comm| {
                let r = comm.rank();
                work(comm, "pre", pre[r]);
                let msg = if r == root { vec![7u8; 100] } else { vec![] };
                assert_eq!(comm.bcast(root, &msg), vec![7u8; 100]);
                let after_bcast = comm.clock.now();
                comm.gatherv(0, &vec![r as u8; len(r)]);
                after_bcast
            });
            let bcast_end =
                pre[..size].iter().copied().fold(0.0, f64::max) + net.tree_move(size, 100);
            let gathered: usize = (0..size).map(len).sum();
            for (r, o) in out.iter().enumerate() {
                let gather_read = if r == 0 { gathered } else { len(r) };
                let bcast_sent = if r == root { 100 } else { 0 };
                assert_eq!(o.value, bcast_end, "rank {r} of {size} leaves bcast");
                assert_eq!(o.time, bcast_end + net.tree_move(size, gather_read));
                assert_eq!(o.stats.collectives, 2);
                assert_eq!(o.stats.bytes_sent, (bcast_sent + len(r)) as u64);
                assert_eq!(
                    o.stats.bytes_received,
                    (100 - bcast_sent + gather_read - len(r)) as u64
                );
                let spans = &o.trace.spans;
                let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
                assert_eq!(names, ["pre", "mpi.bcast", "mpi.gatherv"]);
                assert_eq!((spans[1].start, spans[1].end), (pre[r], bcast_end));
                assert_eq!(spans[1].args, [("bytes".to_string(), 100.0)]);
                assert_eq!((spans[2].start, spans[2].end), (bcast_end, o.time));
                assert_eq!(spans[2].args, [("bytes_sent".to_string(), len(r) as f64)]);
            }
        }
    }

    #[test]
    fn virtual_time_synchronizes_at_barrier() {
        let out = run_cluster(4, NetModel::ideal(), |comm| {
            work(comm, "work", comm.rank() as f64); // rank r works r seconds
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
            comm.barrier();
            comm.allgatherv(&[9]);
        });
        assert_eq!(out[1].stats.bytes_received, 1);
        assert!(out[0].stats.collectives >= 2);
    }

    #[test]
    fn spread_helpers() {
        let out = run_cluster(3, NetModel::ideal(), |comm| {
            work(comm, "work", (comm.rank() + 1) as f64);
            comm.rank()
        });
        let min = out.iter().map(|o| o.time).fold(f64::INFINITY, f64::min);
        assert!((min - 1.0).abs() < 1e-12);
        assert!((cluster_time(&out) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn collectives_record_spans() {
        let out = run_cluster(2, NetModel::idataplex(), |comm| {
            work(comm, "setup", 1.0);
            comm.allgatherv(&[0u8; 256]);
            comm.barrier();
            work(comm, "work", 0.5);
        });
        for (rank, o) in out.iter().enumerate() {
            let names: Vec<&str> = o
                .trace
                .on_track(rank as u32)
                .map(|s| s.name.as_str())
                .collect();
            assert_eq!(
                names,
                vec!["setup", "mpi.allgatherv", "mpi.barrier", "work"]
            );
        }
        let ag = out[0].trace.with_cat("comm")[0];
        assert_eq!(ag.arg("bytes_sent"), Some(256.0));
        assert!(ag.start >= 1.0 && ag.end > ag.start);
        assert_eq!(
            out[1].trace.track_names.get(&1).map(String::as_str),
            Some("rank 1")
        );
    }

    #[test]
    fn many_ranks_smoke() {
        let out = run_cluster(64, NetModel::idataplex(), |comm| {
            let total = sum_over_ranks(comm, 1);
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
        let plan = Arc::new(FaultPlan::new(11).with_drops(0.8).with_delays(0.8));
        let run = run_cluster_faulty(4, NetModel::idataplex(), plan, |comm| {
            comm.allgatherv(&[comm.rank() as u8; 64])
        });
        assert!(run.failed.is_empty());
        let faulty = run.outputs;
        let total_faults: u64 = faulty
            .iter()
            .map(|o| o.stats.retries + o.stats.delays)
            .sum();
        assert!(total_faults > 0, "plan with prob 0.8 injected nothing");
        for (c, f) in clean.iter().zip(&faulty) {
            assert_eq!(f.value, c.value, "payloads must match");
            assert!(f.time >= c.time, "faults only ever add virtual time");
        }
    }

    #[test]
    fn retries_surface_as_spans() {
        let plan = Arc::new(FaultPlan::new(3).with_drops(1.0));
        let out = run_cluster_faulty(2, NetModel::ideal(), plan, |comm| {
            comm.barrier();
            comm.allgatherv(&[comm.rank() as u8])
        });
        for o in &out.outputs {
            let retries: Vec<_> = o
                .trace
                .spans
                .iter()
                .filter(|s| s.name == "mpi.retry")
                .collect();
            assert_eq!(retries.len() as u64, o.stats.retries);
            assert_eq!(retries.len(), 6, "2 ops x 3 forced retries");
            assert!(retries.iter().all(|s| s.cat == "fault"));
            assert_eq!(retries[0].arg("attempt"), Some(1.0));
            // Even an ideal (zero-latency) net charges the RTO for drops.
            assert!(o.time > 0.0);
        }
    }

    #[test]
    fn same_plan_seed_is_fully_deterministic() {
        let run = || {
            let plan = Arc::new(FaultPlan::new(77).with_drops(0.5).with_delays(0.5));
            run_cluster_faulty(4, NetModel::idataplex(), plan, |comm| {
                let pooled = comm.allgatherv(&[comm.rank() as u8; 32]);
                comm.barrier();
                (pooled, comm.clock.now())
            })
            .outputs
        };
        let a = run();
        let b = run();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.value, y.value);
            assert_eq!(x.stats, y.stats);
            assert_eq!(x.time, y.time, "virtual times replay exactly");
        }
    }

    /// Five allgathervs, then the rank id.
    fn five_rounds(comm: &mut Comm) -> usize {
        for _ in 0..5 {
            comm.allgatherv(&[comm.rank() as u8]);
        }
        comm.rank()
    }

    #[test]
    fn crash_is_reported_and_peers_unwind() {
        let plan = Arc::new(FaultPlan::new(0).with_crash(1, 2));
        let run = run_cluster_faulty(3, NetModel::ideal(), plan, five_rounds);
        assert_eq!(run.failed.len(), 1, "one one-shot crash point, one replay");
        let failed = &run.failed[0];
        let crashes: Vec<u64> = failed.iter().map(|o| o.stats.crashes).collect();
        assert_eq!(crashes, [0, 1, 0]);
        let marker = failed[1]
            .trace
            .spans
            .iter()
            .find(|s| s.name == "fault.crash");
        assert_eq!(
            marker.and_then(|s| s.arg("op")),
            Some(2.0),
            "crash marker span is salvaged from the dead rank"
        );
        for o in failed {
            assert!(
                o.stats.collectives < 5,
                "rank {}: peers blocked on the crashed rank must unwind, not finish",
                o.rank
            );
        }
        // The replay runs clean and reproduces the fault-free payloads.
        let clean = run_cluster(3, NetModel::ideal(), five_rounds);
        for (r, c) in run.outputs.iter().zip(&clean) {
            assert_eq!(r.value, c.value);
        }
    }

    /// A failed attempt's salvage does not depend on thread timing: every
    /// peer of the crashed rank completes the collectives before the crash
    /// and draws the faults of the one it unwinds from.
    #[test]
    fn failed_attempts_salvage_the_same_stats_every_run() {
        let run = || {
            let plan = FaultPlan::new(42)
                .with_delays(0.9)
                .with_drops(0.2)
                .with_crash(1, 3);
            let run = run_cluster_faulty(4, NetModel::idataplex(), Arc::new(plan), five_rounds);
            let failed = run.failed.iter().flatten();
            failed
                .map(|o| (o.stats, o.time.to_bits()))
                .collect::<Vec<_>>()
        };
        let first = run();
        assert_eq!(first.len(), 4);
        for o in &first {
            assert!(o.0.delays > 0 || o.0.crashes == 1, "{o:?}");
        }
        for _ in 0..50 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn inactive_plan_is_equivalent_to_fault_free() {
        let plan = Arc::new(FaultPlan::new(123));
        let faulty = run_cluster_faulty(3, NetModel::idataplex(), plan, |comm| {
            comm.allgatherv(&[comm.rank() as u8; 16])
        })
        .outputs;
        let clean = run_cluster(3, NetModel::idataplex(), |comm| {
            comm.allgatherv(&[comm.rank() as u8; 16])
        });
        for (f, c) in faulty.iter().zip(&clean) {
            assert_eq!(f.value, c.value);
            assert_eq!(f.time, c.time, "inactive plan charges nothing");
        }
    }
}
