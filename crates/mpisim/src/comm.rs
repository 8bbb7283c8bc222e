//! The per-rank communicator: collectives with MPI semantics, plus
//! virtual-clock synchronization and deterministic fault injection.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::barrier::SimBarrier;
use crate::clock::VClock;
use crate::cluster::RankOutput;
use crate::fault::{FaultState, PeerAborted, RankCrash};
use crate::netmodel::NetModel;
use crate::stats::CommStats;

/// State shared by every rank of a cluster.
pub(crate) struct Shared {
    pub size: usize,
    /// Abortable collective barrier; its abort flag doubles as the
    /// cluster-wide "a rank has crashed" signal.
    pub barrier: SimBarrier,
    /// One payload slot per rank, used by collectives.
    pub slots: Vec<Mutex<Vec<u8>>>,
    /// Virtual entry time of each rank into the current collective.
    pub times: Vec<Mutex<f64>>,
    /// Where an unwinding rank deposits its salvaged output (indexed by
    /// rank), so even failed ranks report clock, stats and trace.
    pub salvaged: Vec<Mutex<Option<RankOutput<()>>>>,
}

/// What a section charged through [`Comm::charge_costed`] costs: its
/// virtual seconds, and the span args it only knows once it has run. A
/// bare `f64` is a cost with no such args.
#[derive(Debug, Clone, PartialEq)]
pub struct Cost {
    /// Virtual seconds to charge.
    pub seconds: f64,
    /// Span args measured by the section.
    pub args: Vec<(&'static str, f64)>,
}

impl From<f64> for Cost {
    fn from(seconds: f64) -> Self {
        Cost {
            seconds,
            args: Vec::new(),
        }
    }
}

/// What one collective moved, as this rank saw it once it read: the α–β
/// seconds past the latest entry time, the bytes it sent and received, and
/// its span's args.
struct Moved {
    price: f64,
    sent: usize,
    received: usize,
    args: Vec<(&'static str, f64)>,
}

/// A rank's handle to the simulated communicator — the analogue of
/// `MPI_COMM_WORLD` plus the rank's virtual clock and counters.
pub struct Comm {
    rank: usize,
    shared: Arc<Shared>,
    /// Deterministic fault schedule, if this run injects faults.
    fault: Option<FaultState>,
    /// This rank's virtual clock.
    pub clock: VClock,
    /// The interconnect model used for cost accounting.
    pub net: NetModel,
    /// Communication counters.
    pub stats: CommStats,
    /// Span recorder: every collective logs a `cat:"comm"` span on track
    /// `rank` in virtual time, [`Comm::charge_costed`] logs the compute
    /// and I/O spans, and injected faults log `cat:"fault"` spans
    /// (`mpi.delay`, `mpi.retry`, `fault.crash`). Drained into
    /// [`RankOutput::trace`] when the rank finishes or unwinds.
    pub obs: obs::Tracer,
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        shared: Arc<Shared>,
        net: NetModel,
        fault: Option<FaultState>,
    ) -> Self {
        let tracer = obs::Tracer::new();
        tracer.name_track(rank as u32, format!("rank {rank}"));
        Comm {
            rank,
            shared,
            fault,
            clock: VClock::new(),
            net,
            stats: CommStats::default(),
            obs: tracer,
        }
    }

    /// This rank's obs track id (`rank` as `u32`).
    #[inline]
    pub fn track(&self) -> u32 {
        self.rank as u32
    }

    /// This rank's id, `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the cluster.
    #[inline]
    pub fn size(&self) -> usize {
        self.shared.size
    }

    /// True on rank 0 (the paper's "master node").
    #[inline]
    pub fn is_root(&self) -> bool {
        self.rank == 0
    }

    /// The one way compute or I/O time reaches this rank's clock: run the
    /// costed section `f` under the cluster-wide measurement lock (so
    /// concurrent ranks do not pollute each other's costs), charge the
    /// virtual seconds it returns and record them as a `cat` span `name` on
    /// this rank's track, with `args` and any the section's [`Cost`] adds.
    /// `f` is a costed team's region — its loops' makespan plus its wall
    /// time outside its loop calls — or a precomputed cost.
    pub fn charge_costed<T, C: Into<Cost>>(
        &mut self,
        cat: &str,
        name: &str,
        args: &[(&str, f64)],
        f: impl FnOnce() -> (T, C),
    ) -> T {
        let start = self.clock.now();
        let guard = crate::compute_lock();
        let (out, cost) = f();
        drop(guard);
        let cost = cost.into();
        self.clock.charge(cost.seconds);
        let args = [args, &cost.args].concat();
        self.obs
            .record_with(self.track(), cat, name, start, self.clock.now(), &args);
        out
    }

    // ---- fault machinery ------------------------------------------------

    /// Consult the fault plan at one communication operation: crash if this
    /// is the rank's scheduled (unfired) crash point, otherwise charge the
    /// plan's injected delay and drop-retries to the virtual clock and
    /// record them as `cat:"fault"` spans. `bytes` sizes the retransmission
    /// cost of a dropped message.
    fn fault_point(&mut self, bytes: usize) {
        let Some(fault) = self.fault.as_mut() else {
            return;
        };
        if let Some(op) = fault.claim_crash() {
            self.stats.crashes += 1;
            self.charge_fault("fault.crash", 0.0, &[("op", op as f64)]);
            self.shared.barrier.abort();
            self.deposit_salvage();
            std::panic::panic_any(RankCrash {
                rank: self.rank,
                op,
            });
        }
        let decision = fault.next_op();
        let op = ("op", decision.op as f64);
        if decision.delay > 0.0 {
            self.stats.delays += 1;
            self.charge_fault("mpi.delay", decision.delay, &[op]);
        }
        for attempt in 1..=decision.retries {
            self.stats.retries += 1;
            let args = [op, ("attempt", attempt as f64), ("bytes", bytes as f64)];
            self.charge_fault("mpi.retry", self.net.retry_cost(attempt, bytes), &args);
        }
    }

    /// Charge an injected fault's virtual seconds and record its span.
    fn charge_fault(&mut self, name: &str, seconds: f64, args: &[(&str, f64)]) {
        let t0 = self.clock.now();
        self.clock.charge(seconds);
        self.obs
            .record_with(self.track(), "fault", name, t0, self.clock.now(), args);
    }

    /// This rank's clock, counters and drained trace, as its output.
    pub(crate) fn take_output(&mut self) -> RankOutput<()> {
        RankOutput {
            rank: self.rank,
            value: (),
            time: self.clock.now(),
            stats: self.stats,
            trace: self.obs.take(),
        }
    }

    fn deposit_salvage(&mut self) {
        *self.shared.salvaged[self.rank].lock() = Some(self.take_output());
    }

    /// Enter the collective barrier; if the cluster aborted because a rank
    /// crashed, salvage clock/stats/trace for the cluster driver and unwind
    /// instead of deadlocking.
    fn sync(&mut self) {
        if self.shared.barrier.wait().is_err() {
            self.deposit_salvage();
            std::panic::panic_any(PeerAborted);
        }
    }

    // ---- collectives ----------------------------------------------------

    /// The rendezvous every collective crosses, written once: deposit this
    /// rank's payload (if it contributes one), publish the entry time, wait
    /// for every rank, `read` the slots, take the latest entry time, and
    /// wait again so nobody reuses a slot a peer is still reading. Returns
    /// what `read` returned and the entry max.
    fn rendezvous<T>(
        &mut self,
        deposit: Option<Vec<u8>>,
        read: impl FnOnce(&[Mutex<Vec<u8>>]) -> T,
    ) -> (T, f64) {
        if let Some(data) = deposit {
            *self.shared.slots[self.rank].lock() = data;
        }
        *self.shared.times[self.rank].lock() = self.clock.now();
        self.sync();
        let out = read(&self.shared.slots);
        let times = self.shared.times.iter().map(|t| *t.lock());
        let entry_max = times.fold(f64::NEG_INFINITY, f64::max);
        self.sync();
        (out, entry_max)
    }

    /// The one charged collective, which every public one calls: the fault
    /// point (sized by `bytes`, what this rank passed), the rendezvous, the
    /// clock advanced to the latest entry time plus the price `moved` puts
    /// on what was read, the counters, and one `cat:"comm"` span `name`.
    fn collective<T>(
        &mut self,
        name: &str,
        bytes: usize,
        deposit: Option<Vec<u8>>,
        read: impl FnOnce(&[Mutex<Vec<u8>>]) -> T,
        moved: impl FnOnce(&T) -> Moved,
    ) -> T {
        let start = self.clock.now();
        self.fault_point(bytes);
        let (out, entry_max) = self.rendezvous(deposit, read);
        let m = moved(&out);
        self.clock.advance_to(entry_max + m.price);
        self.stats.collectives += 1;
        self.stats.bytes_sent += m.sent as u64;
        self.stats.bytes_received += m.received as u64;
        self.obs
            .record_with(self.track(), "comm", name, start, self.clock.now(), &m.args);
        out
    }

    /// Synchronize all ranks (`MPI_Barrier`): clocks advance to the latest
    /// entry time plus the barrier's latency cost.
    pub fn barrier(&mut self) {
        let price = self.net.barrier(self.size());
        self.collective(
            "mpi.barrier",
            0,
            None,
            |_| (),
            |()| Moved {
                price,
                sent: 0,
                received: 0,
                args: vec![],
            },
        );
    }

    /// `MPI_Allgatherv` over raw bytes: every rank contributes a buffer and
    /// receives every rank's buffer, indexed by rank. An idle rank
    /// contributes an *empty* buffer, never an absent one: the result on
    /// every rank always has exactly `size` positional entries, which is
    /// what lets crash-replay pool partial work by rank index.
    pub fn allgatherv(&mut self, data: &[u8]) -> Vec<Vec<u8>> {
        let (net, size) = (self.net, self.size());
        self.collective(
            "mpi.allgatherv",
            data.len(),
            Some(data.to_vec()),
            read_all,
            |parts| {
                let total: usize = parts.iter().map(Vec::len).sum();
                Moved {
                    price: net.allgatherv(size, total),
                    sent: data.len(),
                    received: total - data.len(),
                    args: vec![
                        ("bytes_sent", data.len() as f64),
                        ("bytes_total", total as f64),
                    ],
                }
            },
        )
    }

    /// `MPI_Bcast` from `root`: returns the root's buffer on every rank.
    pub fn bcast(&mut self, root: usize, data: &[u8]) -> Vec<u8> {
        assert!(root < self.size());
        let (net, size, is_root) = (self.net, self.size(), self.rank == root);
        let deposit = is_root.then(|| data.to_vec());
        let read = |slots: &[Mutex<Vec<u8>>]| slots[root].lock().clone();
        self.collective("mpi.bcast", data.len(), deposit, read, |out| Moved {
            price: net.tree_move(size, out.len()),
            sent: if is_root { out.len() } else { 0 },
            received: if is_root { 0 } else { out.len() },
            args: vec![("bytes", out.len() as f64)],
        })
    }

    /// `MPI_Gatherv` to `root`: root receives every rank's buffer (indexed
    /// by rank); other ranks receive `None`.
    pub fn gatherv(&mut self, root: usize, data: &[u8]) -> Option<Vec<Vec<u8>>> {
        assert!(root < self.size());
        let (net, size, is_root) = (self.net, self.size(), self.rank == root);
        let read = |slots: &[Mutex<Vec<u8>>]| is_root.then(|| read_all(slots));
        self.collective(
            "mpi.gatherv",
            data.len(),
            Some(data.to_vec()),
            read,
            |out| {
                let total: usize = out
                    .as_ref()
                    .map_or(data.len(), |parts| parts.iter().map(Vec::len).sum());
                Moved {
                    price: net.tree_move(size, total),
                    sent: data.len(),
                    received: total - data.len(),
                    args: vec![("bytes_sent", data.len() as f64)],
                }
            },
        )
    }

    /// Simulation-internal broadcast: `root` runs `materialize` (under the
    /// measurement lock, uncharged) and its bytes reach every rank
    /// **without charging the network model** (no α–β cost, no byte
    /// counters; clocks only synchronize to the entry max, like a barrier
    /// with zero latency).
    ///
    /// Use this when the *modeled* system computes data locally on every
    /// rank but the *simulation* materializes it once and ships it — e.g.
    /// the master-dealt partition, where the master executes and measures
    /// all chunks so the dealing protocol can be replayed
    /// deterministically. Never use it for data the modeled system would
    /// actually move over the network. Being outside the modeled network,
    /// it is also exempt from fault injection (it still unwinds cleanly if
    /// a peer crashed).
    pub fn transport_bcast(
        &mut self,
        root: usize,
        materialize: impl FnOnce() -> Vec<u8>,
    ) -> Vec<u8> {
        assert!(root < self.size());
        let deposit = (self.rank == root).then(|| {
            let _guard = crate::compute_lock();
            materialize()
        });
        let (out, entry_max) = self.rendezvous(deposit, |slots| slots[root].lock().clone());
        self.clock.advance_to(entry_max);
        out
    }
}

/// Every rank's deposited payload, indexed by rank.
fn read_all(slots: &[Mutex<Vec<u8>>]) -> Vec<Vec<u8>> {
    slots.iter().map(|s| s.lock().clone()).collect()
}
