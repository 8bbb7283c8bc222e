//! The per-rank communicator: point-to-point messages and collectives with
//! MPI semantics, plus virtual-clock synchronization and deterministic
//! fault injection.

use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;

use crate::barrier::SimBarrier;
use crate::clock::VClock;
use crate::fault::{FaultState, PeerAborted, RankCrash};
use crate::netmodel::NetModel;
use crate::stats::CommStats;

/// A point-to-point message in flight.
#[derive(Debug)]
pub(crate) struct Message {
    pub from: usize,
    pub tag: u32,
    pub send_time: f64,
    pub payload: Vec<u8>,
}

/// Partial state a rank salvages while unwinding from a crash or a peer
/// abort, so even failed ranks report clock/stats/trace.
#[derive(Debug)]
pub(crate) struct FailReport {
    pub time: f64,
    pub stats: CommStats,
    pub trace: obs::Trace,
}

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
    /// Mailbox senders, indexed by destination rank.
    pub mail: Vec<Sender<Message>>,
    /// Where an unwinding rank deposits its partial state (indexed by rank).
    pub fail_reports: Vec<Mutex<Option<FailReport>>>,
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

/// A rank's handle to the simulated communicator — the analogue of
/// `MPI_COMM_WORLD` plus the rank's virtual clock and counters.
pub struct Comm {
    rank: usize,
    shared: Arc<Shared>,
    inbox: Receiver<Message>,
    /// Out-of-order messages awaiting a matching `recv`.
    pending: Vec<Message>,
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
    /// [`crate::cluster::RankOutput::trace`] when the rank finishes.
    pub obs: obs::Tracer,
}

impl Comm {
    pub(crate) fn new(
        rank: usize,
        shared: Arc<Shared>,
        inbox: Receiver<Message>,
        net: NetModel,
        fault: Option<FaultState>,
    ) -> Self {
        let tracer = obs::Tracer::new();
        tracer.name_track(rank as u32, format!("rank {rank}"));
        Comm {
            rank,
            shared,
            inbox,
            pending: Vec::new(),
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

    /// Charge virtual compute seconds to this rank.
    #[inline]
    pub fn charge(&mut self, seconds: f64) {
        self.clock.charge(seconds);
    }

    /// The one way compute or I/O time reaches this rank's clock: run the
    /// costed section `f` under the cluster-wide measurement lock (so
    /// concurrent ranks do not pollute each other's costs), charge the
    /// virtual seconds it returns and record them as a `cat` span `name` on
    /// this rank's track, with `args` and any the section's [`Cost`] adds.
    /// `f` is an `omp::costed_loop` replay, a serial region wrapped in
    /// `omp::timed`, a team region, or a precomputed cost.
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
            self.charge_fault("fault.crash", 0.0, &[("op", op as f64)]);
            self.shared.barrier.abort();
            self.deposit_fail_report();
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

    /// Salvage clock/stats/trace for the cluster driver, then unwind
    /// because a peer crashed.
    fn abort_unwind(&mut self) -> ! {
        self.deposit_fail_report();
        std::panic::panic_any(PeerAborted);
    }

    fn deposit_fail_report(&mut self) {
        *self.shared.fail_reports[self.rank].lock() = Some(FailReport {
            time: self.clock.now(),
            stats: self.stats,
            trace: self.obs.take(),
        });
    }

    /// Enter the collective barrier; unwind (instead of deadlocking) if the
    /// cluster aborted because a rank crashed.
    fn sync(&mut self) {
        if self.shared.barrier.wait().is_err() {
            self.abort_unwind();
        }
    }

    // ---- point-to-point -------------------------------------------------

    /// Non-blocking-ish send (buffered, like `MPI_Send` with small messages).
    pub fn send(&mut self, to: usize, tag: u32, payload: Vec<u8>) {
        assert!(to < self.size(), "send to rank {to} out of range");
        self.fault_point(payload.len());
        let bytes = payload.len();
        let msg = Message {
            from: self.rank,
            tag,
            send_time: self.clock.now(),
            payload,
        };
        if self.shared.mail[to].send(msg).is_err() {
            // The destination's inbox is gone: either the cluster is
            // aborting (unwind with it) or a rank vanished outside any
            // fault plan (a genuine bug).
            if self.shared.barrier.is_aborted() {
                self.abort_unwind();
            }
            panic!("destination rank hung up");
        }
        self.stats.p2p_sends += 1;
        self.stats.bytes_sent += bytes as u64;
    }

    /// Blocking receive matching `(from, tag)`. Advances the clock to
    /// `max(own time, send time + α + β·bytes)`.
    pub fn recv(&mut self, from: usize, tag: u32) -> Vec<u8> {
        // Check messages that arrived earlier but didn't match then.
        if let Some(i) = self
            .pending
            .iter()
            .position(|m| m.from == from && m.tag == tag)
        {
            let msg = self.pending.remove(i);
            return self.complete_recv(msg);
        }
        loop {
            match self.inbox.recv_timeout(Duration::from_millis(5)) {
                Ok(msg) => {
                    if msg.from == from && msg.tag == tag {
                        return self.complete_recv(msg);
                    }
                    self.pending.push(msg);
                }
                // Waiting on a sender that may have crashed: bail out once
                // the cluster aborts instead of blocking forever.
                Err(_) if self.shared.barrier.is_aborted() => self.abort_unwind(),
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                    panic!("all senders hung up")
                }
            }
        }
    }

    fn complete_recv(&mut self, msg: Message) -> Vec<u8> {
        self.fault_point(msg.payload.len());
        let cost = self.net.p2p(msg.payload.len());
        self.clock.advance_to(msg.send_time + cost);
        self.stats.p2p_recvs += 1;
        self.stats.bytes_received += msg.payload.len() as u64;
        msg.payload
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

    /// Synchronize all ranks (`MPI_Barrier`): clocks advance to the latest
    /// entry time plus the barrier's latency cost.
    pub fn barrier(&mut self) {
        let start = self.clock.now();
        self.fault_point(0);
        let ((), entry_max) = self.rendezvous(None, |_| ());
        self.clock
            .advance_to(entry_max + self.net.barrier(self.size()));
        self.stats.collectives += 1;
        self.obs
            .record(self.track(), "comm", "mpi.barrier", start, self.clock.now());
    }

    /// `MPI_Allgatherv` over raw bytes: every rank contributes a buffer and
    /// receives every rank's buffer, indexed by rank. An idle rank
    /// contributes an *empty* buffer, never an absent one: the result on
    /// every rank always has exactly `size` positional entries, which is
    /// what lets crash-replay pool partial work by rank index.
    pub fn allgatherv(&mut self, data: &[u8]) -> Vec<Vec<u8>> {
        let start = self.clock.now();
        self.fault_point(data.len());
        let (parts, entry_max) = self.rendezvous(Some(data.to_vec()), read_all);
        let total: usize = parts.iter().map(Vec::len).sum();
        self.clock
            .advance_to(entry_max + self.net.allgatherv(self.size(), total));
        self.stats.collectives += 1;
        self.stats.bytes_sent += data.len() as u64;
        self.stats.bytes_received += (total - data.len()) as u64;
        self.obs.record_with(
            self.track(),
            "comm",
            "mpi.allgatherv",
            start,
            self.clock.now(),
            &[
                ("bytes_sent", data.len() as f64),
                ("bytes_total", total as f64),
            ],
        );
        parts
    }

    /// `MPI_Bcast` from `root`: returns the root's buffer on every rank.
    pub fn bcast(&mut self, root: usize, data: &[u8]) -> Vec<u8> {
        assert!(root < self.size());
        let start = self.clock.now();
        self.fault_point(data.len());
        let deposit = (self.rank == root).then(|| data.to_vec());
        let (out, entry_max) = self.rendezvous(deposit, |slots| slots[root].lock().clone());
        self.clock
            .advance_to(entry_max + self.net.tree_move(self.size(), out.len()));
        self.stats.collectives += 1;
        if self.rank == root {
            self.stats.bytes_sent += out.len() as u64;
        } else {
            self.stats.bytes_received += out.len() as u64;
        }
        self.obs.record_with(
            self.track(),
            "comm",
            "mpi.bcast",
            start,
            self.clock.now(),
            &[("bytes", out.len() as f64)],
        );
        out
    }

    /// `MPI_Gatherv` to `root`: root receives every rank's buffer (indexed
    /// by rank); other ranks receive `None`.
    pub fn gatherv(&mut self, root: usize, data: &[u8]) -> Option<Vec<Vec<u8>>> {
        assert!(root < self.size());
        let start = self.clock.now();
        self.fault_point(data.len());
        let is_root = self.rank == root;
        let (out, entry_max) = self.rendezvous(Some(data.to_vec()), |slots| {
            is_root.then(|| read_all(slots))
        });
        let total: usize = out
            .as_ref()
            .map_or(data.len(), |parts| parts.iter().map(Vec::len).sum());
        self.clock
            .advance_to(entry_max + self.net.tree_move(self.size(), total));
        self.stats.collectives += 1;
        self.stats.bytes_sent += data.len() as u64;
        self.stats.bytes_received += (total - data.len()) as u64;
        self.obs.record_with(
            self.track(),
            "comm",
            "mpi.gatherv",
            start,
            self.clock.now(),
            &[("bytes_sent", data.len() as f64)],
        );
        out
    }

    /// `MPI_Allreduce(SUM)` over a `u64`.
    pub fn allreduce_sum_u64(&mut self, value: u64) -> u64 {
        let parts = self.allgatherv(&value.to_le_bytes());
        parts
            .iter()
            .map(|p| u64::from_le_bytes(p.as_slice().try_into().expect("8-byte payload")))
            .sum()
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
