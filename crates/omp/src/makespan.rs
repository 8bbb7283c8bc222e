//! Deterministic virtual-time replay of a scheduled loop.
//!
//! Given the measured cost of every loop iteration, [`simulate_loop`] replays
//! `schedule(dynamic)` with greedy list scheduling: the next chunk in grab
//! order goes to the thread that becomes idle first. That is *exactly* the
//! runtime behaviour of an OpenMP team (modulo scheduler noise). The result
//! is a per-thread busy-time vector and the loop makespan, computable for
//! any thread count on any host.

use std::collections::VecDeque;
use std::ops::Range;

use crate::pool::{timed, Team};
use crate::schedule::{chunk_sequence, Chunk, Schedule};

/// Outcome of replaying one loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopSim {
    /// Busy time per thread, seconds.
    pub thread_busy: Vec<f64>,
    /// Virtual duration of the loop (max completion time across threads).
    pub makespan: f64,
    /// Sum of all item costs (serial time).
    pub serial_time: f64,
    /// Number of chunks dispatched.
    pub chunks: usize,
    /// The part of `serial_time` spent holding an ordered loop's lock
    /// ([`simulate_ordered`]); 0 for a parallel-for.
    pub lock_time: f64,
}

impl LoopSim {
    /// The replay of no loop at all on `threads` threads — the identity of
    /// [`then`](Self::then).
    pub fn idle(threads: usize) -> Self {
        LoopSim {
            thread_busy: vec![0.0; threads.max(1)],
            makespan: 0.0,
            serial_time: 0.0,
            chunks: 0,
            lock_time: 0.0,
        }
    }

    /// Run `next` after this loop on the same team, a barrier in between:
    /// makespans, busy times, serial time and chunks add.
    pub fn then(&mut self, next: &LoopSim) {
        debug_assert_eq!(self.thread_busy.len(), next.thread_busy.len());
        for (busy, more) in self.thread_busy.iter_mut().zip(&next.thread_busy) {
            *busy += more;
        }
        self.makespan += next.makespan;
        self.serial_time += next.serial_time;
        self.chunks += next.chunks;
        self.lock_time += next.lock_time;
    }

    /// Parallel efficiency: `serial / (threads * makespan)`, in (0, 1].
    pub fn efficiency(&self) -> f64 {
        if self.makespan == 0.0 {
            1.0
        } else {
            self.serial_time / (self.thread_busy.len() as f64 * self.makespan)
        }
    }

    /// Load imbalance: `max_thread_busy / mean_thread_busy` (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        let sum: f64 = self.thread_busy.iter().sum();
        if sum == 0.0 {
            return 1.0;
        }
        let mean = sum / self.thread_busy.len() as f64;
        let max = self.thread_busy.iter().cloned().fold(0.0, f64::max);
        max / mean
    }

    /// Record per-thread busy/idle spans for this replayed loop into
    /// `tracer`. The loop is placed at virtual time `t0`; thread `t` gets a
    /// `{name}.busy` span of its busy time followed by a `{name}.idle` span
    /// until the loop's makespan, both `cat:"omp"` on track
    /// `base_track + t` (callers typically pass
    /// [`obs::THREAD_TRACK_BASE`], keeping thread lanes clear of rank
    /// lanes).
    pub fn record_spans(&self, tracer: &obs::Tracer, t0: f64, base_track: u32, name: &str) {
        for (t, &busy) in self.thread_busy.iter().enumerate() {
            let track = base_track + t as u32;
            if busy > 0.0 {
                tracer.record(track, "omp", format!("{name}.busy"), t0, t0 + busy);
            }
            if self.makespan > busy {
                tracer.record(
                    track,
                    "omp",
                    format!("{name}.idle"),
                    t0 + busy,
                    t0 + self.makespan,
                );
            }
        }
    }

    /// Record this loop's summary into a [`obs::MetricsRegistry`]:
    /// `{prefix}.chunks` (a counter: replays recorded under one prefix add
    /// up), `{prefix}.efficiency` and `{prefix}.imbalance` (gauges, the
    /// latest replay's).
    pub fn record_metrics(&self, registry: &obs::MetricsRegistry, prefix: &str) {
        registry
            .counter(format!("{prefix}.chunks"))
            .add(self.chunks as u64);
        registry
            .gauge(format!("{prefix}.efficiency"))
            .set(self.efficiency());
        registry
            .gauge(format!("{prefix}.imbalance"))
            .set(self.imbalance());
    }
}

/// Replay `schedule` over `costs` with `threads` workers: each chunk in
/// grab order goes to the earliest-idle thread, the lowest on a tie.
pub fn simulate_loop(costs: &[f64], threads: usize, schedule: Schedule) -> LoopSim {
    let Schedule::Dynamic { chunk } = schedule;
    let chunks = chunk_sequence(costs.len(), chunk);
    let mut busy = vec![0.0f64; threads.max(1)];
    for c in &chunks {
        let t = (1..busy.len()).fold(0, |t, u| if busy[u] < busy[t] { u } else { t });
        busy[t] += costs[c.start..c.end].iter().sum::<f64>();
    }
    let makespan = busy.iter().cloned().fold(0.0, f64::max);
    LoopSim {
        makespan,
        serial_time: costs.iter().sum(),
        chunks: chunks.len(),
        thread_busy: busy,
        lock_time: 0.0,
    }
}

/// Replay an ordered loop (`seqio::par`'s `ord(window, take, work, commit)`
/// contract) on `threads` workers, running its closures on the calling
/// thread in the order of the modelled schedule. `stay(commits, take, t)`
/// is one stay in the lock, starting at modelled time `t`: it commits the
/// tasks `commits` in order, then takes the next task if `take`, and
/// returns whether it claimed one and its cost. `work(i, t)` runs task `i`
/// from `t` and returns its cost.
///
/// A worker that becomes free at `t` acquires the lock at `max(t, lock
/// free)` — and, while the window is full, not before the oldest task has
/// finished — commits every task finished by then and takes the next one,
/// holding the lock and the worker; then it runs the task's `work`. So
/// every `work` call sees exactly the commits modelled before its start. A
/// worker that finds no task left retires; the workers still running tasks
/// commit the rest. Busy time is work plus lock-held time; the makespan is
/// the last worker's retirement.
pub fn simulate_ordered(
    threads: usize,
    window: usize,
    mut stay: impl FnMut(Range<usize>, bool, f64) -> (bool, f64),
    mut work: impl FnMut(usize, f64) -> f64,
) -> LoopSim {
    let threads = threads.max(1);
    let window = window.max(1);
    let mut free = vec![0.0f64; threads];
    let mut busy = vec![0.0f64; threads];
    // Finish times of the taken, uncommitted tasks, oldest first.
    let mut finished: VecDeque<f64> = VecDeque::new();
    let (mut taken, mut committed, mut done) = (0, 0, false);
    let (mut lock_free, mut lock_time, mut makespan) = (0.0f64, 0.0, 0.0f64);
    let mut active: Vec<usize> = (0..threads).collect();
    while !active.is_empty() {
        // The worker free first; on a tie the lowest, as `simulate_loop`.
        let at = (0..active.len())
            .min_by(|&a, &b| free[active[a]].total_cmp(&free[active[b]]))
            .expect("a worker is active");
        let w = active[at];
        let mut now = free[w].max(lock_free);
        if !done && finished.len() == window {
            now = now.max(finished[0]);
        }
        let ready = finished.iter().take_while(|&&f| f <= now).count();
        let claimed = if ready > 0 || !done {
            let (claimed, held) = stay(committed..committed + ready, !done, now);
            finished.drain(..ready);
            committed += ready;
            (now, lock_time, busy[w]) = (now + held, lock_time + held, busy[w] + held);
            lock_free = now;
            claimed
        } else {
            false
        };
        if claimed {
            let cost = work(taken, now);
            busy[w] += cost;
            free[w] = now + cost;
            finished.push_back(free[w]);
            taken += 1;
        } else {
            done = true;
            makespan = makespan.max(now);
            active.swap_remove(at);
        }
    }
    LoopSim {
        makespan,
        serial_time: busy.iter().sum(),
        chunks: taken,
        thread_busy: busy,
        lock_time,
    }
}

/// A [`Team`] on the virtual clock: every parallel-for is run once, its
/// indices measured and replayed by [`simulate_loop`], every ordered loop a
/// [`simulate_ordered`] replay, and `sim` is the replay of all of them in
/// program order — what a multi-loop parallel region (encode, barrier,
/// route, barrier, count, barrier, …) charges as one figure. How an item is
/// costed (today its wall time) is decided here alone.
#[derive(Debug, Clone)]
pub struct CostedTeam {
    schedule: Schedule,
    /// Wall time spent in this team's loop calls, each timed whole: its
    /// items, their timing and the replay.
    loops_s: f64,
    /// Everything run on this team so far.
    pub sim: LoopSim,
}

impl CostedTeam {
    /// A team of `threads` workers scheduling its loops by `schedule`.
    pub fn new(threads: usize, schedule: Schedule) -> Self {
        CostedTeam {
            schedule,
            loops_s: 0.0,
            sim: LoopSim::idle(threads),
        }
    }

    /// Run `f`, a parallel region whose loops run on this team with serial
    /// sections between them, and return its result with the region's
    /// cost: the makespan of its loops plus its wall time outside its loop
    /// calls. A loop's item timing and replay are inside its call, so they
    /// are charged nowhere; a region with no loop is charged its wall time.
    pub fn region<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> (T, RegionCost) {
        let (makespan, loops_s) = (self.sim.makespan, self.loops_s);
        let (out, seconds) = timed(|| f(self));
        let cost = RegionCost {
            makespan: self.sim.makespan - makespan,
            serial: seconds - (self.loops_s - loops_s),
        };
        (out, cost)
    }

    /// Run the loop `f`, timed whole, and add its replay to `sim`.
    fn costed<R>(&mut self, f: impl FnOnce(usize, Schedule) -> (R, LoopSim)) -> R {
        let ((out, sim), seconds) = timed(|| f(self.threads(), self.schedule));
        self.sim.then(&sim);
        self.loops_s += seconds;
        out
    }
}

/// What [`CostedTeam::region`] charges, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionCost {
    /// Makespan of the region's loops on the team.
    pub makespan: f64,
    /// The region's wall time outside its loop calls.
    pub serial: f64,
}

impl RegionCost {
    /// The region on the virtual clock: its loops' makespan, then its
    /// serial sections.
    pub fn charge(&self) -> f64 {
        self.makespan + self.serial
    }
}

impl Team for CostedTeam {
    fn threads(&self) -> usize {
        self.sim.thread_busy.len()
    }

    /// The parallel-for run on the calling thread in index order, each
    /// index measured by [`timed`], the costs replayed by [`simulate_loop`].
    fn for_each(&mut self, n: usize, body: &(dyn Fn(usize) + Sync)) {
        self.costed(|threads, schedule| {
            let costs: Vec<f64> = (0..n).map(|i| timed(|| body(i)).1).collect();
            ((), simulate_loop(&costs, threads, schedule))
        })
    }

    /// The ordered loop as [`simulate_ordered`] replays it, each call
    /// measured by [`timed`].
    fn ordered(
        &mut self,
        window: usize,
        take: &mut (dyn FnMut() -> bool + Send),
        work: &(dyn Fn(usize) + Sync),
        commit: &mut (dyn FnMut(usize) + Send),
    ) {
        let stay = |commits: Range<usize>, claim: bool, _| {
            timed(|| {
                commits.for_each(&mut *commit);
                claim && take()
            })
        };
        self.costed(|threads, _| {
            let sim = simulate_ordered(threads, window, stay, |i, _| timed(|| work(i)).1);
            ((), sim)
        });
    }
}

/// Replay a list of pre-assigned chunk groups (e.g. the chunked round-robin
/// MPI distribution): each group is one rank's chunk list; within a rank the
/// chunks' items are further scheduled over `threads` OpenMP threads by
/// `inner`. Returns one [`LoopSim`] per group.
pub fn simulate_grouped(
    costs: &[f64],
    groups: &[Vec<Chunk>],
    threads: usize,
    inner: Schedule,
) -> Vec<LoopSim> {
    groups
        .iter()
        .map(|chunks| {
            // Flatten this rank's items into a contiguous cost vector and
            // replay the inner OpenMP schedule over them.
            let rank_costs: Vec<f64> = chunks
                .iter()
                .flat_map(|c| costs[c.start..c.end].iter().copied())
                .collect();
            simulate_loop(&rank_costs, threads, inner)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costed_team_adds_consecutive_loops() {
        let mut team = CostedTeam::new(4, Schedule::Dynamic { chunk: 1 });
        assert_eq!(team.threads(), 4);
        let doubled = team.map(&[1u32, 2, 3, 4, 5, 6, 7, 8], |&x| x * 2);
        assert_eq!(doubled, vec![2, 4, 6, 8, 10, 12, 14, 16]);
        let first = team.sim.clone();
        assert_eq!(first.chunks, 8);
        assert!(first.makespan <= first.serial_time);
        // A one-item loop after the barrier: its makespan is its one item,
        // run by thread 0 while the other three stay idle.
        assert_eq!(team.map(&[7u32], |&x| x + 1), vec![8]);
        assert_eq!(team.sim.chunks, 9);
        let second = team.sim.makespan - first.makespan;
        assert!(second >= 0.0);
        assert!((team.sim.serial_time - first.serial_time - second).abs() < 1e-12);
        assert!((team.sim.thread_busy[0] - first.thread_busy[0] - second).abs() < 1e-12);
        assert_eq!(team.sim.thread_busy[1..], first.thread_busy[1..]);
    }

    #[test]
    fn region_charges_its_loops_makespan_and_serial_remainder() {
        let mut team = CostedTeam::new(2, Schedule::Dynamic { chunk: 1 });
        team.map(&[1u32], |&x| x);
        let before = team.sim.clone();
        let spin = |n: u64| (0..n).fold(0u64, |a, i| std::hint::black_box(a ^ i));
        let (out, cost) = team.region(|team| {
            let serial = spin(20_000);
            let loops = team.map(&[30_000u64, 10_000, 10_000], |&n| spin(n));
            serial + loops.len() as u64
        });
        assert!(out > 0);
        let makespan = team.sim.makespan - before.makespan;
        assert_eq!(cost.makespan, makespan, "only the region's loops");
        assert!(cost.serial > 0.0);
        assert_eq!(cost.charge(), cost.makespan + cost.serial);
    }

    #[test]
    fn region_charges_no_bookkeeping_of_its_loops() {
        // One loop of many near-empty items: timing each item and replaying
        // 20 000 chunks on 16 threads costs more than the items measure,
        // and all of it happens inside the loop call, which the region
        // charges at its makespan only. Best of three, against scheduler
        // noise.
        let items: Vec<u64> = (0..20_000).collect();
        let (serial, work) = (0..3)
            .map(|_| {
                let mut team = CostedTeam::new(16, Schedule::Dynamic { chunk: 1 });
                let (_, cost) = team.region(|team| team.map(&items, |&x| std::hint::black_box(x)));
                (cost.serial, team.sim.serial_time)
            })
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .unwrap();
        assert!(serial < work, "serial {serial} s vs items {work} s");
    }

    #[test]
    fn region_with_no_loop_is_charged_its_wall_time() {
        let mut team = CostedTeam::new(4, Schedule::Dynamic { chunk: 1 });
        let pause = std::time::Duration::from_millis(2);
        let ((_, cost), wall) = timed(|| team.region(|_| std::thread::sleep(pause)));
        assert_eq!(cost.makespan, 0.0);
        assert!(cost.serial >= pause.as_secs_f64() && cost.serial <= wall);
        assert_eq!(cost.charge(), cost.serial);
        assert_eq!(team.sim, LoopSim::idle(4));
    }

    #[test]
    fn then_is_additive_with_idle_as_identity() {
        let a = simulate_loop(&[3.0, 1.0, 2.0], 2, Schedule::Dynamic { chunk: 1 });
        let b = simulate_loop(&[5.0, 5.0], 2, Schedule::Dynamic { chunk: 1 });
        let mut sum = LoopSim::idle(2);
        sum.then(&a);
        assert_eq!(sum, a);
        sum.then(&b);
        assert_eq!(sum.makespan, a.makespan + b.makespan);
        assert_eq!(sum.serial_time, 16.0);
        assert_eq!(sum.chunks, 5);
    }

    #[test]
    fn uniform_costs_perfectly_balanced() {
        let costs = vec![1.0; 16];
        let sim = simulate_loop(&costs, 4, Schedule::Dynamic { chunk: 1 });
        assert!((sim.makespan - 4.0).abs() < 1e-12);
        assert!((sim.imbalance() - 1.0).abs() < 1e-12);
        assert!((sim.efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn makespan_bounds() {
        let costs = vec![3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        for threads in 1..6 {
            for chunk in [1, 2, 3] {
                let s = Schedule::Dynamic { chunk };
                let sim = simulate_loop(&costs, threads, s);
                let serial: f64 = costs.iter().sum();
                let max_item = 9.0;
                assert!(sim.makespan <= serial + 1e-9);
                assert!(sim.makespan >= max_item - 1e-9, "{s:?} t={threads}");
                assert!(sim.makespan >= serial / threads as f64 - 1e-9);
                let total: f64 = sim.thread_busy.iter().sum();
                assert!((total - serial).abs() < 1e-9, "work conserved");
            }
        }
    }

    #[test]
    fn one_thread_is_serial() {
        let costs = vec![2.0, 3.0, 5.0];
        let sim = simulate_loop(&costs, 1, Schedule::Dynamic { chunk: 1 });
        assert!((sim.makespan - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empty_loop() {
        let sim = simulate_loop(&[], 4, Schedule::Dynamic { chunk: 2 });
        assert_eq!(sim.makespan, 0.0);
        assert_eq!(sim.chunks, 0);
        assert_eq!(sim.efficiency(), 1.0);
        assert_eq!(sim.imbalance(), 1.0);
    }

    #[test]
    fn costed_loop_keeps_item_order_and_replays_every_item() {
        let mut team = CostedTeam::new(2, Schedule::Dynamic { chunk: 1 });
        let out = team.map(&[3u32, 1, 2], |&x| x * 10);
        assert_eq!(out, vec![30, 10, 20]);
        assert_eq!(team.sim.chunks, 3);
        assert!(team.sim.makespan <= team.sim.serial_time);
    }

    #[test]
    fn record_spans_cover_makespan() {
        let costs = vec![3.0, 1.0, 1.0, 1.0];
        let sim = simulate_loop(&costs, 2, Schedule::Dynamic { chunk: 1 });
        let tracer = obs::Tracer::new();
        sim.record_spans(&tracer, 10.0, obs::THREAD_TRACK_BASE, "gff.loop1");
        let trace = tracer.take();
        for t in 0..2u32 {
            let track = obs::THREAD_TRACK_BASE + t;
            let busy = trace.span_sum(track, "gff.loop1.busy");
            let idle = trace.span_sum(track, "gff.loop1.idle");
            assert!(
                (busy + idle - sim.makespan).abs() < 1e-12,
                "thread lane spans tile the makespan"
            );
            assert!((busy - sim.thread_busy[t as usize]).abs() < 1e-12);
        }
        // spans start at the requested offset
        let first = trace
            .spans
            .iter()
            .map(|s| s.start)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(first, 10.0);
    }

    #[test]
    fn record_metrics_summary() {
        let sim = simulate_loop(&[1.0; 8], 4, Schedule::Dynamic { chunk: 2 });
        let reg = obs::MetricsRegistry::new();
        sim.record_metrics(&reg, "loop1");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("loop1.chunks"), Some(4));
        assert_eq!(snap.gauge("loop1.efficiency"), Some(1.0));
        assert_eq!(snap.gauge("loop1.imbalance"), Some(1.0));
    }

    #[test]
    fn grouped_replay_per_rank() {
        use crate::schedule::chunked_round_robin;
        let costs = vec![1.0; 40];
        let groups = chunked_round_robin(40, 4, 5);
        let sims = simulate_grouped(&costs, &groups, 2, Schedule::Dynamic { chunk: 1 });
        assert_eq!(sims.len(), 4);
        // Each rank: 10 items over 2 threads -> makespan 5.
        for sim in &sims {
            assert!((sim.makespan - 5.0).abs() < 1e-12);
        }
    }

    #[test]
    fn grouped_skew_shows_imbalance() {
        use crate::schedule::chunked_round_robin;
        // Rank 0's chunks carry heavy items.
        let mut costs = vec![1.0; 40];
        for c in costs.iter_mut().take(5) {
            *c = 10.0;
        }
        let groups = chunked_round_robin(40, 4, 5);
        let sims = simulate_grouped(&costs, &groups, 1, Schedule::Dynamic { chunk: 1 });
        let times: Vec<f64> = sims.iter().map(|s| s.makespan).collect();
        let max = times.iter().cloned().fold(0.0, f64::max);
        let min = times.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max > 2.0 * min, "skewed chunks must show rank imbalance");
    }
}
