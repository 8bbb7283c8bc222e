//! Real parallel execution of work loops.
//!
//! [`parallel_map`] executes a loop body over a slice with a shared atomic
//! cursor — the execution model of OpenMP `schedule(dynamic, 1)`. On this
//! workspace's single-core benchmark host the threads serialize, which is
//! exactly why timing is handled separately by [`crate::makespan`]: the
//! *results* come from here, the *clock* from the replay.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// A simple reusable description of a thread team.
///
/// # Examples
///
/// ```
/// use omp::Pool;
///
/// let team = Pool::new(4);
/// let squares = team.map(&[1, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]); // input order is preserved
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    /// Number of worker threads the team uses.
    pub threads: usize,
}

impl Pool {
    /// Create a team of `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// Map `f` over `items` with dynamic self-scheduling.
    pub fn map<T: Sync, R: Send>(&self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        parallel_map(items, self.threads, f)
    }
}

/// The team a parallel region runs on. Code written against `Team` runs
/// unchanged on OS threads ([`Pool`]) and on the virtual clock
/// ([`crate::makespan::CostedTeam`], which executes once, measures, and
/// replays the configured thread count).
///
/// A region on a team is parallel-fors and ordered loops: the only serial
/// sections its workers idle behind are an ordered loop's lock.
pub trait Team {
    /// Number of workers.
    fn threads(&self) -> usize;

    /// A parallel-for: map `f` over `items`, results in input order.
    fn map<T: Sync, R: Send>(&mut self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R>;

    /// An ordered loop, `seqio::par`'s `ord(window, take, work, commit)`:
    /// `take` claims task `i` (the count so far) or returns false, `work(i)`
    /// runs on any worker, `take` and `commit(i)` run under one lock and
    /// commits come in index order, with at most `window` tasks taken but
    /// not yet committed.
    fn ordered(
        &mut self,
        window: usize,
        take: &mut (dyn FnMut() -> bool + Send),
        work: &(dyn Fn(usize) + Sync),
        commit: &mut (dyn FnMut(usize) + Send),
    );
}

impl Team for Pool {
    fn threads(&self) -> usize {
        self.threads
    }

    fn map<T: Sync, R: Send>(&mut self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        parallel_map(items, self.threads, f)
    }

    /// One mutex guards `take`, `commit` and the window; a worker that
    /// finds the window full waits on a condvar for the next commit. The
    /// worker that finishes the oldest task commits every finished task
    /// behind it.
    fn ordered(
        &mut self,
        window: usize,
        take: &mut (dyn FnMut() -> bool + Send),
        work: &(dyn Fn(usize) + Sync),
        commit: &mut (dyn FnMut(usize) + Send),
    ) {
        /// What the lock guards.
        struct Line<'a> {
            take: &'a mut (dyn FnMut() -> bool + Send),
            commit: &'a mut (dyn FnMut(usize) + Send),
            committed: usize,
            /// Per taken, uncommitted task, oldest first: has it finished?
            finished: VecDeque<bool>,
            done: bool,
        }
        let window = window.max(1);
        let line = Mutex::new(Line {
            take,
            commit,
            committed: 0,
            finished: VecDeque::new(),
            done: false,
        });
        let room = Condvar::new();
        let poisoned = "another worker of the ordered loop panicked";
        let worker = || {
            let mut last: Option<usize> = None;
            loop {
                let mut l = line.lock().expect(poisoned);
                if let Some(i) = last {
                    let at = i - l.committed;
                    l.finished[at] = true;
                }
                while l.finished.front() == Some(&true) {
                    l.finished.pop_front();
                    let i = l.committed;
                    (l.commit)(i);
                    l.committed += 1;
                    room.notify_all();
                }
                while !l.done && l.finished.len() == window {
                    l = room.wait(l).expect(poisoned);
                }
                if l.done || !(l.take)() {
                    l.done = true;
                    room.notify_all();
                    return;
                }
                let i = l.committed + l.finished.len();
                l.finished.push_back(false);
                drop(l);
                work(i);
                last = Some(i);
            }
        };
        crossbeam::scope(|scope| {
            for _ in 0..self.threads {
                scope.spawn(|_| {
                    // A task that panicked never commits: release the
                    // workers waiting for room before unwinding.
                    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(worker)) {
                        line.lock().unwrap_or_else(PoisonError::into_inner).done = true;
                        room.notify_all();
                        panic::resume_unwind(payload);
                    }
                });
            }
        })
        .expect("worker thread panicked");
    }
}

/// `team`'s parallel-for as a `par(n, body)` loop over `0..n`: the form in
/// which the stage builders (`seqio::par`) take their loops.
pub fn par_loop<T: Team>(team: &mut T) -> impl FnMut(usize, &(dyn Fn(usize) + Sync)) + '_ {
    move |n, body| {
        team.map(&(0..n).collect::<Vec<_>>(), |&i| body(i));
    }
}

/// `team`'s ordered loop as `ord(window, take, work, commit)`: the form in
/// which the Inchworm walks (`seqio::par`) take it.
#[allow(clippy::type_complexity)]
pub fn ord_loop<T: Team>(
    team: &mut T,
) -> impl FnMut(
    usize,
    &mut (dyn FnMut() -> bool + Send),
    &(dyn Fn(usize) + Sync),
    &mut (dyn FnMut(usize) + Send),
) + '_ {
    move |window, take, work, commit| team.ordered(window, take, work, commit)
}

/// Map `f` over `items` using `threads` OS threads and a shared cursor
/// (dynamic schedule, chunk 1). Results are returned in input order.
pub fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let out_slots = SlotWriter::new(&mut out);
    crossbeam::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|_| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                // SAFETY: each index is claimed exactly once by the cursor.
                unsafe { out_slots.write(i, r) };
            });
        }
    })
    .expect("worker thread panicked");
    out.into_iter().map(|r| r.expect("slot filled")).collect()
}

/// Run `f` and measure its wall-clock duration in seconds — the program's
/// one wall-clock read. Every virtual-clock charge of measured work starts
/// here, either per item ([`parallel_map_timed`]) or around a serial region.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Map `f` over `items`, also measuring each item's wall-clock cost in
/// seconds. Runs *single-threaded* so the per-item costs are clean; callers
/// feed the costs into the makespan replay to obtain parallel timings.
pub fn parallel_map_timed<T, R>(items: &[T], mut f: impl FnMut(&T) -> R) -> (Vec<R>, Vec<f64>) {
    items.iter().map(|item| timed(|| f(item))).unzip()
}

/// Shared-slot writer used by `parallel_map` to scatter results by index
/// without locks. Each index must be written at most once.
struct SlotWriter<R> {
    ptr: *mut Option<R>,
}

impl<R> SlotWriter<R> {
    fn new(slots: &mut [Option<R>]) -> Self {
        SlotWriter {
            ptr: slots.as_mut_ptr(),
        }
    }

    /// # Safety
    /// `i` must be in bounds and claimed by exactly one writer.
    unsafe fn write(&self, i: usize, value: R) {
        std::ptr::write(self.ptr.add(i), Some(value));
    }
}

// SAFETY: disjoint-index writes are externally guaranteed by the atomic
// cursor; the raw pointer itself is safe to share under that protocol.
unsafe impl<R: Send> Sync for SlotWriter<R> {}
unsafe impl<R: Send> Send for SlotWriter<R> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = parallel_map(&items, 4, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_single_thread_path() {
        let items = vec![1, 2, 3];
        assert_eq!(parallel_map(&items, 1, |&x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn map_empty() {
        let items: Vec<u32> = vec![];
        assert!(parallel_map(&items, 8, |&x| x).is_empty());
    }

    #[test]
    fn map_more_threads_than_items() {
        let items = vec![5u32; 3];
        assert_eq!(parallel_map(&items, 64, |&x| x).len(), 3);
    }

    #[test]
    fn pool_interface() {
        let p = Pool::new(0);
        assert_eq!(p.threads, 1);
        let out = Pool::new(3).map(&[1, 2, 3, 4], |&x| x * x);
        assert_eq!(out, vec![1, 4, 9, 16]);
    }

    #[test]
    fn timed_map_returns_costs() {
        let items = vec![10u64, 20, 30];
        let (out, costs) = parallel_map_timed(&items, |&x| x + 1);
        assert_eq!(out, vec![11, 21, 31]);
        assert_eq!(costs.len(), 3);
        assert!(costs.iter().all(|&c| c >= 0.0));
    }

    #[test]
    fn par_loop_runs_every_index_once() {
        use std::sync::atomic::AtomicU64;
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        let mut pool = Pool::new(3);
        par_loop(&mut pool)(hits.len(), &|i| {
            hits[i].fetch_add(i as u64 + 1, Ordering::Relaxed);
        });
        let got: Vec<u64> = hits.iter().map(|h| h.load(Ordering::Relaxed)).collect();
        assert_eq!(got, (1..=100).collect::<Vec<u64>>());
    }

    #[test]
    fn ordered_commits_each_task_once_in_order_when_completions_come_reversed() {
        use std::sync::atomic::AtomicBool;
        // Four workers, four tasks, each waiting for every later one to
        // finish: they finish 3, 2, 1, 0 and still commit 0, 1, 2, 3.
        let n = 4;
        let done: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
        let finish_order = Mutex::new(Vec::new());
        let (mut taken, mut commits) = (0, Vec::new());
        Pool::new(n).ordered(
            n,
            &mut || {
                taken += 1;
                taken <= n
            },
            &|i| {
                while done[i + 1..].iter().any(|d| !d.load(Ordering::SeqCst)) {
                    std::thread::yield_now();
                }
                finish_order.lock().unwrap().push(i);
                done[i].store(true, Ordering::SeqCst);
            },
            &mut |i| commits.push(i),
        );
        assert_eq!(finish_order.into_inner().unwrap(), [3, 2, 1, 0]);
        assert_eq!(commits, [0, 1, 2, 3]);
    }

    #[test]
    fn ordered_keeps_at_most_window_tasks_in_flight() {
        let (n, window) = (200, 5);
        let (mut taken, mut commits) = (0, Vec::new());
        let in_flight = AtomicUsize::new(0);
        Pool::new(3).ordered(
            window,
            &mut || {
                let more = taken < n;
                if more {
                    taken += 1;
                    assert!(in_flight.fetch_add(1, Ordering::SeqCst) < window);
                }
                more
            },
            &|i| {
                std::hint::black_box((0..(i % 7) * 100).sum::<usize>());
            },
            &mut |i| {
                in_flight.fetch_sub(1, Ordering::SeqCst);
                commits.push(i);
            },
        );
        assert_eq!(commits, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn map_with_nontrivial_results() {
        let items: Vec<usize> = (0..200).collect();
        let out = parallel_map(&items, 8, |&x| vec![x; x % 5]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.len(), i % 5);
        }
    }
}
