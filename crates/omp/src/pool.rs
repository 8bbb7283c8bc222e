//! Real parallel execution of work loops, and the [`Team`] contract every
//! executor meets.
//!
//! [`Pool`] runs a parallel-for over OS threads with a shared atomic cursor
//! — the execution model of OpenMP `schedule(dynamic, 1)`. The benchmark
//! host has two cores, so a team of 16 threads time-slices them, which is
//! exactly why timing is handled separately by [`crate::makespan`]: the
//! *results* come from here, the *clock* from the replay.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};

/// A team of OS threads.
///
/// # Examples
///
/// ```
/// use omp::{Pool, Team};
///
/// let mut team = Pool::new(4);
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
}

/// The team a parallel region runs on. Code written against `Team` runs
/// unchanged on OS threads ([`Pool`]) and on the virtual clock
/// ([`crate::makespan::CostedTeam`], which executes once, measures, and
/// replays the configured thread count).
///
/// A region on a team is parallel-fors and ordered loops: the only serial
/// sections its workers idle behind are an ordered loop's lock. The two
/// loops have `seqio::par`'s two shapes, `par` and `ord`.
pub trait Team {
    /// Number of workers.
    fn threads(&self) -> usize;

    /// A parallel-for, `seqio::par`'s `par(n, body)`: `body(i)` runs once
    /// for every `i` in `0..n`, in any order and on any worker.
    fn for_each(&mut self, n: usize, body: &(dyn Fn(usize) + Sync));

    /// Map `f` over `items`, results in input order: [`Team::for_each`]
    /// over one result slot per item.
    fn map<T: Sync, R: Send>(&mut self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        // `f` runs before its slot is locked, so no slot is poisoned.
        let poisoned = "a slot is locked only to store a finished result";
        self.for_each(items.len(), &|i| {
            let r = f(&items[i]);
            *slots[i].lock().expect(poisoned) = Some(r);
        });
        let unfilled = "for_each visits every index";
        let result = |slot: Mutex<Option<R>>| slot.into_inner().expect(poisoned).expect(unfilled);
        slots.into_iter().map(result).collect()
    }

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

    /// Up to `threads` scoped workers claim indices from a shared cursor (a
    /// one-worker or one-index loop runs on the calling thread). A panicking
    /// body ends its worker; the rest finish the loop, then it re-panics.
    fn for_each(&mut self, n: usize, body: &(dyn Fn(usize) + Sync)) {
        let threads = self.threads.min(n);
        if threads <= 1 {
            return (0..n).for_each(body);
        }
        let cursor = AtomicUsize::new(0);
        crossbeam::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|_| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    body(i);
                });
            }
        })
        .expect("worker thread panicked");
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
    move |n, body| team.for_each(n, body)
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

/// Run `f` and measure its wall-clock duration in seconds — the program's
/// one wall-clock read. Every virtual-clock charge of measured work starts
/// here: per index of a [`crate::makespan::CostedTeam`] loop, per item of
/// [`parallel_map_timed`], and around each loop call and each region of a
/// `CostedTeam`.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = Pool::new(4).map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn map_single_thread_path() {
        let items = vec![1, 2, 3];
        assert_eq!(Pool::new(1).map(&items, |&x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn map_empty() {
        let items: Vec<u32> = vec![];
        assert!(Pool::new(8).map(&items, |&x| x).is_empty());
    }

    #[test]
    fn map_more_threads_than_items() {
        let items = vec![5u32; 3];
        assert_eq!(Pool::new(64).map(&items, |&x| x).len(), 3);
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
    fn for_each_raises_a_panicking_body_without_hanging() {
        // The loop runs on a helper thread so that a hang fails the test
        // instead of stalling it.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let caught = panic::catch_unwind(|| {
                Pool::new(4).for_each(1000, &|i| assert_ne!(i, 7, "body panics at 7"));
            });
            done.send(caught.is_err()).unwrap();
        });
        let raised = finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("for_each returned after a panicking body");
        assert!(raised, "the body's panic reaches the caller");
    }

    #[test]
    fn map_keeps_input_order_when_for_each_runs_in_reverse() {
        /// A team whose loop visits the indices last to first.
        struct Reversed(Mutex<Vec<usize>>);
        impl Team for Reversed {
            fn threads(&self) -> usize {
                2
            }
            fn for_each(&mut self, n: usize, body: &(dyn Fn(usize) + Sync)) {
                for i in (0..n).rev() {
                    self.0.lock().unwrap().push(i);
                    body(i);
                }
            }
            fn ordered(
                &mut self,
                _: usize,
                _: &mut (dyn FnMut() -> bool + Send),
                _: &(dyn Fn(usize) + Sync),
                _: &mut (dyn FnMut(usize) + Send),
            ) {
                unreachable!("map runs no ordered loop")
            }
        }
        let mut team = Reversed(Mutex::new(Vec::new()));
        let words = ["a", "bb", "ccc", "dddd", "eeeee"];
        assert_eq!(team.map(&words, |w| w.len()), [1, 2, 3, 4, 5]);
        assert_eq!(team.0.into_inner().unwrap(), [4, 3, 2, 1, 0]);
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
        let out = Pool::new(8).map(&items, |&x| vec![x; x % 5]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.len(), i % 5);
        }
    }
}
