//! An abortable, reusable (sense-reversing) thread barrier.
//!
//! `std::sync::Barrier` blocks forever if a participant never arrives —
//! exactly what happens when a simulated rank crashes while its peers sit
//! in a collective. [`SimBarrier`] adds an [`SimBarrier::abort`] switch:
//! aborting wakes every waiter of the incomplete generation and makes every
//! future `wait` return [`Aborted`] immediately, so surviving ranks can
//! unwind instead of deadlocking.

use std::sync::{Condvar, Mutex};

/// Error returned by [`SimBarrier::wait`] once the barrier is aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aborted;

#[derive(Debug)]
struct State {
    /// Waiters in the current generation.
    count: usize,
    /// Incremented each time a generation completes; waiters key on it.
    generation: u64,
    aborted: bool,
}

/// A reusable barrier for `n` threads that can be aborted.
#[derive(Debug)]
pub struct SimBarrier {
    n: usize,
    state: Mutex<State>,
    cvar: Condvar,
}

impl SimBarrier {
    /// A barrier for `n` participants.
    pub fn new(n: usize) -> Self {
        SimBarrier {
            n,
            state: Mutex::new(State {
                count: 0,
                generation: 0,
                aborted: false,
            }),
            cvar: Condvar::new(),
        }
    }

    /// Block until all `n` participants have called `wait` (then all are
    /// released together), or until the barrier is aborted. A generation
    /// that completed is `Ok` for every waiter in it, even if an abort
    /// lands before a waiter wakes: how far a rank gets must not depend on
    /// thread timing.
    pub fn wait(&self) -> Result<(), Aborted> {
        let mut st = self.state.lock().expect("barrier lock");
        if st.aborted {
            return Err(Aborted);
        }
        st.count += 1;
        if st.count == self.n {
            st.count = 0;
            st.generation = st.generation.wrapping_add(1);
            self.cvar.notify_all();
            return Ok(());
        }
        let gen = st.generation;
        while st.generation == gen && !st.aborted {
            st = self.cvar.wait(st).expect("barrier lock");
        }
        if st.generation == gen {
            Err(Aborted)
        } else {
            Ok(())
        }
    }

    /// Abort: wake the waiters of the incomplete generation with
    /// [`Aborted`] and make every future `wait` fail fast. Irreversible
    /// for the barrier's lifetime.
    pub fn abort(&self) {
        let mut st = self.state.lock().expect("barrier lock");
        st.aborted = true;
        self.cvar.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn releases_all_waiters_together() {
        let b = SimBarrier::new(4);
        let passed = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        b.wait().unwrap();
                        passed.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(passed.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn abort_wakes_blocked_waiters() {
        let b = SimBarrier::new(3);
        std::thread::scope(|s| {
            let h1 = s.spawn(|| b.wait());
            let h2 = s.spawn(|| b.wait());
            // Give both a chance to block, then abort instead of arriving.
            std::thread::sleep(std::time::Duration::from_millis(20));
            b.abort();
            assert_eq!(h1.join().unwrap(), Err(Aborted));
            assert_eq!(h2.join().unwrap(), Err(Aborted));
        });
    }

    #[test]
    fn aborted_barrier_fails_fast() {
        let b = SimBarrier::new(2);
        b.abort();
        assert_eq!(b.wait(), Err(Aborted));
        assert_eq!(b.wait(), Err(Aborted), "abort is sticky");
    }

    /// The last arriver aborts right after its own `wait` returns: the
    /// generation it completed still releases the first waiter with `Ok`.
    #[test]
    fn completed_generation_survives_a_later_abort() {
        for round in 0..10_000 {
            let b = SimBarrier::new(2);
            std::thread::scope(|s| {
                let first = s.spawn(|| b.wait());
                while b.state.lock().expect("barrier lock").count == 0 {
                    std::thread::yield_now();
                }
                assert_eq!(b.wait(), Ok(()), "round {round}: last arriver");
                b.abort();
                assert_eq!(first.join().unwrap(), Ok(()), "round {round}: first waiter");
            });
        }
    }

    #[test]
    fn single_participant_never_blocks() {
        let b = SimBarrier::new(1);
        for _ in 0..10 {
            b.wait().unwrap();
        }
    }
}
