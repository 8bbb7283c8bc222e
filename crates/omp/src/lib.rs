//! OpenMP-like shared-memory substrate.
//!
//! Chrysalis' compute loops are OpenMP `parallel for` loops with dynamic
//! scheduling; the paper's hybrid port keeps those loops and layers a
//! chunked-round-robin MPI distribution on top. This crate reproduces the
//! shared-memory half:
//!
//! * [`schedule`] — the one schedule, `schedule(dynamic, chunk)`, and the
//!   chunk sequence it deals;
//! * [`pool`] — the [`Team`] contract (a parallel-for `for_each(n, body)`,
//!   `map` built on it, and an ordered loop) and [`Pool`], which runs it
//!   over OS threads with a shared dynamic cursor;
//! * [`makespan`] — a deterministic list-scheduling replay that converts
//!   measured per-item costs into per-thread busy times and a loop makespan
//!   for *any* configured thread count, and [`CostedTeam`], the `Team` on
//!   that virtual clock.
//!
//! The split between real execution and virtual-time replay is what lets the
//! benchmark harness reproduce the paper's strong-scaling curves on a single
//! core: items are executed (and timed) once, then the makespan of the
//! configured thread count is replayed exactly.

#![warn(missing_docs)]

pub mod makespan;
pub mod pool;
pub mod schedule;

pub use makespan::{simulate_loop, simulate_ordered, CostedTeam, LoopSim, RegionCost};
pub use pool::{ord_loop, par_loop, parallel_map_timed, timed, Pool, Team};
pub use schedule::{chunk_sequence, Schedule};
