//! OpenMP-like shared-memory substrate.
//!
//! Chrysalis' compute loops are OpenMP `parallel for` loops with dynamic
//! scheduling; the paper's hybrid port keeps those loops and layers a
//! chunked-round-robin MPI distribution on top. This crate reproduces the
//! shared-memory half:
//!
//! * [`schedule`] — the scheduling policies (static, dynamic, guided) and the
//!   chunk sequences they generate;
//! * [`pool`] — real parallel execution of a work loop over OS threads with a
//!   shared dynamic queue (the execution model of `schedule(dynamic)`);
//! * [`makespan`] — a deterministic list-scheduling replay that converts
//!   measured per-item costs into per-thread busy times and a loop makespan
//!   for *any* configured thread count.
//!
//! The split between real execution and virtual-time replay is what lets the
//! benchmark harness reproduce the paper's strong-scaling curves on a single
//! core: items are executed (and timed) once, then the makespan of the
//! configured `(threads, schedule)` is replayed exactly.

#![warn(missing_docs)]

pub mod makespan;
pub mod pool;
pub mod schedule;

pub use makespan::{costed_loop, simulate_loop, simulate_ordered, CostedTeam, LoopSim, RegionCost};
pub use pool::{ord_loop, par_loop, parallel_map, parallel_map_timed, timed, Pool, Team};
pub use schedule::{chunk_sequence, Schedule};
