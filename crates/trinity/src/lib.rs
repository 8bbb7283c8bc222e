//! The Trinity pipeline driver.
//!
//! Equivalent of `Trinity.pl`: runs Jellyfish → Inchworm → Chrysalis →
//! Butterfly over a read set, in the original single-node layout or with
//! the paper's hybrid MPI+OpenMP Chrysalis (`--nprocs`, §III-C's extended
//! command line). [`pipeline`] records the per-stage runtime/RAM timeline
//! that Figs. 2 and 11 plot into an [`obs::Trace`] (plus an
//! [`obs::MetricsSnapshot`] of table/comm health); [`report`] renders the
//! collectl-style text views and writes the trace's files (Chrome
//! `trace_event`, its analysis and flamegraph).

pub mod checkpoint;
pub mod pipeline;
pub mod report;

pub use pipeline::{
    run_pipeline, run_pipeline_opts, PipelineConfig, PipelineMode, PipelineOutput, RunOptions,
};
