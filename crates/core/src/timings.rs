//! Timing records for the Chrysalis stages — the quantities Figs. 7–10 plot.
//!
//! Since the `obs` layer landed, these are *views* over an [`obs::Trace`]:
//! the stage drivers record named spans (`"gff.loop1"`, `"rtt.io"`,
//! `"bowtie.index"`, …) and the [`BowtieTimings::from_trace`] /
//! [`GffTimings::from_trace`] / [`RttTimings::from_trace`] constructors fold
//! them back into the flat per-rank records the figure drivers plot.
//! [`PhaseSpread`] itself now lives in `obs` and is re-exported here.

/// Min/max/mean of one phase across ranks (re-exported from [`obs`]).
pub use obs::PhaseSpread;

/// Extent of the first span named `name` on `track`, 0 when absent.
fn extent(trace: &obs::Trace, track: u32, name: &str) -> f64 {
    trace.span_bounds(track, name).map_or(0.0, |(s, e)| e - s)
}

/// Per-rank phase times of the distributed Bowtie step (virtual seconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BowtieTimings {
    /// PyFasta split (single-threaded, serial; every rank waits on it).
    pub split: f64,
    /// FM-index construction over this rank's slice.
    pub index: f64,
    /// Read alignment on this rank.
    pub align: f64,
    /// SAM merge at the master.
    pub merge: f64,
    /// Total stage time on this rank.
    pub total: f64,
}

impl BowtieTimings {
    /// Fold one rank's `bowtie.*` spans back into the flat record: each
    /// phase sums the spans of its name on `track` (`split`/`index`/
    /// `align`/`merge` → `"bowtie.split"`, …), and `total` is the extent of
    /// the `"bowtie.total"` stage span.
    pub fn from_trace(trace: &obs::Trace, track: u32) -> BowtieTimings {
        BowtieTimings {
            split: trace.span_sum(track, "bowtie.split"),
            index: trace.span_sum(track, "bowtie.index"),
            align: trace.span_sum(track, "bowtie.align"),
            merge: trace.span_sum(track, "bowtie.merge"),
            total: extent(trace, track, "bowtie.total"),
        }
    }
}

/// Per-rank GraphFromFasta phase times (virtual seconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GffTimings {
    /// Loop 1 (weld harvest) compute time on this rank.
    pub loop1: f64,
    /// Loop 1 allgatherv (string pooling) time.
    pub comm1: f64,
    /// Loop 2 (pair matching) compute time on this rank.
    pub loop2: f64,
    /// Loop 2 allgatherv (integer pooling) time.
    pub comm2: f64,
    /// Non-parallel regions (weld-set setup, clustering, output).
    pub serial: f64,
    /// Total GraphFromFasta time on this rank.
    pub total: f64,
}

impl GffTimings {
    /// Fold one rank's `gff.*` spans back into the flat record.
    ///
    /// `loop1/comm1/loop2/comm2` are the summed durations of the spans of
    /// the same name on `track`; `total` is the extent of the `"gff.total"`
    /// stage span; `serial` is the residual — total minus the four phases
    /// and the `"gff.prep"` span — clamped at zero.
    pub fn from_trace(trace: &obs::Trace, track: u32) -> GffTimings {
        let loop1 = trace.span_sum(track, "gff.loop1");
        let comm1 = trace.span_sum(track, "gff.comm1");
        let loop2 = trace.span_sum(track, "gff.loop2");
        let comm2 = trace.span_sum(track, "gff.comm2");
        let prep = trace.span_sum(track, "gff.prep");
        let total = extent(trace, track, "gff.total");
        GffTimings {
            loop1,
            comm1,
            loop2,
            comm2,
            serial: (total - prep - loop1 - comm1 - loop2 - comm2).max(0.0),
            total,
        }
    }
}

/// Per-rank ReadsToTranscripts phase times (virtual seconds).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RttTimings {
    /// Building the k-mer→component table (OpenMP, not yet hybrid — the
    /// paper singles this out as the dominant residual).
    pub kmer_setup: f64,
    /// The MPI-distributed main loop (read assignment) on this rank.
    pub main_loop: f64,
    /// Redundant streaming I/O (every rank reads the whole file).
    pub io: f64,
    /// Concatenating per-rank output files (master only; ~constant).
    pub concat: f64,
    /// Total ReadsToTranscripts time on this rank.
    pub total: f64,
}

impl RttTimings {
    /// Fold one rank's `rtt.*` spans back into the flat record:
    /// `kmer_setup`/`io`/`concat` sum the spans of the same name,
    /// `main_loop` sums `"rtt.loop"`, and `total` is the extent of the
    /// `"rtt.total"` stage span.
    pub fn from_trace(trace: &obs::Trace, track: u32) -> RttTimings {
        RttTimings {
            kmer_setup: trace.span_sum(track, "rtt.kmer_setup"),
            main_loop: trace.span_sum(track, "rtt.loop"),
            io: trace.span_sum(track, "rtt.io"),
            concat: trace.span_sum(track, "rtt.concat"),
            total: extent(trace, track, "rtt.total"),
        }
    }
}

/// The read-file chunks a ReadsToTranscripts rank uploaded, in upload
/// order: the `chunk` arg of each `"rtt.io"` span on `track`.
pub fn rtt_io_chunks(trace: &obs::Trace, track: u32) -> Vec<usize> {
    let io = trace.on_track(track).filter(|sp| sp.name == "rtt.io");
    io.filter_map(|sp| Some(sp.arg("chunk")? as usize))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_over_records() {
        let times = [1.0f64, 3.0, 2.0];
        let s = PhaseSpread::over(&times, |&t| t);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.imbalance() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_spread() {
        let s = PhaseSpread::over::<f64>(&[], |&t| t);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.imbalance(), 1.0);
    }

    #[test]
    fn gff_from_trace_sums_phases_and_residual() {
        let tr = obs::Tracer::new();
        tr.record(2, "stage", "gff.total", 0.0, 10.0);
        tr.record(2, "compute", "gff.prep", 0.0, 1.0);
        tr.record(2, "compute", "gff.loop1", 1.0, 4.0);
        tr.record(2, "comm", "gff.comm1", 4.0, 5.0);
        tr.record(2, "compute", "gff.loop2", 5.0, 7.0);
        tr.record(2, "comm", "gff.comm2", 7.0, 7.5);
        let t = GffTimings::from_trace(&tr.take(), 2);
        assert_eq!(t.loop1, 3.0);
        assert_eq!(t.comm1, 1.0);
        assert_eq!(t.loop2, 2.0);
        assert_eq!(t.comm2, 0.5);
        assert_eq!(t.total, 10.0);
        assert!((t.serial - 2.5).abs() < 1e-12);
    }

    #[test]
    fn bowtie_from_trace_sums_phases() {
        let tr = obs::Tracer::new();
        tr.record(1, "stage", "bowtie.total", 0.0, 9.0);
        tr.record(1, "compute", "bowtie.plan", 0.0, 1.0);
        tr.record(1, "comm", "mpi.bcast", 1.0, 1.5);
        tr.record(1, "comm", "bowtie.split", 0.0, 1.5);
        tr.record(1, "compute", "bowtie.index", 1.5, 3.0);
        tr.record(1, "compute", "bowtie.align", 3.0, 7.0);
        tr.record(1, "comm", "bowtie.merge", 7.0, 9.0);
        // Another rank's lane does not leak in.
        tr.record(2, "compute", "bowtie.align", 0.0, 100.0);
        let t = BowtieTimings::from_trace(&tr.take(), 1);
        assert_eq!(t.split, 1.5);
        assert_eq!(t.index, 1.5);
        assert_eq!(t.align, 4.0);
        assert_eq!(t.merge, 2.0);
        assert_eq!(t.total, 9.0);
    }

    #[test]
    fn rtt_from_trace_sums_repeated_spans() {
        let tr = obs::Tracer::new();
        tr.record(0, "stage", "rtt.total", 0.0, 8.0);
        tr.record(0, "compute", "rtt.kmer_setup", 0.0, 2.0);
        // Chunked streaming: io/loop spans repeat per chunk and must sum.
        tr.record(0, "io", "rtt.io", 2.0, 2.5);
        tr.record(0, "compute", "rtt.loop", 2.5, 4.0);
        tr.record(0, "io", "rtt.io", 4.0, 4.5);
        tr.record(0, "compute", "rtt.loop", 4.5, 6.0);
        tr.record(0, "comm", "rtt.concat", 6.0, 8.0);
        let t = RttTimings::from_trace(&tr.take(), 0);
        assert_eq!(t.kmer_setup, 2.0);
        assert_eq!(t.io, 1.0);
        assert_eq!(t.main_loop, 3.0);
        assert_eq!(t.concat, 2.0);
        assert_eq!(t.total, 8.0);
    }

    #[test]
    fn missing_spans_give_zeroed_timings() {
        let empty = obs::Trace::default();
        assert_eq!(
            BowtieTimings::from_trace(&empty, 0),
            BowtieTimings::default()
        );
        assert_eq!(GffTimings::from_trace(&empty, 0), GffTimings::default());
        assert_eq!(RttTimings::from_trace(&empty, 0), RttTimings::default());
    }
}
