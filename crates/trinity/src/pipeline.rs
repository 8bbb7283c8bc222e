//! The end-to-end Trinity pipeline.
//!
//! Bowtie, GraphFromFasta and ReadsToTranscripts are rank programs and run
//! on the simulated cluster at every rank count: [`PipelineMode::Serial`]
//! is one rank on a free network, nothing more, so a fault plan reaches the
//! same collectives at one rank as at seven.
//!
//! Observability: the pipeline records into one [`obs::Tracer`] — track 0
//! carries collectl-style `cat:"stage"` spans (with a modelled-RAM `"ram"`
//! arg and counter series, Figs. 2/11), per-rank cluster-stage sub-traces
//! are spliced onto tracks [`RANK_TRACK_BASE`]` + rank`, and OpenMP
//! busy/idle lanes sit at [`obs::THREAD_TRACK_BASE`]` + thread` — the
//! pipeline's own loops and rank 0's on the same lanes. Table/counter
//! health goes into an [`obs::MetricsRegistry`]; both land in
//! [`PipelineOutput`] ready for the JSON / Chrome-trace exporters in
//! [`obs::export`].

use std::path::{Path, PathBuf};
use std::sync::Arc;

use seqio::fasta::Record;
use seqio::packed::{PackedSeq, SeqioStats};

use bowtie::align::AlignConfig;
use butterfly::transcripts::{reconstruct_component, ComponentInput, ReconstructionConfig};
use chrysalis::bowtie_mpi::{bowtie_mpi, contig_name_index};
use chrysalis::config::ChrysalisConfig;
use chrysalis::graph_from_fasta::{cluster, gff_hybrid, GffShared};
use chrysalis::reads_to_transcripts::{rtt_hybrid, RttShared};
use chrysalis::scaffold::{scaffold_pairs_on, ScaffoldConfig};
use chrysalis::timings::{BowtieTimings, GffTimings, RttTimings};
use inchworm::assemble::{assemble_on, InchwormConfig, WINDOW_PER_THREAD};
use inchworm::dictionary::Dictionary;
use kcount::counter::{count_kmers_on, CounterConfig, KmerCounts};
use mpisim::cluster::cluster_time;
use mpisim::{run_cluster, run_cluster_faulty, Comm, FaultPlan, NetModel, RankOutput};
use omp::makespan::{costed_loop, CostedTeam, LoopSim};
use omp::Team;

use crate::checkpoint as ckpt;

/// Rough resident-set model for the pipeline's data structures. The
/// coefficients are hash-map-overhead multipliers, not exact science —
/// the *shape* (Jellyfish/Inchworm dominate memory, Chrysalis dominates
/// time) is what Figs. 2/11 show.
pub mod ram {
    /// Jellyfish: distinct k-mers × (key + count + table overhead).
    pub fn jellyfish(distinct_kmers: usize) -> u64 {
        (distinct_kmers as u64) * 48
    }

    /// Inchworm: the dictionary (sorted vec + hash) plus contig text.
    pub fn inchworm(distinct_kmers: usize, contig_bytes: usize) -> u64 {
        (distinct_kmers as u64) * 64 + contig_bytes as u64
    }

    /// Bowtie: FM-index ≈ 6 bytes per reference base (SA + BWT + Occ)
    /// plus the read stream buffer.
    pub fn bowtie(ref_bases: usize, read_buffer: usize) -> u64 {
        (ref_bases as u64) * 6 + read_buffer as u64
    }

    /// GraphFromFasta: contigs + k-mer map + welds.
    pub fn graph_from_fasta(contig_bytes: usize, kmer_entries: usize, weld_bytes: usize) -> u64 {
        contig_bytes as u64 + (kmer_entries as u64) * 56 + weld_bytes as u64
    }

    /// ReadsToTranscripts: k-mer→component table + one chunk of reads.
    pub fn reads_to_transcripts(kmer_entries: usize, chunk_bytes: usize) -> u64 {
        (kmer_entries as u64) * 40 + chunk_bytes as u64
    }

    /// Butterfly: graph nodes/edges per component (peak over components).
    pub fn butterfly(max_component_nodes: usize) -> u64 {
        (max_component_nodes as u64) * 96
    }
}

/// Track offset for per-rank sub-traces spliced into the pipeline trace:
/// rank `r`'s spans land on track `RANK_TRACK_BASE + r`.
pub const RANK_TRACK_BASE: u32 = 1;

/// Category of the zero-length track-0 marker left where a stage did not
/// run because nothing downstream consumes its output (Bowtie on a run
/// that resumes QuantifyGraph). Not a `cat:"stage"` span: it has no
/// duration to report and no RAM.
pub const SKIPPED_CAT: &str = "skipped";

/// Serial (single-node OpenMP) or hybrid (MPI+OpenMP) execution.
#[derive(Debug, Clone, Copy)]
pub enum PipelineMode {
    /// The original Trinity layout: one node, OpenMP threads — one rank on
    /// [`NetModel::ideal`].
    Serial,
    /// The paper's layout: `ranks` nodes, 16 threads each.
    Hybrid {
        /// MPI ranks (nodes).
        ranks: usize,
        /// Interconnect model.
        net: NetModel,
    },
}

/// Pipeline parameters (the `Trinity.pl` command line).
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// Chrysalis parameters (k, threads, schedule, chunking …).
    pub chrysalis: ChrysalisConfig,
    /// Inchworm parameters.
    pub inchworm: InchwormConfig,
    /// Jellyfish minimum k-mer count (error filter).
    pub min_kmer_count: u32,
    /// Butterfly parameters.
    pub reconstruction: ReconstructionConfig,
    /// Bowtie parameters.
    pub align: AlignConfig,
    /// Scaffolding parameters.
    pub scaffold: ScaffoldConfig,
    /// Execution mode.
    pub mode: PipelineMode,
}

impl PipelineConfig {
    /// A small-k configuration suitable for tests and examples.
    pub fn small(k: usize) -> Self {
        let chrysalis = ChrysalisConfig::small(k);
        PipelineConfig {
            chrysalis,
            inchworm: InchwormConfig {
                min_seed_count: 1,
                min_extend_count: 1,
                min_contig_len: 2 * k,
                jitter_seed: None,
            },
            min_kmer_count: 1,
            reconstruction: ReconstructionConfig {
                k,
                paths: butterfly::paths::PathConfig {
                    min_len: 2 * k,
                    ..Default::default()
                },
                // Prune weight-1 edges: a single erroneous read cannot open
                // an isoform bubble (contigs thread at weight 2).
                min_edge_weight: 2,
                ..Default::default()
            },
            align: AlignConfig {
                max_mismatches: 1,
                ..Default::default()
            },
            scaffold: ScaffoldConfig::default(),
            mode: PipelineMode::Serial,
        }
    }

    /// The paper's production-style configuration at word size `k`.
    pub fn paper(k: usize) -> Self {
        let mut cfg = Self::small(k);
        cfg.chrysalis = ChrysalisConfig {
            k,
            ..ChrysalisConfig::default()
        };
        cfg.inchworm.min_seed_count = 2;
        cfg.min_kmer_count = 1;
        cfg
    }
}

/// Run-level options orthogonal to [`PipelineConfig`]: fault injection
/// for the simulated cluster stages and stage-level checkpoint/resume.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Deterministic fault plan applied to every cluster stage (Bowtie,
    /// GraphFromFasta, ReadsToTranscripts). Delays and drops perturb
    /// virtual time only; rank crashes trigger a deterministic stage
    /// replay (crash points are one-shot).
    pub faults: Option<Arc<FaultPlan>>,
    /// Directory for stage checkpoints. When set, each checkpointable
    /// stage writes its output (with a content checksum) after completing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Resume from `checkpoint_dir`: skip each stage whose checkpoint
    /// validates, for as long as the completed prefix holds. The first
    /// missing or corrupt checkpoint switches the rest of the run back to
    /// compute-and-save.
    pub resume: bool,
}

/// What a finished stage puts under its track-0 span.
#[derive(Default)]
struct StageRun {
    /// Virtual duration (replayed from the checkpoint when resumed).
    time: f64,
    /// Sub-traces (clocks from 0) spliced onto the rank lanes at the
    /// stage's start.
    traces: Vec<obs::Trace>,
    /// Entries of the stage's k-mer lookup table for the RAM model — known
    /// only to a computed run, 0 when resumed.
    table_entries: usize,
}

impl StageRun {
    fn timed(time: f64) -> Self {
        StageRun {
            time,
            ..Default::default()
        }
    }
}

/// A checkpoint read back: the decoded stage output and its recorded
/// duration, or why the file cannot be used.
type Loaded<T> = Result<(T, f64), ckpt::CkptError>;

/// A cluster stage run to completion.
struct ClusterRun<T> {
    /// Per-rank outputs of the successful attempt (one in serial mode).
    values: Vec<T>,
    /// Total virtual time, replayed attempts included, and the lanes to
    /// splice: one per rank, then those salvaged from crashed attempts.
    stage: StageRun,
}

/// Everything the pipeline produced.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// Inchworm contigs.
    pub contigs: Vec<Record>,
    /// Final components (contig indices per component, after welding and
    /// scaffolding).
    pub components: Vec<Vec<usize>>,
    /// Read→component assignments.
    pub assignments: Vec<(u32, u32)>,
    /// Reconstructed transcripts.
    pub transcripts: Vec<Record>,
    /// Unified span trace: collectl-style stage spans + RAM counter on
    /// track 0, per-rank Chrysalis sub-traces on tracks
    /// [`RANK_TRACK_BASE`]` + rank`, OpenMP lanes at
    /// [`obs::THREAD_TRACK_BASE`]` + thread`. Export with
    /// [`obs::export::chrome_trace`] / [`obs::export::trace_json`].
    pub trace: obs::Trace,
    /// Table/counter health recorded during the run (k-mer table load
    /// factors, probe-length histograms, weld/assignment counts, MPI
    /// bytes). Export with [`obs::export::metrics_json`].
    pub metrics: obs::MetricsSnapshot,
    /// Per-rank GraphFromFasta timings (one entry in serial mode; empty
    /// when the stage was resumed from a checkpoint).
    pub gff_timings: Vec<GffTimings>,
    /// Per-rank ReadsToTranscripts timings (empty when resumed).
    pub rtt_timings: Vec<RttTimings>,
    /// Per-rank Bowtie timings (empty when QuantifyGraph was resumed: the
    /// stage is then skipped).
    pub bowtie_timings: Vec<BowtieTimings>,
}

fn seq_bytes(records: &[Record]) -> usize {
    records.iter().map(|r| r.seq.len()).sum()
}

/// Per-run driver state. Every stage crosses it the same way: resume →
/// compute → log → splice → save ([`Driver::stage`]).
struct Driver<'a> {
    /// The pipeline timeline; track 0 carries the collectl-style stage
    /// spans, each starting at `cursor`, where the previous one ended.
    obs: obs::Tracer,
    cursor: f64,
    /// Stage sub-traces, already shifted to their stage's start on the
    /// rank lanes; appended to the timeline in [`Driver::finish`].
    spliced: obs::Trace,
    metrics: obs::MetricsRegistry,
    /// Checkpoint directory, run fingerprint, and whether every stage so
    /// far resumed cleanly (resume consumes a completed *prefix*).
    ckpt_dir: Option<&'a Path>,
    fingerprint: u64,
    prefix_valid: bool,
    ranks: usize,
    net: NetModel,
    faults: Option<&'a Arc<FaultPlan>>,
}

impl<'a> Driver<'a> {
    fn new(reads: &[Record], cfg: &PipelineConfig, opts: &'a RunOptions) -> Self {
        let (ranks, net) = match cfg.mode {
            PipelineMode::Serial => (1, NetModel::ideal()),
            PipelineMode::Hybrid { ranks, net } => (ranks, net),
        };
        let ckpt_dir = opts.checkpoint_dir.as_deref();
        // The fingerprint covers the reads and the *whole* config, derived
        // from its `Debug` rendering so a new field can never be left out.
        // `RunOptions` stays out: a crashed run and its `--resume` differ
        // only there and must share checkpoints.
        let config_key = ckpt::fnv1a64(format!("{cfg:?}").as_bytes());
        let fingerprint = ckpt_dir.map_or(0, |_| ckpt::run_fingerprint(reads, &[config_key]));
        let obs = obs::Tracer::new();
        obs.name_track(0, "pipeline");
        Driver {
            obs,
            cursor: 0.0,
            spliced: obs::Trace::default(),
            metrics: obs::MetricsRegistry::new(),
            ckpt_dir,
            fingerprint,
            prefix_valid: opts.resume,
            ranks,
            net,
            faults: opts.faults.as_ref(),
        }
    }

    /// Read `stage`'s checkpoint — validate it (magic, version, checksum,
    /// fingerprint) and decode its payload — without counting anything:
    /// `None` when no dir is configured or an earlier stage already broke
    /// the completed prefix. The driver peeks at later stages with this
    /// before deciding whether Bowtie has a consumer.
    fn load<T>(&self, stage: &str, decode: impl FnOnce(&[u8]) -> Option<T>) -> Option<Loaded<T>> {
        let dir = self.ckpt_dir.filter(|_| self.prefix_valid)?;
        Some(ckpt::load(dir, self.fingerprint, stage).and_then(|ck| {
            let value = decode(&ck.payload).ok_or(ckpt::CkptError::BadPayload)?;
            Ok((value, ck.duration))
        }))
    }

    /// Account for a [`Driver::load`]: a stage resumes only if every earlier
    /// stage resumed cleanly and its own load succeeded. A missing file is
    /// the normal "not completed yet" case; a corrupt or undecodable one
    /// (FNV is not a MAC, so a crafted file can pass validation) is counted
    /// and reported before falling back to recompute. Each call site's
    /// `decode` also rejects a payload that does not fit what the run
    /// already holds (its `k`, contig, read and component counts).
    fn resume<T>(&mut self, stage: &str, loaded: Option<Loaded<T>>) -> Option<(T, f64)> {
        let loaded = loaded.filter(|_| self.prefix_valid)?;
        match loaded {
            Ok(resumed) => {
                self.metrics.counter("ckpt.resumed").add(1);
                Some(resumed)
            }
            Err(err) => {
                if !matches!(err, ckpt::CkptError::Io(_)) {
                    self.metrics.counter("ckpt.invalid").add(1);
                    eprintln!("checkpoint for {stage} rejected ({err}); recomputing");
                }
                self.prefix_valid = false;
                None
            }
        }
    }

    /// Persist a computed stage's output. Without a checkpoint dir nothing
    /// is written, so nothing is encoded either.
    fn save(&self, stage: &str, duration: f64, payload: impl FnOnce() -> Vec<u8>) {
        let Some(dir) = self.ckpt_dir else { return };
        match ckpt::save(dir, self.fingerprint, stage, duration, &payload()) {
            Ok(_) => {
                self.metrics.counter("ckpt.saved").add(1);
            }
            Err(e) => eprintln!("warning: could not write {stage} checkpoint: {e}"),
        }
    }

    /// Log + splice: append the stage as a `cat:"stage"` span on track 0,
    /// carrying the modelled RAM as a span arg and as a step in the `"ram"`
    /// counter series, and shift its sub-traces to its start.
    fn log_stage(&mut self, name: &str, peak_ram: u64, run: StageRun) {
        let (start, ram) = (self.cursor, peak_ram as f64);
        self.cursor += run.time.max(0.0);
        self.obs
            .record_with(0, "stage", name, start, self.cursor, &[("ram", ram)]);
        self.obs.counter(0, "ram", start, ram);
        self.obs.counter(0, "ram", self.cursor, ram);
        // Rank lanes move up past the pipeline lane; thread lanes are the
        // ones the pipeline's own loops draw on and stay where they are.
        let lane = |t| match t < obs::THREAD_TRACK_BASE {
            true => t + RANK_TRACK_BASE,
            false => t,
        };
        for sub in run.traces {
            self.spliced.merge_mapped(sub, start, lane);
        }
    }

    /// Draw an OpenMP loop replay of the stage about to be logged on the
    /// thread lanes (`{label}.busy`/`{label}.idle` from the stage's start)
    /// and record its summary under `{label}.loop`.
    fn log_omp_loop(&self, label: &str, sim: &LoopSim) {
        sim.record_metrics(&self.metrics, &format!("{label}.loop"));
        sim.record_spans(&self.obs, self.cursor, obs::THREAD_TRACK_BASE, label);
    }

    /// The one checkpointed-stage routine. A checkpoint that validates
    /// (while the completed prefix holds) is decoded and its recorded
    /// duration replayed; otherwise `compute` runs. Either way the stage is
    /// logged with `ram(value, table_entries)` and its sub-traces spliced;
    /// a computed stage is then saved.
    fn stage<T>(
        &mut self,
        name: &str,
        decode: impl FnOnce(&[u8]) -> Option<T>,
        encode: impl FnOnce(&T) -> Vec<u8>,
        ram: impl FnOnce(&T, usize) -> u64,
        compute: impl FnOnce(&Self) -> (T, StageRun),
    ) -> T {
        let loaded = self.load(name, decode);
        self.stage_from(name, loaded, encode, ram, compute)
    }

    /// [`Driver::stage`] over a checkpoint that was already read.
    fn stage_from<T>(
        &mut self,
        name: &str,
        loaded: Option<Loaded<T>>,
        encode: impl FnOnce(&T) -> Vec<u8>,
        ram: impl FnOnce(&T, usize) -> u64,
        compute: impl FnOnce(&Self) -> (T, StageRun),
    ) -> T {
        let resumed = self.resume(name, loaded);
        let computed = resumed.is_none();
        let (value, run) = match resumed {
            Some((value, duration)) => (value, StageRun::timed(duration)),
            None => compute(self),
        };
        let time = run.time;
        self.log_stage(name, ram(&value, run.table_entries), run);
        if computed {
            self.save(name, time, || encode(&value));
        }
        value
    }

    /// Fold each rank's communication counters into the metrics and split
    /// the outputs into values and lanes; `replayed` holds the time and
    /// partial traces of earlier, crashed attempts (spliced last).
    fn record_cluster<T>(&self, outs: Vec<RankOutput<T>>, replayed: StageRun) -> ClusterRun<T> {
        let metrics = &self.metrics;
        let mut stage = StageRun::timed(replayed.time + cluster_time(&outs));
        let mut values = Vec::with_capacity(outs.len());
        for o in outs {
            metrics.counter("comm.bytes_sent").add(o.stats.bytes_sent);
            metrics.counter("comm.collectives").add(o.stats.collectives);
            values.push(o.value);
            stage.traces.push(o.trace);
        }
        stage.traces.extend(replayed.traces);
        ClusterRun { values, stage }
    }

    /// Run a rank program on the simulated cluster, replaying it until
    /// every rank completes. Crash points are one-shot on the shared plan,
    /// so each replay is strictly closer to a clean run; drops/delays
    /// replay with identical RNG streams and never change payloads.
    fn run_cluster_resilient<T, F>(&self, f: F) -> ClusterRun<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        let (ranks, net, metrics) = (self.ranks, self.net, &self.metrics);
        let Some(plan) = self.faults.filter(|p| p.is_active()) else {
            return self.record_cluster(run_cluster(ranks, net, f), StageRun::default());
        };
        let mut replayed = StageRun::default();
        // Each failed attempt fires at least one one-shot crash point, so the
        // loop is bounded by the number of scheduled crashes.
        for _attempt in 0..=plan.crashes().len() {
            let outs = run_cluster_faulty(ranks, net, Arc::clone(plan), &f);
            for o in &outs {
                metrics.counter("fault.retries").add(o.stats.retries);
                metrics.counter("fault.delays").add(o.stats.delays);
            }
            if outs.iter().all(|o| o.state.is_completed()) {
                let outs = mpisim::unwrap_clean(outs).expect("all ranks completed");
                return self.record_cluster(outs, replayed);
            }
            metrics
                .counter("fault.rank_crashes")
                .add(mpisim::crashed_ranks(&outs).len() as u64);
            metrics.counter("fault.replays").add(1);
            // The partial traces carry the `fault.crash` markers and any
            // pre-crash comm spans.
            replayed.time += cluster_time(&outs);
            replayed.traces.extend(outs.into_iter().map(|o| o.trace));
        }
        unreachable!("crash points are one-shot; a replay must eventually run clean")
    }

    /// Close the run: record the packed-sequence work done since `before`
    /// and hand back the finished trace and metrics.
    fn finish(self, before: SeqioStats) -> (obs::Trace, obs::MetricsSnapshot) {
        let after = seqio::packed::stats_snapshot();
        let gauge = |name: &str, field: fn(&SeqioStats) -> u64| {
            let delta = field(&after) - field(&before);
            self.metrics.gauge(name).set(delta as f64);
        };
        gauge("seqio.encoded_seqs", |s| s.encoded_seqs);
        gauge("seqio.encoded_bases", |s| s.encoded_bases);
        gauge("seqio.rolled_windows", |s| s.rolled_windows);
        let mut trace = self.obs.take();
        trace.merge_shifted(self.spliced, 0.0, 0);
        // Sampling-profiler pass: walk each pipeline/rank lane's open-span
        // stack at a fixed period and append `profile.depth` /
        // `profile.samples.<leaf>` counter series, so long stages (gff
        // loop1/loop2, the rtt chunk loops) show internal progress in a trace
        // viewer instead of one opaque span. Thread lanes (busy/idle pairs)
        // carry no nesting worth sampling and are skipped.
        let sampler = obs::Sampler::with_samples(&trace, 256);
        let lanes: std::collections::BTreeSet<u32> = trace
            .spans
            .iter()
            .map(|s| s.track)
            .filter(|&t| t < obs::THREAD_TRACK_BASE)
            .collect();
        for lane in lanes {
            sampler.annotate(&mut trace, lane);
        }
        (trace, self.metrics.snapshot())
    }
}

/// True if every `(a, b)` indexes into lists of `na` and `nb` items — the
/// check a decoded pair checkpoint must pass before the run indexes with it.
fn pairs_below(pairs: &[(u32, u32)], na: usize, nb: usize) -> bool {
    pairs
        .iter()
        .all(|&(a, b)| (a as usize) < na && (b as usize) < nb)
}

/// Run the pipeline over `reads` (fault-free, no checkpointing).
pub fn run_pipeline(reads: &[Record], cfg: &PipelineConfig) -> PipelineOutput {
    run_pipeline_opts(reads, cfg, &RunOptions::default())
}

/// Reads per item of the ingest loop.
const ENCODE_BATCH: usize = 256;

/// The front half — ingest, Jellyfish, Inchworm: the packed reads, their
/// k-mer counts and the contigs assembled from them.
fn assemble_contigs(
    d: &mut Driver,
    reads: &[Record],
    cfg: &PipelineConfig,
) -> (Vec<PackedSeq>, KmerCounts, Vec<Record>) {
    let k = cfg.chrysalis.k;
    // ---- Jellyfish ----
    // One parallel region on the costed team, and no serial section in it:
    // the ingest loop 2-bit packs every read exactly once (Jellyfish
    // counts, ReadsToTranscripts votes and Butterfly threads all consume
    // this same encoding; no stage re-walks the ASCII), the owner-routed
    // build routes and counts, and the error filter is a loop over owners.
    let mut packed_reads = None;
    let mut counts = d.stage(
        "Jellyfish",
        |p| ckpt::decode_counts(p).filter(|c| c.k() == k),
        ckpt::encode_counts,
        |c, _| ram::jellyfish(c.len()),
        |d| {
            let mut team = CostedTeam::new(cfg.chrysalis.threads, cfg.chrysalis.schedule);
            let batches: Vec<&[Record]> = reads.chunks(ENCODE_BATCH).collect();
            let encoded = team.map(&batches, |batch| seqio::packed::encode_all(batch));
            let mut packed: Vec<PackedSeq> = Vec::with_capacity(reads.len());
            packed.extend(encoded.into_iter().flatten());
            let counter_cfg = CounterConfig {
                threads: cfg.chrysalis.threads,
                ..CounterConfig::new(k)
            };
            let mut counts = count_kmers_on(&packed, counter_cfg, &mut team);
            counts.retain_min_on(cfg.min_kmer_count.max(1), &mut team);
            packed_reads = Some(packed);
            d.log_omp_loop("jellyfish", &team.sim);
            (counts, StageRun::timed(team.sim.makespan))
        },
    );
    // A resumed stage counted nothing, but the later stages still read the
    // packed form.
    let packed_reads = packed_reads.unwrap_or_else(|| seqio::packed::encode_all(reads));
    counts.record_metrics(&d.metrics, "jellyfish");

    // ---- Inchworm ----
    // The dictionary adopts the count table and hands it back: the stage
    // never holds a second copy of it. The seeding-order sort's loops, the
    // walks' ordered loop and the `to_record` loop after them run on the
    // stage's team — the walks' takes and commits (replays included) under
    // its lock, on its lanes. The stage is charged the team's makespan plus
    // the wall time of the whole stage outside the team's items.
    let distinct_kmers = counts.len();
    let contigs = d.stage(
        "Inchworm",
        ckpt::decode_records,
        |c| ckpt::encode_records(c),
        |c, _| ram::inchworm(distinct_kmers, seq_bytes(c)),
        |d| {
            let threads = cfg.chrysalis.threads;
            let mut team = CostedTeam::new(threads, cfg.chrysalis.schedule);
            let ((contigs, stats), cost) = team.region(|team| {
                let table = std::mem::replace(&mut counts, KmerCounts::empty(k));
                let min_count = cfg.min_kmer_count.max(1);
                let dict = Dictionary::from_counts_on(table, min_count, &mut omp::par_loop(team));
                let window = WINDOW_PER_THREAD * threads;
                let (contigs, stats) =
                    assemble_on(&dict, cfg.inchworm, window, &mut omp::ord_loop(team));
                let contigs: Vec<Record> = team.map(&contigs, |c| c.to_record());
                counts = dict.into_counts();
                (contigs, stats)
            });
            d.metrics.gauge("inchworm.serial_s").set(cost.serial);
            d.metrics.gauge("inchworm.lock_s").set(team.sim.lock_time);
            let counts = [
                ("inchworm.walks", stats.walks),
                ("inchworm.deferred", stats.deferred),
                ("inchworm.replays", stats.replays),
                ("inchworm.wasted_steps", stats.wasted_steps),
            ];
            for (name, n) in counts {
                d.metrics.counter(name).add(n as u64);
            }
            d.log_omp_loop("inchworm", &team.sim);
            (contigs, StageRun::timed(cost.charge()))
        },
    );
    (packed_reads, counts, contigs)
}

/// Run the pipeline over `reads` with [`RunOptions`]: deterministic fault
/// injection on the cluster stages and/or stage-level checkpoint/resume.
pub fn run_pipeline_opts(
    reads: &[Record],
    cfg: &PipelineConfig,
    opts: &RunOptions,
) -> PipelineOutput {
    let mut d = Driver::new(reads, cfg, opts);
    let seqio_before = seqio::packed::stats_snapshot();
    let (packed_reads, counts, contigs) = assemble_contigs(&mut d, reads, cfg);
    let contig_bytes = seq_bytes(&contigs);
    // Contigs, like reads, are packed exactly once; GraphFromFasta,
    // ReadsToTranscripts and Butterfly all share this encoding.
    let packed_contigs = seqio::packed::encode_all(&contigs);

    // ---- Chrysalis: Bowtie ----
    // Not checkpointed: its artifact (the SAM stream) only feeds
    // scaffolding, whose result is checkpointed at QuantifyGraph. So the
    // driver looks ahead: when GraphFromFasta and QuantifyGraph will both
    // resume, nothing reads a SAM and no read is aligned. The peek counts
    // nothing and its decoded values are the ones those stages resume from.
    let gff_loaded = d.load("GraphFromFasta", |p| {
        let n = contigs.len();
        ckpt::decode_welds(p).filter(|(_, pairs)| pairs_below(pairs, n, n))
    });
    let quantify_loaded = match gff_loaded {
        Some(Ok(_)) => d.load("QuantifyGraph", |p| {
            ckpt::decode_components(p).filter(|c| c.iter().flatten().all(|&m| m < contigs.len()))
        }),
        _ => None,
    };
    let (sam, bowtie_timings) = if matches!(quantify_loaded, Some(Ok(_))) {
        d.obs.record(0, SKIPPED_CAT, "Bowtie", d.cursor, d.cursor);
        (Vec::new(), Vec::new())
    } else {
        let mut bowtie = d.run_cluster_resilient(|comm| {
            bowtie_mpi(comm, &contigs, reads, &cfg.chrysalis, cfg.align)
        });
        let timings: Vec<BowtieTimings> = bowtie.values.iter().map(|o| o.timings).collect();
        let sam = bowtie.values.swap_remove(0).sam;
        let bowtie_ram = ram::bowtie(contig_bytes.div_ceil(d.ranks), seq_bytes(reads));
        d.log_stage("Bowtie", bowtie_ram, bowtie.stage);
        (sam, timings)
    };

    // ---- Chrysalis: GraphFromFasta ----
    let mut gff_timings: Vec<GffTimings> = Vec::new();
    let (welds, gff_pairs) = d.stage_from(
        "GraphFromFasta",
        gff_loaded,
        |(welds, pairs)| ckpt::encode_welds(welds, pairs),
        |(welds, _), kmap_entries| {
            let weld_bytes = welds.iter().map(Vec::len).sum();
            ram::graph_from_fasta(contig_bytes, kmap_entries, weld_bytes)
        },
        |d| {
            let shared = GffShared::prepare(packed_contigs.clone(), counts, cfg.chrysalis);
            shared.kmap.record_metrics(&d.metrics, "gff.kmap");
            let mut run = d.run_cluster_resilient(|comm| gff_hybrid(comm, &shared));
            run.stage.table_entries = shared.kmap.len();
            gff_timings = run.values.iter().map(|o| o.timings).collect();
            let out = run.values.swap_remove(0);
            ((out.welds, out.pairs), run.stage)
        },
    );
    let weld_bytes: usize = welds.iter().map(Vec::len).sum();
    d.metrics.counter("gff.welds").add(welds.len() as u64);
    d.metrics.counter("gff.pairs").add(gff_pairs.len() as u64);

    // ---- Chrysalis: scaffolding (combine Bowtie links with welds) ----
    // One parallel region on the stage's team: the scaffolding's loops are
    // charged at the team's makespan and drawn on its lanes; the contig
    // name index, the pair merge and the clustering are its serial
    // remainder, charged at their wall time (`quantify.serial_s`).
    let components = d.stage_from(
        "QuantifyGraph",
        quantify_loaded,
        |c| ckpt::encode_components(c),
        |_, _| ram::graph_from_fasta(contig_bytes, 0, weld_bytes),
        |d| {
            let mut team = CostedTeam::new(cfg.chrysalis.threads, cfg.chrysalis.schedule);
            let (components, cost) = team.region(|team| {
                let name_index = contig_name_index(&contigs);
                let lens: Vec<usize> = contigs.iter().map(|c| c.seq.len()).collect();
                let mut par = omp::par_loop(team);
                let scaf_pairs =
                    scaffold_pairs_on(&sam, &name_index, &lens, cfg.scaffold, &mut par);
                let mut all_pairs = gff_pairs.clone();
                all_pairs.extend(scaf_pairs);
                all_pairs.sort_unstable();
                all_pairs.dedup();
                cluster(contigs.len(), &all_pairs).1
            });
            d.metrics.gauge("quantify.serial_s").set(cost.serial);
            d.log_omp_loop("quantify", &team.sim);
            (components, StageRun::timed(cost.charge()))
        },
    );
    d.metrics
        .gauge("pipeline.components")
        .set(components.len() as f64);

    // ---- Chrysalis: ReadsToTranscripts ----
    let chunk_bytes = seq_bytes(&reads[..reads.len().min(cfg.chrysalis.max_mem_reads)]);
    let mut rtt_timings: Vec<RttTimings> = Vec::new();
    let assignments = d.stage(
        "ReadsToTranscripts",
        |p| ckpt::decode_pairs(p).filter(|a| pairs_below(a, reads.len(), components.len())),
        |a| ckpt::encode_pairs(a),
        |_, table_entries| ram::reads_to_transcripts(table_entries, chunk_bytes),
        |d| {
            let shared = RttShared::prepare_with_packed(
                reads.to_vec(),
                packed_reads.clone(),
                &packed_contigs,
                &components,
                cfg.chrysalis,
            );
            shared
                .kmer_to_component
                .record_metrics(&d.metrics, "rtt.kmer_table");
            let mut run = d.run_cluster_resilient(|comm| rtt_hybrid(comm, &shared));
            run.stage.table_entries = shared.kmer_to_component.len();
            rtt_timings = run.values.iter().map(|o| o.timings).collect();
            (run.values.swap_remove(0).assignments, run.stage)
        },
    );
    d.metrics
        .counter("rtt.assignments")
        .add(assignments.len() as u64);

    // ---- Butterfly ----
    // Not checkpointed: it is the last stage, so its artifact is the run's
    // output.
    let mut comp_inputs: Vec<ComponentInput> = components
        .iter()
        .enumerate()
        .map(|(ci, members)| ComponentInput {
            component: ci,
            contigs: members.iter().map(|&m| packed_contigs[m].clone()).collect(),
            reads: Vec::new(),
        })
        .collect();
    for &(r, c) in &assignments {
        comp_inputs[c as usize]
            .reads
            .push(packed_reads[r as usize].clone());
    }
    let (transcript_lists, butterfly_sim) = costed_loop(
        &comp_inputs,
        cfg.chrysalis.threads,
        cfg.chrysalis.schedule,
        |input| reconstruct_component(input, cfg.reconstruction),
    );
    let transcripts: Vec<Record> = transcript_lists.into_iter().flatten().collect();
    let max_nodes = comp_inputs
        .iter()
        .map(|c| c.contigs.iter().map(|s| s.len()).sum::<usize>())
        .max()
        .unwrap_or(0);
    d.metrics
        .counter("butterfly.transcripts")
        .add(transcripts.len() as u64);
    d.log_omp_loop("butterfly", &butterfly_sim);
    let run = StageRun::timed(butterfly_sim.makespan);
    d.log_stage("Butterfly", ram::butterfly(max_nodes), run);

    let (trace, metrics) = d.finish(seqio_before);
    PipelineOutput {
        contigs,
        components,
        assignments,
        transcripts,
        trace,
        metrics,
        gff_timings,
        rtt_timings,
        bowtie_timings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simulate::datasets::{Dataset, DatasetPreset};

    fn tiny_reads() -> Vec<Record> {
        Dataset::generate(DatasetPreset::Tiny, 11).all_reads()
    }

    #[test]
    fn serial_pipeline_produces_transcripts() {
        let reads = tiny_reads();
        let out = run_pipeline(&reads, &PipelineConfig::small(12));
        assert!(!out.contigs.is_empty(), "contigs assembled");
        assert!(!out.transcripts.is_empty(), "transcripts reconstructed");
        assert!(!out.assignments.is_empty(), "reads assigned");
        let stages: Vec<&obs::SpanRecord> = out
            .trace
            .with_cat("stage")
            .into_iter()
            .filter(|s| s.track == 0)
            .collect();
        assert_eq!(stages.len(), 7, "one stage span per pipeline stage");
        assert!(out.trace.total_time() > 0.0);
        assert!(out.trace.max_counter("ram").unwrap_or(0.0) > 0.0);
        assert_eq!(out.gff_timings.len(), 1);
        // Serial Chrysalis sub-traces are spliced in: the GFF stage timeline
        // lands on track RANK_TRACK_BASE at the stage's start offset.
        let gff_stage = stages
            .iter()
            .find(|s| s.name == "GraphFromFasta")
            .expect("GraphFromFasta stage span");
        let (sub_start, sub_end) = out
            .trace
            .span_bounds(RANK_TRACK_BASE, "gff.total")
            .expect("spliced gff.total span");
        assert!((sub_start - gff_stage.start).abs() < 1e-9);
        assert!(sub_end <= gff_stage.end + 1e-9);
    }

    #[test]
    fn jellyfish_stage_is_its_teams_makespan_encode_included() {
        // The stage lasts exactly as long as the replay of its one parallel
        // region (a serially charged encode time used to come on top), and
        // the region's first loop is the read encode: one chunk per read
        // batch ahead of the build's route, absorb and filter loops.
        let reads = tiny_reads();
        let cfg = PipelineConfig::small(12);
        let out = run_pipeline(&reads, &cfg);
        let stages = out.trace.with_cat("stage");
        let stage = stages
            .iter()
            .find(|s| s.track == 0 && s.name == "Jellyfish")
            .expect("Jellyfish stage span");
        let lanes = out
            .trace
            .spans
            .iter()
            .filter(|s| s.name.starts_with("jellyfish."));
        let makespan = lanes.map(|s| s.end).fold(0.0, f64::max);
        assert!(makespan > 0.0);
        assert_eq!((stage.start, stage.end), (0.0, makespan));
        let owners = kcount::routed::OWNERS;
        let batches = reads.len().div_ceil(ENCODE_BATCH);
        let rounds = batches.div_ceil(cfg.chrysalis.threads);
        let chunks = 2 * batches + rounds * owners + owners;
        let counted = out.metrics.counter("jellyfish.loop.chunks");
        assert_eq!(
            counted,
            Some(chunks as u64),
            "encode, route, absorb, filter"
        );
    }

    #[test]
    fn inchworm_stage_is_its_teams_makespan_plus_its_serial_sections() {
        // The seeding-order sort's loops and the walks' ordered loop run on
        // the stage's team and are charged at its makespan — the walks'
        // takes and commits under its lock, on its lanes; `to_record` and
        // the loops' bookkeeping are charged at their wall time, the
        // `inchworm.serial_s` the run reports. On one thread the makespan
        // is the items' summed cost.
        let reads = tiny_reads();
        for threads in [16, 1] {
            let mut cfg = PipelineConfig::small(12);
            cfg.chrysalis.threads = threads;
            let out = run_pipeline(&reads, &cfg);
            let stages = out.trace.with_cat("stage");
            let stage = stages
                .iter()
                .find(|s| s.track == 0 && s.name == "Inchworm")
                .expect("Inchworm stage span");
            let lanes = out
                .trace
                .spans
                .iter()
                .filter(|s| s.name.starts_with("inchworm."));
            let makespan = lanes.map(|s| s.end).fold(stage.start, f64::max) - stage.start;
            let serial = out
                .metrics
                .gauge("inchworm.serial_s")
                .expect("serial sections");
            let duration = stage.end - stage.start;
            assert!(makespan > 0.0 && serial > 0.0);
            assert!((duration - (makespan + serial)).abs() <= 1e-9 * duration);
            if threads == 1 {
                let items = out.trace.span_sum(obs::THREAD_TRACK_BASE, "inchworm.busy");
                assert!((duration - (items + serial)).abs() <= 1e-9 * duration);
            }
            let counter = |name| out.metrics.counter(name).unwrap_or(0);
            let walks = counter("inchworm.walks");
            assert!(walks > 0 && counter("inchworm.loop.chunks") > walks);
            let lock = out
                .metrics
                .gauge("inchworm.lock_s")
                .expect("lock-held time");
            assert!(lock > 0.0 && lock < makespan);
            // The costed team walks in take order, so every walk sees every
            // earlier walk's commit or marks: the serial loop's walks,
            // nothing replayed or thrown away, at any width. (That is the
            // virtual clock's view: it lets a walk see an earlier walk's
            // whole path of marks, DESIGN §3i; OS threads do replay.)
            let wasted = counter("inchworm.wasted_steps");
            assert_eq!((counter("inchworm.replays"), wasted), (0, 0));
        }
    }

    #[test]
    fn quantify_stage_is_its_teams_makespan_plus_its_serial_section() {
        // The scaffolding's loops run on the stage's team and are charged
        // at its makespan, on its lanes; the contig name index, the pair
        // merge and the clustering are charged at their wall time, the
        // `quantify.serial_s` the run reports. On one thread the makespan
        // is the items' summed cost.
        let reads = tiny_reads();
        for threads in [16, 1] {
            let mut cfg = PipelineConfig::small(12);
            cfg.chrysalis.threads = threads;
            let out = run_pipeline(&reads, &cfg);
            let stages = out.trace.with_cat("stage");
            let stage = stages
                .iter()
                .find(|s| s.track == 0 && s.name == "QuantifyGraph")
                .expect("QuantifyGraph stage span");
            let lanes = out
                .trace
                .spans
                .iter()
                .filter(|s| s.name.starts_with("quantify."));
            let makespan = lanes.map(|s| s.end).fold(stage.start, f64::max) - stage.start;
            let serial = out
                .metrics
                .gauge("quantify.serial_s")
                .expect("serial section");
            let duration = stage.end - stage.start;
            assert!(makespan > 0.0 && serial > 0.0);
            assert!((duration - (makespan + serial)).abs() <= 1e-9 * duration);
            let idle: f64 = (0..threads as u32)
                .map(|t| {
                    out.trace
                        .span_sum(obs::THREAD_TRACK_BASE + t, "quantify.idle")
                })
                .sum();
            if threads == 1 {
                let items = out.trace.span_sum(obs::THREAD_TRACK_BASE, "quantify.busy");
                assert!((duration - (items + serial)).abs() <= 1e-9 * duration);
                assert_eq!(idle, 0.0, "one thread runs every item");
            }
            // Record chunks, then pair buckets, then link buckets.
            let chunks = out.metrics.counter("quantify.loop.chunks").unwrap_or(0);
            assert!(chunks > 2 * seqio::par::BUCKETS as u64);
        }
    }

    #[test]
    fn resumed_jellyfish_still_hands_packed_reads_on() {
        // Only the Jellyfish checkpoint survives: that stage resumes — no
        // team, no ingest loop — every later one recomputes, and
        // ReadsToTranscripts and Butterfly still get the packed reads.
        let reads = tiny_reads();
        let cfg = PipelineConfig::small(12);
        let dir = std::env::temp_dir().join(format!("trinity-jf-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut opts = RunOptions {
            checkpoint_dir: Some(dir.clone()),
            ..Default::default()
        };
        let first = run_pipeline_opts(&reads, &cfg, &opts);
        for stage in [
            "Inchworm",
            "GraphFromFasta",
            "QuantifyGraph",
            "ReadsToTranscripts",
        ] {
            std::fs::remove_file(ckpt::stage_path(&dir, stage)).expect("checkpoint was written");
        }
        opts.resume = true;
        let second = run_pipeline_opts(&reads, &cfg, &opts);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(second.metrics.counter("ckpt.resumed"), Some(1));
        assert!(!second
            .trace
            .spans
            .iter()
            .any(|s| s.name == "jellyfish.busy"));
        assert_eq!(second.assignments, first.assignments);
        assert_eq!(second.transcripts, first.transcripts);
    }

    #[test]
    fn nothing_is_encoded_without_a_checkpoint_dir() {
        // A plain run used to sort and serialise all five payloads and then
        // find it had nowhere to write them.
        let opts = RunOptions::default();
        let d = Driver::new(&[], &PipelineConfig::small(12), &opts);
        d.save("Jellyfish", 0.0, || {
            unreachable!("payload encoded with no checkpoint dir")
        });
        assert_eq!(d.metrics.snapshot().counter("ckpt.saved").unwrap_or(0), 0);
    }

    #[test]
    fn rank_thread_lanes_are_the_pipelines_thread_lanes() {
        // A rank program's OpenMP lanes splice in unshifted: thread `t` of
        // rank 0 draws where Jellyfish's and Butterfly's thread `t` does
        // (they used to land one track higher, next to the wrong label).
        let out = run_pipeline(&tiny_reads(), &PipelineConfig::small(12));
        let lanes = |name: &str| -> std::collections::BTreeSet<u32> {
            let named = out.trace.spans.iter().filter(|s| s.name == name);
            named.map(|s| s.track).collect()
        };
        assert!(lanes("gff.loop1.busy").contains(&obs::THREAD_TRACK_BASE));
        assert_eq!(lanes("gff.loop1.busy"), lanes("jellyfish.busy"));
        assert_eq!(lanes("gff.loop2.busy"), lanes("jellyfish.busy"));
    }

    #[test]
    fn hybrid_pipeline_matches_serial_components() {
        let reads = tiny_reads();
        let serial = run_pipeline(&reads, &PipelineConfig::small(12));
        let mut cfg = PipelineConfig::small(12);
        cfg.mode = PipelineMode::Hybrid {
            ranks: 3,
            net: NetModel::ideal(),
        };
        let hybrid = run_pipeline(&reads, &cfg);
        assert_eq!(hybrid.components, serial.components);
        assert_eq!(hybrid.assignments, serial.assignments);
        // Transcript sets identical for identical component inputs.
        let mut a: Vec<&[u8]> = serial
            .transcripts
            .iter()
            .map(|r| r.seq.as_slice())
            .collect();
        let mut b: Vec<&[u8]> = hybrid
            .transcripts
            .iter()
            .map(|r| r.seq.as_slice())
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(hybrid.gff_timings.len(), 3);
        assert_eq!(hybrid.rtt_timings.len(), 3);
    }

    #[test]
    fn transcripts_match_reference_genes() {
        // At least one simulated gene should be reconstructed end-to-end.
        let ds = Dataset::generate(DatasetPreset::Tiny, 11);
        let out = run_pipeline(&ds.all_reads(), &PipelineConfig::small(12));
        let hit = ds.reference.iter().any(|refseq| {
            out.transcripts
                .iter()
                .any(|t| t.seq == refseq.seq || t.seq == seqio::alphabet::revcomp(&refseq.seq))
        });
        assert!(hit, "no reference transcript reconstructed exactly");
    }

    #[test]
    fn trace_is_chrysalis_dominated() {
        // Fig. 2's headline: Chrysalis (Bowtie+GFF+RTT) dominates runtime.
        // The reason is structural and is asserted as such, on the item
        // counts the run's spans carry rather than on their durations:
        // Jellyfish rolls every read window once; Chrysalis rolls them all
        // again for the component vote, scans every contig window in both
        // GraphFromFasta loops, and aligns every read on top of that.
        let reads = tiny_reads();
        let cfg = PipelineConfig::small(12);
        let out = run_pipeline(&reads, &cfg);
        let items = |span: &str, arg: &str| -> usize {
            let spans = out.trace.spans.iter().filter(|s| s.name == span);
            spans.filter_map(|s| s.arg(arg)).sum::<f64>() as usize
        };
        assert_eq!(items("rtt.loop", "reads"), reads.len());
        assert_eq!(items("gff.loop1", "items"), out.contigs.len());
        assert_eq!(items("gff.loop2", "items"), out.contigs.len());
        assert_eq!(out.bowtie_timings.len(), 1, "Bowtie ran");
        let windows = |seqs: &[Record]| -> usize {
            let per_seq = |r: &Record| (r.seq.len() + 1).saturating_sub(cfg.chrysalis.k);
            seqs.iter().map(per_seq).sum()
        };
        let jellyfish_windows = windows(&reads);
        let chrysalis_windows = windows(&reads) + 2 * windows(&out.contigs);
        assert!(
            chrysalis_windows > jellyfish_windows,
            "Chrysalis ({chrysalis_windows} windows) should dominate Jellyfish ({jellyfish_windows})"
        );
    }
}
