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
use chrysalis::bowtie_mpi::bowtie_hits;
use chrysalis::config::ChrysalisConfig;
use chrysalis::graph_from_fasta::{cluster, gff_hybrid, GffShared};
use chrysalis::reads_to_transcripts::{rtt_hybrid, RttShared};
use chrysalis::scaffold::{scaffold_pairs_on, ScaffoldConfig};
use inchworm::assemble::{assemble_on, InchwormConfig, WINDOW_PER_THREAD};
use inchworm::dictionary::Dictionary;
use kcount::counter::{count_kmers_on, CounterConfig, KmerCounts};
use mpisim::cluster::cluster_time;
use mpisim::{run_cluster, run_cluster_faulty, Comm, CommStats, FaultPlan, NetModel, Replayed};
use omp::makespan::CostedTeam;
use omp::{Schedule, Team};

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
    /// The pipeline's configuration at word size `k`, serial: the one
    /// preset, which the CLI, the benchmark and the figure drivers adjust.
    pub fn small(k: usize) -> Self {
        PipelineConfig {
            chrysalis: ChrysalisConfig::small(k),
            inchworm: InchwormConfig {
                min_seed_count: 1,
                min_extend_count: 1,
                min_contig_len: 2 * k,
                jitter_seed: None,
            },
            min_kmer_count: 1,
            reconstruction: ReconstructionConfig { k },
            align: AlignConfig { max_mismatches: 1 },
            scaffold: ScaffoldConfig::default(),
            mode: PipelineMode::Serial,
        }
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
    /// Resume from `checkpoint_dir`: before the first stage runs, read the
    /// checkpoints in run order up to the first missing or unusable one;
    /// the stages read are skipped, the rest computed and saved.
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

/// GraphFromFasta's output: the welds and the contig pairs they join.
type Welds = (Vec<Vec<u8>>, Vec<(u32, u32)>);

/// The completed prefix of a checkpoint directory ([`Driver::resumed`]):
/// each checkpointed stage's decoded output and recorded duration, `None`
/// from the first stage whose file is missing or unusable on.
#[derive(Default)]
struct Resumed {
    counts: Option<(KmerCounts, f64)>,
    contigs: Option<(Vec<Record>, f64)>,
    welds: Option<(Welds, f64)>,
    components: Option<(Vec<Vec<usize>>, f64)>,
    assignments: Option<(Vec<(u32, u32)>, f64)>,
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
    /// [`obs::THREAD_TRACK_BASE`]` + thread`. Its files are written by
    /// [`crate::report::write_trace_artifacts`].
    pub trace: obs::Trace,
    /// Table/counter health recorded during the run (k-mer table load
    /// factors, probe-length histograms, weld/assignment counts, MPI
    /// bytes). Export with [`obs::export::metrics_json`].
    pub metrics: obs::MetricsSnapshot,
}

fn seq_bytes(records: &[Record]) -> usize {
    records.iter().map(|r| r.seq.len()).sum()
}

/// Per-run driver state. The checkpoints are read once, before the first
/// stage ([`Driver::resumed`]); then every checkpointed stage crosses the
/// driver the same way: resumed or compute → log → splice → save
/// ([`Driver::stage`]).
struct Driver<'a> {
    /// The pipeline timeline; track 0 carries the collectl-style stage
    /// spans, each starting at `cursor`, where the previous one ended.
    obs: obs::Tracer,
    cursor: f64,
    /// Stage sub-traces, already shifted to their stage's start on the
    /// rank lanes; appended to the timeline in [`Driver::finish`].
    spliced: obs::Trace,
    metrics: obs::MetricsRegistry,
    /// Checkpoint directory and run fingerprint.
    ckpt_dir: Option<&'a Path>,
    fingerprint: u64,
    ranks: usize,
    net: NetModel,
    faults: Option<&'a Arc<FaultPlan>>,
    /// Workers and schedule of each one-node stage's team.
    team: (usize, Schedule),
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
            ranks,
            net,
            faults: opts.faults.as_ref(),
            team: (cfg.chrysalis.threads, cfg.chrysalis.schedule),
        }
    }

    /// The completed prefix, read before the first stage runs: on `resume`,
    /// each checkpointed stage's file in run order up to the first that is
    /// missing or unusable. FNV is not a MAC, so each decode also refuses a
    /// payload that does not fit the run: a count table of another `k`, an
    /// index past the reads or the prefix's contigs or components, or a
    /// contig in two components or a read with two assignments (Butterfly
    /// moves each contig and read into the one input that names it).
    fn resumed(&self, resume: bool, reads: &[Record], k: usize) -> Resumed {
        let mut r = Resumed::default();
        let mut walk = || {
            let counts = |p: &[u8]| ckpt::decode_counts(p).filter(|c| c.k() == k);
            r.counts = Some(self.read("Jellyfish", counts)?);
            let contigs = self.read("Inchworm", ckpt::decode_records)?;
            let n = r.contigs.insert(contigs).0.len();
            r.welds = Some(self.read("GraphFromFasta", |p| {
                ckpt::decode_welds(p).filter(|(_, pairs)| pairs_below(pairs, n, n))
            })?);
            let components = self.read("QuantifyGraph", |p| {
                ckpt::decode_components(p).filter(|c| at_most_once(c.iter().flatten().copied(), n))
            })?;
            let c = r.components.insert(components).0.len();
            r.assignments = Some(self.read("ReadsToTranscripts", |p| {
                ckpt::decode_pairs(p).filter(|a| {
                    pairs_below(a, reads.len(), c)
                        && at_most_once(a.iter().map(|&(r, _)| r as usize), reads.len())
                })
            })?);
            Some(())
        };
        if resume {
            walk();
        }
        r
    }

    /// One stage's file for [`Driver::resumed`]: validated (magic, version,
    /// checksum, fingerprint), decoded and counted; `None` without a
    /// checkpoint dir. A missing file is the normal "not completed yet"
    /// case; a corrupt or undecodable one is counted and reported.
    fn read<T>(&self, stage: &str, decode: impl FnOnce(&[u8]) -> Option<T>) -> Option<(T, f64)> {
        let loaded = ckpt::load(self.ckpt_dir?, self.fingerprint, stage).and_then(|ck| {
            let value = decode(&ck.payload).ok_or(ckpt::CkptError::BadPayload)?;
            Ok((value, ck.duration))
        });
        match loaded {
            Ok(resumed) => {
                self.metrics.counter("ckpt.resumed").add(1);
                Some(resumed)
            }
            Err(ckpt::CkptError::Io(_)) => None,
            Err(err) => {
                self.metrics.counter("ckpt.invalid").add(1);
                eprintln!("checkpoint for {stage} rejected ({err}); recomputing");
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

    /// The one way a one-node stage reaches the clock: run `body` as one
    /// [`CostedTeam::region`] on a fresh team and charge the stage the
    /// region's cost. Its serial and lock-held time are recorded as
    /// `{label}.serial_s` and `{label}.lock_s`, its loops' summary under
    /// `{label}.loop`, and its loops are drawn on the thread lanes
    /// (`{label}.busy`/`{label}.idle` from the stage's start).
    fn region_stage<T>(
        &self,
        label: &str,
        body: impl FnOnce(&mut CostedTeam) -> T,
    ) -> (T, StageRun) {
        let mut team = CostedTeam::new(self.team.0, self.team.1);
        let (out, cost) = team.region(body);
        let gauge = |name: &str, value| self.metrics.gauge(format!("{label}.{name}")).set(value);
        gauge("serial_s", cost.serial);
        gauge("lock_s", team.sim.lock_time);
        team.sim
            .record_metrics(&self.metrics, &format!("{label}.loop"));
        team.sim
            .record_spans(&self.obs, self.cursor, obs::THREAD_TRACK_BASE, label);
        (out, StageRun::timed(cost.charge()))
    }

    /// The one checkpointed-stage routine. A stage in the resumed prefix
    /// replays its recorded duration; otherwise `compute` runs. Either way
    /// the stage is logged with `ram(value, table_entries)` and its
    /// sub-traces spliced; a computed stage is then saved.
    fn stage<T>(
        &mut self,
        name: &str,
        resumed: Option<(T, f64)>,
        encode: impl FnOnce(&T) -> Vec<u8>,
        ram: impl FnOnce(&T, usize) -> u64,
        compute: impl FnOnce(&Self) -> (T, StageRun),
    ) -> T {
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

    /// Run a rank program on the simulated cluster and hand back rank 0's
    /// value and the stage's run, folding each rank's communication
    /// counters into the metrics. Under an active fault plan, `mpisim`
    /// replays the program until every rank completes; the failed attempts'
    /// time and partial traces (the `fault.crash` markers and any pre-crash
    /// comm spans) are added to the stage's, their lanes after the ranks'.
    fn run_cluster_resilient<T, F>(&self, f: F) -> (T, StageRun)
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        let (ranks, net, metrics) = (self.ranks, self.net, &self.metrics);
        let plan = self.faults.filter(|p| p.is_active());
        let Replayed { outputs, failed } = match plan {
            Some(plan) => run_cluster_faulty(ranks, net, Arc::clone(plan), f),
            None => Replayed {
                outputs: run_cluster(ranks, net, f),
                failed: Vec::new(),
            },
        };
        if plan.is_some() {
            let salvaged = failed.iter().flatten().map(|o| o.stats);
            let stats: Vec<CommStats> = salvaged.chain(outputs.iter().map(|o| o.stats)).collect();
            let total = |field: fn(&CommStats) -> u64| stats.iter().map(field).sum::<u64>();
            metrics.counter("fault.retries").add(total(|s| s.retries));
            metrics.counter("fault.delays").add(total(|s| s.delays));
            if !failed.is_empty() {
                metrics
                    .counter("fault.rank_crashes")
                    .add(total(|s| s.crashes));
                metrics.counter("fault.replays").add(failed.len() as u64);
            }
        }
        let replayed: f64 = failed.iter().map(|a| cluster_time(a)).sum();
        let mut stage = StageRun::timed(replayed + cluster_time(&outputs));
        let mut value = None;
        for o in outputs {
            metrics.counter("comm.bytes_sent").add(o.stats.bytes_sent);
            metrics.counter("comm.collectives").add(o.stats.collectives);
            value.get_or_insert(o.value);
            stage.traces.push(o.trace);
        }
        stage
            .traces
            .extend(failed.into_iter().flatten().map(|o| o.trace));
        (value.expect("a cluster has a rank 0"), stage)
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
        trace.merge_mapped(self.spliced, 0.0, |t| t);
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

/// True if every item is below `n` and none repeats.
fn at_most_once(items: impl IntoIterator<Item = usize>, n: usize) -> bool {
    let mut seen = vec![false; n];
    items
        .into_iter()
        .all(|i| i < n && !std::mem::replace(&mut seen[i], true))
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
    resumed_counts: Option<(KmerCounts, f64)>,
    resumed_contigs: Option<(Vec<Record>, f64)>,
) -> (Vec<PackedSeq>, KmerCounts, Vec<Record>) {
    let k = cfg.chrysalis.k;
    // ---- Jellyfish ----
    // One parallel region on the stage's team: the ingest loop 2-bit packs
    // every read exactly once (Jellyfish counts, ReadsToTranscripts votes
    // and Butterfly threads all consume this same encoding; no stage
    // re-walks the ASCII), the owner-routed build routes and counts, and
    // the error filter is a loop over owners. The batches' flatten and the
    // build's code between its loops are the region's serial time.
    let mut packed_reads = None;
    let mut counts = d.stage(
        "Jellyfish",
        resumed_counts,
        ckpt::encode_counts,
        |c, _| ram::jellyfish(c.len()),
        |d| {
            d.region_stage("jellyfish", |team| {
                let batches: Vec<&[Record]> = reads.chunks(ENCODE_BATCH).collect();
                let encoded = team.map(&batches, |batch| seqio::packed::encode_all(batch));
                let mut packed: Vec<PackedSeq> = Vec::with_capacity(reads.len());
                packed.extend(encoded.into_iter().flatten());
                let mut counts = count_kmers_on(&packed, CounterConfig::new(k), team);
                counts.retain_min_on(cfg.min_kmer_count.max(1), team);
                packed_reads = Some(packed);
                counts
            })
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
    // its lock, on its lanes.
    let distinct_kmers = counts.len();
    let contigs = d.stage(
        "Inchworm",
        resumed_contigs,
        |c| ckpt::encode_records(c),
        |c, _| ram::inchworm(distinct_kmers, seq_bytes(c)),
        |d| {
            let ((contigs, stats), run) = d.region_stage("inchworm", |team| {
                let table = std::mem::replace(&mut counts, KmerCounts::empty(k));
                let min_count = cfg.min_kmer_count.max(1);
                let dict = Dictionary::from_counts_on(table, min_count, &mut omp::par_loop(team));
                let window = WINDOW_PER_THREAD * team.threads();
                let (contigs, stats) =
                    assemble_on(&dict, cfg.inchworm, window, &mut omp::ord_loop(team));
                let contigs: Vec<Record> = team.map(&contigs, |c| c.to_record());
                counts = dict.into_counts();
                (contigs, stats)
            });
            let counts = [
                ("inchworm.walks", stats.walks),
                ("inchworm.deferred", stats.deferred),
                ("inchworm.replays", stats.replays),
                ("inchworm.wasted_steps", stats.wasted_steps),
            ];
            for (name, n) in counts {
                d.metrics.counter(name).add(n as u64);
            }
            (contigs, run)
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
    let resumed = d.resumed(opts.resume, reads, cfg.chrysalis.k);
    let (mut packed_reads, counts, contigs) =
        assemble_contigs(&mut d, reads, cfg, resumed.counts, resumed.contigs);
    let contig_bytes = seq_bytes(&contigs);
    // Contigs, like reads, are packed exactly once; GraphFromFasta,
    // ReadsToTranscripts and Butterfly all share this encoding.
    let mut packed_contigs = seqio::packed::encode_all(&contigs);

    // ---- Chrysalis: Bowtie ----
    // Not checkpointed: its artifact (the merged hits, which name reads and
    // contigs by index) only feeds scaffolding, whose result is
    // checkpointed at QuantifyGraph. When QuantifyGraph is in the resumed
    // prefix, nothing reads a hit and no read is aligned.
    let hits = if resumed.components.is_some() {
        d.obs.record(0, SKIPPED_CAT, "Bowtie", d.cursor, d.cursor);
        Vec::new()
    } else {
        let (bowtie, run) = d.run_cluster_resilient(|comm| {
            bowtie_hits(comm, &contigs, reads, &cfg.chrysalis, cfg.align)
        });
        let bowtie_ram = ram::bowtie(contig_bytes.div_ceil(d.ranks), seq_bytes(reads));
        d.log_stage("Bowtie", bowtie_ram, run);
        bowtie.hits
    };

    // ---- Chrysalis: GraphFromFasta ----
    let (welds, gff_pairs) = d.stage(
        "GraphFromFasta",
        resumed.welds,
        |(welds, pairs)| ckpt::encode_welds(welds, pairs),
        |(welds, _), kmap_entries| {
            let weld_bytes = welds.iter().map(Vec::len).sum();
            ram::graph_from_fasta(contig_bytes, kmap_entries, weld_bytes)
        },
        |d| {
            let shared = GffShared::prepare(packed_contigs.clone(), counts, cfg.chrysalis);
            shared.kmap.record_metrics(&d.metrics, "gff.kmap");
            let (out, mut run) = d.run_cluster_resilient(|comm| gff_hybrid(comm, &shared));
            run.table_entries = shared.kmap.len();
            ((out.welds, out.pairs), run)
        },
    );
    let weld_bytes: usize = welds.iter().map(Vec::len).sum();
    d.metrics.counter("gff.welds").add(welds.len() as u64);
    d.metrics.counter("gff.pairs").add(gff_pairs.len() as u64);

    // ---- Chrysalis: scaffolding (combine Bowtie links with welds) ----
    // One parallel region on the stage's team: the scaffolding's loops, and
    // the contig lengths, the pair merge and the clustering as its serial
    // time. The hits end with the stage.
    let components = d.stage(
        "QuantifyGraph",
        resumed.components,
        |c| ckpt::encode_components(c),
        |_, _| ram::graph_from_fasta(contig_bytes, 0, weld_bytes),
        |d| {
            d.region_stage("quantify", |team| {
                let lens: Vec<usize> = contigs.iter().map(|c| c.seq.len()).collect();
                let scaf_pairs = scaffold_pairs_on(&hits, reads, &lens, cfg.scaffold, team);
                let mut all_pairs = gff_pairs.clone();
                all_pairs.extend(scaf_pairs);
                all_pairs.sort_unstable();
                all_pairs.dedup();
                cluster(contigs.len(), &all_pairs).1
            })
        },
    );
    drop(hits);
    d.metrics
        .gauge("pipeline.components")
        .set(components.len() as f64);

    // ---- Chrysalis: ReadsToTranscripts ----
    // The stage borrows the ASCII reads and holds the packed reads while it
    // runs, handing them back for Butterfly: moved, not cloned, since on
    // read-heavy inputs the run's peak memory is reached here.
    let chunk_bytes = seq_bytes(&reads[..reads.len().min(cfg.chrysalis.max_mem_reads)]);
    let assignments = d.stage(
        "ReadsToTranscripts",
        resumed.assignments,
        |a| ckpt::encode_pairs(a),
        |_, table_entries| ram::reads_to_transcripts(table_entries, chunk_bytes),
        |d| {
            let shared = RttShared::prepare_with_packed(
                reads,
                std::mem::take(&mut packed_reads),
                &packed_contigs,
                &components,
                cfg.chrysalis,
            );
            shared
                .kmer_to_component
                .record_metrics(&d.metrics, "rtt.kmer_table");
            let (out, mut run) = d.run_cluster_resilient(|comm| rtt_hybrid(comm, &shared));
            run.table_entries = shared.kmer_to_component.len();
            packed_reads = shared.packed_reads;
            (out.assignments, run)
        },
    );
    d.metrics
        .counter("rtt.assignments")
        .add(assignments.len() as u64);

    // ---- Butterfly ----
    // Not checkpointed: it is the last stage, so its artifact is the run's
    // output. The stage is one loop over components, a region with one
    // `map`; gathering each component's inputs and concatenating the
    // transcripts are the pipeline's glue around it. Each contig is in one
    // component and each read has at most one assignment, so the packed
    // sequences move into the inputs rather than being copied.
    let mut comp_inputs: Vec<ComponentInput> = components
        .iter()
        .enumerate()
        .map(|(ci, members)| ComponentInput {
            component: ci,
            contigs: members
                .iter()
                .map(|&m| std::mem::take(&mut packed_contigs[m]))
                .collect(),
            reads: Vec::new(),
        })
        .collect();
    for &(r, c) in &assignments {
        comp_inputs[c as usize]
            .reads
            .push(std::mem::take(&mut packed_reads[r as usize]));
    }
    let (lists, run) = d.region_stage("butterfly", |team| {
        team.map(&comp_inputs, |input| {
            reconstruct_component(input, cfg.reconstruction)
        })
    });
    let transcripts: Vec<Record> = lists.into_iter().flatten().collect();
    let max_nodes = comp_inputs
        .iter()
        .map(|c| c.contigs.iter().map(|s| s.len()).sum::<usize>())
        .max()
        .unwrap_or(0);
    d.metrics
        .counter("butterfly.transcripts")
        .add(transcripts.len() as u64);
    d.log_stage("Butterfly", ram::butterfly(max_nodes), run);

    let (trace, metrics) = d.finish(seqio_before);
    PipelineOutput {
        contigs,
        components,
        assignments,
        transcripts,
        trace,
        metrics,
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
    fn resumed_members_and_reads_appear_at_most_once() {
        // Butterfly moves each contig and read into the one input naming
        // it, so a resumed component or assignment list must not repeat one.
        assert!(at_most_once([2, 0, 1], 3));
        assert!(at_most_once([], 0));
        assert!(!at_most_once([0, 2, 0], 3), "a contig in two components");
        assert!(!at_most_once([3], 3), "past the end");
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
        let ranks_of = |name: &str| out.trace.spans.iter().filter(|s| s.name == name).count();
        assert_eq!(ranks_of("gff.total"), 1);
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
        // Jellyfish and Butterfly each last their team's makespan plus the
        // region's serial time, the `{label}.serial_s` the run reports — as
        // the Inchworm and QuantifyGraph stages do. Jellyfish's first loop
        // is the read encode: one chunk per read batch ahead of the build's
        // route, absorb and filter loops; the batches' flatten and the
        // build's code between loops are serial.
        let reads = tiny_reads();
        let cfg = PipelineConfig::small(12);
        let out = run_pipeline(&reads, &cfg);
        let stages = out.trace.with_cat("stage");
        for (name, label) in [("Jellyfish", "jellyfish"), ("Butterfly", "butterfly")] {
            let stage = stages
                .iter()
                .find(|s| s.track == 0 && s.name == name)
                .expect("stage span");
            let prefix = format!("{label}.");
            let lanes = out.trace.spans.iter();
            let lanes = lanes.filter(|s| s.name.starts_with(&prefix));
            let makespan = lanes.map(|s| s.end).fold(stage.start, f64::max) - stage.start;
            let serial = out.metrics.gauge(&format!("{label}.serial_s"));
            let serial = serial.expect("serial time");
            let duration = stage.end - stage.start;
            assert!(makespan > 0.0 && serial >= 0.0, "{name}");
            assert!((duration - (makespan + serial)).abs() <= 1e-9 * duration);
        }
        let serial = out.metrics.gauge("jellyfish.serial_s").unwrap();
        assert!(serial > 0.0, "flatten and routing rounds");
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
        // takes and commits under its lock, on its lanes; what runs outside
        // the loop calls is charged at its wall time, the
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
        for name in ["gff.total", "rtt.total"] {
            let ranks = hybrid.trace.spans.iter().filter(|s| s.name == name);
            assert_eq!(ranks.count(), 3, "{name}: one span per rank");
        }
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
        assert_eq!(items("bowtie.align", "reads"), reads.len(), "Bowtie ran");
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
