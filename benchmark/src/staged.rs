//! The pipeline executed stage by stage from outside, through the layers'
//! public functions in the order `trinity::pipeline::run_pipeline_opts`
//! calls them, each call wrapped in a benchmark-side span — plus the
//! layer probes that have no call of their own on the pipeline path.
//!
//! What the driver does between those calls (cloning reads, packed reads
//! and counts, stage logging, the sampler pass) is deliberately *not*
//! replayed inside a layer span: it is what `trinity.glue_s` measures.

use std::path::Path;
use std::sync::Arc;

use bowtie::align::align_read;
use bowtie::fmindex::FmIndex;
use butterfly::transcripts::{reconstruct_component, ComponentInput};
use chrysalis::bowtie_mpi::{bowtie_mpi, contig_name_index, BowtieMpiOutput};
use chrysalis::graph_from_fasta::{cluster, gff_hybrid, gff_shared_memory, GffShared};
use chrysalis::reads_to_transcripts::{rtt_hybrid, rtt_shared_memory, RttShared};
use chrysalis::scaffold::scaffold_pairs;
use inchworm::assemble::assemble;
use inchworm::dictionary::Dictionary;
use kcount::counter::{count_kmers_packed, CounterConfig, KmerCounts};
use kmertable::table::PackedKmerTable;
use mpisim::pack::{pack_byte_strings, unpack_byte_strings};
use mpisim::{run_cluster, NetModel, RankOutput};
use omp::makespan::simulate_loop;
use omp::pool::parallel_map_timed;
use seqio::fasta::Record;
use seqio::packed::{encode_all, PackedSeq};
use trinity::checkpoint as ckpt;
use trinity::pipeline::{PipelineConfig, PipelineMode, PipelineOutput};

use crate::spans::Recorder;
use crate::workload::{output_digest, Op, Workload};

/// The five checkpointed stage outputs.
pub struct Artifacts {
    pub counts: KmerCounts,
    pub contigs: Vec<Record>,
    pub welds: Vec<Vec<u8>>,
    pub pairs: Vec<(u32, u32)>,
    pub components: Vec<Vec<usize>>,
    pub assignments: Vec<(u32, u32)>,
}

/// Virtual-clock figures of one staged pass, from the timings and rank
/// outputs the Chrysalis stages return.
#[derive(Debug, Clone, Copy, Default)]
pub struct VirtualTimes {
    pub bowtie: f64,
    pub gff: f64,
    pub rtt: f64,
    /// Mean over ranks of the communication/merge phases: Bowtie split +
    /// merge, GFF comm1 + comm2, RTT concat.
    pub comm: f64,
    /// Max ÷ mean of the per-rank GraphFromFasta totals.
    pub gff_rank_imbalance: f64,
}

/// What one staged pass produced.
pub struct StagedOut {
    pub digest: u64,
    pub artifacts: Artifacts,
    pub virt: VirtualTimes,
    /// Bytes sent and collectives over every cluster stage, all ranks.
    pub bytes_sent: u64,
    pub collectives: u64,
    pub kmers_counted: u64,
    pub contig_bases: usize,
    pub transcripts: usize,
    pub max_component_reads: usize,
    pub encoded_bases: u64,
    pub rolled_windows: u64,
    pub ckpt_bytes: usize,
}

fn ranks_and_net(cfg: &PipelineConfig) -> (usize, NetModel) {
    match cfg.mode {
        PipelineMode::Serial => (1, NetModel::ideal()),
        PipelineMode::Hybrid { ranks, net } => (ranks, net),
    }
}

fn max_time<T>(outs: &[RankOutput<T>]) -> f64 {
    outs.iter().map(|o| o.time).fold(0.0, f64::max)
}

fn mean(values: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = values.len() as f64;
    values.sum::<f64>() / n
}

/// The key `run_pipeline_opts` fingerprints a run with.
fn fingerprint(reads: &[Record], cfg: &PipelineConfig) -> u64 {
    ckpt::run_fingerprint(
        reads,
        &[
            cfg.chrysalis.k as u64,
            cfg.min_kmer_count as u64,
            ranks_and_net(cfg).0 as u64,
            cfg.inchworm.min_seed_count as u64,
            cfg.inchworm.min_extend_count as u64,
            cfg.inchworm.min_contig_len as u64,
        ],
    )
}

/// Cluster-stage tallies shared by the Bowtie/GFF/RTT steps of a pass.
#[derive(Default)]
struct CommTally {
    bytes_sent: u64,
    collectives: u64,
}

impl CommTally {
    fn add<T>(&mut self, outs: &[RankOutput<T>]) {
        for o in outs {
            self.bytes_sent += o.stats.bytes_sent;
            self.collectives += o.stats.collectives;
        }
    }
}

/// The Bowtie stage as the pipeline runs it (always through `run_cluster`).
fn bowtie_stage(
    rec: &mut Recorder,
    cfg: &PipelineConfig,
    contigs: &Arc<Vec<Record>>,
    reads: &Arc<Vec<Record>>,
    tally: &mut CommTally,
    virt: &mut VirtualTimes,
) -> BowtieMpiOutput {
    let (ranks, net) = ranks_and_net(cfg);
    let (ch_cfg, al_cfg) = (cfg.chrysalis, cfg.align);
    let mut outs = rec.span("chrysalis.bowtie_mpi", |rec| {
        let outs = run_cluster(ranks, net, |comm| {
            bowtie_mpi(comm, contigs, reads, &ch_cfg, al_cfg)
        });
        rec.count("sam_records", outs[0].value.sam.len() as f64);
        outs
    });
    tally.add(&outs);
    virt.bowtie += max_time(&outs);
    virt.comm += mean(
        outs.iter()
            .map(|o| o.value.timings.split + o.value.timings.merge),
    );
    outs.swap_remove(0).value
}

/// Butterfly over the clustered contigs and assigned reads.
fn butterfly_stage(
    rec: &mut Recorder,
    cfg: &PipelineConfig,
    packed_contigs: &[PackedSeq],
    packed_reads: &[PackedSeq],
    components: &[Vec<usize>],
    assignments: &[(u32, u32)],
) -> (Vec<Record>, usize) {
    let mut inputs: Vec<ComponentInput> = components
        .iter()
        .enumerate()
        .map(|(ci, members)| ComponentInput {
            component: ci,
            contigs: members.iter().map(|&m| packed_contigs[m].clone()).collect(),
            reads: Vec::new(),
        })
        .collect();
    for &(r, c) in assignments {
        inputs[c as usize]
            .reads
            .push(packed_reads[r as usize].clone());
    }
    let max_reads = inputs.iter().map(|i| i.reads.len()).max().unwrap_or(0);
    let transcripts = rec.span("butterfly.reconstruct", |rec| {
        let transcripts: Vec<Record> = inputs
            .iter()
            .flat_map(|input| reconstruct_component(input, cfg.reconstruction))
            .collect();
        rec.count("transcripts", transcripts.len() as f64);
        rec.count("max_component_reads", max_reads as f64);
        transcripts
    });
    (transcripts, max_reads)
}

/// Encode and write the five stage checkpoints into `dir`; returns the
/// payload bytes written.
fn ckpt_save_all(rec: &mut Recorder, dir: &Path, fp: u64, a: &Artifacts) -> usize {
    let mut bytes = 0;
    let mut put = |rec: &mut Recorder, stage: &str, encode: &dyn Fn() -> Vec<u8>| {
        let payload = rec.span("trinity.ckpt_encode", |_| encode());
        rec.span("trinity.ckpt_save", |rec| {
            ckpt::save(dir, fp, stage, 0.0, &payload).expect("write checkpoint");
            rec.count("bytes", payload.len() as f64);
        });
        bytes += payload.len();
    };
    put(rec, "Jellyfish", &|| ckpt::encode_counts(&a.counts));
    put(rec, "Inchworm", &|| ckpt::encode_records(&a.contigs));
    put(rec, "GraphFromFasta", &|| {
        ckpt::encode_welds(&a.welds, &a.pairs)
    });
    put(rec, "QuantifyGraph", &|| {
        ckpt::encode_components(&a.components)
    });
    put(rec, "ReadsToTranscripts", &|| {
        ckpt::encode_pairs(&a.assignments)
    });
    bytes
}

/// Load, validate and decode the five stage checkpoints from `dir`.
fn ckpt_load_all(rec: &mut Recorder, dir: &Path, fp: u64) -> Artifacts {
    let load = |rec: &mut Recorder, stage: &str| {
        rec.span("trinity.ckpt_load", |_| {
            ckpt::load(dir, fp, stage).expect("checkpoint validates")
        })
        .payload
    };
    let p = load(rec, "Jellyfish");
    let counts = rec.span("trinity.ckpt_decode", |_| ckpt::decode_counts(&p));
    let p = load(rec, "Inchworm");
    let contigs = rec.span("trinity.ckpt_decode", |_| ckpt::decode_records(&p));
    let p = load(rec, "GraphFromFasta");
    let welds = rec.span("trinity.ckpt_decode", |_| ckpt::decode_welds(&p));
    let p = load(rec, "QuantifyGraph");
    let components = rec.span("trinity.ckpt_decode", |_| ckpt::decode_components(&p));
    let p = load(rec, "ReadsToTranscripts");
    let assignments = rec.span("trinity.ckpt_decode", |_| ckpt::decode_pairs(&p));
    let (welds, pairs) = welds.expect("welds decode");
    Artifacts {
        counts: counts.expect("counts decode"),
        contigs: contigs.expect("contigs decode"),
        welds,
        pairs,
        components: components.expect("components decode"),
        assignments: assignments.expect("assignments decode"),
    }
}

/// One staged pass of the workload's operation under a `trinity.pipeline`
/// root span. For [`Op::CkptCycle`] the pass also writes the checkpoints
/// and then replays the resume half (load + decode, Bowtie, Butterfly);
/// `ckpt_dir` is removed before returning.
pub fn staged_pass(
    w: &Workload,
    reads: &[Record],
    rec: &mut Recorder,
    ckpt_dir: &Path,
) -> StagedOut {
    let cfg = w.config();
    let (ranks, net) = ranks_and_net(&cfg);
    let k = cfg.chrysalis.k;
    let seqio_before = seqio::packed::stats_snapshot();
    let mut tally = CommTally::default();
    let mut virt = VirtualTimes::default();

    let mut out = rec.span("trinity.pipeline", |rec| {
        let packed_reads: Arc<Vec<PackedSeq>> = Arc::new(rec.span("seqio.encode", |rec| {
            let packed = encode_all(reads);
            rec.count("seqs", packed.len() as f64);
            packed
        }));

        // ---- Jellyfish ----
        let tables = rec.span("kcount.count", |_| {
            packed_reads
                .chunks(256)
                .map(|batch| {
                    count_kmers_packed(
                        batch,
                        CounterConfig {
                            k,
                            canonical: true,
                            threads: 1,
                            shards: 1,
                        },
                    )
                })
                .collect::<Vec<_>>()
        });
        let counts = rec.span("kcount.merge", |rec| {
            let mut counts = KmerCounts::empty(k);
            for t in tables {
                for (km, c) in t.iter() {
                    counts.add(km, c);
                }
            }
            counts.retain_min(cfg.min_kmer_count.max(1));
            rec.count("distinct_kmers", counts.len() as f64);
            counts
        });
        let kmers_counted = counts.total();

        // ---- Inchworm ----
        let dict_input = counts.clone();
        let dict = rec.span("inchworm.dictionary", |_| {
            Dictionary::from_counts(dict_input, cfg.min_kmer_count.max(1))
        });
        let contigs: Vec<Record> = rec.span("inchworm.assemble", |rec| {
            let contigs: Vec<Record> = assemble(&dict, cfg.inchworm)
                .iter()
                .map(|c| c.to_record())
                .collect();
            rec.count("contigs", contigs.len() as f64);
            contigs
        });
        drop(dict);
        let contig_bases: usize = contigs.iter().map(|c| c.seq.len()).sum();

        // ---- Chrysalis: Bowtie ----
        let contigs = Arc::new(contigs);
        let packed_contigs: Arc<Vec<PackedSeq>> =
            Arc::new(rec.span("seqio.encode", |_| encode_all(contigs.as_ref())));
        let reads_arc = Arc::new(reads.to_vec());
        let sam = bowtie_stage(rec, &cfg, &contigs, &reads_arc, &mut tally, &mut virt).sam;

        // ---- Chrysalis: GraphFromFasta ----
        let gff_contigs = packed_contigs.as_ref().clone();
        let gff_shared = Arc::new(rec.span("chrysalis.gff_prepare", |_| {
            GffShared::prepare(gff_contigs, counts.clone(), cfg.chrysalis)
        }));
        let (welds, gff_pairs) = rec.span("chrysalis.gff_run", |rec| {
            let (out, totals) = if ranks == 1 {
                let out = gff_shared_memory(&gff_shared);
                virt.gff += out.timings.total;
                let totals = vec![out.timings.total];
                (out, totals)
            } else {
                let mut outs = run_cluster(ranks, net, |comm| gff_hybrid(comm, &gff_shared));
                tally.add(&outs);
                virt.gff += max_time(&outs);
                virt.comm += mean(
                    outs.iter()
                        .map(|o| o.value.timings.comm1 + o.value.timings.comm2),
                );
                let totals = outs.iter().map(|o| o.value.timings.total).collect();
                (outs.swap_remove(0).value, totals)
            };
            let max = totals.iter().copied().fold(0.0, f64::max);
            virt.gff_rank_imbalance = max / mean(totals.iter().copied());
            rec.count("welds", out.welds.len() as f64);
            rec.count("pairs", out.pairs.len() as f64);
            (out.welds, out.pairs)
        });
        drop(gff_shared);

        // ---- Chrysalis: scaffolding + clustering ----
        let components = rec.span("chrysalis.quantify", |rec| {
            let name_index = contig_name_index(&contigs);
            let lens: Vec<usize> = contigs.iter().map(|c| c.seq.len()).collect();
            let mut all_pairs = gff_pairs.clone();
            all_pairs.extend(scaffold_pairs(&sam, &name_index, &lens, cfg.scaffold));
            all_pairs.sort_unstable();
            all_pairs.dedup();
            let (_, components) = cluster(contigs.len(), &all_pairs);
            rec.count("components", components.len() as f64);
            components
        });
        drop(sam);

        // ---- Chrysalis: ReadsToTranscripts ----
        let (rtt_reads, rtt_packed) = (reads.to_vec(), packed_reads.as_ref().clone());
        let rtt_shared = Arc::new(rec.span("chrysalis.rtt_prepare", |_| {
            RttShared::prepare_with_packed(
                rtt_reads,
                rtt_packed,
                &packed_contigs,
                &components,
                cfg.chrysalis,
            )
        }));
        let assignments = rec.span("chrysalis.rtt_run", |rec| {
            let out = if ranks == 1 {
                let out = rtt_shared_memory(&rtt_shared);
                virt.rtt += out.timings.total;
                virt.comm += out.timings.concat;
                out
            } else {
                let mut outs = run_cluster(ranks, net, |comm| rtt_hybrid(comm, &rtt_shared));
                tally.add(&outs);
                virt.rtt += max_time(&outs);
                virt.comm += mean(outs.iter().map(|o| o.value.timings.concat));
                outs.swap_remove(0).value
            };
            rec.count("assigned", out.assignments.len() as f64);
            out.assignments
        });
        drop(rtt_shared);

        // ---- Butterfly ----
        let (transcripts, max_component_reads) = butterfly_stage(
            rec,
            &cfg,
            &packed_contigs,
            &packed_reads,
            &components,
            &assignments,
        );

        StagedOut {
            digest: output_digest(&transcripts, &components, &assignments),
            artifacts: Artifacts {
                counts,
                contigs: Arc::try_unwrap(contigs).unwrap_or_else(|a| a.as_ref().clone()),
                welds,
                pairs: gff_pairs,
                components,
                assignments,
            },
            virt: VirtualTimes::default(),
            bytes_sent: 0,
            collectives: 0,
            kmers_counted,
            contig_bases,
            transcripts: transcripts.len(),
            max_component_reads,
            encoded_bases: 0,
            rolled_windows: 0,
            ckpt_bytes: 0,
        }
    });

    let fp = fingerprint(reads, &cfg);
    if w.op == Op::CkptCycle {
        // The cycle's second half, still under the pipeline root: what a
        // `resume: true` run executes once all five checkpoints validate.
        let digest = out.digest;
        let reads_arc = Arc::new(reads.to_vec());
        rec.span("trinity.pipeline", |rec| {
            out.ckpt_bytes = ckpt_save_all(rec, ckpt_dir, fp, &out.artifacts);
            let packed_reads = rec.span("seqio.encode", |_| encode_all(reads));
            let loaded = ckpt_load_all(rec, ckpt_dir, fp);
            let contigs = Arc::new(loaded.contigs);
            let packed_contigs = rec.span("seqio.encode", |_| encode_all(contigs.as_ref()));
            bowtie_stage(rec, &cfg, &contigs, &reads_arc, &mut tally, &mut virt);
            let (transcripts, _) = butterfly_stage(
                rec,
                &cfg,
                &packed_contigs,
                &packed_reads,
                &loaded.components,
                &loaded.assignments,
            );
            out.digest = output_digest(&transcripts, &loaded.components, &loaded.assignments);
        });
        assert_eq!(
            out.digest, digest,
            "staged resume half differs from the staged first half"
        );
    } else {
        // Not on this workload's path: a probe of the checkpoint codecs
        // and file I/O on its five payloads, outside the pipeline root.
        rec.span("probe.ckpt", |rec| {
            out.ckpt_bytes = ckpt_save_all(rec, ckpt_dir, fp, &out.artifacts);
            ckpt_load_all(rec, ckpt_dir, fp);
        });
    }
    let _ = std::fs::remove_dir_all(ckpt_dir);

    let seqio_after = seqio::packed::stats_snapshot();
    out.encoded_bases = seqio_after.encoded_bases - seqio_before.encoded_bases;
    out.rolled_windows = seqio_after.rolled_windows - seqio_before.rolled_windows;
    out.virt = virt;
    out.bytes_sent = tally.bytes_sent;
    out.collectives = tally.collectives;
    out
}

/// Counts the layer probes read off their return values.
#[derive(Debug, Default)]
pub struct ProbeCounts {
    pub kmertable_mean_probe_len: f64,
    pub kmertable_load_factor: f64,
    pub bowtie_aligned_reads: usize,
    pub bowtie_sam_records: usize,
    pub obs_trace_spans: usize,
    pub obs_trace_bytes: usize,
}

/// Probes of the layers that have no call of their own on the pipeline
/// path (they run inside another layer's call there): `kmertable`, the
/// Bowtie index and aligner, the `omp` loop replay, one `mpisim`
/// allgatherv, and the `obs` exporters/analytics over `finished`.
pub fn probes(
    w: &Workload,
    reads: &[Record],
    a: &Artifacts,
    finished: &PipelineOutput,
    rec: &mut Recorder,
) -> ProbeCounts {
    let cfg = w.config();
    let mut counts = ProbeCounts::default();
    rec.span("probe", |rec| {
        // kmertable: every distinct k-mer of the workload in, then one hit
        // and one miss per key (bit 62 is never set in a packed 24-mer).
        let keys: Vec<(u64, u32)> = a.counts.iter_packed().collect();
        let table = rec.span("kmertable.insert", |_| {
            let mut table = PackedKmerTable::new();
            for &(key, count) in &keys {
                table.insert(key, count);
            }
            table
        });
        let found = rec.span("kmertable.probe", |_| {
            let mut found = 0usize;
            for &(key, _) in &keys {
                found += table.get(key).is_some() as usize;
                found += table.get(key | 1 << 62).is_some() as usize;
            }
            std::hint::black_box(found)
        });
        assert_eq!(found, keys.len(), "every key hits once, no miss hits");
        counts.kmertable_mean_probe_len =
            table.probe_lengths().sum::<u64>() as f64 / table.len().max(1) as f64;
        counts.kmertable_load_factor = table.load_factor();
        drop(table);

        // bowtie: one index over all contigs, every read aligned to it.
        let index = rec.span("bowtie.index", |_| FmIndex::build(&a.contigs));
        let (hits, costs) = rec.span("bowtie.align", |_| {
            parallel_map_timed(reads, |r| align_read(&index, &r.seq, cfg.align))
        });
        counts.bowtie_aligned_reads = hits.iter().filter(|h| !h.is_empty()).count();
        counts.bowtie_sam_records = hits.iter().map(Vec::len).sum();

        // omp: the per-read cost vector replayed at the modelled thread count.
        let sim = rec.span("omp.simulate_loop", |_| {
            simulate_loop(&costs, cfg.chrysalis.threads, cfg.chrysalis.schedule)
        });
        std::hint::black_box(sim.makespan);

        // mpisim: two ranks pool the workload's welds with one allgatherv
        // (pack + channel + unpack), as gff_hybrid's loop-1 exchange does.
        let halves: Vec<&[Vec<u8>]> = a.welds.chunks(a.welds.len().div_ceil(2).max(1)).collect();
        let pooled = rec.span("mpisim.allgatherv", |_| {
            run_cluster(2, NetModel::idataplex(), |comm| {
                let mine = halves.get(comm.rank()).copied().unwrap_or(&[]);
                comm.allgatherv(&pack_byte_strings(mine))
                    .iter()
                    .map(|part| unpack_byte_strings(part).expect("peer packed welds").len())
                    .sum::<usize>()
            })
        });
        assert!(pooled.iter().all(|o| o.value == a.welds.len()));

        // obs: exporters, analytics and the sampler over a finished trace.
        let exported = rec.span("obs.export", |_| {
            obs::export::chrome_trace(&finished.trace).len()
                + obs::export::trace_json(&finished.trace).len()
                + obs::export::metrics_json(&finished.metrics).len()
        });
        rec.span("obs.analyze", |_| {
            std::hint::black_box(obs::analyze(&finished.trace));
        });
        let mut copy = finished.trace.clone();
        rec.span("obs.sampler", |_| {
            let sampler = obs::Sampler::with_samples(&copy, 256);
            let lanes: std::collections::BTreeSet<u32> = copy
                .spans
                .iter()
                .map(|s| s.track)
                .filter(|&t| t < obs::THREAD_TRACK_BASE)
                .collect();
            for lane in lanes {
                sampler.annotate(&mut copy, lane);
            }
        });
        counts.obs_trace_spans = finished.trace.spans.len();
        counts.obs_trace_bytes = exported;
    });
    counts
}
