//! The four workloads: their frozen parameters, the input generator, the
//! operation each timed rep performs, and the checks on its output.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::host;
use mpisim::NetModel;
use seqio::fasta::{parse_fasta, to_fasta_bytes, Record};
use seqio::packed::PackedSeq;
use simulate::{
    reads::simulate_reads, ExpressionModel, ReadSimConfig, Transcriptome, TranscriptomeConfig,
};
use trinity::checkpoint::fnv1a64;
use trinity::pipeline::{
    run_pipeline_opts, PipelineConfig, PipelineMode, PipelineOutput, RunOptions,
};

/// Word size of every workload (the CLI's default `--kmer`).
pub const K: usize = 24;
/// OpenMP threads per modelled node (the CLI's default `--threads`).
pub const THREADS: usize = 16;
/// Stages `run_pipeline_opts` checkpoints.
pub const CKPT_STAGES: u64 = 5;

/// What one timed rep does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// One `run_pipeline_opts` call.
    Pipeline,
    /// A run into a fresh checkpoint dir, then a `resume: true` run on it.
    CkptCycle,
}

/// Input shape. Everything but `pairs` fixes *what kind* of transcriptome
/// the program sees; `pairs` sizes a rep.
///
/// The transcriptome and its expression profile are part of the workload,
/// drawn once from `transcriptome_seed`; `--seed` draws the sequencing run
/// (fragment positions, insert sizes, base errors), so every seed gives
/// different reads of the same size and difficulty. Drawing the
/// transcriptome from `--seed` too was measured first: total reference
/// length then varies by ±10 % between seeds at these gene counts, and
/// wall time, RSS and recall spread by 10–20 % for that reason alone.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub transcriptome_seed: u64,
    pub genes: usize,
    pub exons_per_gene: (usize, usize),
    pub exon_len: (usize, usize),
    pub isoforms_per_gene: (usize, usize),
    pub paralog_fraction: f64,
    pub paralog_divergence: f64,
    pub pairs: usize,
    pub read_len: usize,
    pub insert_mean: f64,
    pub insert_sd: f64,
    pub error_rate: f64,
}

/// ≈20× coverage of a small transcriptome: read-proportional layers
/// (Bowtie, k-mer counting, read encode) dominate.
const DEEP: Shape = Shape {
    transcriptome_seed: 7,
    genes: 60,
    exons_per_gene: (2, 5),
    exon_len: (100, 600),
    isoforms_per_gene: (1, 3),
    paralog_fraction: 0.3,
    paralog_divergence: 0.03,
    pairs: 22_000,
    read_len: 50,
    insert_mean: 180.0,
    insert_sd: 25.0,
    error_rate: 0.005,
};

/// Five times the genes, longer exons and reads: k-mer tables, contigs and
/// welds are at their largest, and the tables no longer fit in L2.
const WIDE: Shape = Shape {
    transcriptome_seed: 7,
    genes: 200,
    exons_per_gene: (2, 8),
    exon_len: (80, 1200),
    isoforms_per_gene: (1, 4),
    paralog_fraction: 0.4,
    paralog_divergence: 0.02,
    pairs: 22_000,
    read_len: 100,
    insert_mean: 260.0,
    insert_sd: 30.0,
    error_rate: 0.002,
};

/// One benchmark workload, frozen.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    /// Simulated MPI ranks (1 = the serial layout).
    pub ranks: usize,
    pub op: Op,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "deep_serial",
        shape: DEEP,
        ranks: 1,
        op: Op::Pipeline,
    },
    Workload {
        name: "wide_serial",
        shape: WIDE,
        ranks: 1,
        op: Op::Pipeline,
    },
    Workload {
        name: "wide_hybrid2",
        shape: WIDE,
        ranks: 2,
        op: Op::Pipeline,
    },
    Workload {
        name: "deep_ckpt_cycle",
        shape: DEEP,
        ranks: 1,
        op: Op::CkptCycle,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload with `1/divisor` of the genes and read pairs
    /// (`--smoke` and the unit tests).
    pub fn scaled_down(mut self, divisor: usize) -> Workload {
        self.shape.genes = (self.shape.genes / divisor).max(4);
        self.shape.pairs = (self.shape.pairs / divisor).max(200);
        self
    }

    /// The configuration the `trinity` CLI builds for `--kmer 24
    /// --threads 16 [--nprocs ranks]`.
    pub fn config(&self) -> PipelineConfig {
        let mut cfg = PipelineConfig::small(K);
        cfg.chrysalis.threads = THREADS;
        cfg.mode = if self.ranks > 1 {
            PipelineMode::Hybrid {
                ranks: self.ranks,
                net: NetModel::idataplex(),
            }
        } else {
            PipelineMode::Serial
        };
        cfg
    }

    /// Frozen parameters as a JSON object, for the result record.
    pub fn params_json(&self) -> String {
        let s = &self.shape;
        format!(
            "{{\"transcriptome_seed\":{},\"genes\":{},\"exons_per_gene\":[{},{}],\"exon_len\":[{},{}],\
             \"isoforms_per_gene\":[{},{}],\"paralog_fraction\":{},\"paralog_divergence\":{},\
             \"pairs\":{},\"read_len\":{},\"insert_mean\":{},\"insert_sd\":{},\"error_rate\":{},\
             \"k\":{K},\"threads\":{THREADS},\"ranks\":{},\"op\":\"{:?}\"}}",
            s.transcriptome_seed,
            s.genes,
            s.exons_per_gene.0,
            s.exons_per_gene.1,
            s.exon_len.0,
            s.exon_len.1,
            s.isoforms_per_gene.0,
            s.isoforms_per_gene.1,
            s.paralog_fraction,
            s.paralog_divergence,
            s.pairs,
            s.read_len,
            s.insert_mean,
            s.insert_sd,
            s.error_rate,
            self.ranks,
            self.op
        )
    }
}

/// A workload's generated input plus what its output is checked against.
pub struct Input {
    /// The reads the program gets: parsed back from generated FASTA bytes.
    pub reads: Vec<Record>,
    /// Distinct canonical k-mers of the simulated reference, sorted.
    pub ref_kmers: Vec<u64>,
    pub ref_bases: usize,
    /// Seconds in `simulate` (transcriptome + reads).
    pub generate_s: f64,
    /// Seconds in `seqio::fasta::parse_fasta`.
    pub parse_s: f64,
}

/// Generate the input of `w` for `seed`: same seed, same bytes.
pub fn generate(w: &Workload, seed: u64) -> Input {
    let s = &w.shape;
    let t0 = std::time::Instant::now();
    let reference = Transcriptome::generate(TranscriptomeConfig {
        genes: s.genes,
        exons_per_gene: s.exons_per_gene,
        exon_len: s.exon_len,
        isoforms_per_gene: s.isoforms_per_gene,
        paralog_fraction: s.paralog_fraction,
        paralog_divergence: s.paralog_divergence,
        seed: s.transcriptome_seed,
    })
    .reference();
    let expr = ExpressionModel {
        seed: s.transcriptome_seed ^ 0xE0E0_E0E0,
        ..ExpressionModel::default()
    };
    let simulated = simulate_reads(
        &reference,
        &expr,
        ReadSimConfig {
            pairs: s.pairs,
            read_len: s.read_len,
            insert_mean: s.insert_mean,
            insert_sd: s.insert_sd,
            error_rate: s.error_rate,
            seed,
        },
    )
    .all();
    let generate_s = t0.elapsed().as_secs_f64();

    // The program sees only what a reads file would hold.
    let fasta = to_fasta_bytes(&simulated);
    drop(simulated);
    let t0 = std::time::Instant::now();
    let reads = parse_fasta(&fasta).expect("generated FASTA parses");
    let parse_s = t0.elapsed().as_secs_f64();

    let ref_seqs: Vec<&[u8]> = reference.iter().map(|r| r.seq.as_slice()).collect();
    Input {
        reads,
        ref_kmers: distinct_canonical_kmers(&ref_seqs),
        ref_bases: ref_seqs.iter().map(|s| s.len()).sum(),
        generate_s,
        parse_s,
    }
}

/// Sorted distinct canonical `K`-mers of `seqs`.
pub fn distinct_canonical_kmers(seqs: &[&[u8]]) -> Vec<u64> {
    let mut kmers: Vec<u64> = Vec::new();
    for seq in seqs {
        if let Ok(iter) = PackedSeq::from_bytes(seq).canonical_kmers(K) {
            kmers.extend(iter.map(|(_, km)| km.packed()));
        }
    }
    kmers.sort_unstable();
    kmers.dedup();
    kmers
}

/// `(recall, precision)` of the assembled transcripts against the
/// reference k-mer set: shared ÷ reference, shared ÷ assembled.
pub fn kmer_recall_precision(ref_kmers: &[u64], transcripts: &[Record]) -> (f64, f64) {
    let seqs: Vec<&[u8]> = transcripts.iter().map(|t| t.seq.as_slice()).collect();
    let got = distinct_canonical_kmers(&seqs);
    let (mut i, mut j, mut shared) = (0, 0, 0usize);
    while i < ref_kmers.len() && j < got.len() {
        match ref_kmers[i].cmp(&got[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                shared += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let ratio = |den: usize| {
        if den == 0 {
            0.0
        } else {
            shared as f64 / den as f64
        }
    };
    (ratio(ref_kmers.len()), ratio(got.len()))
}

/// Digest of what the pipeline assembled: sorted transcript sequences,
/// components, read assignments. Transcript order and names are outside it
/// (hybrid and serial runs agree on the set, not on the order).
pub fn output_digest(
    transcripts: &[Record],
    components: &[Vec<usize>],
    assignments: &[(u32, u32)],
) -> u64 {
    let mut bytes = Vec::new();
    let mut seqs: Vec<&[u8]> = transcripts.iter().map(|t| t.seq.as_slice()).collect();
    seqs.sort_unstable();
    for s in seqs {
        bytes.extend_from_slice(s);
        bytes.push(0xff);
    }
    for members in components {
        for &m in members {
            bytes.extend_from_slice(&(m as u64).to_le_bytes());
        }
        bytes.push(0xff);
    }
    for &(r, c) in assignments {
        bytes.extend_from_slice(&r.to_le_bytes());
        bytes.extend_from_slice(&c.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// One `run_pipeline_opts` call on the three clocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clocks {
    pub wall_s: f64,
    /// User + system CPU of the whole process over the call.
    pub cpu_s: f64,
    /// `PipelineOutput::trace.total_time()`.
    pub virtual_s: f64,
}

/// What one operation produced and cost.
pub struct OpResult {
    pub digest: u64,
    /// One entry per `run_pipeline_opts` call of the operation, in order
    /// (one for a pipeline workload; save run, resume run for the cycle).
    pub runs: Vec<Clocks>,
    /// The (last) run's output.
    pub output: PipelineOutput,
}

/// A fresh scratch directory path under `out_dir`, unique per process and
/// per call, so neither a rerun nor a concurrent caller can ever resume
/// from another run's files.
pub fn scratch_dir(out_dir: &Path) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    out_dir.join(format!("ckpt-{}-{n}", std::process::id()))
}

fn digest_of(out: &PipelineOutput) -> u64 {
    output_digest(&out.transcripts, &out.components, &out.assignments)
}

fn timed_run(
    reads: &[Record],
    cfg: &PipelineConfig,
    opts: &RunOptions,
    runs: &mut Vec<Clocks>,
) -> PipelineOutput {
    let (t0, cpu0) = (std::time::Instant::now(), host::process_cpu_seconds());
    let out = run_pipeline_opts(reads, cfg, opts);
    runs.push(Clocks {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: host::process_cpu_seconds() - cpu0,
        virtual_s: out.trace.total_time(),
    });
    out
}

/// A save run into fresh `dir` then a resume run on it; checks the
/// checkpoint counters and that the resumed output equals the saved one.
/// Removes `dir` before returning.
pub fn ckpt_cycle(reads: &[Record], cfg: &PipelineConfig, dir: &Path) -> Result<OpResult, String> {
    let mut runs = Vec::new();
    let result = (|| {
        let mut opts = RunOptions {
            checkpoint_dir: Some(dir.to_path_buf()),
            ..RunOptions::default()
        };
        let first = timed_run(reads, cfg, &opts, &mut runs);
        let saved = first.metrics.counter("ckpt.saved").unwrap_or(0);
        if saved != CKPT_STAGES {
            return Err(format!(
                "save run wrote {saved} checkpoints, not {CKPT_STAGES}"
            ));
        }
        opts.resume = true;
        let second = timed_run(reads, cfg, &opts, &mut runs);
        let resumed = second.metrics.counter("ckpt.resumed").unwrap_or(0);
        let invalid = second.metrics.counter("ckpt.invalid").unwrap_or(0);
        if resumed != CKPT_STAGES || invalid != 0 {
            return Err(format!(
                "resume run resumed {resumed} stages ({invalid} invalid), not {CKPT_STAGES}"
            ));
        }
        if digest_of(&first) != digest_of(&second) {
            return Err("resumed output differs from the uninterrupted output".to_string());
        }
        Ok(second)
    })();
    // Best effort: a leftover dir is unique to this process and ignored by git.
    let _ = std::fs::remove_dir_all(dir);
    let output = result?;
    Ok(OpResult {
        digest: digest_of(&output),
        runs,
        output,
    })
}

/// One plain `run_pipeline_opts` call in the workload's layout: the
/// warm-up rep of every workload, and the operation of the pipeline ones.
pub fn run_plain(w: &Workload, reads: &[Record]) -> OpResult {
    let mut runs = Vec::new();
    let output = timed_run(reads, &w.config(), &RunOptions::default(), &mut runs);
    OpResult {
        digest: digest_of(&output),
        runs,
        output,
    }
}

/// Perform the workload's operation once.
pub fn run_op(w: &Workload, reads: &[Record], ckpt_dir: &Path) -> Result<OpResult, String> {
    match w.op {
        Op::Pipeline => Ok(run_plain(w, reads)),
        Op::CkptCycle => ckpt_cycle(reads, &w.config(), ckpt_dir),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: &[u8]) -> Record {
        Record::new("t", seq.to_vec())
    }

    fn reads_digest(reads: &[Record]) -> u64 {
        fnv1a64(&to_fasta_bytes(reads))
    }

    const REF: &[u8] = b"ACGTTGCAAGGCTTAACCGGATATCGCGAATTCCGGAAGT";

    #[test]
    fn identical_transcripts_score_one_one() {
        let ref_kmers = distinct_canonical_kmers(&[REF]);
        assert_eq!(ref_kmers.len(), REF.len() - K + 1);
        assert_eq!(kmer_recall_precision(&ref_kmers, &[rec(REF)]), (1.0, 1.0));
    }

    #[test]
    fn disjoint_transcripts_score_zero_zero() {
        let ref_kmers = distinct_canonical_kmers(&[REF]);
        let other = b"TTTTTTTTTTTTTTTTTTTTTTTTTTTTTTGGGGGGGGGG";
        assert_eq!(kmer_recall_precision(&ref_kmers, &[rec(other)]), (0.0, 0.0));
        assert_eq!(kmer_recall_precision(&ref_kmers, &[]), (0.0, 0.0));
    }

    #[test]
    fn reverse_complement_counts_as_present() {
        let ref_kmers = distinct_canonical_kmers(&[REF]);
        let rc = seqio::alphabet::revcomp(REF);
        assert_eq!(kmer_recall_precision(&ref_kmers, &[rec(&rc)]), (1.0, 1.0));
    }

    #[test]
    fn partial_and_extra_kmers_move_recall_and_precision_apart() {
        let ref_kmers = distinct_canonical_kmers(&[REF]);
        // The first 30 bases hold 7 of the 17 reference k-mers, no others.
        let (recall, precision) = kmer_recall_precision(&ref_kmers, &[rec(&REF[..30])]);
        assert!((recall - 7.0 / 17.0).abs() < 1e-12);
        assert_eq!(precision, 1.0);
    }

    #[test]
    fn generator_is_deterministic_in_the_seed() {
        let w = WORKLOADS[0].scaled_down(20);
        let a = generate(&w, 7);
        let b = generate(&w, 7);
        let c = generate(&w, 8);
        assert_eq!(reads_digest(&a.reads), reads_digest(&b.reads));
        assert_ne!(reads_digest(&a.reads), reads_digest(&c.reads));
        // The seed draws the reads, not the transcriptome they come from.
        assert_eq!(a.reads.len(), c.reads.len());
        assert_eq!(a.ref_kmers, c.ref_kmers);
    }

    #[test]
    fn digest_ignores_transcript_order_but_not_content() {
        let (a, b) = (rec(b"ACGT"), rec(b"GGCC"));
        let comps = vec![vec![0usize, 1]];
        let d1 = output_digest(&[a.clone(), b.clone()], &comps, &[(0, 0)]);
        let d2 = output_digest(&[b.clone(), a.clone()], &comps, &[(0, 0)]);
        assert_eq!(d1, d2);
        assert_ne!(
            d1,
            output_digest(&[a.clone(), b.clone()], &comps, &[(1, 0)])
        );
        assert_ne!(d1, output_digest(&[a], &comps, &[(0, 0)]));
    }
}
