//! Head-to-head: the pre-rolling inner loops (ASCII windows with an O(k)
//! reverse-complement per position) vs the rolling canonical streams over
//! 2-bit packed sequences, on the three hot-path shapes the rewrite
//! touched — k-mer counting, ReadsToTranscripts assignment and the weld
//! support scan — plus Butterfly's per-component reconstruction against a
//! local copy of the recursive, allocating path enumeration it replaced,
//! and Bowtie's seed-and-verify aligner against a local copy of the
//! depth-first backtracking search it replaced.
//!
//! Run with `cargo bench --bench hotloops`; a custom `main` writes the
//! measured before/after pairs to `BENCH_hotloops.json` at the workspace
//! root so the speedup table in README.md stays reproducible. Under
//! `cargo test` the harness runs in smoke mode (each closure once,
//! unmeasured) and the JSON is left untouched. `HOTLOOPS_SAMPLES` overrides
//! the per-benchmark sample count (CI's bench-smoke job sets a small one).

use criterion::{black_box, Criterion};

use bowtie::align::{align_read, AlignConfig, Alignment, Strand};
use bowtie::bwt::Bwt;
use bowtie::fmindex::FmIndex;
use butterfly::paths::PathConfig;
use butterfly::transcripts::{reconstruct_component, ComponentInput, ReconstructionConfig};
use chrysalis::config::ChrysalisConfig;
use chrysalis::weld::{WeldSupport, WeldWindow};
use graph::debruijn::{DeBruijnGraph, NodeId};
use kcount::counter::KmerCounts;
use kmertable::{PackedKmerTable, PartitionedKmerTable};
use seqio::alphabet::{base_to_code, complement_code};
use seqio::fasta::Record;
use seqio::packed::PackedSeq;
use simulate::datasets::{Dataset, DatasetPreset};

const K: usize = 24;

/// The pre-rolling discipline, reimplemented locally so the comparison
/// survives the rewrite: roll the forward word one base at a time, but
/// rebuild the reverse complement from scratch for every window — the O(k)
/// per-position cost `Kmer::canonical()` used to pay.
fn naive_stream(seq: &[u8], k: usize, mut emit: impl FnMut(u64)) {
    let mask = if k == 32 {
        u64::MAX
    } else {
        (1u64 << (2 * k)) - 1
    };
    let mut fwd = 0u64;
    let mut filled = 0usize;
    for &b in seq {
        match base_to_code(b) {
            Some(c) => {
                fwd = ((fwd << 2) | c as u64) & mask;
                filled += 1;
            }
            None => {
                filled = 0;
                fwd = 0;
            }
        }
        if filled >= k {
            let mut rc = 0u64;
            for i in 0..k {
                rc = (rc << 2) | (3 - ((fwd >> (2 * i)) & 3));
            }
            emit(fwd.min(rc));
        }
    }
}

/// Naive per-read component vote: ASCII scan, O(k) canonical per window,
/// heap-allocated tally — the shape `RttShared::assign_packed` had before the
/// rolling/packed rewrite.
fn naive_assign(table: &PartitionedKmerTable, min: u32, k: usize, read: &[u8]) -> Option<u32> {
    let mut votes: Vec<(u32, u32)> = Vec::new();
    naive_stream(read, k, |p| {
        if let Some(c) = table.get(p) {
            match votes.iter_mut().find(|(vc, _)| *vc == c) {
                Some(v) => v.1 += 1,
                None => votes.push((c, 1)),
            }
        }
    });
    let mut best: Option<(u32, u32)> = None;
    for &(c, n) in &votes {
        if n < min {
            continue;
        }
        let better = match best {
            Some((bc, bn)) => n > bn || (n == bn && c < bc),
            None => true,
        };
        if better {
            best = Some((c, n));
        }
    }
    best.map(|(c, _)| c)
}

/// Naive weld support probe: ASCII window, O(k) canonical per k-window.
fn naive_supports(counts: &KmerCounts, min: u32, k: usize, w: &[u8]) -> bool {
    if w.len() < k {
        return false;
    }
    let mut any = true;
    let mut seen = false;
    naive_stream(w, k, |p| {
        seen = true;
        if counts.get_packed(p) < min {
            any = false;
        }
    });
    seen && any
}

/// The enumeration `butterfly::paths` had before it kept its own stack:
/// one call frame per node of the path, `out_edges` cloning and sorting a
/// `Vec` at every visit, `spell_path` decoding a whole (k−1)-mer per base.
struct RecursiveDfs<'g> {
    g: &'g DeBruijnGraph,
    cfg: PathConfig,
    out: Vec<Vec<NodeId>>,
    visits: Vec<u8>,
}

impl RecursiveDfs<'_> {
    fn run(&mut self, path: &mut Vec<NodeId>, node: NodeId) {
        if self.out.len() >= self.cfg.max_paths {
            return;
        }
        path.push(node);
        self.visits[node as usize] += 1;
        let edges = self.g.out_edges(node);
        let mut extended = false;
        for &(next, _w) in edges.iter().take(self.cfg.max_branch) {
            if (self.visits[next as usize] as usize) < self.cfg.max_node_visits {
                extended = true;
                self.run(path, next);
                if self.out.len() >= self.cfg.max_paths {
                    break;
                }
            }
        }
        if !extended {
            self.out.push(path.clone());
        }
        self.visits[node as usize] -= 1;
        path.pop();
    }
}

/// `reconstruct_component`'s sequences through [`RecursiveDfs`].
fn reconstruct_recursive(input: &ComponentInput, cfg: ReconstructionConfig) -> Vec<Vec<u8>> {
    let mut g = DeBruijnGraph::new(cfg.k);
    for contig in &input.contigs {
        g.add_packed(contig, cfg.contig_weight);
    }
    for read in &input.reads {
        g.add_packed(read, 1);
    }
    if cfg.min_edge_weight > 1 {
        g.prune_edges(cfg.min_edge_weight);
    }
    let mut dfs = RecursiveDfs {
        g: &g,
        cfg: cfg.paths,
        out: Vec::new(),
        visits: vec![0; g.node_count()],
    };
    for s in g.sources() {
        if dfs.out.len() >= cfg.paths.max_paths {
            break;
        }
        dfs.run(&mut Vec::new(), s);
    }
    let mut ranked: Vec<(u64, Vec<NodeId>)> = dfs
        .out
        .into_iter()
        .map(|p| (g.path_weight(&p), p))
        .collect();
    ranked.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut seqs: Vec<Vec<u8>> = Vec::new();
    for (_, p) in ranked {
        let mut s = g.node_kmer(p[0]).bases();
        for &n in &p[1..] {
            let km = g.node_kmer(n);
            s.push(km.bases()[km.k() - 1]);
        }
        if s.len() >= cfg.paths.min_len && !seqs.contains(&s) {
            seqs.push(s);
        }
    }
    seqs
}

/// The search `bowtie::align` had before it seeded and verified: one
/// strand's depth-first walk over the whole read, right to left, the true
/// base free and the three others one unit of `budget` each, every branch
/// near the root paid for before the read's stratum is known.
struct Backtrack<'a> {
    bwt: &'a Bwt,
    codes: &'a [u8],
    budget: u8,
    ranges: Vec<(u8, usize, usize)>,
}

/// Code of a read `N` in [`Backtrack::codes`].
const NO_BASE: u8 = 4;

impl Backtrack<'_> {
    /// Extend `[lo, hi)`, which matches `codes[i..]` with `mm` mismatches,
    /// leftwards over `codes[..i]`.
    fn extend(&mut self, i: usize, lo: usize, hi: usize, mm: u8) {
        if mm == self.budget {
            let mut range = (lo, hi);
            for &c in self.codes[..i].iter().rev() {
                if c == NO_BASE {
                    return;
                }
                let Some(next) = self.bwt.backward_step(range.0, range.1, c) else {
                    return;
                };
                range = next;
            }
            self.ranges.push((mm, range.0, range.1));
            return;
        }
        if i == 0 {
            self.ranges.push((mm, lo, hi));
            return;
        }
        let want = self.codes[i - 1];
        for c in 0..4u8 {
            if let Some((l, h)) = self.bwt.backward_step(lo, hi, c) {
                self.extend(i - 1, l, h, mm + u8::from(c != want));
            }
        }
    }
}

/// `align_read` through [`Backtrack`], one pass per budget under
/// `best_strata`. `starts[i]` is where contig `i` begins in the index's
/// joined text (contigs in input order, one separator after each).
fn align_backtracking(
    idx: &FmIndex,
    starts: &[usize],
    read: &[u8],
    cfg: AlignConfig,
) -> Vec<Alignment> {
    let fwd: Vec<u8> = read
        .iter()
        .map(|&b| base_to_code(b).unwrap_or(NO_BASE))
        .collect();
    let comp = |&c: &u8| if c == NO_BASE { c } else { complement_code(c) };
    let rev: Vec<u8> = fwd.iter().rev().map(comp).collect();
    let mut strands = vec![(Strand::Forward, fwd)];
    if cfg.both_strands {
        strands.push((Strand::Reverse, rev));
    }
    let mut out = Vec::new();
    let max = cfg.max_mismatches.min(3);
    for budget in if cfg.best_strata { 0 } else { max }..=max {
        for (strand, codes) in &strands {
            let mut search = Backtrack {
                bwt: idx.bwt(),
                codes,
                budget,
                ranges: Vec::new(),
            };
            search.extend(codes.len(), 0, idx.bwt().len(), 0);
            for (mismatches, lo, hi) in search.ranges {
                for row in lo..hi {
                    let pos = idx.bwt().sa_at(row);
                    let contig = starts.partition_point(|&s| s <= pos) - 1;
                    out.push(Alignment {
                        contig,
                        offset: pos - starts[contig],
                        strand: *strand,
                        mismatches,
                        read_len: codes.len(),
                    });
                }
            }
        }
        if !out.is_empty() {
            break;
        }
    }
    out.sort_by_key(|a| {
        (
            a.mismatches,
            a.contig,
            a.offset,
            a.strand == Strand::Reverse,
        )
    });
    out.truncate(cfg.max_hits);
    out
}

struct Fixtures {
    reads: Vec<Record>,
    packed_reads: Vec<PackedSeq>,
    counts: KmerCounts,
    rtt: std::sync::Arc<chrysalis::reads_to_transcripts::RttShared>,
    byte_windows: Vec<Vec<u8>>,
    weld_windows: Vec<WeldWindow>,
    /// The preset's Butterfly inputs: each component's contigs and the
    /// reads ReadsToTranscripts assigns to it.
    components: Vec<ComponentInput>,
    /// The Bowtie stage's index over the Inchworm contigs, and where each
    /// contig starts in its text.
    index: FmIndex,
    contig_starts: Vec<usize>,
    cfg: ChrysalisConfig,
}

fn fixtures() -> Fixtures {
    let reads = Dataset::generate(DatasetPreset::Tiny, 7).all_reads();
    let packed_reads = seqio::packed::encode_all(&reads);
    let cfg = ChrysalisConfig::small(16);

    let counts = kcount::counter::count_kmers(&reads, kcount::counter::CounterConfig::new(cfg.k));
    let dict = inchworm::dictionary::Dictionary::from_counts(counts.clone(), 1);
    let contigs: Vec<Record> = inchworm::assemble::assemble(
        &dict,
        inchworm::assemble::InchwormConfig {
            min_seed_count: 1,
            min_extend_count: 1,
            min_contig_len: 32,
            jitter_seed: None,
        },
    )
    .iter()
    .map(|c| c.to_record())
    .collect();
    let packed_contigs = seqio::packed::encode_all(&contigs);
    let gff = chrysalis::graph_from_fasta::gff_shared_memory(
        &chrysalis::graph_from_fasta::GffShared::prepare(
            packed_contigs.clone(),
            counts.clone(),
            cfg,
        ),
    );
    let rtt = std::sync::Arc::new(chrysalis::reads_to_transcripts::RttShared::prepare(
        reads.clone(),
        &packed_contigs,
        &gff.components,
        cfg,
    ));

    // Weld-shaped windows (2k long, k/2 stride) over the contigs, carried
    // both as ASCII bytes (naive side) and incremental WeldWindows
    // (rolling side) — the support-scan comparison isolates the probe loop.
    let mut byte_windows = Vec::new();
    let mut weld_windows = Vec::new();
    for (c, p) in contigs.iter().zip(&packed_contigs) {
        let w = 2 * cfg.k;
        let mut start = 0;
        while start + w <= c.seq.len() {
            if p.range_valid(start, start + w) {
                byte_windows.push(c.seq[start..start + w].to_vec());
                let mut ww = WeldWindow::new();
                for j in start..start + w {
                    ww.push(p.code_at(j));
                }
                weld_windows.push(ww);
            }
            start += cfg.k / 2;
        }
    }

    let mut components: Vec<ComponentInput> = gff
        .components
        .iter()
        .enumerate()
        .map(|(ci, members)| ComponentInput {
            component: ci,
            contigs: members.iter().map(|&m| packed_contigs[m].clone()).collect(),
            reads: Vec::new(),
        })
        .collect();
    for p in &packed_reads {
        if let Some(c) = rtt.assign_packed(p) {
            components[c as usize].reads.push(p.clone());
        }
    }

    let contig_starts = contigs
        .iter()
        .scan(0, |at, c| {
            Some(std::mem::replace(at, *at + c.seq.len() + 1))
        })
        .collect();

    Fixtures {
        reads,
        packed_reads,
        counts,
        rtt,
        byte_windows,
        weld_windows,
        components,
        index: FmIndex::build(&contigs),
        contig_starts,
        cfg,
    }
}

fn count_naive(reads: &[Record], k: usize) -> PackedKmerTable {
    let mut t = PackedKmerTable::new();
    for r in reads {
        naive_stream(&r.seq, k, |p| t.add(p, 1));
    }
    t
}

fn count_rolling(reads: &[PackedSeq], k: usize) -> PackedKmerTable {
    let mut t = PackedKmerTable::new();
    for p in reads {
        if let Ok(iter) = p.canonical_kmers(k) {
            for (_, km) in iter {
                t.add(km.packed(), 1);
            }
        }
    }
    t
}

fn bench(c: &mut Criterion) {
    let f = fixtures();
    let samples: usize = std::env::var("HOTLOOPS_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(15);

    // Equivalence first: both sides of each workload must agree, or the
    // timing comparison is meaningless.
    let tn = count_naive(&f.reads, K);
    let tr = count_rolling(&f.packed_reads, K);
    assert_eq!(tn.len(), tr.len());
    assert_eq!(
        tn.iter().map(|(_, v)| v as u64).sum::<u64>(),
        tr.iter().map(|(_, v)| v as u64).sum::<u64>()
    );
    let min = f.rtt.cfg.min_read_kmers.max(1) as u32;
    for (r, p) in f.reads.iter().zip(&f.packed_reads) {
        assert_eq!(
            naive_assign(&f.rtt.kmer_to_component, min, f.cfg.k, &r.seq),
            f.rtt.assign_packed(p)
        );
    }
    let support = WeldSupport::new(&f.counts, f.cfg.min_weld_support);
    for (b, w) in f.byte_windows.iter().zip(&f.weld_windows) {
        assert_eq!(
            naive_supports(&f.counts, f.cfg.min_weld_support.max(1), f.cfg.k, b),
            support.supports_packed(w)
        );
    }

    let recon = ReconstructionConfig {
        k: f.cfg.k,
        paths: PathConfig {
            min_len: 2 * f.cfg.k,
            ..PathConfig::default()
        },
        min_edge_weight: 2,
        ..ReconstructionConfig::default()
    };
    for input in &f.components {
        let shipped: Vec<Vec<u8>> = reconstruct_component(input, recon)
            .into_iter()
            .map(|r| r.seq)
            .collect();
        assert_eq!(
            reconstruct_recursive(input, recon),
            shipped,
            "component {}",
            input.component
        );
    }

    // The pipeline's aligner settings; the reads are the stage's own mix of
    // exact, one-substitution and unalignable.
    let align_cfg = AlignConfig {
        max_mismatches: 1,
        ..AlignConfig::default()
    };
    for r in &f.reads {
        assert_eq!(
            align_backtracking(&f.index, &f.contig_starts, &r.seq, align_cfg),
            align_read(&f.index, &r.seq, align_cfg),
            "read {}",
            r.id
        );
    }

    let mut g = c.benchmark_group("kmer_count");
    g.sample_size(samples);
    g.bench_function("naive", |b| b.iter(|| black_box(count_naive(&f.reads, K))));
    g.bench_function("rolling", |b| {
        b.iter(|| black_box(count_rolling(&f.packed_reads, K)))
    });
    g.finish();

    let mut g = c.benchmark_group("rtt_assign");
    g.sample_size(samples);
    g.bench_function("naive", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for r in &f.reads {
                if naive_assign(&f.rtt.kmer_to_component, min, f.cfg.k, &r.seq).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.bench_function("rolling", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for p in &f.packed_reads {
                if f.rtt.assign_packed(p).is_some() {
                    hits += 1;
                }
            }
            black_box(hits)
        })
    });
    g.finish();

    let mut g = c.benchmark_group("weld_scan");
    g.sample_size(samples);
    g.bench_function("naive", |b| {
        b.iter(|| {
            let mut ok = 0u64;
            for w in &f.byte_windows {
                if naive_supports(&f.counts, f.cfg.min_weld_support.max(1), f.cfg.k, w) {
                    ok += 1;
                }
            }
            black_box(ok)
        })
    });
    g.bench_function("rolling", |b| {
        b.iter(|| {
            let mut ok = 0u64;
            for w in &f.weld_windows {
                if support.supports_packed(w) {
                    ok += 1;
                }
            }
            black_box(ok)
        })
    });
    g.finish();

    let mut g = c.benchmark_group("butterfly_reconstruct");
    g.sample_size(samples);
    g.bench_function("recursive_ref", |b| {
        b.iter(|| {
            let mut paths = 0usize;
            for input in &f.components {
                paths += reconstruct_recursive(input, recon).len();
            }
            black_box(paths)
        })
    });
    g.bench_function("iterative", |b| {
        b.iter(|| {
            let mut paths = 0usize;
            for input in &f.components {
                paths += reconstruct_component(input, recon).len();
            }
            black_box(paths)
        })
    });
    g.finish();

    let mut g = c.benchmark_group("bowtie_align");
    g.sample_size(samples);
    g.bench_function("backtrack_ref", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for r in &f.reads {
                hits += align_backtracking(&f.index, &f.contig_starts, &r.seq, align_cfg).len();
            }
            black_box(hits)
        })
    });
    g.bench_function("seed_verify", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for r in &f.reads {
                hits += align_read(&f.index, &r.seq, align_cfg).len();
            }
            black_box(hits)
        })
    });
    g.finish();
}

fn main() {
    let mut criterion = Criterion::default();
    bench(&mut criterion);

    // Persist before/after pairs. Under `cargo test` the harness runs in
    // smoke mode and every report is 0.0 s — skip writing in that case so a
    // test run never clobbers real measurements.
    let reports = criterion.reports();
    if reports.iter().any(|r| r.seconds == 0.0) {
        return;
    }
    let second_of = |id: &str| {
        reports
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.seconds)
            .unwrap_or(f64::NAN)
    };
    let pairs = [
        ("kmer_count", "naive", "rolling"),
        ("rtt_assign", "naive", "rolling"),
        ("weld_scan", "naive", "rolling"),
        ("butterfly_reconstruct", "recursive_ref", "iterative"),
        ("bowtie_align", "backtrack_ref", "seed_verify"),
    ];
    let workloads: Vec<bench::benchjson::Workload> = pairs
        .iter()
        .map(|(group, before, after)| bench::benchjson::Workload {
            name: group.to_string(),
            baseline_ns: second_of(&format!("{group}/{before}")) * 1e9,
            candidate_ns: second_of(&format!("{group}/{after}")) * 1e9,
        })
        .collect();
    bench::benchjson::write(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotloops.json"),
        "hotloops",
        K,
        &workloads,
    );
}
