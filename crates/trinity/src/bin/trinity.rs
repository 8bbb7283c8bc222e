//! `trinity` — the pipeline driver binary (the `Trinity.pl` equivalent).
//!
//! ```text
//! trinity --reads reads.fa [--reads more.fa] --out outdir \
//!         [--nprocs N] [--threads T] [--kmer K] [--simulate PRESET[:SEED]]
//! ```
//!
//! Reads FASTA (or FASTQ; detected by the first byte), runs
//! Jellyfish → Inchworm → Chrysalis → Butterfly, and writes into `--out`:
//! `inchworm.fasta`, `components.txt`, `read_assignments.txt`,
//! `transcripts.fasta`, `collectl.txt` (text stage table + top-self-time
//! profile), `trace.json` (Chrome `trace_event` timeline — open in
//! `chrome://tracing` / Perfetto), `metrics.json` (counter/gauge/histogram
//! snapshot), `flame.txt` (collapsed-stack fold for speedscope / inferno)
//! and `flame.svg` (self-contained flamegraph; `--flame-out DIR` redirects
//! the two flame artifacts). `--nprocs` is the paper's extension:
//! Chrysalis runs its hybrid MPI+OpenMP rank programs over `N` simulated
//! ranks; the default `--nprocs 1` is the same programs on one rank over a
//! free network, and `--faults` applies there as at any `N`.
//!
//! `--simulate tiny:7` generates a synthetic dataset instead of reading
//! files (handy for smoke tests; see `simulate::datasets`).
//!
//! Two analytics subcommands close the loop on the recorded artifacts:
//!
//! ```text
//! trinity analyze <trace.json | run-dir> [--baseline PATH] [--out FILE]
//! trinity diff <baseline> <current> [--tol-rel F] [--tol-abs F] [--json]
//! ```
//!
//! `analyze` loads a finished trace (Chrome or plain JSON), computes the
//! cross-rank critical path, per-stage imbalance, comm matrix and (with
//! `--baseline`, a serial run's trace or analysis) scaling efficiency,
//! writes `analysis.json` and prints the tables. `diff` compares two
//! artifacts — `analysis.json`, raw traces, or `trinity-bench/v1` files —
//! under tolerance bands and exits non-zero on a regression, which is the
//! CI perf-gate.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use std::sync::Arc;

use mpisim::{FaultPlan, NetModel};
use seqio::fasta::{FastaWriter, Record};
use seqio::fastq::FastqReader;
use seqio::stats::length_stats;
use simulate::datasets::{Dataset, DatasetPreset};
use trinity::pipeline::{run_pipeline_opts, PipelineConfig, PipelineMode, RunOptions};
use trinity::report::{
    render_bars, render_critical_path, render_faults, render_imbalance, render_self_time,
    render_trace,
};

struct Args {
    reads: Vec<PathBuf>,
    out: PathBuf,
    nprocs: usize,
    threads: usize,
    k: usize,
    simulate: Option<(DatasetPreset, u64)>,
    flame_out: Option<PathBuf>,
    faults: Option<Arc<FaultPlan>>,
    checkpoint: Option<PathBuf>,
    resume: bool,
}

fn usage() -> &'static str {
    "usage: trinity --reads <fasta|fastq>... --out <dir> \
     [--nprocs N] [--threads T] [--kmer K] [--flame-out DIR] \
     [--simulate tiny|whitefly|schizo|drosophila|sugarbeet[:SEED]] \
     [--faults SEED[,delay=P][,drop=P][,crash=RANK@OP]...] \
     [--checkpoint DIR] [--resume]\n\
     \x20      trinity analyze <trace.json | run-dir> [--baseline PATH] [--out FILE]\n\
     \x20      trinity diff <baseline> <current> [--tol-rel F] [--tol-abs F] [--json]"
}

/// Parse a `--faults` spec: a mandatory RNG seed, then comma-separated
/// `delay=P` (per-op delay probability, up to 1 ms each), `drop=P`
/// (per-message drop probability, retried up to 3 times) and
/// `crash=RANK@OP` (kill RANK at its OP-th communication operation;
/// repeatable) clauses. Example: `--faults 42,delay=0.1,drop=0.05,crash=1@7`.
fn parse_fault_plan(spec: &str) -> Result<FaultPlan, String> {
    let mut parts = spec.split(',');
    let seed: u64 = parts
        .next()
        .expect("split yields at least one part")
        .parse()
        .map_err(|e| format!("--faults seed: {e}"))?;
    let mut plan = FaultPlan::new(seed);
    for part in parts {
        let (key, val) = part
            .split_once('=')
            .ok_or_else(|| format!("--faults: expected key=value, got {part:?}\n{}", usage()))?;
        match key {
            "delay" => {
                let p: f64 = val.parse().map_err(|e| format!("--faults delay: {e}"))?;
                plan = plan.with_delays(p, 1e-3);
            }
            "drop" => {
                let p: f64 = val.parse().map_err(|e| format!("--faults drop: {e}"))?;
                plan = plan.with_drops(p, 3);
            }
            "crash" => {
                let (rank, op) = val
                    .split_once('@')
                    .ok_or_else(|| format!("--faults crash: expected RANK@OP, got {val:?}"))?;
                plan = plan.with_crash(
                    rank.parse()
                        .map_err(|e| format!("--faults crash rank: {e}"))?,
                    op.parse().map_err(|e| format!("--faults crash op: {e}"))?,
                );
            }
            other => return Err(format!("--faults: unknown clause {other:?}\n{}", usage())),
        }
    }
    Ok(plan)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        reads: Vec::new(),
        out: PathBuf::from("trinity_out"),
        nprocs: 1,
        threads: 16,
        k: 16,
        simulate: None,
        flame_out: None,
        faults: None,
        checkpoint: None,
        resume: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{}", usage()))
        };
        match a.as_str() {
            "--reads" => args.reads.push(PathBuf::from(value("--reads")?)),
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--flame-out" => args.flame_out = Some(PathBuf::from(value("--flame-out")?)),
            "--nprocs" => {
                args.nprocs = value("--nprocs")?
                    .parse()
                    .map_err(|e| format!("--nprocs: {e}"))?
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--kmer" => {
                args.k = value("--kmer")?
                    .parse()
                    .map_err(|e| format!("--kmer: {e}"))?
            }
            "--simulate" => {
                let v = value("--simulate")?;
                let (name, seed) = v.split_once(':').unwrap_or((v.as_str(), "42"));
                let preset = match name {
                    "tiny" => DatasetPreset::Tiny,
                    "whitefly" => DatasetPreset::WhiteflyLike,
                    "schizo" => DatasetPreset::SchizoLike,
                    "drosophila" => DatasetPreset::DrosophilaLike,
                    "sugarbeet" => DatasetPreset::SugarbeetLike,
                    other => return Err(format!("unknown preset {other:?}\n{}", usage())),
                };
                let seed = seed.parse().map_err(|e| format!("--simulate seed: {e}"))?;
                args.simulate = Some((preset, seed));
            }
            "--faults" => args.faults = Some(Arc::new(parse_fault_plan(&value("--faults")?)?)),
            "--checkpoint" => args.checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
            "--resume" => args.resume = true,
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if args.reads.is_empty() && args.simulate.is_none() {
        return Err(format!("no input: pass --reads or --simulate\n{}", usage()));
    }
    if args.resume && args.checkpoint.is_none() {
        return Err(format!("--resume needs --checkpoint DIR\n{}", usage()));
    }
    if args.k < 8 || args.k > 32 {
        return Err("--kmer must be in 8..=32".into());
    }
    Ok(args)
}

/// Cluster flags that would otherwise silently mean something else: a
/// cluster needs a rank, and a crash point needs a rank that exists.
fn check_cluster_flags(args: &Args) -> Result<(), String> {
    if args.nprocs == 0 {
        return Err(format!("--nprocs must be at least 1\n{}", usage()));
    }
    let mut crashes = args.faults.iter().flat_map(|plan| plan.crashes());
    if let Some(c) = crashes.find(|c| c.rank >= args.nprocs) {
        return Err(format!(
            "--faults crash={}@{}: no such rank with --nprocs {}\n{}",
            c.rank,
            c.op,
            args.nprocs,
            usage()
        ));
    }
    Ok(())
}

fn load_reads(path: &Path) -> Result<Vec<Record>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    match bytes.first() {
        Some(b'>') => seqio::fasta::parse_fasta(&bytes).map_err(|e| e.to_string()),
        Some(b'@') => FastqReader::new(&bytes[..])
            .read_all()
            .map(|v| v.into_iter().map(|r| r.into_fasta()).collect())
            .map_err(|e| e.to_string()),
        _ => Err(format!("{}: not FASTA or FASTQ", path.display())),
    }
}

fn write_fasta(path: &Path, records: &[Record]) -> Result<(), String> {
    let mut w = FastaWriter::create(path).map_err(|e| e.to_string())?;
    for r in records {
        w.write_record(r).map_err(|e| e.to_string())?;
    }
    w.flush().map_err(|e| e.to_string())
}

fn run(args: Args) -> Result<(), String> {
    let mut reads = Vec::new();
    if let Some((preset, seed)) = args.simulate {
        let ds = Dataset::generate(preset, seed);
        eprintln!(
            "simulated {:?} (seed {seed}): {} reads, {} reference isoforms",
            preset,
            ds.all_reads().len(),
            ds.reference.len()
        );
        reads = ds.all_reads();
    }
    for p in &args.reads {
        let mut r = load_reads(p)?;
        eprintln!("{}: {} reads", p.display(), r.len());
        reads.append(&mut r);
    }
    if reads.is_empty() {
        return Err("no reads in input".into());
    }

    let mut cfg = PipelineConfig::small(args.k);
    cfg.chrysalis.threads = args.threads.max(1);
    cfg.mode = if args.nprocs > 1 {
        PipelineMode::Hybrid {
            ranks: args.nprocs,
            net: NetModel::idataplex(),
        }
    } else {
        PipelineMode::Serial
    };

    let run_opts = RunOptions {
        faults: args.faults.clone(),
        checkpoint_dir: args.checkpoint.clone(),
        resume: args.resume,
    };
    let out = run_pipeline_opts(&reads, &cfg, &run_opts);

    std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
    write_fasta(&args.out.join("inchworm.fasta"), &out.contigs)?;
    write_fasta(&args.out.join("transcripts.fasta"), &out.transcripts)?;

    let mut f =
        std::fs::File::create(args.out.join("components.txt")).map_err(|e| e.to_string())?;
    for (c, members) in out.components.iter().enumerate() {
        let names: Vec<&str> = members
            .iter()
            .map(|&m| out.contigs[m].id.as_str())
            .collect();
        writeln!(f, "comp{c}\t{}", names.join(",")).map_err(|e| e.to_string())?;
    }
    let mut f =
        std::fs::File::create(args.out.join("read_assignments.txt")).map_err(|e| e.to_string())?;
    for &(r, c) in &out.assignments {
        writeln!(f, "{}\tcomp{c}", reads[r as usize].id).map_err(|e| e.to_string())?;
    }
    let analysis = obs::analyze(&out.trace);
    std::fs::write(
        args.out.join("analysis.json"),
        obs::analyze::analysis_json(&analysis),
    )
    .map_err(|e| e.to_string())?;
    let fault_report = render_faults(&out.metrics);
    std::fs::write(
        args.out.join("collectl.txt"),
        format!(
            "{}\n{}\n{}\n{}\n{}{}",
            render_trace(&out.trace),
            render_bars(&out.trace, 50),
            render_self_time(&out.trace, 15),
            render_critical_path(&analysis),
            render_imbalance(&analysis),
            if fault_report.is_empty() {
                String::new()
            } else {
                format!("\n{fault_report}")
            }
        ),
    )
    .map_err(|e| e.to_string())?;
    if !fault_report.is_empty() {
        eprint!("{fault_report}");
    }
    std::fs::write(
        args.out.join("trace.json"),
        obs::export::chrome_trace(&out.trace),
    )
    .map_err(|e| e.to_string())?;
    std::fs::write(
        args.out.join("metrics.json"),
        obs::export::metrics_json(&out.metrics),
    )
    .map_err(|e| e.to_string())?;
    // Flamegraph artifacts: the merged-across-lanes fold as collapsed
    // stacks (speedscope / inferno input) and a self-contained SVG.
    let flame_dir = args.flame_out.clone().unwrap_or_else(|| args.out.clone());
    std::fs::create_dir_all(&flame_dir).map_err(|e| e.to_string())?;
    let folds = obs::flame::collapsed_merged(&out.trace);
    std::fs::write(flame_dir.join("flame.txt"), obs::flame::to_text(&folds))
        .map_err(|e| e.to_string())?;
    std::fs::write(
        flame_dir.join("flame.svg"),
        obs::flame::svg(&folds, "trinity pipeline (all lanes)"),
    )
    .map_err(|e| e.to_string())?;

    let tx = length_stats(out.transcripts.iter().map(|t| t.seq.len()));
    eprintln!(
        "wrote {} -> {} contigs, {} components, {} transcripts (N50 {} bp); \
         virtual pipeline time {:.3}s ({} ranks x {} threads)",
        args.out.display(),
        out.contigs.len(),
        out.components.len(),
        tx.count,
        tx.n50,
        out.trace.total_time(),
        args.nprocs,
        cfg.chrysalis.threads,
    );
    Ok(())
}

// ---- analytics subcommands ---------------------------------------------

/// Resolve an analyze/diff input: a run directory means its `trace.json`.
fn resolve_trace_path(p: &Path) -> PathBuf {
    if p.is_dir() {
        p.join("trace.json")
    } else {
        p.to_path_buf()
    }
}

/// Load a trace artifact (Chrome or plain JSON) from a file or run dir.
fn load_trace(p: &Path) -> Result<obs::Trace, String> {
    let path = resolve_trace_path(p);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    obs::export::trace_from_json(&text)
        .ok_or_else(|| format!("{}: not a trace artifact", path.display()))
}

/// The serial-baseline total for `--baseline`: accepts an `analysis.json`
/// (its `total_s`) or any trace artifact (analyzed on the fly).
fn load_baseline_total(p: &Path) -> Result<f64, String> {
    let path = resolve_trace_path(p);
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Some(a) = obs::analyze::parse_analysis(&text) {
            return Ok(a.total);
        }
    }
    Ok(obs::analyze(&load_trace(p)?).total)
}

/// `trinity analyze <trace.json | run-dir> [--baseline PATH] [--out FILE]`.
fn run_analyze(argv: &[String]) -> Result<(), String> {
    let mut input: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;
    let mut out_path: Option<PathBuf> = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => {
                baseline = Some(PathBuf::from(it.next().ok_or("--baseline needs a value")?))
            }
            "--out" => out_path = Some(PathBuf::from(it.next().ok_or("--out needs a value")?)),
            other if input.is_none() && !other.starts_with("--") => {
                input = Some(PathBuf::from(other))
            }
            other => return Err(format!("analyze: unexpected argument {other:?}")),
        }
    }
    let input = input
        .ok_or("usage: trinity analyze <trace.json | run-dir> [--baseline PATH] [--out FILE]")?;
    let trace = load_trace(&input)?;
    let baseline_total = baseline.map(|p| load_baseline_total(&p)).transpose()?;
    let analysis = obs::analyze_vs(&trace, baseline_total);

    let out_path = out_path.unwrap_or_else(|| {
        resolve_trace_path(&input)
            .parent()
            .unwrap_or(Path::new("."))
            .join("analysis.json")
    });
    std::fs::write(&out_path, obs::analyze::analysis_json(&analysis))
        .map_err(|e| format!("{}: {e}", out_path.display()))?;

    print!("{}", render_critical_path(&analysis));
    println!();
    print!("{}", render_imbalance(&analysis));
    if !analysis.comm.is_empty() {
        println!();
        println!(
            "{:<18} {:>6} {:>8} {:>14} {:>10}",
            "collective", "lane", "calls", "bytes", "time (s)"
        );
        for c in &analysis.comm {
            println!(
                "{:<18} {:>6} {:>8} {:>14.0} {:>10.4}",
                c.op,
                format!("r{}", c.track.saturating_sub(1)),
                c.calls,
                c.bytes,
                c.time
            );
        }
    }
    if let Some(s) = &analysis.scaling {
        println!();
        println!(
            "scaling vs baseline: {:.3}s -> {:.3}s on {} ranks = {:.2}x speedup, \
             {:.0}% efficiency{}",
            s.baseline_total,
            s.total,
            s.ranks,
            s.speedup,
            100.0 * s.efficiency,
            match s.serial_fraction {
                Some(f) => format!(", Karp-Flatt serial fraction {f:.3}"),
                None => String::new(),
            }
        );
    }
    eprintln!("wrote {}", out_path.display());
    Ok(())
}

/// Timing series of one diff input: an `analysis.json`, a raw trace, or a
/// `trinity-bench/v1` file (workload candidate times, in seconds).
fn load_series(p: &Path) -> Result<std::collections::BTreeMap<String, f64>, String> {
    let path = resolve_trace_path(p);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    if let Some(a) = obs::analyze::parse_analysis(&text) {
        return Ok(obs::diff::analysis_series(&a));
    }
    if let Some(v) = obs::jsonio::parse(&text) {
        if v.str("schema") == Some("trinity-bench/v1") {
            let bench = v.str("bench").unwrap_or("bench");
            let mut series = std::collections::BTreeMap::new();
            for w in v
                .get("workloads")
                .and_then(|w| w.as_arr())
                .unwrap_or_default()
            {
                if let (Some(name), Some(ns)) = (w.str("name"), w.num("candidate_ns")) {
                    series.insert(format!("bench:{bench}:{name}"), ns * 1e-9);
                }
            }
            return Ok(series);
        }
    }
    if let Some(trace) = obs::export::trace_from_json(&text) {
        return Ok(obs::diff::analysis_series(&obs::analyze(&trace)));
    }
    Err(format!(
        "{}: not an analysis, trace, or trinity-bench/v1 artifact",
        path.display()
    ))
}

/// `trinity diff <baseline> <current> [--tol-rel F] [--tol-abs F] [--json]`.
/// Exits non-zero (via the returned flag) when a regression clears the
/// tolerance bands.
fn run_diff(argv: &[String]) -> Result<bool, String> {
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut tol = obs::Tolerance::default();
    let mut json = false;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tol-rel" => {
                tol.rel = it
                    .next()
                    .ok_or("--tol-rel needs a value")?
                    .parse()
                    .map_err(|e| format!("--tol-rel: {e}"))?
            }
            "--tol-abs" => {
                tol.abs_frac = it
                    .next()
                    .ok_or("--tol-abs needs a value")?
                    .parse()
                    .map_err(|e| format!("--tol-abs: {e}"))?
            }
            "--json" => json = true,
            other if !other.starts_with("--") => inputs.push(PathBuf::from(other)),
            other => return Err(format!("diff: unexpected argument {other:?}")),
        }
    }
    let [baseline, current] = inputs.as_slice() else {
        return Err(
            "usage: trinity diff <baseline> <current> [--tol-rel F] [--tol-abs F] [--json]"
                .to_string(),
        );
    };
    let base = load_series(baseline)?;
    let cur = load_series(current)?;
    let report = obs::diff::diff_series(&base, &cur, tol);
    if json {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    if !report.passed() {
        eprintln!(
            "perf regression vs {} (tolerance: +{:.0}% and +{:.0}% of the baseline total). If this \
             slowdown is intended, refresh the baseline:\n  trinity analyze <run-dir> \
             --out {}",
            baseline.display(),
            100.0 * tol.rel,
            100.0 * tol.abs_frac,
            baseline.display(),
        );
    }
    Ok(report.passed())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let fail = |e: String, code: u8| {
        eprintln!("{e}");
        ExitCode::from(code)
    };
    match argv.first().map(String::as_str) {
        // 2 is "bad usage or unreadable artifact".
        Some("analyze") => match run_analyze(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => fail(e, 2),
        },
        Some("diff") => match run_diff(&argv[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => fail(e, 2),
        },
        _ => {
            let outcome = parse_args().map_err(|e| (e, 1)).and_then(|args| {
                check_cluster_flags(&args).map_err(|e| (e, 2))?;
                run(args).map_err(|e| (e, 1))
            });
            match outcome {
                Ok(()) => ExitCode::SUCCESS,
                Err((e, code)) => fail(e, code),
            }
        }
    }
}
