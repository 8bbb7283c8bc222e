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
//! profile), `metrics.json` (counter/gauge/histogram snapshot) and, through
//! `report::write_trace_artifacts` as the Fig. 2/11 binaries do, `trace.json`
//! (Chrome `trace_event` timeline — open in Perfetto), `analysis.json`
//! (critical path and per-stage imbalance of the in-memory trace; `analyze`
//! of `trace.json` reproduces it) and `flame.txt`/`flame.svg`. `--nprocs` is the
//! paper's extension: Chrysalis runs its hybrid MPI+OpenMP rank programs
//! over `N` simulated ranks; the default `--nprocs 1` is the same programs
//! on one rank over a free network, and `--faults` applies there as at any
//! `N`.
//!
//! `--simulate tiny:7` generates a synthetic dataset instead of reading
//! files (handy for smoke tests; see `simulate::datasets`).
//!
//! Two analytics subcommands close the loop on the recorded artifacts:
//!
//! ```text
//! trinity analyze <trace.json | run-dir> [--baseline <analysis.json | run-dir>] [--out FILE]
//! trinity diff <analysis.json | run-dir> <analysis.json | run-dir>
//! ```
//!
//! `analyze` loads a run's Chrome trace (one with a time that is not
//! finite or a negative duration is refused), computes the critical path,
//! per-stage imbalance, comm matrix and (with `--baseline`, a serial run's
//! `analysis.json`) scaling efficiency, writes `analysis.json` and
//! prints the tables. `diff` compares two `analysis.json` files under the
//! CI perf gate's tolerance band (a series regresses when it is both 25 %
//! and 2 % of the baseline's total slower) and exits 1 on a regression.
//! A run directory means its `trace.json` to `analyze` and its
//! `analysis.json` to `diff` and `--baseline`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use std::sync::Arc;

use mpisim::{FaultPlan, NetModel};
use seqio::fasta::{parse_fasta, parse_fastq, to_fasta_bytes, Record};
use seqio::stats::length_stats;
use simulate::datasets::{Dataset, DatasetPreset};
use trinity::pipeline::{run_pipeline_opts, PipelineConfig, PipelineMode, RunOptions};
use trinity::report::{
    lane_label, print_out, render_bars, render_critical_path, render_faults, render_imbalance,
    render_self_time, render_trace, write_trace_artifacts,
};

struct Args {
    reads: Vec<PathBuf>,
    out: PathBuf,
    nprocs: usize,
    threads: usize,
    k: usize,
    simulate: Option<(DatasetPreset, u64)>,
    faults: Option<Arc<FaultPlan>>,
    checkpoint: Option<PathBuf>,
    resume: bool,
}

fn usage() -> &'static str {
    "usage: trinity --reads <fasta|fastq>... --out <dir> \
     [--nprocs N] [--threads T] [--kmer K] \
     [--simulate tiny|whitefly|schizo|drosophila|sugarbeet[:SEED]] \
     [--faults SEED[,delay=P][,drop=P][,crash=RANK@OP]...] \
     [--checkpoint DIR] [--resume]\n\
     \x20      trinity analyze <trace.json | run-dir> [--baseline <analysis.json | run-dir>] \
     [--out FILE]\n\
     \x20      trinity diff <analysis.json | run-dir> <analysis.json | run-dir>"
}

/// Ends a usage error's one line.
const SEE_HELP: &str = "; see trinity --help";

/// Parse a `--faults` spec: a mandatory RNG seed, then comma-separated
/// `delay=P` (per-op delay probability, up to 1 ms each), `drop=P`
/// (per-message drop probability, retried up to 3 times) and
/// `crash=RANK@OP` (kill RANK at its OP-th communication operation;
/// repeatable) clauses; a probability outside [0, 1] is refused.
/// Example: `--faults 42,delay=0.1,drop=0.05,crash=1@7`.
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
            .ok_or_else(|| format!("--faults: expected key=value, got {part:?}{SEE_HELP}"))?;
        // A probability the plan would clamp, or that `is_active` would
        // read as "no faults" (NaN), is refused rather than reinterpreted.
        let probability = || match val.parse::<f64>() {
            Ok(p) if (0.0..=1.0).contains(&p) => Ok(p),
            Ok(_) => Err(format!("--faults {key}={val}: not a probability in [0, 1]")),
            Err(e) => Err(format!("--faults {key}: {e}")),
        };
        match key {
            "delay" => plan = plan.with_delays(probability()?),
            "drop" => plan = plan.with_drops(probability()?),
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
            other => return Err(format!("--faults: unknown clause {other:?}{SEE_HELP}")),
        }
    }
    Ok(plan)
}

/// The run's flags; `None` for `--help`.
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        reads: Vec::new(),
        out: PathBuf::from("trinity_out"),
        nprocs: 1,
        threads: 16,
        k: 16,
        simulate: None,
        faults: None,
        checkpoint: None,
        resume: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value{SEE_HELP}"))
        };
        match a.as_str() {
            "--reads" => args.reads.push(PathBuf::from(value("--reads")?)),
            "--out" => args.out = PathBuf::from(value("--out")?),
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
                    other => return Err(format!("unknown preset {other:?}{SEE_HELP}")),
                };
                let seed = seed.parse().map_err(|e| format!("--simulate seed: {e}"))?;
                args.simulate = Some((preset, seed));
            }
            "--faults" => args.faults = Some(Arc::new(parse_fault_plan(&value("--faults")?)?)),
            "--checkpoint" => args.checkpoint = Some(PathBuf::from(value("--checkpoint")?)),
            "--resume" => args.resume = true,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument {other:?}{SEE_HELP}")),
        }
    }
    if args.reads.is_empty() && args.simulate.is_none() {
        return Err(format!("no input: pass --reads or --simulate{SEE_HELP}"));
    }
    if args.resume && args.checkpoint.is_none() {
        return Err(format!("--resume needs --checkpoint DIR{SEE_HELP}"));
    }
    if args.k < 8 || args.k > 32 {
        return Err("--kmer must be in 8..=32".into());
    }
    Ok(Some(args))
}

/// The most ranks (`--nprocs`) or threads per rank (`--threads`) a run may
/// ask for: well above the paper's largest runs (192 nodes of 16 threads).
/// Each rank but the first is an OS thread, and each thread a lane of
/// spans in every region, so a larger value is refused before anything
/// runs rather than met by a failed thread spawn.
const MAX_CLUSTER_WIDTH: usize = 1024;

/// Flags that would otherwise silently mean something else, or fail only
/// after the work: a cluster needs a rank and a rank a thread, neither
/// beyond [`MAX_CLUSTER_WIDTH`], a crash point needs a rank that exists,
/// and `--out` and `--checkpoint` must name directories or paths that can
/// become one (not a file, nor a path under one).
fn check_run_flags(args: &Args) -> Result<(), String> {
    for (flag, n) in [("--nprocs", args.nprocs), ("--threads", args.threads)] {
        if n == 0 {
            return Err(format!("{flag} must be at least 1{SEE_HELP}"));
        }
        if n > MAX_CLUSTER_WIDTH {
            return Err(format!("{flag} must be at most {MAX_CLUSTER_WIDTH}"));
        }
    }
    let mut crashes = args.faults.iter().flat_map(|plan| plan.crashes());
    if let Some(c) = crashes.find(|c| c.rank >= args.nprocs) {
        return Err(format!(
            "--faults crash={}@{}: no such rank with --nprocs {}",
            c.rank, c.op, args.nprocs
        ));
    }
    let checkpoint = args.checkpoint.iter().map(|p| ("--checkpoint", p));
    for (flag, path) in [("--out", &args.out)].into_iter().chain(checkpoint) {
        if let Some(file) = path.ancestors().find(|a| a.exists() && !a.is_dir()) {
            let (path, file) = (path.display(), file.display());
            return Err(format!("{flag} {path}: {file} is not a directory"));
        }
    }
    Ok(())
}

fn load_reads(path: &Path) -> Result<Vec<Record>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let parsed = match bytes.first() {
        Some(b'>') => parse_fasta(&bytes),
        Some(b'@') => parse_fastq(&bytes),
        _ => return Err(format!("{}: not FASTA or FASTQ", path.display())),
    };
    parsed.map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: Args) -> Result<(), String> {
    let mut reads = Vec::new();
    if let Some((preset, seed)) = args.simulate {
        let ds = Dataset::generate(preset, seed);
        reads = ds.all_reads();
        eprintln!(
            "simulated {:?} (seed {seed}): {} reads, {} reference isoforms",
            preset,
            reads.len(),
            ds.reference.len()
        );
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
    cfg.chrysalis.threads = args.threads;
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
    let mut out = run_pipeline_opts(&reads, &cfg, &run_opts);

    // The trace's artifacts first: their writer makes the directory.
    let analysis = write_trace_artifacts(&args.out, "", &mut out.trace, None)?;
    let write = |name: &str, bytes: &[u8]| {
        let path = args.out.join(name);
        std::fs::write(&path, bytes).map_err(|e| format!("{}: {e}", path.display()))
    };
    write("inchworm.fasta", &to_fasta_bytes(&out.contigs))?;
    write("transcripts.fasta", &to_fasta_bytes(&out.transcripts))?;
    let mut text = String::new();
    for (c, members) in out.components.iter().enumerate() {
        let names: Vec<&str> = members
            .iter()
            .map(|&m| out.contigs[m].id.as_str())
            .collect();
        writeln!(text, "comp{c}\t{}", names.join(",")).expect("writing to a String cannot fail");
    }
    write("components.txt", text.as_bytes())?;
    let mut text = String::new();
    for &(r, c) in &out.assignments {
        writeln!(text, "{}\tcomp{c}", reads[r as usize].id)
            .expect("writing to a String cannot fail");
    }
    write("read_assignments.txt", text.as_bytes())?;
    let fault_report = render_faults(&out.metrics, args.faults.as_deref());
    let collectl = format!(
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
    );
    write("collectl.txt", collectl.as_bytes())?;
    if !fault_report.is_empty() {
        eprint!("{fault_report}");
    }
    write(
        "metrics.json",
        obs::export::metrics_json(&out.metrics).as_bytes(),
    )?;

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

/// Resolve an analytics input: a run directory means its file `name`.
fn resolve(p: &Path, name: &str) -> PathBuf {
    if p.is_dir() {
        p.join(name)
    } else {
        p.to_path_buf()
    }
}

/// Read an analytics input (a file, or a run directory's file `name`)
/// and parse it. A file `parse` refuses is named, with the `format` the
/// command needed.
fn load<T>(
    p: &Path,
    name: &str,
    format: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<T, String> {
    let path = resolve(p, name);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).ok_or_else(|| format!("{}: not {format}", path.display()))
}

fn load_analysis(p: &Path) -> Result<obs::Analysis, String> {
    load(
        p,
        "analysis.json",
        "an analysis.json (trinity-analysis/v1)",
        obs::analyze::parse_analysis,
    )
}

/// `trinity analyze <trace.json | run-dir> [--baseline <analysis.json |
/// run-dir>] [--out FILE]`.
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
    let input = input.ok_or(
        "usage: trinity analyze <trace.json | run-dir> [--baseline <analysis.json | run-dir>] \
         [--out FILE]",
    )?;
    let trace = load(
        &input,
        "trace.json",
        "a Chrome trace",
        obs::export::trace_from_json,
    )?;
    let baseline_total = baseline
        .map(|p| load_analysis(&p).map(|a| a.total))
        .transpose()?;
    let analysis = obs::analyze_vs(&trace, baseline_total);

    let out_path = out_path.unwrap_or_else(|| {
        resolve(&input, "trace.json")
            .parent()
            .unwrap_or(Path::new("."))
            .join("analysis.json")
    });
    std::fs::write(&out_path, obs::analyze::analysis_json(&analysis))
        .map_err(|e| format!("{}: {e}", out_path.display()))?;

    let mut text = render_critical_path(&analysis);
    text.push('\n');
    text.push_str(&render_imbalance(&analysis));
    if !analysis.comm.is_empty() {
        let _ = write!(
            text,
            "\n{:<18} {:>6} {:>8} {:>14} {:>10}\n",
            "collective", "lane", "calls", "bytes", "time (s)"
        );
        for c in &analysis.comm {
            let _ = writeln!(
                text,
                "{:<18} {:>6} {:>8} {:>14.0} {:>10.4}",
                c.op,
                lane_label(c.track),
                c.calls,
                c.bytes,
                c.time
            );
        }
    }
    if let Some(s) = &analysis.scaling {
        let _ = writeln!(
            text,
            "\nscaling vs baseline: {:.3}s -> {:.3}s on {} ranks = {:.2}x speedup, \
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
    if !print_out(&text) {
        return Ok(());
    }
    eprintln!("wrote {}", out_path.display());
    Ok(())
}

/// `trinity diff <analysis.json | run-dir> <analysis.json | run-dir>`.
/// Returns whether the current run passed the perf gate's tolerance band.
fn run_diff(argv: &[String]) -> Result<bool, String> {
    if let Some(flag) = argv.iter().find(|a| a.starts_with("--")) {
        return Err(format!("diff: unexpected argument {flag:?}"));
    }
    let [baseline, current] = argv else {
        return Err(
            "usage: trinity diff <analysis.json | run-dir> <analysis.json | run-dir>".into(),
        );
    };
    let report = obs::diff(
        &load_analysis(Path::new(baseline))?,
        &load_analysis(Path::new(current))?,
    );
    print_out(&report.render());
    if !report.passed() {
        eprintln!(
            "perf regression vs {baseline} (tolerance: +25% and +2% of the baseline total). \
             If this slowdown is intended, refresh the baseline:\n  trinity analyze <run-dir> \
             --out {baseline}",
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
                let Some(args) = args else {
                    print_out(&format!("{}\n", usage()));
                    return Ok(());
                };
                check_run_flags(&args).map_err(|e| (e, 2))?;
                run(args).map_err(|e| (e, 1))
            });
            match outcome {
                Ok(()) => ExitCode::SUCCESS,
                Err((e, code)) => fail(e, code),
            }
        }
    }
}
