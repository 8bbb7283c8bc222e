//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!           [--smoke] [--results FILE]
//! benchmark aa <results-A> <results-B> [--bounds BENCHMARK.json]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no spans recorded;
//! `--trace 1` is a separate invocation that measures the per-layer
//! metrics. Both print every metric by name with its unit, then one JSON
//! line `{"correct", "attempted", "failed", "metrics"}`. Exit codes: 0 ok,
//! 1 an operation failed or a bound was exceeded, 2 the run was refused.

mod aa;
mod host;
mod report;
mod run;
mod spans;
mod staged;
mod stats;
mod trace;
mod workload;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use report::{result_record, Report, RunContext};
use workload::{Workload, WORKLOADS};

/// Where traces, checkpoint scratch dirs and (by default) nothing else go.
const OUT_DIR: &str = "benchmark/out";
const DEFAULT_SEED: u64 = 7;
const DEFAULT_SECONDS: f64 = 10.0;

const EXIT_FAILED: u8 = 1;
const EXIT_REFUSED: u8 = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    results: Option<PathBuf>,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke] \
         [--results FILE]\n       benchmark aa <results-A> <results-B> [--bounds BENCHMARK.json]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds) = (DEFAULT_SEED, DEFAULT_SECONDS);
    let (mut traced, mut smoke, mut results) = (false, false, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::by_name(name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=60.0).contains(&seconds) {
                    return Err("--seconds must be within 0..=60".to_string());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => smoke = true,
            "--results" => results = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
        smoke,
        results,
    })
}

fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

/// Measure one workload and print the result; the scaled-down form is what
/// the unit tests drive.
fn measure(args: &Args, out_dir: &Path, process_start: Instant) -> Result<Report, (u8, String)> {
    let mut workload = args.workload;
    if args.smoke {
        workload = workload.scaled_down(20);
    }
    let ctx = RunContext {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        nproc: host::nproc(),
        load_1m: host::load_average_1m(),
    };
    // A traced run's mpisim probe is a 2-rank cluster.
    let threads = if args.traced { 2 } else { workload.ranks };
    if threads > ctx.nproc {
        return Err((
            EXIT_REFUSED,
            format!(
                "refused: {} {} needs {threads} rank threads but this host has nproc = {}; \
                 timing ranks that share a core measures the scheduler",
                workload.name,
                if args.traced { "(traced)" } else { "" },
                ctx.nproc
            ),
        ));
    }
    let report = if args.traced {
        trace::trace(&ctx, out_dir)
    } else {
        run::run(&ctx, out_dir, process_start)
    }
    .map_err(|e| (EXIT_FAILED, e))?;

    println!(
        "workload {}  seed {}  trace {}  nproc {}  load_1m {}{}",
        workload.name,
        ctx.seed,
        args.traced as u8,
        ctx.nproc,
        ctx.load_1m,
        if args.smoke { "  smoke" } else { "" }
    );
    print!("{}", report.human());
    if let Some(path) = &args.results {
        append_line(path, &result_record(&ctx, args.traced, &report)).map_err(|e| {
            (
                EXIT_FAILED,
                format!("cannot append to {}: {e}", path.display()),
            )
        })?;
    }
    Ok(report)
}

fn aa_main(argv: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut bounds_path = PathBuf::from("BENCHMARK.json");
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if arg == "--bounds" {
            bounds_path = PathBuf::from(it.next().ok_or("--bounds needs a value")?);
        } else {
            files.push(arg);
        }
    }
    let [a, b] = files.as_slice() else {
        return Err(usage());
    };
    let read = |p: &Path| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    let bounds = aa::parse_bounds(&read(&bounds_path)?)?;
    let set_a = aa::parse_results(&read(Path::new(a))?)?;
    let set_b = aa::parse_results(&read(Path::new(b))?)?;
    let (table, ok) = aa::compare(&set_a, &set_b, &bounds)?;
    print!("{table}");
    println!(
        "{}",
        if ok {
            "every difference is within its bound"
        } else {
            "at least one difference exceeds its bound"
        }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("aa") {
        return match aa_main(&argv[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(EXIT_FAILED),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(EXIT_REFUSED)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(EXIT_REFUSED);
        }
    };
    match measure(&args, Path::new(OUT_DIR), process_start) {
        Ok(report) => {
            println!("{}", report.driver_line());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(EXIT_FAILED)
            }
        }
        Err((code, msg)) => {
            eprintln!("{msg}");
            ExitCode::from(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::jsonio::{self, Json};

    /// Names listed under `key` in the repo's `BENCHMARK.json`.
    fn contract_names(key: &str) -> Vec<String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = jsonio::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let entries = doc.get(key).and_then(Json::as_arr).unwrap();
        entries
            .iter()
            .map(|e| e.str("name").unwrap().to_string())
            .collect()
    }

    fn smoke(workload: &Workload, traced: bool) -> Report {
        let args = Args {
            workload: *workload,
            seed: DEFAULT_SEED,
            seconds: 0.0,
            traced,
            smoke: true,
            results: None,
        };
        let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test");
        measure(&args, &out_dir, Instant::now()).unwrap_or_else(|(_, e)| panic!("{e}"))
    }

    /// `report` names each contract metric exactly once, finite, and
    /// nothing else; every operation passed its invariants.
    fn assert_prints_exactly(report: &Report, key: &str) {
        let mut expected = contract_names(key);
        let mut got: Vec<String> = report.metrics.iter().map(|m| m.name.to_string()).collect();
        expected.sort();
        got.sort();
        assert_eq!(got, expected, "{key} metrics printed vs BENCHMARK.json");
        for m in &report.metrics {
            assert!(m.value.is_finite(), "{} is {}", m.name, m.value);
        }
        assert!(report.attempted >= 1);
        assert_eq!(report.failed, 0, "{:?}", report.failures);
        assert!(report.correct());
    }

    #[test]
    fn the_contract_names_the_four_workloads() {
        let mut names = contract_names("workloads");
        names.sort();
        let mut ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        ours.sort_unstable();
        assert_eq!(names, ours);
    }

    #[test]
    fn smoke_runs_print_every_end_to_end_metric_once() {
        let mut digests = std::collections::BTreeMap::new();
        for w in &WORKLOADS {
            let report = smoke(w, false);
            assert_prints_exactly(&report, "end_to_end");
            assert!(report.driver_line().starts_with("{\"correct\": true, "));
            digests.insert(w.name, report.digest);
        }
        // Same input, serial vs two ranks: same assembly.
        assert_eq!(digests["wide_hybrid2"], digests["wide_serial"]);
        // A save + resume cycle ends where the uninterrupted run does.
        assert_eq!(digests["deep_ckpt_cycle"], digests["deep_serial"]);
    }

    #[test]
    fn smoke_traces_print_every_per_layer_metric_once() {
        if host::nproc() < 2 {
            eprintln!("skipped: a traced run needs 2 cores");
            return;
        }
        for w in &WORKLOADS {
            let report = smoke(w, true);
            assert_prints_exactly(&report, "per_layer");
        }
    }

    #[test]
    fn a_workload_wider_than_the_host_is_refused_not_timed() {
        let mut w = WORKLOADS[2];
        w.ranks = host::nproc() + 1;
        let args = Args {
            workload: w,
            seed: DEFAULT_SEED,
            seconds: 0.0,
            traced: false,
            smoke: true,
            results: None,
        };
        let err = measure(&args, Path::new("unused"), Instant::now()).unwrap_err();
        assert_eq!(err.0, EXIT_REFUSED);
        assert!(err.1.contains("refused"));
    }

    #[test]
    fn arguments_in_the_drivers_form_parse() {
        let argv: Vec<String> = "--workload wide_hybrid2 --seed 11 --seconds 12 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let args = parse_args(&argv).unwrap();
        assert_eq!(args.workload.name, "wide_hybrid2");
        assert_eq!((args.seed, args.seconds, args.traced), (11, 12.0, true));
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&[]).is_err());
    }
}
