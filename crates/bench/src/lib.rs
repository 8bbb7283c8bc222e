//! Experiment harness: one module per figure of the paper's evaluation,
//! plus the §V headline-number table.
//!
//! Each module exposes a `run(...)` returning plain data and a `render(...)`
//! producing the text series the corresponding `src/bin/figNN_*.rs` binary
//! prints. EXPERIMENTS.md records paper-vs-measured for every figure.
//!
//! Scale: all experiments run on the synthetic presets of the `simulate`
//! crate (see DESIGN.md's substitution table). `Scale` shrinks or grows a
//! preset so the figure binaries can be run quickly (`--scale 0.2`) or at
//! full preset size (default).

pub mod ablation_dynamic;
pub mod benchjson;
pub mod fig02_baseline;
pub mod fig03_chunked_rr;
pub mod fig04_validation;
pub mod fig05_full_length;
pub mod fig06_fused;
pub mod fig07_gff_scaling;
pub mod fig08_gff_breakdown;
pub mod fig09_rtt_scaling;
pub mod fig10_bowtie_scaling;
pub mod fig11_parallel_trace;
pub mod headline;
pub mod inchworm_epochs;
pub mod workloads;

/// Parse a `--scale X` / `--seed N` style argument list (every figure
/// binary shares this tiny CLI).
#[derive(Debug, Clone)]
pub struct Cli {
    /// Workload scale multiplier (1.0 = the preset as configured).
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Where `--trace-out` asks trace artifacts (Chrome traces, analyses
    /// and flamegraphs) to go (a directory); `None` means the default
    /// `target/figs`.
    pub trace_out: Option<std::path::PathBuf>,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            scale: 1.0,
            seed: 42,
            trace_out: None,
        }
    }
}

/// Write `files` (name, content) into `dir` (default `target/figs`),
/// reporting each path written; a directory or file that cannot be written
/// is a warning, never a failed figure run.
fn write_artifacts(dir: Option<&std::path::Path>, files: &[(String, String)]) {
    let dir = dir.unwrap_or(std::path::Path::new("target/figs"));
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    for (name, content) in files {
        let path = dir.join(name);
        match std::fs::write(&path, content) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
}

/// Write a trace as a Chrome `trace_event` artifact next to the figure's
/// text output: `<dir>/<name>` (dir from `--trace-out`, default
/// `target/figs`). Open in `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn write_chrome_trace(cli: &Cli, name: &str, trace: &obs::Trace) {
    let file = (name.to_string(), obs::export::chrome_trace(trace));
    write_artifacts(cli.trace_out.as_deref(), &[file]);
}

/// Write a trace's flamegraph artifacts — `<stem>.txt` (collapsed stacks,
/// merged across lanes, for speedscope / inferno) and `<stem>.svg` (the
/// self-contained renderer) — next to the figure's trace (same directory
/// rules as [`write_chrome_trace`]).
pub fn write_flame(cli: &Cli, stem: &str, trace: &obs::Trace) {
    let folds = obs::flame::collapsed_merged(trace);
    let files = [
        (format!("{stem}.txt"), obs::flame::to_text(&folds)),
        (format!("{stem}.svg"), obs::flame::svg(&folds, stem)),
    ];
    write_artifacts(cli.trace_out.as_deref(), &files);
}

/// Analyze a trace and write the `analysis.json` artifact next to the
/// figure's trace output (same directory rules as [`write_chrome_trace`]).
/// `baseline_total` (a serial run's total, seconds) adds the
/// scaling-efficiency section. The artifact feeds `trinity diff` and the
/// CI perf-gate.
pub fn write_analysis(cli: &Cli, name: &str, trace: &obs::Trace, baseline_total: Option<f64>) {
    let analysis = obs::analyze_vs(trace, baseline_total);
    let file = (name.to_string(), obs::analyze::analysis_json(&analysis));
    write_artifacts(cli.trace_out.as_deref(), &[file]);
}

impl Cli {
    /// Parse from `std::env::args`-style strings; unknown flags are ignored.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Cli {
        let mut cli = Cli::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => {
                    if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                        cli.scale = v;
                    }
                }
                "--seed" => {
                    if let Some(v) = it.next().and_then(|v| v.parse().ok()) {
                        cli.seed = v;
                    }
                }
                "--trace-out" => {
                    if let Some(v) = it.next() {
                        cli.trace_out = Some(std::path::PathBuf::from(v));
                    }
                }
                _ => {}
            }
        }
        cli
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_parses_flags() {
        let cli = Cli::parse(["--scale".into(), "0.5".into(), "--seed".into(), "7".into()]);
        assert_eq!(cli.scale, 0.5);
        assert_eq!(cli.seed, 7);
    }

    #[test]
    fn cli_ignores_unknown() {
        let cli = Cli::parse(["--whatever".into(), "x".into()]);
        assert_eq!(cli.scale, 1.0);
    }

    #[test]
    fn cli_tolerates_missing_value() {
        let cli = Cli::parse(["--scale".into()]);
        assert_eq!(cli.scale, 1.0);
    }
}
