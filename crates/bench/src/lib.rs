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

use std::path::PathBuf;

use obs::{Analysis, Trace};
use trinity::report::write_trace_artifacts;

/// The flags every figure binary shares: `--scale X`, `--seed N` and
/// `--trace-out DIR`.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Workload scale multiplier (1.0 = the preset as configured).
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// The directory trace artifacts (Chrome traces, analyses and
    /// flamegraphs) go to; `target/figs` unless `--trace-out` says.
    pub trace_out: PathBuf,
}

impl Cli {
    /// Parse from `std::env::args`-style strings. An unknown flag, a flag
    /// without its value, a value that does not parse and a `--scale` that
    /// is not finite and positive are each refused in one line.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Cli, String> {
        let mut cli = Cli {
            scale: 1.0,
            seed: 42,
            trace_out: PathBuf::from("target/figs"),
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--scale" => {
                    cli.scale = value()?.parse().map_err(|e| format!("--scale: {e}"))?;
                    if !(cli.scale.is_finite() && cli.scale > 0.0) {
                        return Err("--scale must be finite and positive".into());
                    }
                }
                "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--trace-out" => cli.trace_out = PathBuf::from(value()?),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(cli)
    }

    /// The process's flags; a refused one is one stderr line and exit 2,
    /// as in `trinity`.
    pub fn from_env() -> Cli {
        or_exit(Cli::parse(std::env::args().skip(1)), 2)
    }

    /// Write a figure run's trace artifacts into `--trace-out`, their names
    /// prefixed with `prefix` ([`write_trace_artifacts`]); a file that
    /// cannot be written is one stderr line and exit 1, as in `trinity`.
    pub fn write_trace(&self, prefix: &str, trace: &mut Trace, baseline: Option<f64>) -> Analysis {
        let written = write_trace_artifacts(&self.trace_out, prefix, trace, baseline);
        or_exit(written, 1)
    }
}

/// For a binary that takes no flags: any argument is refused in one stderr
/// line and exit 2, as [`Cli::from_env`] refuses an unknown flag.
pub fn no_flags_from_env() {
    or_exit(no_flags(std::env::args().skip(1)), 2)
}

fn no_flags<I: IntoIterator<Item = String>>(args: I) -> Result<(), String> {
    match args.into_iter().next() {
        Some(arg) => Err(format!("unknown argument {arg:?}")),
        None => Ok(()),
    }
}

/// `result`'s value, or its error on stderr and exit `code`.
fn or_exit<T>(result: Result<T, String>, code: i32) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(code)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn cli_parses_flags() {
        let cli = parse(&["--scale", "0.5", "--seed", "7", "--trace-out", "d"]).unwrap();
        assert_eq!(cli.scale, 0.5);
        assert_eq!(cli.seed, 7);
        assert_eq!(cli.trace_out, PathBuf::from("d"));
    }

    #[test]
    fn cli_refuses_unknown() {
        let err = parse(&["--whatever", "x"]).unwrap_err();
        assert_eq!(err, "unknown argument \"--whatever\"");
    }

    #[test]
    fn no_flags_refuses_any_argument() {
        assert_eq!(no_flags(Vec::<String>::new()), Ok(()));
        for args in [&["--scale", "abc"][..], &["x"], &["--help"]] {
            let err = no_flags(args.iter().map(|a| a.to_string())).unwrap_err();
            assert_eq!(err, format!("unknown argument {:?}", args[0]));
        }
    }

    #[test]
    fn cli_refuses_missing_and_bad_values() {
        assert_eq!(parse(&["--scale"]).unwrap_err(), "--scale needs a value");
        assert_eq!(parse(&["--seed"]).unwrap_err(), "--seed needs a value");
        for (flag, value) in [("--scale", "abc"), ("--seed", "-1")] {
            let err = parse(&[flag, value]).unwrap_err();
            assert!(err.starts_with(&format!("{flag}: ")), "{err}");
        }
        for scale in ["0", "-0.5", "inf", "NaN"] {
            let err = parse(&["--scale", scale]).unwrap_err();
            assert_eq!(err, "--scale must be finite and positive", "{scale}");
        }
    }
}
