//! Hostile inputs to the CLI, each pinned as a probe: odd read files, the
//! edges of `--kmer`, checkpoints that do not fit the run, malformed JSON
//! given to `analyze` and `diff`, traces with times that are not finite or
//! durations that are negative, artifacts of another format than the one
//! each command reads, usage errors, `--faults` probabilities outside
//! [0, 1], crash points no rank reaches, cluster flags too large to run,
//! output locations that are files, and a stdout that is closed before
//! `analyze` prints.
//!
//! Every probe exits 0, 1 or 2 and none panics. A refused probe says why in
//! exactly one line on stderr. A checkpoint the run cannot use is
//! recomputed, and the outputs equal a fresh run's.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

const OUTPUTS: [&str; 4] = [
    "inchworm.fasta",
    "components.txt",
    "read_assignments.txt",
    "transcripts.fasta",
];

/// A scratch directory under the system temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("trinity-hostile-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch dir");
        Scratch(path)
    }

    fn file(&self, name: &str, bytes: &[u8]) -> PathBuf {
        let path = self.0.join(name);
        std::fs::write(&path, bytes).expect("write probe input");
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run the CLI and check what every probe must do: exit 0, 1 or 2, never
/// panic, and refuse in one line. Returns the exit code and stderr.
fn probe<S: AsRef<std::ffi::OsStr>>(args: &[S]) -> (i32, String) {
    let run: Output = Command::new(env!("CARGO_BIN_EXE_trinity"))
        .args(args)
        .output()
        .expect("spawn trinity");
    let stderr = String::from_utf8_lossy(&run.stderr).into_owned();
    let code = run.status.code().expect("exited, not killed by a signal");
    assert!(matches!(code, 0..=2), "exit {code}:\n{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    if code != 0 {
        assert_eq!(stderr.lines().count(), 1, "exit {code}:\n{stderr}");
    }
    (code, stderr)
}

/// Assemble `reads` (a file's bytes) into `dir/out-{name}`.
fn assemble(dir: &Scratch, name: &str, reads: &[u8]) -> (i32, String, PathBuf) {
    let path = dir.file(name, reads);
    let out = dir.0.join(format!("out-{name}"));
    let (code, stderr) = probe(&[
        "--reads".as_ref(),
        path.as_os_str(),
        "--out".as_ref(),
        out.as_os_str(),
    ]);
    (code, stderr, out)
}

fn outputs(out: &Path) -> [Vec<u8>; 4] {
    OUTPUTS.map(|f| std::fs::read(out.join(f)).unwrap_or_else(|e| panic!("{f}: {e}")))
}

/// `len` bases from a fixed LCG.
fn random_bases(len: usize, mut state: u64) -> Vec<u8> {
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        b"ACGT"[(state >> 33) as usize % 4]
    };
    (0..len).map(|_| next()).collect()
}

fn fasta(records: &[(&str, &[u8])]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (id, seq) in records {
        bytes.extend_from_slice(format!(">{id}\n").as_bytes());
        bytes.extend_from_slice(seq);
        bytes.push(b'\n');
    }
    bytes
}

#[test]
fn odd_read_files_are_assembled_or_refused() {
    let dir = Scratch::new("reads");
    let bases = random_bases(2000, 3);

    let (code, stderr, _) = assemble(&dir, "one.fa", &fasta(&[("one", &bases[..300])]));
    assert_eq!(code, 0, "{stderr}");
    assert!(stderr.contains("1 transcripts (N50 300 bp)"), "{stderr}");

    // Fifty reads, each shorter than the default k = 16: nothing to count.
    let short: Vec<(String, &[u8])> = (0..50)
        .map(|i| (format!("s{i}"), &bases[20 * i..20 * i + 10]))
        .collect();
    let short: Vec<(&str, &[u8])> = short.iter().map(|(id, s)| (id.as_str(), *s)).collect();
    let (code, stderr, _) = assemble(&dir, "short.fa", &fasta(&short));
    assert_eq!(code, 0, "{stderr}");
    assert!(stderr.contains("0 contigs"), "{stderr}");

    // Bytes that are no base inside a sequence split it into runs.
    let odd = [
        &bases[..60],
        b"\0",
        &bases[60..120],
        b"-",
        &bases[120..180],
        b".",
        &bases[180..240],
        b"*",
        &bases[240..300],
    ]
    .concat();
    let (code, stderr, out) = assemble(&dir, "odd.fa", &fasta(&[("odd", &odd)]));
    assert_eq!(code, 0, "{stderr}");
    assert!(!outputs(&out)[0].is_empty(), "no contig from the runs");

    let (code, stderr, _) = assemble(&dir, "no-header.fa", &[&bases[..100], b"\n"].concat());
    assert_eq!(code, 1);
    assert!(stderr.contains("not FASTA or FASTQ"), "{stderr}");
}

#[test]
fn one_megabase_read_is_assembled() {
    let dir = Scratch::new("megabase");
    let read = random_bases(1_000_000, 5);
    let (code, stderr, out) = assemble(&dir, "big.fa", &fasta(&[("big", &read)]));
    assert_eq!(code, 0, "{stderr}");
    let [contigs, _, _, transcripts] = outputs(&out);
    assert!(!contigs.is_empty() && !transcripts.is_empty(), "{stderr}");
}

#[test]
fn kmer_edges_run_at_two_ranks_and_bounds_are_refused() {
    let dir = Scratch::new("kmer");
    for k in ["8", "31", "32"] {
        let runs = ["1", "2"].map(|ranks| {
            let out = dir.0.join(format!("k{k}-n{ranks}"));
            let (code, stderr) = probe(&[
                "--simulate".as_ref(),
                "tiny:7".as_ref(),
                "--kmer".as_ref(),
                k.as_ref(),
                "--nprocs".as_ref(),
                ranks.as_ref(),
                "--out".as_ref(),
                out.as_os_str(),
            ]);
            assert_eq!(code, 0, "--kmer {k} --nprocs {ranks}:\n{stderr}");
            outputs(&out)
        });
        assert!(runs[0] == runs[1], "--kmer {k}: two ranks differ from one");
    }
    for k in ["7", "33"] {
        let (code, stderr) = probe(&["--simulate", "tiny:7", "--kmer", k]);
        assert_eq!(code, 1, "--kmer {k}");
        assert!(stderr.contains("--kmer must be in 8..=32"), "{stderr}");
    }
}

/// `--simulate tiny:7 --nprocs 2` at `kmer`, checkpointing into `ckpt`
/// (and resuming from it when `resume`); returns the four outputs.
fn checkpointed(dir: &Scratch, tag: &str, kmer: &str, ckpt: &Path, resume: bool) -> [Vec<u8>; 4] {
    let out = dir.0.join(tag);
    let mut args = vec![
        "--simulate".as_ref(),
        "tiny:7".as_ref(),
        "--nprocs".as_ref(),
        "2".as_ref(),
        "--kmer".as_ref(),
        kmer.as_ref(),
        "--out".as_ref(),
        out.as_os_str(),
        "--checkpoint".as_ref(),
        ckpt.as_os_str(),
    ];
    if resume {
        args.push("--resume".as_ref());
    }
    let (code, stderr) = probe(&args);
    assert_eq!(code, 0, "{tag}:\n{stderr}");
    outputs(&out)
}

#[test]
fn checkpoint_of_another_k_is_recomputed() {
    let dir = Scratch::new("ckpt-k");
    let ckpt = dir.0.join("ckpt");
    checkpointed(&dir, "k24", "24", &ckpt, false);
    let resumed = checkpointed(&dir, "k20-resumed", "20", &ckpt, true);
    let fresh = checkpointed(&dir, "k20-fresh", "20", &dir.0.join("fresh"), false);
    assert!(
        resumed == fresh,
        "a k = 24 checkpoint leaked into a k = 20 run"
    );
}

#[test]
fn checkpoint_truncated_to_50_bytes_is_recomputed() {
    let dir = Scratch::new("ckpt-cut");
    let fresh = checkpointed(&dir, "fresh", "16", &dir.0.join("fresh-ckpt"), false);
    for stage in [
        "jellyfish",
        "inchworm",
        "graphfromfasta",
        "quantifygraph",
        "readstotranscripts",
    ] {
        let ckpt = dir.0.join(format!("ckpt-{stage}"));
        checkpointed(&dir, &format!("seed-{stage}"), "16", &ckpt, false);
        let file = ckpt.join(format!("{stage}.ckpt"));
        let bytes = std::fs::read(&file).unwrap();
        std::fs::write(&file, &bytes[..50]).unwrap();
        let resumed = checkpointed(&dir, &format!("resumed-{stage}"), "16", &ckpt, true);
        assert!(
            resumed == fresh,
            "{stage}: truncated checkpoint changed the outputs"
        );
    }
}

#[test]
fn malformed_json_exits_2_with_one_line() {
    let dir = Scratch::new("json");
    let deep = ["[".repeat(100_000), "]".repeat(100_000)].concat();
    let cases: [(&str, &[u8]); 5] = [
        (
            "nan.json",
            br#"{"traceEvents":[{"name":"x","ph":"X","ts":NaN,"dur":1}]}"#,
        ),
        (
            "truncated.json",
            br#"{"traceEvents":[{"name":"x","ph":"X","ts":0,"#,
        ),
        ("wrong-type.json", br#"{"traceEvents":"spans","schema":7}"#),
        ("deep.json", deep.as_bytes()),
        ("empty.json", b""),
    ];
    for (name, bytes) in cases {
        let path = dir.file(name, bytes);
        let path = path.to_str().expect("UTF-8 scratch path");
        for args in [vec!["analyze", path], vec!["diff", path, path]] {
            let (code, stderr) = probe(&args);
            assert_eq!(code, 2, "{args:?}:\n{stderr}");
            assert!(stderr.contains(name), "{args:?}:\n{stderr}");
        }
    }
}

/// A trace whose times cannot be on a timeline (JSON `1e400` parses to ∞)
/// is refused, not analysed into a NaN critical path and a stage that ends
/// before it starts.
#[test]
fn traces_with_impossible_times_exit_2_with_one_line() {
    let dir = Scratch::new("times");
    let event = |name: &str, ts: &str, dur: &str| {
        format!(r#"{{"ph":"X","name":"{name}","cat":"stage","tid":0,"ts":{ts},"dur":{dur}}}"#)
    };
    let cases = [
        ("negative-dur.json", event("Jellyfish", "0.0", "-5.0")),
        ("infinite-ts.json", event("Inchworm", "1e400", "1.0")),
        ("infinite-dur.json", event("Inchworm", "0.0", "1e400")),
        (
            "both.json",
            [
                event("Jellyfish", "0.0", "-5.0"),
                event("Inchworm", "1e400", "1.0"),
            ]
            .join(","),
        ),
    ];
    for (name, events) in cases {
        let text = format!(r#"{{"traceEvents":[{events}]}}"#);
        let path = dir.file(name, text.as_bytes());
        let (code, stderr) = probe(&["analyze".as_ref(), path.as_os_str()]);
        assert_eq!(code, 2, "{name}:\n{stderr}");
        assert!(stderr.contains(name), "{name}:\n{stderr}");
    }
}

#[test]
fn oversized_cluster_flags_exit_2_before_running() {
    // Refused before a read is simulated or a rank is started: the run
    // writes no output directory.
    let dir = Scratch::new("cluster");
    for (flag, value) in [
        ("--nprocs", "1025"),
        ("--threads", "1025"),
        ("--nprocs", "1000000"),
        ("--threads", "1000000"),
    ] {
        let out = dir.0.join(format!("out{flag}{value}"));
        let (code, stderr) = probe(&[
            "--simulate".as_ref(),
            "tiny:7".as_ref(),
            flag.as_ref(),
            value.as_ref(),
            "--out".as_ref(),
            out.as_os_str(),
        ]);
        assert_eq!(code, 2, "{flag} {value}");
        assert_eq!(stderr.trim(), format!("{flag} must be at most 1024"));
        assert!(!out.exists(), "{flag} {value}: the run started");
    }
}

#[test]
fn output_locations_that_are_files_exit_2_before_running() {
    // `--out` on a file used to run the whole pipeline and then fail;
    // `--checkpoint` on one warned five times and checkpointed nothing (and
    // with `--resume` recomputed without saying so). Both are refused before
    // a read is simulated (the one stderr line) or anything is written.
    let dir = Scratch::new("outfile");
    let file = dir.file("taken", b"a file, not a directory");
    let (under, out) = (file.join("sub"), dir.0.join("out"));
    let cases: [(&str, &Path, bool); 4] = [
        ("--out", &file, false),
        ("--out", &under, false),
        ("--checkpoint", &file, false),
        ("--checkpoint", &file, true),
    ];
    for (flag, path, resume) in cases {
        // A second `--out` overrides the first.
        let mut args = vec!["--simulate".as_ref(), "tiny:7".as_ref(), "--out".as_ref()];
        args.extend([out.as_os_str(), flag.as_ref(), path.as_os_str()]);
        if resume {
            args.push("--resume".as_ref());
        }
        let (code, stderr) = probe(&args);
        let what = format!("{flag} {} resume={resume}", path.display());
        assert_eq!(code, 2, "{what}:\n{stderr}");
        let (path, taken) = (path.display(), file.display());
        let line = format!("{flag} {path}: {taken} is not a directory\n");
        assert_eq!(stderr, line, "{what}");
        assert!(!out.exists(), "{what}: the run started");
        assert_eq!(std::fs::read(&file).unwrap(), b"a file, not a directory");
    }
}

#[test]
fn usage_errors_are_one_line_and_help_is_not_an_error() {
    let cases: [(&[&str], i32, &str); 9] = [
        (&["--bogus"], 1, "unknown argument \"--bogus\""),
        // Flamegraphs go to `--out`; there is no flag to move them.
        (
            &["--simulate", "tiny:7", "--flame-out", "flames"],
            1,
            "unknown argument \"--flame-out\"",
        ),
        (&["--simulate", "tiny:7", "--out"], 1, "--out needs a value"),
        (&["--simulate", "nope"], 1, "unknown preset \"nope\""),
        (
            &["--simulate", "tiny:7", "--faults", "42,bogus=1"],
            1,
            "unknown clause \"bogus\"",
        ),
        (
            &["--simulate", "tiny:7", "--nprocs", "0"],
            2,
            "--nprocs must be at least 1",
        ),
        (
            &[
                "--simulate",
                "tiny:7",
                "--nprocs",
                "2",
                "--faults",
                "42,crash=2@1",
            ],
            2,
            "no such rank",
        ),
        (
            &["--simulate", "tiny:7", "--resume"],
            1,
            "--resume needs --checkpoint",
        ),
        (&[], 1, "no input"),
    ];
    for (args, want, message) in cases {
        let (code, stderr) = probe(args);
        assert_eq!(code, want, "{args:?}:\n{stderr}");
        assert!(stderr.contains(message), "{args:?}:\n{stderr}");
    }
    for flag in ["--help", "-h"] {
        let run = Command::new(env!("CARGO_BIN_EXE_trinity"))
            .arg(flag)
            .output()
            .expect("spawn trinity");
        assert_eq!(run.status.code(), Some(0), "{flag}");
        assert!(run.stderr.is_empty(), "{flag}");
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert!(stdout.starts_with("usage: trinity"), "{flag}:\n{stdout}");
    }
}

#[test]
fn fault_probabilities_outside_0_1_are_refused() {
    let dir = Scratch::new("faults");
    for (clause, want) in [
        ("delay=nan", 1),
        ("delay=2", 1),
        ("drop=-0.1", 1),
        ("delay=1", 0),
        ("drop=0", 0),
    ] {
        let out = dir.0.join(clause);
        let (code, stderr) = probe(&[
            "--simulate".as_ref(),
            "tiny:7".as_ref(),
            "--faults".as_ref(),
            format!("42,{clause}").as_ref(),
            "--out".as_ref(),
            out.as_os_str(),
        ]);
        assert_eq!(code, want, "{clause}:\n{stderr}");
        if want != 0 {
            assert!(stderr.contains("not a probability in [0, 1]"), "{stderr}");
            assert!(!out.exists(), "{clause}: the run started");
        }
    }
}

/// Op indices restart in every cluster stage, whose rank programs issue at
/// most three collectives (ops 0–2), so `crash=0@3` is a crash point no
/// rank reaches. The run still exits 0, but one stderr line and one row of
/// `collectl.txt`'s fault table name it, beside the crash that did fire.
#[test]
fn unreached_crash_points_are_reported() {
    let dir = Scratch::new("unfired");
    let out = dir.0.join("out");
    let (code, stderr) = probe(&[
        "--simulate".as_ref(),
        "tiny:7".as_ref(),
        "--nprocs".as_ref(),
        "4".as_ref(),
        "--faults".as_ref(),
        "7,crash=0@3,crash=2@2".as_ref(),
        "--out".as_ref(),
        out.as_os_str(),
    ]);
    assert_eq!(code, 0, "{stderr}");
    let named: Vec<&str> = stderr.lines().filter(|l| l.contains("0@3")).collect();
    assert_eq!(named.len(), 1, "{stderr}");
    assert!(
        named[0].starts_with("crash points never reached"),
        "{stderr}"
    );
    assert!(!named[0].contains("2@2"), "crash=2@2 fired: {stderr}");
    let collectl = std::fs::read_to_string(out.join("collectl.txt")).expect("collectl.txt");
    let rows: Vec<&str> = collectl
        .lines()
        .filter(|l| l.contains("never reached"))
        .collect();
    assert_eq!(rows, named, "{collectl}");
    let crashes = collectl.lines().find(|l| l.starts_with("rank crashes"));
    assert!(crashes.is_some_and(|l| l.ends_with(" 1")), "{collectl}");
}

/// `analyze` reads a Chrome trace and `diff` an `analysis.json`; any other
/// artifact is refused in one line that names it.
#[test]
fn artifacts_of_another_format_exit_2_with_one_line() {
    let dir = Scratch::new("formats");
    let run = dir.0.join("run");
    let (code, stderr) = probe(&[
        "--simulate".as_ref(),
        "tiny:7".as_ref(),
        "--out".as_ref(),
        run.as_os_str(),
    ]);
    assert_eq!(code, 0, "{stderr}");
    // A directory means its analysis.json to `diff`.
    let (code, stderr) = probe(&["diff".as_ref(), run.as_os_str(), run.as_os_str()]);
    assert_eq!(code, 0, "{stderr}");

    let trace = std::fs::read_to_string(run.join("trace.json")).unwrap();
    let trace = obs::export::trace_from_json(&trace).expect("the run's trace parses");
    let plain = dir.file("plain.json", obs::export::trace_json(&trace).as_bytes());
    let bench = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_hotloops.json");
    let trace = run.join("trace.json");
    let cases: [(&str, &Path); 3] = [("analyze", &plain), ("diff", &bench), ("diff", &trace)];
    for (command, file) in cases {
        let mut args = vec![command.as_ref(), file.as_os_str()];
        if command == "diff" {
            args.push(file.as_os_str());
        }
        let (code, stderr) = probe(&args);
        assert_eq!(code, 2, "{args:?}:\n{stderr}");
        let name = file.file_name().unwrap().to_str().unwrap();
        assert!(stderr.contains(name), "{args:?}:\n{stderr}");
    }
    let run = run.to_str().expect("UTF-8 scratch path");
    for flags in [&["--json"][..], &["--tol-rel", "0.5"], &["--tol-abs", "1"]] {
        let args = [&["diff"], flags, &[run, run]].concat();
        let (code, stderr) = probe(&args);
        assert_eq!(code, 2, "{flags:?}:\n{stderr}");
        assert!(stderr.contains(flags[0]), "{flags:?}:\n{stderr}");
    }
}

/// A reader that closes the pipe early (`trinity analyze run | head`) has
/// ended the output: `analyze` still writes `analysis.json`, exits 0 and
/// says nothing on stderr.
#[test]
fn analyze_into_a_closed_pipe_exits_0_quietly() {
    let dir = Scratch::new("pipe");
    let run = dir.0.join("run");
    let (code, stderr) = probe(&[
        "--simulate".as_ref(),
        "tiny:7".as_ref(),
        "--out".as_ref(),
        run.as_os_str(),
    ]);
    assert_eq!(code, 0, "{stderr}");
    let out = dir.0.join("analysis.json");
    let mut analyze = Command::new(env!("CARGO_BIN_EXE_trinity"))
        .arg("analyze")
        .arg(run.join("trace.json"))
        .arg("--out")
        .arg(&out)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn trinity");
    // The read end closes long before the child has analysed the trace.
    drop(analyze.stdout.take());
    let done = analyze.wait_with_output().expect("wait for trinity");
    let stderr = String::from_utf8_lossy(&done.stderr);
    assert_eq!(done.status.code(), Some(0), "{stderr}");
    assert_eq!(stderr, "");
    assert_eq!(
        std::fs::read(&out).unwrap(),
        std::fs::read(run.join("analysis.json")).unwrap()
    );
}
