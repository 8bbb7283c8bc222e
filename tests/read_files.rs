//! The CLI's file input, end to end: `--reads` on the Tiny preset's reads
//! written as FASTA, as CRLF FASTA with blank lines between records, and
//! as FASTQ writes the same four output files; a FASTA of messy but valid
//! reads writes the same four files at every rank and thread count; and
//! each malformed input fails with exit code 1 and a one-line message.

mod common;

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use seqio::fasta::{to_fasta_bytes, Record};

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
            std::env::temp_dir().join(format!("trinity-read-files-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create scratch dir");
        Scratch(path)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn trinity(reads: &Path, out: &Path, flags: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trinity"))
        .arg("--reads")
        .arg(reads)
        .arg("--out")
        .arg(out)
        .args(flags)
        .output()
        .expect("spawn trinity")
}

#[test]
fn fasta_crlf_fasta_and_fastq_give_the_same_outputs() {
    let reads = common::tiny_reads(common::READ_FILES_SEED);
    let fasta = to_fasta_bytes(&reads);
    let mut crlf = Vec::new();
    for rec in &reads {
        let text = to_fasta_bytes(std::slice::from_ref(rec));
        crlf.extend(
            String::from_utf8(text)
                .unwrap()
                .replace('\n', "\r\n")
                .bytes(),
        );
        crlf.extend_from_slice(b"\r\n");
    }
    let mut fastq = Vec::new();
    for rec in &reads {
        fastq.extend(format!("@{} {}\n", rec.id, rec.desc).bytes());
        fastq.extend_from_slice(&rec.seq);
        fastq.extend_from_slice(b"\n+\n");
        fastq.extend(std::iter::repeat_n(b'I', rec.seq.len()));
        fastq.push(b'\n');
    }

    let dir = Scratch::new("same");
    let mut written = Vec::new();
    for (name, bytes) in [("reads.fa", fasta), ("crlf.fa", crlf), ("reads.fq", fastq)] {
        let path = dir.0.join(name);
        std::fs::write(&path, bytes).unwrap();
        let out = dir.0.join(format!("out-{name}"));
        let run = trinity(&path, &out, &[]);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(run.status.success(), "{name} failed:\n{stderr}");
        assert!(
            stderr.contains(&format!("{} reads", reads.len())),
            "{stderr}"
        );
        let files = OUTPUTS.map(|f| std::fs::read(out.join(f)).unwrap());
        written.push((name, files));
    }
    for (name, files) in &written[1..] {
        for (i, file) in OUTPUTS.iter().enumerate() {
            assert!(
                files[i] == written[0].1[i],
                "{name}: {file} differs from FASTA input's"
            );
        }
    }
}

/// 300 of the Tiny reads, messy the way real read files are: in every ten,
/// one read is lowercase, one carries IUPAC codes, one is all `N`, one is
/// shorter than k, and one repeats the name of the read before it.
fn messy_reads() -> Vec<Record> {
    let mut reads = common::tiny_reads(common::READ_FILES_SEED);
    reads.truncate(300);
    for i in 0..reads.len() {
        match i % 10 {
            1 => reads[i].seq.make_ascii_lowercase(),
            3 => reads[i].seq[4..8].copy_from_slice(b"RYKM"),
            5 => reads[i].seq.fill(b'N'),
            7 => reads[i].seq.truncate(12),
            9 => reads[i].id = reads[i - 1].id.clone(),
            _ => {}
        }
    }
    reads
}

#[test]
fn messy_reads_give_the_same_outputs_at_every_rank_and_thread_count() {
    let dir = Scratch::new("messy");
    let path = dir.0.join("messy.fa");
    std::fs::write(&path, to_fasta_bytes(&messy_reads())).unwrap();
    let mut first: Option<[Vec<u8>; 4]> = None;
    for (nprocs, threads) in [
        ("1", "1"),
        ("1", "3"),
        ("2", "1"),
        ("2", "3"),
        ("4", "1"),
        ("4", "3"),
    ] {
        let out = dir.0.join(format!("out-{nprocs}x{threads}"));
        let run = trinity(&path, &out, &["--nprocs", nprocs, "--threads", threads]);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(run.status.success(), "{nprocs}x{threads} failed:\n{stderr}");
        let files = OUTPUTS.map(|f| std::fs::read(out.join(f)).unwrap());
        assert!(stderr.contains("300 reads"), "{stderr}");
        assert!(!files[0].is_empty(), "messy reads assemble no contig");
        let first = first.get_or_insert_with(|| files.clone());
        for (i, file) in OUTPUTS.iter().enumerate() {
            assert!(
                files[i] == first[i],
                "{nprocs}x{threads}: {file} differs from 1x1's"
            );
        }
    }
}

#[test]
fn malformed_inputs_exit_1_with_one_line() {
    let cases: [(&str, &[u8], &str); 5] = [
        (
            "empty-id.fq",
            b"@ desc\nACGT\n+\nIIII\n",
            "line 1: empty record identifier",
        ),
        (
            "truncated.fq",
            b"@r1\nACGT\n+\nIIII\n@r2\nACGT\n+\n",
            "line 5: truncated record",
        ),
        ("not-utf8.fa", b">r1\nACGT\nAC\xffGT\n", "line 3: not UTF-8"),
        ("garbage.fa", b"ACGT\n>r1\nACGT\n", "not FASTA or FASTQ"),
        ("empty.fa", b"", "not FASTA or FASTQ"),
    ];
    let dir = Scratch::new("malformed");
    for (name, bytes, message) in cases {
        let path = dir.0.join(name);
        std::fs::write(&path, bytes).unwrap();
        let run = trinity(&path, &dir.0.join("out"), &[]);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{name}:\n{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{name}:\n{stderr}");
        assert!(
            stderr.contains(name) && stderr.contains(message),
            "{name}:\n{stderr}"
        );
    }
}
