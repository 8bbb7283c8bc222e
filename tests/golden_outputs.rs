//! Byte-level goldens of the CLI on `--simulate whitefly:7`, recorded at
//! the commit before the k-mer tables became owner-routed builds (PR 18's
//! parent, `f64c2b6`): how a table is built — insertion order, owner
//! count, round size, table layout — must never reach an output file or a
//! checkpoint payload.
//!
//! The digests are FNV-1a 64 over the file (outputs) or over the stage
//! payload (checkpoints; the header's `duration` field is a measured time
//! and differs run to run). A checkpoint dir written by that parent has
//! the same payloads; its fingerprint is that of the configuration before
//! the single-valued fields became constants, so it is recomputed here.

use std::path::{Path, PathBuf};
use std::process::Command;

use trinity::checkpoint::{self, fnv1a64, stage_path};

const OUTPUTS: [(&str, u64); 4] = [
    ("inchworm.fasta", 0xf377_cae2_f796_27da),
    ("transcripts.fasta", 0x40f3_e24a_19b3_d29e),
    ("components.txt", 0xf115_b26b_b88c_6520),
    ("read_assignments.txt", 0x9c68_dc35_ed75_9a72),
];

/// The run fingerprint every checkpoint of the serial run carries. It
/// covers the reads and the `Debug` rendering of `PipelineConfig`: a PR
/// that adds or renames a config field re-records this one constant (and
/// says that older checkpoint dirs stop resuming).
const FINGERPRINT: u64 = 0x0cb0_aa10_1ca9_402d;

/// Checkpointed stages and the digest of each one's payload.
const CHECKPOINTS: [(&str, u64); 5] = [
    ("Jellyfish", 0xb49e_45f4_3c7a_7577),
    ("Inchworm", 0x1c1a_8767_78e2_2ae9),
    ("GraphFromFasta", 0x3eb6_ee5e_a35d_c727),
    ("QuantifyGraph", 0xe4cf_00ba_fd1e_ba1e),
    ("ReadsToTranscripts", 0x78f9_97fe_61e6_1c4a),
];

/// A scratch directory under the system temp dir, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let path =
            std::env::temp_dir().join(format!("trinity-golden-{tag}-{}", std::process::id()));
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

/// Run the CLI on the golden input with `extra` flags; returns its stderr.
fn trinity(out: &Path, extra: &[&str]) -> String {
    let run = Command::new(env!("CARGO_BIN_EXE_trinity"))
        .args(["--simulate", "whitefly:7", "--out"])
        .arg(out)
        .args(extra)
        .output()
        .expect("spawn trinity");
    let stderr = String::from_utf8_lossy(&run.stderr).into_owned();
    assert!(run.status.success(), "trinity {extra:?} failed:\n{stderr}");
    stderr
}

fn file_digest(path: &Path) -> u64 {
    fnv1a64(&std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
}

fn render(digests: &[(&str, u64)]) -> String {
    let lines = digests
        .iter()
        .map(|(name, d)| format!("    ({name:?}, {d:#018x}),\n"));
    lines.collect()
}

#[test]
fn outputs_are_byte_identical_at_every_rank_count() {
    for nprocs in ["1", "2", "4", "7"] {
        let out = Scratch::new(&format!("ranks{nprocs}"));
        trinity(&out.0, &["--nprocs", nprocs]);
        let got = OUTPUTS.map(|(name, _)| (name, file_digest(&out.0.join(name))));
        assert_eq!(got, OUTPUTS, "--nprocs {nprocs} wrote:\n{}", render(&got));
    }
}

#[test]
fn checkpoint_payloads_keep_their_bytes_and_resume() {
    let out = Scratch::new("ckpt-out");
    let dir = Scratch::new("ckpt-dir");
    let dir_arg = dir.0.to_str().expect("utf-8 temp dir");
    trinity(&out.0, &["--checkpoint", dir_arg]);

    // The fingerprint sits after the 8-byte magic and the u32 version.
    let header = std::fs::read(stage_path(&dir.0, "Jellyfish")).expect("Jellyfish checkpoint");
    let fingerprint = u64::from_le_bytes(header[12..20].try_into().expect("8 bytes"));
    assert_eq!(
        fingerprint, FINGERPRINT,
        "run fingerprint is {fingerprint:#018x}"
    );
    let got = CHECKPOINTS.map(|(stage, _)| {
        let ck = checkpoint::load(&dir.0, fingerprint, stage).expect("checkpoint validates");
        (stage, fnv1a64(&ck.payload))
    });
    assert_eq!(got, CHECKPOINTS, "payload digests are:\n{}", render(&got));

    let resumed = Scratch::new("ckpt-resumed");
    let report = trinity(&resumed.0, &["--checkpoint", dir_arg, "--resume"]);
    let line = report
        .lines()
        .find(|l| l.contains("stages resumed from checkpoint"));
    assert_eq!(
        line.and_then(|l| l.split_whitespace().last()),
        Some("5"),
        "resume report:\n{report}"
    );
    for (name, digest) in OUTPUTS {
        assert_eq!(file_digest(&resumed.0.join(name)), digest, "resumed {name}");
    }
}
