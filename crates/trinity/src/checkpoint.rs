//! Stage-level checkpointing for the pipeline.
//!
//! Each completed stage writes its output to `<dir>/<stage>.ckpt` in a
//! small versioned binary format:
//!
//! ```text
//! magic      8 bytes   b"TRNCKPT1"
//! version    u32 LE    format version (currently 2)
//! fprint     u64 LE    run fingerprint (hash of reads + the whole config)
//! stage      u32 LE length + UTF-8 bytes
//! duration   f64 LE bits   the stage's virtual duration, replayed on resume
//! payload    u64 LE length + bytes (stage-specific codec below)
//! checksum   u64 LE    FNV-1a-64 over every preceding byte
//! ```
//!
//! The trailing checksum covers the header too, so a flipped byte anywhere
//! in the file — magic, fingerprint, payload — is detected on load and the
//! stage is recomputed instead of resumed. The fingerprint ties a
//! checkpoint to the exact input reads and configuration that produced it;
//! `--resume` against a different dataset silently falls back to a full
//! run rather than resurrecting stale artifacts.
//!
//! Format version 2 changed the record codec: sequences serialize as
//! 2-bit [`PackedSeq`] words plus the N-run index (≈4x smaller than the
//! v1 ASCII bytes), with a per-record raw-bytes fallback for sequences
//! the packing cannot restore losslessly (lowercase or IUPAC input).
//! Version-1 files are rejected with [`CkptError::BadVersion`] and the
//! stage recomputed — resume never trusts a payload written under a
//! different codec.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use kcount::counter::KmerCounts;
use mpisim::pack::{pack, Wire};
use seqio::fasta::Record;
use seqio::kmer::Kmer;
use seqio::packed::PackedSeq;

/// File magic: "TRiNity ChecKPoinT, format 1".
pub const MAGIC: [u8; 8] = *b"TRNCKPT1";
/// Current checkpoint format version.
pub const VERSION: u32 = 2;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-64 over `bytes` — the checkpoint content checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Why a checkpoint could not be resumed. Every variant is recoverable:
/// the caller recomputes the stage and overwrites the file.
#[derive(Debug)]
pub enum CkptError {
    /// The file does not exist or could not be read.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file was written by an incompatible format version.
    BadVersion(u32),
    /// The stored checksum does not match the recomputed one — the file
    /// was corrupted (or tampered with) after it was written.
    BadChecksum {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum recomputed over the file's bytes.
        actual: u64,
    },
    /// The file checkpoints a different stage than requested.
    WrongStage(String),
    /// The checkpoint was produced by a different input/config
    /// combination.
    WrongFingerprint {
        /// Fingerprint stored in the file.
        stored: u64,
        /// Fingerprint of the current run.
        expected: u64,
    },
    /// The file is structurally truncated or a length field overruns.
    Truncated,
    /// The file validates but the stage's codec refuses its payload (the
    /// checksum is not a MAC, so a crafted file can get this far).
    BadPayload,
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CkptError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CkptError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CkptError::BadChecksum { stored, actual } => write!(
                f,
                "checkpoint checksum mismatch (stored {stored:#018x}, actual {actual:#018x})"
            ),
            CkptError::WrongStage(s) => write!(f, "checkpoint is for stage {s:?}"),
            CkptError::WrongFingerprint { stored, expected } => write!(
                f,
                "checkpoint fingerprint {stored:#018x} does not match run {expected:#018x}"
            ),
            CkptError::Truncated => write!(f, "checkpoint file truncated"),
            CkptError::BadPayload => write!(f, "checkpoint payload does not decode"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e)
    }
}

/// A decoded checkpoint of the stage [`load`] was asked for: the stage's
/// virtual duration (replayed into the trace on resume) and the codec
/// payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Virtual duration of the original stage run, seconds.
    pub duration: f64,
    /// Stage-specific payload (see the `encode_*`/`decode_*` codecs).
    pub payload: Vec<u8>,
}

/// Path of a stage's checkpoint file inside `dir`.
pub fn stage_path(dir: &Path, stage: &str) -> PathBuf {
    dir.join(format!("{}.ckpt", stage.to_ascii_lowercase()))
}

/// Serialize and write a stage checkpoint atomically (temp file + rename),
/// returning the final path.
pub fn save(
    dir: &Path,
    fingerprint: u64,
    stage: &str,
    duration: f64,
    payload: &[u8],
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let mut buf = Vec::with_capacity(48 + stage.len() + payload.len());
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&fingerprint.to_le_bytes());
    buf.extend_from_slice(&(stage.len() as u32).to_le_bytes());
    buf.extend_from_slice(stage.as_bytes());
    buf.extend_from_slice(&duration.to_bits().to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(payload);
    let sum = fnv1a64(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());

    let path = stage_path(dir, stage);
    let tmp = path.with_extension("ckpt.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&buf)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

/// Read and validate a stage checkpoint: magic, version, checksum, stage
/// name and run fingerprint must all match or the load is rejected.
pub fn load(dir: &Path, fingerprint: u64, stage: &str) -> Result<Checkpoint, CkptError> {
    let bytes = std::fs::read(stage_path(dir, stage))?;
    if bytes.len() < MAGIC.len() + 4 + 8 + 4 + 8 + 8 + 8 {
        return Err(CkptError::Truncated);
    }
    let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
    let stored = u64::get(sum_bytes);
    let actual = fnv1a64(body);
    if stored != actual {
        return Err(CkptError::BadChecksum { stored, actual });
    }
    let mut r = Reader::new(body);
    if r.take(8).ok_or(CkptError::Truncated)? != MAGIC {
        return Err(CkptError::BadMagic);
    }
    let version = r.get::<u32>().ok_or(CkptError::Truncated)?;
    if version != VERSION {
        return Err(CkptError::BadVersion(version));
    }
    let fprint = r.get::<u64>().ok_or(CkptError::Truncated)?;
    if fprint != fingerprint {
        return Err(CkptError::WrongFingerprint {
            stored: fprint,
            expected: fingerprint,
        });
    }
    let name = r.string().ok_or(CkptError::Truncated)?;
    if name != stage {
        return Err(CkptError::WrongStage(name));
    }
    let duration = f64::from_bits(r.get().ok_or(CkptError::Truncated)?);
    let payload = r.blob64().ok_or(CkptError::Truncated)?.to_vec();
    if !r.is_empty() {
        return Err(CkptError::Truncated);
    }
    Ok(Checkpoint { duration, payload })
}

// ---- primitive codec helpers -------------------------------------------

/// Bounds-checked little-endian reader over a byte slice.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.buf.len() < n {
            return None;
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Some(head)
    }

    fn get<T: Wire>(&mut self) -> Option<T> {
        self.take(T::WIDTH).map(T::get)
    }

    /// `n` records, read as they are iterated; the bytes left bound `n`
    /// before any is read, and nothing is allocated for them.
    fn records<T: Wire + 'a>(&mut self, n: u64) -> Option<impl Iterator<Item = T> + 'a> {
        let bytes = usize::try_from(n).ok()?.checked_mul(T::WIDTH)?;
        Some(self.take(bytes)?.chunks_exact(T::WIDTH).map(T::get))
    }

    /// A list [`put_list`] wrote: its `u64` count, then its records.
    fn list<T: Wire + 'a>(&mut self) -> Option<impl Iterator<Item = T> + 'a> {
        let n = self.get()?;
        self.records(n)
    }

    fn string(&mut self) -> Option<String> {
        let n = self.get::<u32>()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }

    fn blob64(&mut self) -> Option<&'a [u8]> {
        let n = self.get::<u64>()?;
        self.take(usize::try_from(n).ok()?)
    }

    fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// A fixed-width list: its `u64` count, then its [`pack`]ed records.
fn put_list<T: Wire>(buf: &mut Vec<u8>, items: &[T]) {
    (items.len() as u64).put(buf);
    buf.extend_from_slice(&pack(items));
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    (b.len() as u64).put(buf);
    buf.extend_from_slice(b);
}

// ---- stage payload codecs ----------------------------------------------

/// Encode a k-mer count table: `k`, entry count, then `(packed, count)`
/// pairs sorted by packed key so the encoding is independent of table
/// iteration order.
pub fn encode_counts(counts: &KmerCounts) -> Vec<u8> {
    let mut pairs: Vec<(u64, u32)> = counts.iter_packed().collect();
    pairs.sort_unstable();
    let mut buf = Vec::with_capacity(16 + pairs.len() * 12);
    (counts.k() as u32).put(&mut buf);
    put_list(&mut buf, &pairs);
    buf
}

/// Decode [`encode_counts`]; `None` on any structural problem.
pub fn decode_counts(payload: &[u8]) -> Option<KmerCounts> {
    let mut r = Reader::new(payload);
    let k = r.get::<u32>()? as usize;
    let mut counts = KmerCounts::empty(k);
    for (packed, count) in r.list::<(u64, u32)>()? {
        let km = Kmer::from_packed(packed, k).ok()?;
        counts.add(km, count);
    }
    r.is_empty().then_some(counts)
}

/// Per-record sequence encoding: 2-bit packed words + N-run index.
const SEQ_PACKED: u8 = 1;
/// Per-record sequence encoding: raw ASCII bytes (lossless fallback).
const SEQ_RAW: u8 = 0;

/// Encode FASTA records (id, description, sequence per record).
///
/// Sequences ship as 2-bit [`PackedSeq`] words plus the N-run index —
/// ≈4x smaller than ASCII for clean ACGT data. A sequence the packing
/// cannot restore byte-for-byte (lowercase bases, IUPAC codes other than
/// `N`) falls back to raw bytes under a per-record flag, so the codec is
/// lossless for every input.
pub fn encode_records(records: &[Record]) -> Vec<u8> {
    let mut buf = Vec::new();
    (records.len() as u64).put(&mut buf);
    for rec in records {
        put_bytes(&mut buf, rec.id.as_bytes());
        put_bytes(&mut buf, rec.desc.as_bytes());
        let packed = PackedSeq::from_bytes(&rec.seq);
        if packed.decode() == rec.seq {
            buf.push(SEQ_PACKED);
            (packed.len() as u64).put(&mut buf);
            buf.extend_from_slice(&pack(packed.words()));
            let runs: Vec<(u64, u64)> = packed
                .runs()
                .iter()
                .map(|&(s, e)| (s as u64, e as u64))
                .collect();
            put_list(&mut buf, &runs);
        } else {
            buf.push(SEQ_RAW);
            put_bytes(&mut buf, &rec.seq);
        }
    }
    buf
}

/// Decode [`encode_records`]; `None` on any structural problem, including
/// packed parts [`PackedSeq::from_parts`] refuses to reassemble.
pub fn decode_records(payload: &[u8]) -> Option<Vec<Record>> {
    let mut r = Reader::new(payload);
    let n = r.get::<u64>()?;
    let mut out = Vec::new();
    for _ in 0..n {
        let id = String::from_utf8(r.blob64()?.to_vec()).ok()?;
        let desc = String::from_utf8(r.blob64()?.to_vec()).ok()?;
        let seq = match *r.take(1)?.first()? {
            SEQ_PACKED => {
                let len = r.get::<u64>()?;
                // The word count is implied by the length; the Reader
                // bounds-checks it, so an absurd length fails cleanly
                // instead of allocating.
                let words = r.records(len.div_ceil(32))?.collect();
                let runs = r.list::<(u64, u64)>()?;
                let run = |(s, e)| Some((usize::try_from(s).ok()?, usize::try_from(e).ok()?));
                let runs = runs.map(run).collect::<Option<Vec<_>>>()?;
                PackedSeq::from_parts(usize::try_from(len).ok()?, words, runs)?.decode()
            }
            SEQ_RAW => r.blob64()?.to_vec(),
            _ => return None,
        };
        out.push(Record { id, desc, seq });
    }
    r.is_empty().then_some(out)
}

/// Encode the GraphFromFasta weld pool: the weld-mer byte strings plus the
/// contig pairs they glue.
pub fn encode_welds(welds: &[Vec<u8>], pairs: &[(u32, u32)]) -> Vec<u8> {
    let mut buf = Vec::new();
    (welds.len() as u64).put(&mut buf);
    for w in welds {
        put_bytes(&mut buf, w);
    }
    put_list(&mut buf, pairs);
    buf
}

/// Decode [`encode_welds`].
#[allow(clippy::type_complexity)]
pub fn decode_welds(payload: &[u8]) -> Option<(Vec<Vec<u8>>, Vec<(u32, u32)>)> {
    let mut r = Reader::new(payload);
    let n = r.get::<u64>()?;
    let mut welds = Vec::new();
    for _ in 0..n {
        welds.push(r.blob64()?.to_vec());
    }
    let pairs = r.list()?.collect();
    r.is_empty().then_some((welds, pairs))
}

/// Encode clustered components (contig member lists).
pub fn encode_components(components: &[Vec<usize>]) -> Vec<u8> {
    let mut buf = Vec::new();
    (components.len() as u64).put(&mut buf);
    for members in components {
        let members: Vec<u64> = members.iter().map(|&m| m as u64).collect();
        put_list(&mut buf, &members);
    }
    buf
}

/// Decode [`encode_components`].
pub fn decode_components(payload: &[u8]) -> Option<Vec<Vec<usize>>> {
    let mut r = Reader::new(payload);
    let n = r.get::<u64>()?;
    let mut out = Vec::new();
    for _ in 0..n {
        let members = r.list::<u64>()?.map(|m| usize::try_from(m).ok());
        out.push(members.collect::<Option<Vec<usize>>>()?);
    }
    r.is_empty().then_some(out)
}

/// Encode read→component assignments (or any `(u32, u32)` pair list).
pub fn encode_pairs(pairs: &[(u32, u32)]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_list(&mut buf, pairs);
    buf
}

/// Decode [`encode_pairs`].
pub fn decode_pairs(payload: &[u8]) -> Option<Vec<(u32, u32)>> {
    let mut r = Reader::new(payload);
    let pairs = r.list()?.collect();
    r.is_empty().then_some(pairs)
}

/// Fingerprint of a run: FNV-1a over the input reads and the configuration
/// `key`. Two runs with the same fingerprint may share checkpoints;
/// anything else must not. The pipeline driver passes one word — the hash
/// of the whole `PipelineConfig`'s `Debug` rendering — so no field that
/// changes a stage output can be left out of the key.
pub fn run_fingerprint(reads: &[Record], key: &[u64]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    for k in key {
        mix(&k.to_le_bytes());
    }
    mix(&(reads.len() as u64).to_le_bytes());
    for rec in reads {
        mix(rec.id.as_bytes());
        mix(&[0]);
        mix(&rec.seq);
        mix(&[0]);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("trinity-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_load_round_trip() {
        let dir = tmpdir("roundtrip");
        let payload = encode_pairs(&[(1, 2), (3, 4)]);
        save(&dir, 42, "Stage", 1.5, &payload).unwrap();
        let ck = load(&dir, 42, "Stage").unwrap();
        assert_eq!(ck.duration, 1.5);
        assert_eq!(decode_pairs(&ck.payload).unwrap(), vec![(1, 2), (3, 4)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_corrupted_byte_is_detected() {
        let dir = tmpdir("corrupt");
        let payload = encode_pairs(&[(7, 8)]);
        let path = save(&dir, 1, "Stage", 0.5, &payload).unwrap();
        let good = std::fs::read(&path).unwrap();
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                load(&dir, 1, "Stage").is_err(),
                "flipping byte {i} went undetected"
            );
        }
        std::fs::write(&path, &good).unwrap();
        assert!(load(&dir, 1, "Stage").is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_and_stage_mismatches_rejected() {
        let dir = tmpdir("mismatch");
        save(&dir, 5, "Stage", 0.0, b"x").unwrap();
        assert!(matches!(
            load(&dir, 6, "Stage"),
            Err(CkptError::WrongFingerprint { .. })
        ));
        assert!(matches!(load(&dir, 5, "Other"), Err(CkptError::Io(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn counts_codec_round_trips() {
        let mut counts = KmerCounts::empty(8);
        for (i, seq) in [b"ACGTACGT", b"TTTTACGT", b"GGGGCCCC"].iter().enumerate() {
            counts.add(Kmer::from_bases(*seq).unwrap(), i as u32 + 1);
        }
        let decoded = decode_counts(&encode_counts(&counts)).unwrap();
        assert_eq!(decoded.k(), 8);
        let mut a: Vec<_> = counts.iter_packed().collect();
        let mut b: Vec<_> = decoded.iter_packed().collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn records_codec_round_trips() {
        let recs = vec![
            Record {
                id: "r1".into(),
                desc: "left".into(),
                seq: b"ACGT".to_vec(),
            },
            Record {
                id: "r2".into(),
                desc: String::new(),
                seq: b"GGGG".to_vec(),
            },
            // Gaps exercise the N-run index path.
            Record {
                id: "r3".into(),
                desc: "gappy".into(),
                seq: b"NNACGTNNNNGGGGN".to_vec(),
            },
            // Crosses the 32-base word boundary.
            Record {
                id: "r4".into(),
                desc: String::new(),
                seq: b"ACGTACGTACGTACGTACGTACGTACGTACGTACGTA".to_vec(),
            },
            Record {
                id: "empty".into(),
                desc: String::new(),
                seq: Vec::new(),
            },
        ];
        assert_eq!(decode_records(&encode_records(&recs)).unwrap(), recs);
    }

    #[test]
    fn records_codec_falls_back_to_raw_for_unpackable_bytes() {
        // Lowercase and IUPAC bytes don't survive 2-bit packing; the codec
        // must keep them byte-identical via the raw fallback.
        let recs = vec![
            Record {
                id: "soft".into(),
                desc: "masked".into(),
                seq: b"acgtACGT".to_vec(),
            },
            Record {
                id: "iupac".into(),
                desc: String::new(),
                seq: b"ACGTRYSWKM".to_vec(),
            },
        ];
        let buf = encode_records(&recs);
        assert_eq!(decode_records(&buf).unwrap(), recs);
        assert!(buf.contains(&SEQ_RAW));
    }

    #[test]
    fn packed_records_are_much_smaller_than_ascii() {
        // ~4x: 2 bits/base instead of 8, with only a constant per-record
        // overhead (len + run index).
        let recs: Vec<Record> = (0..16)
            .map(|i| {
                let seq: Vec<u8> = (0..4096).map(|j| b"ACGT"[(i + j) % 4]).collect();
                Record {
                    id: format!("r{i}"),
                    desc: String::new(),
                    seq,
                }
            })
            .collect();
        let packed_size = encode_records(&recs).len();
        let ascii_size: usize = recs.iter().map(|r| r.seq.len()).sum();
        assert!(
            packed_size * 3 < ascii_size,
            "packed {packed_size} vs ascii {ascii_size}"
        );
        assert_eq!(decode_records(&encode_records(&recs)).unwrap(), recs);
    }

    #[test]
    fn records_codec_rejects_truncation_and_bad_parts() {
        let recs = vec![Record {
            id: "r".into(),
            desc: String::new(),
            seq: b"NNACGTACGTNN".to_vec(),
        }];
        let buf = encode_records(&recs);
        for cut in 1..buf.len() {
            assert!(decode_records(&buf[..cut]).is_none(), "cut at {cut}");
        }
        // Corrupt the run index (swap a run end past len): from_parts
        // must refuse rather than build an inconsistent sequence.
        let mut bad = buf.clone();
        let pos = bad.len() - 8;
        bad[pos..].copy_from_slice(&(u64::MAX).to_le_bytes());
        assert!(decode_records(&bad).is_none());
    }

    #[test]
    fn old_version_checkpoints_rejected() {
        let dir = tmpdir("oldver");
        // Rewrite a valid file's version field to 1 and fix up the
        // checksum: a structurally sound v1 file whose payload codec we
        // no longer trust.
        let path = save(&dir, 9, "Stage", 0.0, b"payload").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let n = bytes.len();
        let sum = fnv1a64(&bytes[..n - 8]);
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load(&dir, 9, "Stage"),
            Err(CkptError::BadVersion(1))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn welds_and_components_round_trip() {
        let welds = vec![b"ACGTACGT".to_vec(), b"TTTT".to_vec()];
        let pairs = vec![(0, 1), (2, 3)];
        let (w, p) = decode_welds(&encode_welds(&welds, &pairs)).unwrap();
        assert_eq!(w, welds);
        assert_eq!(p, pairs);
        let comps = vec![vec![0, 1, 2], vec![], vec![5]];
        assert_eq!(
            decode_components(&encode_components(&comps)).unwrap(),
            comps
        );
    }

    #[test]
    fn truncated_payloads_rejected() {
        let buf = encode_pairs(&[(1, 2), (3, 4)]);
        for cut in 1..buf.len() {
            assert!(decode_pairs(&buf[..cut]).is_none(), "cut at {cut}");
        }
        let extra: Vec<u8> = buf.iter().copied().chain([0]).collect();
        assert!(decode_pairs(&extra).is_none(), "trailing garbage rejected");
    }

    #[test]
    fn fingerprint_sensitive_to_reads_and_key() {
        let reads = vec![Record::new("r", b"ACGT".to_vec())];
        let base = run_fingerprint(&reads, &[1, 2]);
        assert_ne!(base, run_fingerprint(&reads, &[1, 3]));
        let other = vec![Record::new("r", b"ACGA".to_vec())];
        assert_ne!(base, run_fingerprint(&other, &[1, 2]));
        assert_eq!(base, run_fingerprint(&reads, &[1, 2]));
    }
}
