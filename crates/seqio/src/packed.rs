//! 2-bit packed sequences with an N-run index, encoded once per pipeline run.
//!
//! Every compute stage of the pipeline — Jellyfish counting, the Inchworm
//! dictionary, GraphFromFasta's weld scans, the ReadsToTranscripts vote —
//! shares one inner loop: extract the canonical k-mer at each position of a
//! read or contig. Historically each stage re-decoded the same ASCII bytes
//! (`base_to_code` per byte, per stage, per rank). [`PackedSeq`] moves that
//! decode to ingest: bases are packed 32-per-`u64`, MSB-first so integer
//! order equals lexicographic order, and the positions of valid ACGT runs
//! are kept in a side index so iteration skips `N` gaps without inspecting
//! codes. The k-mer iterators then roll forward and reverse-complement words
//! incrementally via [`RollState`] — O(1) amortized per base.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::alphabet::{base_to_code, code_to_base};
use crate::error::Result;
use crate::kmer::{Kmer, RollState};

/// Bases encoded (sum of sequence lengths) since process start.
static ENCODED_BASES: AtomicU64 = AtomicU64::new(0);
/// Sequences encoded since process start.
static ENCODED_SEQS: AtomicU64 = AtomicU64::new(0);
/// Canonical windows produced by rolling iterators since process start.
static ROLLED_WINDOWS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the crate-global encode/roll counters.
///
/// `seqio` has no dependency on the `obs` crate, so the pipeline reads this
/// snapshot and records deltas into its `MetricsRegistry` (as
/// `seqio.encoded_bases` etc.). Counters are process-wide and monotonic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SeqioStats {
    /// Total sequences encoded by [`PackedSeq::from_bytes`].
    pub encoded_seqs: u64,
    /// Total bases encoded by [`PackedSeq::from_bytes`].
    pub encoded_bases: u64,
    /// Total canonical windows emitted by rolling iterators.
    pub rolled_windows: u64,
}

/// Read the current [`SeqioStats`] counters.
pub fn stats_snapshot() -> SeqioStats {
    SeqioStats {
        encoded_seqs: ENCODED_SEQS.load(Ordering::Relaxed),
        encoded_bases: ENCODED_BASES.load(Ordering::Relaxed),
        rolled_windows: ROLLED_WINDOWS.load(Ordering::Relaxed),
    }
}

/// Credit `n` rolled windows (flushed by the iterators' `Drop`, one atomic
/// add per iterator rather than per window).
fn add_rolled_windows(n: u64) {
    if n > 0 {
        ROLLED_WINDOWS.fetch_add(n, Ordering::Relaxed);
    }
}

/// A DNA sequence packed 2 bits per base, with a valid-run side index.
///
/// Base `i` occupies bits `2*(31 - i%32)` of word `i/32` — MSB-first, so a
/// word compares like the string it encodes. Non-ACGT input bytes (e.g. `N`)
/// pack as code 0 but are excluded from `runs`; [`PackedSeq::decode`]
/// restores them as `N` and the k-mer iterators never emit a window that
/// touches one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedSeq {
    words: Vec<u64>,
    len: usize,
    /// Maximal runs of valid ACGT bases, as half-open `(start, end)` ranges.
    runs: Vec<(usize, usize)>,
}

impl PackedSeq {
    /// Encode ASCII bases (case-insensitive). Non-ACGT bytes become gaps.
    pub fn from_bytes(seq: &[u8]) -> Self {
        let len = seq.len();
        let mut words = vec![0u64; len.div_ceil(32)];
        let mut runs = Vec::new();
        let mut run_start: Option<usize> = None;
        for (i, &b) in seq.iter().enumerate() {
            match base_to_code(b) {
                Some(code) => {
                    words[i >> 5] |= (code as u64) << ((31 - (i & 31)) << 1);
                    if run_start.is_none() {
                        run_start = Some(i);
                    }
                }
                None => {
                    if let Some(s) = run_start.take() {
                        runs.push((s, i));
                    }
                }
            }
        }
        if let Some(s) = run_start {
            runs.push((s, len));
        }
        ENCODED_SEQS.fetch_add(1, Ordering::Relaxed);
        ENCODED_BASES.fetch_add(len as u64, Ordering::Relaxed);
        PackedSeq { words, len, runs }
    }

    /// Sequence length in bases (gaps included).
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the sequence has no bases at all.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The 2-bit code at position `i`. Gap positions read as code 0; use
    /// [`PackedSeq::is_valid`] or [`PackedSeq::run_span`] to distinguish.
    #[inline(always)]
    pub fn code_at(&self, i: usize) -> u8 {
        debug_assert!(i < self.len);
        ((self.words[i >> 5] >> ((31 - (i & 31)) << 1)) & 0b11) as u8
    }

    /// The maximal valid ACGT runs as half-open `(start, end)` ranges.
    #[inline(always)]
    pub fn runs(&self) -> &[(usize, usize)] {
        &self.runs
    }

    /// The valid run containing position `i`, if any.
    #[inline]
    pub fn run_span(&self, i: usize) -> Option<(usize, usize)> {
        let idx = self.runs.partition_point(|&(s, _)| s <= i);
        if idx == 0 {
            return None;
        }
        let (s, e) = self.runs[idx - 1];
        (i < e).then_some((s, e))
    }

    /// True when position `i` holds a real ACGT base (not a gap).
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        self.run_span(i).is_some()
    }

    /// True when the whole half-open range `[start, end)` is gap-free.
    #[inline]
    pub fn range_valid(&self, start: usize, end: usize) -> bool {
        if start >= end {
            return start <= self.len && end <= self.len;
        }
        end <= self.len && self.run_span(start).is_some_and(|(_, e)| end <= e)
    }

    /// Decode back to ASCII: uppercase `ACGT` for valid bases, `N` for gaps.
    pub fn decode(&self) -> Vec<u8> {
        let mut out = vec![b'N'; self.len];
        for &(s, e) in &self.runs {
            for (i, slot) in out[s..e].iter_mut().enumerate() {
                *slot = code_to_base(self.code_at(s + i));
            }
        }
        out
    }

    /// The packed 2-bit words, MSB-first (see the type docs for the
    /// layout). This is the wire form: checkpoint codecs and rank
    /// exchanges serialize these words directly instead of re-encoding
    /// ASCII.
    #[inline(always)]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reassemble a sequence from its serialized parts ([`PackedSeq::len`],
    /// [`PackedSeq::words`], [`PackedSeq::runs`]) without re-encoding.
    ///
    /// Returns `None` unless the parts are mutually consistent: the word
    /// count matches `len`, padding bits past `len` are zero (so the
    /// result compares equal to a fresh [`PackedSeq::from_bytes`] encode),
    /// and the runs are sorted, non-adjacent, non-overlapping and in
    /// bounds. Malformed checkpoint payloads are rejected rather than
    /// trusted.
    pub fn from_parts(len: usize, words: Vec<u64>, runs: Vec<(usize, usize)>) -> Option<Self> {
        if words.len() != len.div_ceil(32) {
            return None;
        }
        if len % 32 != 0 {
            if let Some(&last) = words.last() {
                // The last word's low (unused) bits must be zero so the
                // round trip is bit-identical to a fresh encode.
                let used_bits = 2 * (len % 32);
                if last & ((1u64 << (64 - used_bits)) - 1) != 0 {
                    return None;
                }
            }
        }
        let mut prev_end = 0usize;
        for (i, &(s, e)) in runs.iter().enumerate() {
            // Runs are maximal: consecutive runs must be separated by at
            // least one gap base, exactly as `from_bytes` produces them.
            let min_start = if i == 0 { 0 } else { prev_end + 1 };
            if s < min_start || e <= s || e > len {
                return None;
            }
            prev_end = e;
        }
        Some(PackedSeq { words, len, runs })
    }

    /// Forward k-mers at every gap-free window, as `(offset, kmer)`.
    pub fn kmers(&self, k: usize) -> Result<PackedKmers<'_>> {
        Ok(PackedKmers {
            inner: RunRoller::new(self, k)?,
        })
    }

    /// Canonical k-mers (min of forward and revcomp) at every gap-free
    /// window, as `(offset, kmer)`. The reverse complement is rolled
    /// incrementally, never rebuilt per window.
    pub fn canonical_kmers(&self, k: usize) -> Result<PackedCanonicalKmers<'_>> {
        Ok(PackedCanonicalKmers {
            inner: RunRoller::new(self, k)?,
        })
    }

    /// Canonical k-mers with strand: `(offset, canonical, forward)` where
    /// `forward` is true when the forward strand is the canonical one
    /// (ties count as forward, matching `Kmer::canonical`).
    pub fn oriented_kmers(&self, k: usize) -> Result<PackedOrientedKmers<'_>> {
        Ok(PackedOrientedKmers {
            inner: RunRoller::new(self, k)?,
        })
    }
}

/// Encode a batch of sequences (anything byte-viewable, e.g. `Record`).
pub fn encode_all<S: AsRef<[u8]>>(seqs: &[S]) -> Vec<PackedSeq> {
    seqs.iter()
        .map(|s| PackedSeq::from_bytes(s.as_ref()))
        .collect()
}

/// Shared engine of the packed iterators: walk the valid runs, pushing one
/// code per position into a [`RollState`], resetting between runs.
struct RunRoller<'a> {
    seq: &'a PackedSeq,
    state: RollState,
    run_idx: usize,
    pos: usize,
    run_end: usize,
    emitted: u64,
}

impl<'a> RunRoller<'a> {
    fn new(seq: &'a PackedSeq, k: usize) -> Result<Self> {
        Ok(RunRoller {
            seq,
            state: RollState::new(k)?,
            run_idx: 0,
            pos: 0,
            run_end: 0,
            emitted: 0,
        })
    }

    /// Next completed window as `(offset, rolled)`.
    #[inline]
    fn next_window(&mut self) -> Option<(usize, crate::kmer::Rolled)> {
        loop {
            if self.pos >= self.run_end {
                let &(s, e) = self.seq.runs.get(self.run_idx)?;
                self.run_idx += 1;
                self.pos = s;
                self.run_end = e;
                self.state.reset();
                continue;
            }
            let code = self.seq.code_at(self.pos);
            self.pos += 1;
            if let Some(rolled) = self.state.push(code) {
                self.emitted += 1;
                return Some((self.pos - self.state.k(), rolled));
            }
        }
    }

    fn upper_bound(&self) -> usize {
        // Each position from `pos` onward completes at most one window.
        self.seq.len.saturating_sub(self.pos.min(self.seq.len))
    }
}

impl<'a> Drop for RunRoller<'a> {
    fn drop(&mut self) {
        add_rolled_windows(self.emitted);
    }
}

/// Forward k-mer iterator over a [`PackedSeq`]. See [`PackedSeq::kmers`].
pub struct PackedKmers<'a> {
    inner: RunRoller<'a>,
}

impl<'a> Iterator for PackedKmers<'a> {
    type Item = (usize, Kmer);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let k = self.inner.state.k();
        self.inner
            .next_window()
            .map(|(off, r)| (off, Kmer::from_packed_unchecked(r.fwd, k)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.inner.upper_bound()))
    }
}

/// Canonical k-mer iterator over a [`PackedSeq`].
/// See [`PackedSeq::canonical_kmers`].
pub struct PackedCanonicalKmers<'a> {
    inner: RunRoller<'a>,
}

impl<'a> Iterator for PackedCanonicalKmers<'a> {
    type Item = (usize, Kmer);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let k = self.inner.state.k();
        self.inner
            .next_window()
            .map(|(off, r)| (off, Kmer::from_packed_unchecked(r.canonical_packed(), k)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.inner.upper_bound()))
    }
}

/// Canonical k-mer iterator that also reports the canonical strand.
/// See [`PackedSeq::oriented_kmers`].
pub struct PackedOrientedKmers<'a> {
    inner: RunRoller<'a>,
}

impl<'a> Iterator for PackedOrientedKmers<'a> {
    type Item = (usize, Kmer, bool);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let k = self.inner.state.k();
        self.inner.next_window().map(|(off, r)| {
            (
                off,
                Kmer::from_packed_unchecked(r.canonical_packed(), k),
                r.is_forward(),
            )
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.inner.upper_bound()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmer::KmerIter;

    #[test]
    fn from_parts_round_trips_serialized_form() {
        for seq in [
            &b""[..],
            b"ACGT",
            b"acgtNxACGT-",
            b"NNNN",
            b"ACGTACGTACGTACGTACGTACGTACGTACGTACG", // crosses a word boundary
        ] {
            let p = PackedSeq::from_bytes(seq);
            let back = PackedSeq::from_parts(p.len(), p.words().to_vec(), p.runs().to_vec())
                .expect("own parts are consistent");
            assert_eq!(back, p, "{:?}", String::from_utf8_lossy(seq));
        }
    }

    #[test]
    fn from_parts_rejects_malformed_payloads() {
        let p = PackedSeq::from_bytes(b"ACGTACGT");
        // Wrong word count.
        assert!(PackedSeq::from_parts(p.len(), vec![], p.runs().to_vec()).is_none());
        // Nonzero padding bits past len.
        let mut words = p.words().to_vec();
        words[0] |= 1;
        assert!(PackedSeq::from_parts(p.len(), words, p.runs().to_vec()).is_none());
        // Out-of-bounds, empty, overlapping and adjacent (non-maximal) runs.
        for bad in [
            vec![(0usize, 9usize)],
            vec![(3, 3)],
            vec![(0, 4), (2, 8)],
            vec![(0, 4), (4, 8)],
        ] {
            assert!(
                PackedSeq::from_parts(p.len(), p.words().to_vec(), bad.clone()).is_none(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn round_trip_normalizes() {
        let p = PackedSeq::from_bytes(b"acgtNxACGT-");
        assert_eq!(p.decode(), b"ACGTNNACGTN");
        assert_eq!(p.len(), 11);
        assert_eq!(p.runs(), &[(0, 4), (6, 10)]);
    }

    #[test]
    fn empty_and_all_gaps() {
        let p = PackedSeq::from_bytes(b"");
        assert!(p.is_empty());
        assert!(p.decode().is_empty());
        assert_eq!(p.kmers(3).unwrap().count(), 0);

        let p = PackedSeq::from_bytes(b"NNN");
        assert_eq!(p.decode(), b"NNN");
        assert!(p.runs().is_empty());
        assert_eq!(p.canonical_kmers(1).unwrap().count(), 0);
    }

    #[test]
    fn code_at_matches_packing_order() {
        // 33 bases to cross a word boundary.
        let seq = b"ACGTACGTACGTACGTACGTACGTACGTACGTC";
        let p = PackedSeq::from_bytes(seq);
        for (i, &b) in seq.iter().enumerate() {
            assert_eq!(p.code_at(i), base_to_code(b).unwrap(), "pos {i}");
        }
    }

    #[test]
    fn run_span_and_range_valid() {
        let p = PackedSeq::from_bytes(b"ACGTNACGTACGTNN");
        assert_eq!(p.run_span(0), Some((0, 4)));
        assert_eq!(p.run_span(3), Some((0, 4)));
        assert_eq!(p.run_span(4), None);
        assert_eq!(p.run_span(5), Some((5, 13)));
        assert_eq!(p.run_span(14), None);
        assert!(p.range_valid(0, 4));
        assert!(!p.range_valid(0, 5));
        assert!(p.range_valid(5, 13));
        assert!(!p.range_valid(3, 6));
        assert!(!p.range_valid(5, 99));
        assert!(p.range_valid(4, 4), "empty range is vacuously valid");
    }

    #[test]
    fn iterators_match_byte_reference() {
        let seq: &[u8] = b"ACGTNNACGTACGTTTTGGGCCCANacgtACGTACGTACGTACGTACGTACGTACGTA";
        let p = PackedSeq::from_bytes(seq);
        for k in [1usize, 2, 5, 24, 25, 31, 32] {
            let fwd: Vec<_> = p.kmers(k).unwrap().collect();
            let fwd_ref: Vec<_> = KmerIter::new(seq, k).unwrap().collect();
            assert_eq!(fwd, fwd_ref, "forward k={k}");

            let canon: Vec<_> = p.canonical_kmers(k).unwrap().collect();
            let canon_ref: Vec<_> = KmerIter::new(seq, k)
                .unwrap()
                .map(|(off, km)| (off, km.canonical()))
                .collect();
            assert_eq!(canon, canon_ref, "canonical k={k}");

            let oriented: Vec<_> = p.oriented_kmers(k).unwrap().collect();
            let oriented_ref: Vec<_> = KmerIter::new(seq, k)
                .unwrap()
                .map(|(off, km)| {
                    let canon = km.canonical();
                    (off, canon, canon == km)
                })
                .collect();
            assert_eq!(oriented, oriented_ref, "oriented k={k}");
        }
    }

    #[test]
    fn bad_k_is_rejected() {
        let p = PackedSeq::from_bytes(b"ACGT");
        assert!(p.kmers(0).is_err());
        assert!(p.canonical_kmers(33).is_err());
        assert!(p.oriented_kmers(0).is_err());
    }

    #[test]
    fn encode_all_and_stats_advance() {
        let before = stats_snapshot();
        let packed = encode_all(&[&b"ACGT"[..], b"GGNTT"]);
        assert_eq!(packed.len(), 2);
        assert_eq!(packed[1].decode(), b"GGNTT");
        let _ = packed[0].canonical_kmers(2).unwrap().count(); // 3 windows
        let after = stats_snapshot();
        assert!(after.encoded_seqs >= before.encoded_seqs + 2);
        assert!(after.encoded_bases >= before.encoded_bases + 9);
        assert!(after.rolled_windows >= before.rolled_windows + 3);
    }
}
