//! 2-bit packed k-mers, k ≤ 32.
//!
//! A [`Kmer`] packs up to 32 bases into a `u64`, most-significant-pair first,
//! so that integer ordering equals lexicographic ordering of the bases. This
//! is the representation used by the k-mer counter (Jellyfish substrate), the
//! Inchworm dictionary and the Chrysalis component maps.

use crate::alphabet::{base_to_code, code_to_base, complement_code};
use crate::error::{Error, Result};

/// A fixed-length DNA word, 2 bits per base, `k <= 32`.
///
/// The word is stored right-aligned: the last base occupies the two least
/// significant bits. Together with MSB-first packing this makes `Ord` on the
/// `(k, packed)` pair equal to lexicographic order for equal `k`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Kmer {
    packed: u64,
    k: u8,
}

impl Kmer {
    /// Maximum supported k.
    pub const MAX_K: usize = 32;

    /// Build from ASCII bases. Fails on non-ACGT bytes or bad `k`.
    pub fn from_bases(seq: &[u8]) -> Result<Self> {
        let k = seq.len();
        if k == 0 || k > Self::MAX_K {
            return Err(Error::InvalidK(k));
        }
        let mut packed = 0u64;
        for &b in seq {
            let code = base_to_code(b).ok_or(Error::InvalidBase(b))?;
            packed = (packed << 2) | code as u64;
        }
        Ok(Kmer { packed, k: k as u8 })
    }

    /// Build directly from a packed word. `packed` must only use the low
    /// `2k` bits.
    pub fn from_packed(packed: u64, k: usize) -> Result<Self> {
        if k == 0 || k > Self::MAX_K {
            return Err(Error::InvalidK(k));
        }
        if k < 32 && packed >> (2 * k) != 0 {
            return Err(Error::Format(format!(
                "packed value 0x{packed:x} has bits above 2k={}",
                2 * k
            )));
        }
        Ok(Kmer { packed, k: k as u8 })
    }

    /// Build from a packed word that is already known to be in range.
    ///
    /// Hot-path constructor used by the rolling iterators, which mask their
    /// words on every shift. Only debug-asserts the invariants that
    /// [`Kmer::from_packed`] checks; violating them corrupts ordering (not
    /// memory safety).
    #[inline(always)]
    pub fn from_packed_unchecked(packed: u64, k: usize) -> Self {
        debug_assert!((1..=Self::MAX_K).contains(&k));
        debug_assert!(k == 32 || packed >> (2 * k) == 0);
        Kmer { packed, k: k as u8 }
    }

    /// The packed 2-bit representation.
    #[inline(always)]
    pub fn packed(self) -> u64 {
        self.packed
    }

    /// Word length in bases.
    #[inline(always)]
    pub fn k(self) -> usize {
        self.k as usize
    }

    /// The 2-bit code of base `i` (0 = leftmost).
    #[inline(always)]
    pub fn code_at(self, i: usize) -> u8 {
        debug_assert!(i < self.k());
        ((self.packed >> (2 * (self.k() - 1 - i))) & 0b11) as u8
    }

    /// Decode into ASCII bases.
    pub fn bases(self) -> Vec<u8> {
        (0..self.k())
            .map(|i| code_to_base(self.code_at(i)))
            .collect()
    }

    /// Reverse complement of this k-mer.
    ///
    /// Branch-free: complement all 32 2-bit lanes at once (`!`), reverse the
    /// lane order with a shift/mask ladder (swap adjacent pairs, swap
    /// nibbles, then [`u64::swap_bytes`] for the byte level), and shift the
    /// `k` meaningful lanes back down to the LSB end. The complement turns
    /// the zero bits above `2k` into ones, but lane reversal moves exactly
    /// those lanes to the bottom where the final shift discards them.
    #[inline]
    pub fn revcomp(self) -> Self {
        let mut v = !self.packed;
        v = ((v >> 2) & 0x3333_3333_3333_3333) | ((v & 0x3333_3333_3333_3333) << 2);
        v = ((v >> 4) & 0x0F0F_0F0F_0F0F_0F0F) | ((v & 0x0F0F_0F0F_0F0F_0F0F) << 4);
        v = v.swap_bytes();
        Kmer {
            packed: v >> (2 * (32 - self.k())),
            k: self.k,
        }
    }

    /// The lexicographically smaller of this k-mer and its reverse complement.
    pub fn canonical(self) -> Self {
        let rc = self.revcomp();
        if rc.packed < self.packed {
            rc
        } else {
            self
        }
    }

    /// Shift one base onto the right end, dropping the leftmost base:
    /// the successor k-mer in a left-to-right scan.
    #[inline(always)]
    pub fn roll_right(self, code: u8) -> Self {
        let mask = if self.k() == 32 {
            u64::MAX
        } else {
            (1u64 << (2 * self.k())) - 1
        };
        Kmer {
            packed: ((self.packed << 2) | (code & 0b11) as u64) & mask,
            k: self.k,
        }
    }

    /// Shift one base onto the left end, dropping the rightmost base:
    /// the predecessor k-mer.
    #[inline(always)]
    pub fn roll_left(self, code: u8) -> Self {
        Kmer {
            packed: (self.packed >> 2) | (((code & 0b11) as u64) << (2 * (self.k() - 1))),
            k: self.k,
        }
    }

    /// The (k-1)-mer prefix (drops the last base). Requires `k >= 2`.
    pub fn prefix(self) -> Self {
        debug_assert!(self.k() >= 2);
        Kmer {
            packed: self.packed >> 2,
            k: self.k - 1,
        }
    }

    /// The (k-1)-mer suffix (drops the first base). Requires `k >= 2`.
    pub fn suffix(self) -> Self {
        debug_assert!(self.k() >= 2);
        let k1 = self.k() - 1;
        let mask = (1u64 << (2 * k1)) - 1;
        Kmer {
            packed: self.packed & mask,
            k: self.k - 1,
        }
    }
}

impl std::fmt::Debug for Kmer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Kmer({})", String::from_utf8_lossy(&self.bases()))
    }
}

impl std::fmt::Display for Kmer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.k() {
            write!(f, "{}", code_to_base(self.code_at(i)) as char)?;
        }
        Ok(())
    }
}

/// Streaming iterator over all valid k-mers of a byte sequence.
///
/// Windows containing a non-ACGT byte (e.g. `N`) are skipped; the iterator
/// resumes after the offending byte, exactly as Jellyfish and Inchworm do.
/// Yields `(offset, kmer)` pairs where `offset` is the 0-based start of the
/// window in the input.
pub struct KmerIter<'a> {
    seq: &'a [u8],
    k: usize,
    pos: usize,
    current: u64,
    /// Number of consecutive valid bases ending just before `pos`.
    run: usize,
    mask: u64,
}

impl<'a> KmerIter<'a> {
    /// Iterate over the k-mers of `seq`. Returns an error only for bad `k`.
    pub fn new(seq: &'a [u8], k: usize) -> Result<Self> {
        if k == 0 || k > Kmer::MAX_K {
            return Err(Error::InvalidK(k));
        }
        let mask = if k == 32 {
            u64::MAX
        } else {
            (1u64 << (2 * k)) - 1
        };
        Ok(KmerIter {
            seq,
            k,
            pos: 0,
            current: 0,
            run: 0,
            mask,
        })
    }
}

impl<'a> Iterator for KmerIter<'a> {
    type Item = (usize, Kmer);

    fn next(&mut self) -> Option<Self::Item> {
        while self.pos < self.seq.len() {
            let b = self.seq[self.pos];
            self.pos += 1;
            match base_to_code(b) {
                Some(code) => {
                    self.current = ((self.current << 2) | code as u64) & self.mask;
                    self.run += 1;
                    if self.run >= self.k {
                        let offset = self.pos - self.k;
                        return Some((
                            offset,
                            Kmer {
                                packed: self.current,
                                k: self.k as u8,
                            },
                        ));
                    }
                }
                None => {
                    self.run = 0;
                    self.current = 0;
                }
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.seq.len() - self.pos;
        // A remaining byte at index `pos + i` can complete a window only once
        // the valid run reaches length k, i.e. when `run + i + 1 >= k`. The
        // first `k - 1 - run` bytes therefore cannot yield, and each byte
        // after that yields at most one window.
        let needed = (self.k - 1).saturating_sub(self.run);
        (0, Some(remaining.saturating_sub(needed)))
    }
}

/// Incremental forward + reverse-complement canonical roller — the one
/// rolling implementation; [`crate::packed::PackedSeq`]'s iterators drive
/// it over 2-bit words, and [`KmerIter`] + [`Kmer::canonical`] is the naive
/// reference it is tested against.
///
/// Feeding one 2-bit code per base maintains both the forward window
/// (`fwd = ((fwd << 2) | c) & mask`) and its reverse complement
/// (`rc = (rc >> 2) | (comp(c) << 2(k-1))`) in O(1), so the canonical form
/// `min(fwd, rc)` costs a compare instead of the O(k) per-window
/// reconstruction the naive path pays. Callers must [`RollState::reset`]
/// at non-ACGT bytes; the state refuses to emit until `k` consecutive codes
/// have been pushed since the last reset.
#[derive(Clone, Debug)]
pub struct RollState {
    k: u8,
    /// 2*(k-1): where the complement of an incoming base lands in `rc`.
    rc_shift: u8,
    run: u32,
    mask: u64,
    fwd: u64,
    rc: u64,
}

/// One complete window emitted by [`RollState::push`]: the forward word and
/// its reverse complement, both right-aligned in the low `2k` bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rolled {
    /// Forward-strand packed word.
    pub fwd: u64,
    /// Reverse-complement packed word.
    pub rc: u64,
}

impl Rolled {
    /// The canonical (lexicographically smaller) of the two strands.
    #[inline(always)]
    pub fn canonical_packed(self) -> u64 {
        self.fwd.min(self.rc)
    }

    /// True when the forward strand is canonical (ties count as forward).
    #[inline(always)]
    pub fn is_forward(self) -> bool {
        self.fwd <= self.rc
    }
}

impl RollState {
    /// Start an empty roller for window length `k`.
    pub fn new(k: usize) -> Result<Self> {
        if k == 0 || k > Kmer::MAX_K {
            return Err(Error::InvalidK(k));
        }
        let mask = if k == 32 {
            u64::MAX
        } else {
            (1u64 << (2 * k)) - 1
        };
        Ok(RollState {
            k: k as u8,
            rc_shift: (2 * (k - 1)) as u8,
            run: 0,
            mask,
            fwd: 0,
            rc: 0,
        })
    }

    /// Window length.
    #[inline(always)]
    pub fn k(&self) -> usize {
        self.k as usize
    }

    /// Forget all pushed codes (call when a non-ACGT byte breaks the run).
    #[inline(always)]
    pub fn reset(&mut self) {
        self.run = 0;
        self.fwd = 0;
        self.rc = 0;
    }

    /// Push one 2-bit code (must be `< 4`); returns the completed window
    /// once at least `k` codes have been pushed since the last reset.
    #[inline(always)]
    pub fn push(&mut self, code: u8) -> Option<Rolled> {
        debug_assert!(code < 4);
        self.fwd = ((self.fwd << 2) | code as u64) & self.mask;
        self.rc = (self.rc >> 2) | ((complement_code(code) as u64) << self.rc_shift);
        self.run += 1;
        (self.run >= self.k as u32).then_some(Rolled {
            fwd: self.fwd,
            rc: self.rc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trip() {
        for s in [&b"A"[..], b"ACGT", b"TTTTTTTT", b"GATTACA"] {
            let km = Kmer::from_bases(s).unwrap();
            assert_eq!(km.bases(), s.to_vec());
            assert_eq!(km.k(), s.len());
        }
    }

    #[test]
    fn max_k_supported() {
        let s = vec![b'T'; 32];
        let km = Kmer::from_bases(&s).unwrap();
        assert_eq!(km.packed(), u64::MAX);
        assert_eq!(km.bases(), s);
        assert!(Kmer::from_bases(&[b'A'; 33]).is_err());
        assert!(Kmer::from_bases(b"").is_err());
    }

    #[test]
    fn rejects_invalid_bases() {
        assert!(matches!(
            Kmer::from_bases(b"ACNG"),
            Err(Error::InvalidBase(b'N'))
        ));
    }

    #[test]
    fn from_packed_validates_high_bits() {
        assert!(Kmer::from_packed(0b1111, 2).is_ok());
        assert!(Kmer::from_packed(0b1_1111, 2).is_err());
        let km = Kmer::from_packed(u64::MAX, 32).unwrap();
        assert_eq!(km.k(), 32);
    }

    #[test]
    fn ordering_is_lexicographic() {
        let a = Kmer::from_bases(b"AAAC").unwrap();
        let b = Kmer::from_bases(b"AACA").unwrap();
        let c = Kmer::from_bases(b"TTTT").unwrap();
        assert!(a < b && b < c);
    }

    #[test]
    fn revcomp_known_values() {
        let km = Kmer::from_bases(b"ACGT").unwrap();
        assert_eq!(km.revcomp(), km); // palindrome
        let km = Kmer::from_bases(b"AAAA").unwrap();
        assert_eq!(km.revcomp().bases(), b"TTTT");
        let km = Kmer::from_bases(b"GATTACA").unwrap();
        assert_eq!(km.revcomp().bases(), b"TGTAATC");
    }

    #[test]
    fn canonical_is_min() {
        let km = Kmer::from_bases(b"TTTT").unwrap();
        assert_eq!(km.canonical().bases(), b"AAAA");
        let km = Kmer::from_bases(b"AAAA").unwrap();
        assert_eq!(km.canonical().bases(), b"AAAA");
    }

    #[test]
    fn roll_right_matches_window() {
        let seq = b"ACGTACGG";
        let k = 4;
        let mut km = Kmer::from_bases(&seq[..k]).unwrap();
        for i in 1..=seq.len() - k {
            let code = base_to_code(seq[i + k - 1]).unwrap();
            km = km.roll_right(code);
            assert_eq!(km, Kmer::from_bases(&seq[i..i + k]).unwrap());
        }
    }

    #[test]
    fn roll_left_matches_window() {
        let seq = b"ACGTACGG";
        let k = 4;
        let mut km = Kmer::from_bases(&seq[seq.len() - k..]).unwrap();
        for i in (0..seq.len() - k).rev() {
            let code = base_to_code(seq[i]).unwrap();
            km = km.roll_left(code);
            assert_eq!(km, Kmer::from_bases(&seq[i..i + k]).unwrap());
        }
    }

    #[test]
    fn prefix_suffix() {
        let km = Kmer::from_bases(b"ACGT").unwrap();
        assert_eq!(km.prefix().bases(), b"ACG");
        assert_eq!(km.suffix().bases(), b"CGT");
    }

    #[test]
    fn iter_skips_n_runs() {
        let seq = b"ACGTNACGT";
        let kmers: Vec<_> = KmerIter::new(seq, 3).unwrap().collect();
        // Windows: ACG, CGT from first run; ACG, CGT from second.
        assert_eq!(kmers.len(), 4);
        assert_eq!(kmers[0].0, 0);
        assert_eq!(kmers[2].0, 5);
        assert_eq!(kmers[2].1.bases(), b"ACG");
    }

    #[test]
    fn iter_short_sequence_yields_nothing() {
        assert_eq!(KmerIter::new(b"AC", 3).unwrap().count(), 0);
        assert_eq!(KmerIter::new(b"", 3).unwrap().count(), 0);
    }

    #[test]
    fn iter_full_coverage() {
        let seq = b"ACGTACGTAC";
        let k = 5;
        let got: Vec<_> = KmerIter::new(seq, k).unwrap().collect();
        assert_eq!(got.len(), seq.len() - k + 1);
        for (off, km) in got {
            assert_eq!(km.bases(), seq[off..off + k].to_vec());
        }
    }

    #[test]
    fn display_matches_bases() {
        let km = Kmer::from_bases(b"GATTACA").unwrap();
        assert_eq!(km.to_string(), "GATTACA");
        assert_eq!(format!("{km:?}"), "Kmer(GATTACA)");
    }

    /// Per-base reference implementation the bit-twiddled revcomp must match.
    fn naive_revcomp(km: Kmer) -> Kmer {
        let mut packed = 0u64;
        for i in 0..km.k() {
            packed |= (complement_code(km.code_at(i)) as u64) << (2 * i);
        }
        Kmer::from_packed(packed, km.k()).unwrap()
    }

    #[test]
    fn revcomp_matches_naive_reference() {
        // Deterministic pseudo-random words across every k, including the
        // k=32 boundary (shift by zero) and k=1 (garbage fills 62 bits).
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for k in 1..=32usize {
            for _ in 0..64 {
                x = x.wrapping_mul(0xd129_42e4_5bcf_5bd3).rotate_left(23) ^ 0x6a09_e667;
                let packed = if k == 32 {
                    x
                } else {
                    x & ((1u64 << (2 * k)) - 1)
                };
                let km = Kmer::from_packed(packed, k).unwrap();
                assert_eq!(km.revcomp(), naive_revcomp(km), "k={k} packed={packed:#x}");
                assert_eq!(km.revcomp().revcomp(), km, "revcomp is an involution");
            }
        }
    }

    #[test]
    fn roll_state_resets_clear_both_strands() {
        let mut st = RollState::new(2).unwrap();
        assert!(st.push(3).is_none()); // T
        assert_eq!(
            st.push(3).unwrap().canonical_packed(),
            Kmer::from_bases(b"AA").unwrap().packed() // canon(TT) = AA
        );
        st.reset();
        assert!(st.push(0).is_none(), "run restarts after reset");
        let r = st.push(1).unwrap(); // AC
        assert_eq!(r.fwd, Kmer::from_bases(b"AC").unwrap().packed());
        assert_eq!(r.rc, Kmer::from_bases(b"GT").unwrap().packed());
        assert!(r.is_forward());
    }

    #[test]
    fn size_hint_upper_bound_is_tight_and_sound() {
        let cases: [(&[u8], usize); 6] = [
            (b"ACGTACGTAC", 4),
            (b"ACGTNACGT", 3),
            (b"NNNNN", 2),
            (b"ACNGTNACGTACG", 5),
            (b"ACGT", 32),
            (b"A", 1),
        ];
        for (seq, k) in cases {
            let mut it = KmerIter::new(seq, k).unwrap();
            loop {
                let (lo, hi) = it.size_hint();
                let actual = {
                    let probe = KmerIter {
                        seq: it.seq,
                        k: it.k,
                        pos: it.pos,
                        current: it.current,
                        run: it.run,
                        mask: it.mask,
                    };
                    probe.count()
                };
                let hi = hi.expect("upper bound is always known");
                assert!(
                    lo <= actual && actual <= hi,
                    "{seq:?} k={k}: {lo}..{actual}..{hi}"
                );
                if it.next().is_none() {
                    break;
                }
            }
            // Strict-DNA sequences: the bound is exact from the start.
            if seq.iter().all(|&b| base_to_code(b).is_some()) {
                let it = KmerIter::new(seq, k).unwrap();
                assert_eq!(it.size_hint().1.unwrap(), seq.len().saturating_sub(k - 1));
            }
        }
    }
}
