//! The DNA alphabet: encoding and complementation.
//!
//! Sequences travel through the pipeline as raw `&[u8]` ASCII. The 2-bit
//! code (`A=0, C=1, G=2, T=3`) defined here is the packing used by
//! [`crate::kmer::Kmer`] and by the FM-index in the `bowtie` crate.

/// The four bases in code order.
pub const BASES: [u8; 4] = [b'A', b'C', b'G', b'T'];

/// Map an ASCII base (case-insensitive) to its 2-bit code.
///
/// Returns `None` for `N` and any other non-ACGT byte.
#[inline(always)]
pub fn base_to_code(b: u8) -> Option<u8> {
    match b {
        b'A' | b'a' => Some(0),
        b'C' | b'c' => Some(1),
        b'G' | b'g' => Some(2),
        b'T' | b't' => Some(3),
        _ => None,
    }
}

/// Map a 2-bit code back to its uppercase ASCII base.
///
/// # Panics
/// Debug-asserts that `code < 4`; in release the low two bits are used.
#[inline(always)]
pub fn code_to_base(code: u8) -> u8 {
    BASES[(code & 0b11) as usize]
}

/// Complement of a 2-bit code (`A<->T`, `C<->G`): bitwise NOT of the low 2 bits.
#[inline(always)]
pub fn complement_code(code: u8) -> u8 {
    (!code) & 0b11
}

/// Complement an ASCII base, preserving unknown bytes (`N -> N`).
#[inline(always)]
pub fn complement_base(b: u8) -> u8 {
    match b {
        b'A' | b'a' => b'T',
        b'C' | b'c' => b'G',
        b'G' | b'g' => b'C',
        b'T' | b't' => b'A',
        other => other,
    }
}

/// Reverse-complement a sequence into a fresh vector.
pub fn revcomp(seq: &[u8]) -> Vec<u8> {
    seq.iter().rev().map(|&b| complement_base(b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for (i, &b) in BASES.iter().enumerate() {
            assert_eq!(base_to_code(b), Some(i as u8));
            assert_eq!(base_to_code(b.to_ascii_lowercase()), Some(i as u8));
            assert_eq!(code_to_base(i as u8), b);
        }
        assert_eq!(base_to_code(b'N'), None);
        assert_eq!(base_to_code(b'-'), None);
    }

    #[test]
    fn complement_code_pairs() {
        assert_eq!(complement_code(0), 3); // A -> T
        assert_eq!(complement_code(3), 0);
        assert_eq!(complement_code(1), 2); // C -> G
        assert_eq!(complement_code(2), 1);
    }

    #[test]
    fn complement_base_preserves_n() {
        assert_eq!(complement_base(b'N'), b'N');
        assert_eq!(complement_base(b'a'), b'T');
    }

    #[test]
    fn revcomp_known() {
        assert_eq!(revcomp(b"ACGT"), b"ACGT".to_vec());
        assert_eq!(revcomp(b"AACC"), b"GGTT".to_vec());
        assert_eq!(revcomp(b""), Vec::<u8>::new());
        assert_eq!(revcomp(b"G"), b"C".to_vec());
    }
}
