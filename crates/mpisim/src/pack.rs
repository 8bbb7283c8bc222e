//! Payload packing helpers.
//!
//! §III-B of the paper: after loop 1 "the vector of the subsequences are
//! packed into a single sequence for MPI communication", and after loop 2
//! "the integer values for pairing indices are packed into single integer
//! array". These helpers are that packing layer: length-prefixed byte
//! strings and little-endian integer arrays.

use bytes::{Buf, BufMut};

/// Pack a slice of byte strings into one length-prefixed buffer.
pub fn pack_byte_strings<S: AsRef<[u8]>>(items: &[S]) -> Vec<u8> {
    let total: usize = items.iter().map(|s| s.as_ref().len() + 4).sum();
    let mut buf = Vec::with_capacity(total + 4);
    buf.put_u32_le(items.len() as u32);
    for s in items {
        let s = s.as_ref();
        buf.put_u32_le(s.len() as u32);
        buf.put_slice(s);
    }
    buf
}

/// Unpack a buffer produced by [`pack_byte_strings`].
///
/// Returns `None` on any framing violation (truncation, overrun).
pub fn unpack_byte_strings(mut buf: &[u8]) -> Option<Vec<Vec<u8>>> {
    if buf.remaining() < 4 {
        return None;
    }
    let n = buf.get_u32_le() as usize;
    // The count is untrusted: every item costs at least its 4-byte length
    // prefix, so the bytes left bound how many can really follow.
    let mut out = Vec::with_capacity(n.min(buf.remaining() / 4));
    for _ in 0..n {
        if buf.remaining() < 4 {
            return None;
        }
        let len = buf.get_u32_le() as usize;
        if buf.remaining() < len {
            return None;
        }
        out.push(buf[..len].to_vec());
        buf.advance(len);
    }
    if buf.has_remaining() {
        return None; // trailing garbage
    }
    Some(out)
}

/// Pack a `u32` slice little-endian (the loop-2 pairing-index exchange).
pub fn pack_u32s(items: &[u32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(items.len() * 4);
    for &x in items {
        buf.put_u32_le(x);
    }
    buf
}

/// Unpack a buffer produced by [`pack_u32s`]. `None` if not a multiple of 4.
pub fn unpack_u32s(mut buf: &[u8]) -> Option<Vec<u32>> {
    if buf.len() % 4 != 0 {
        return None;
    }
    let mut out = Vec::with_capacity(buf.len() / 4);
    while buf.has_remaining() {
        out.push(buf.get_u32_le());
    }
    Some(out)
}

/// Pack a `u64` slice little-endian.
pub fn pack_u64s(items: &[u64]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(items.len() * 8);
    for &x in items {
        buf.put_u64_le(x);
    }
    buf
}

/// Unpack a buffer produced by [`pack_u64s`]. `None` if not a multiple of 8.
pub fn unpack_u64s(mut buf: &[u8]) -> Option<Vec<u64>> {
    if buf.len() % 8 != 0 {
        return None;
    }
    let mut out = Vec::with_capacity(buf.len() / 8);
    while buf.has_remaining() {
        out.push(buf.get_u64_le());
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_strings_round_trip() {
        let items: Vec<&[u8]> = vec![b"hello", b"", b"ACGT", b"\x00\xff"];
        let buf = pack_byte_strings(&items);
        let back = unpack_byte_strings(&buf).unwrap();
        assert_eq!(back, items.iter().map(|s| s.to_vec()).collect::<Vec<_>>());
    }

    #[test]
    fn empty_list_round_trip() {
        let items: Vec<Vec<u8>> = vec![];
        let buf = pack_byte_strings(&items);
        assert_eq!(unpack_byte_strings(&buf).unwrap(), items);
    }

    #[test]
    fn rejects_truncation() {
        let buf = pack_byte_strings(&[b"hello".as_slice()]);
        assert!(unpack_byte_strings(&buf[..buf.len() - 1]).is_none());
        assert!(unpack_byte_strings(&buf[..3]).is_none());
        assert!(unpack_byte_strings(&[]).is_none());
    }

    #[test]
    fn huge_count_prefix_is_rejected_without_allocating_for_it() {
        // n = u32::MAX on a 4-byte buffer: a framing violation, not a
        // multi-gigabyte reservation.
        assert!(unpack_byte_strings(&u32::MAX.to_le_bytes()).is_none());
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut buf = pack_byte_strings(&[b"x".as_slice()]);
        buf.push(0);
        assert!(unpack_byte_strings(&buf).is_none());
    }

    #[test]
    fn u32_round_trip() {
        let items = vec![0u32, 1, u32::MAX, 42];
        assert_eq!(unpack_u32s(&pack_u32s(&items)).unwrap(), items);
        assert!(unpack_u32s(&[1, 2, 3]).is_none());
        assert_eq!(unpack_u32s(&[]).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn u64_round_trip() {
        let items = vec![0u64, u64::MAX, 7];
        assert_eq!(unpack_u64s(&pack_u64s(&items)).unwrap(), items);
        assert!(unpack_u64s(&[0; 7]).is_none());
    }
}
