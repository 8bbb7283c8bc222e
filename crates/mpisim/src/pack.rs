//! Payload packing helpers.
//!
//! §III-B of the paper: after loop 1 "the vector of the subsequences are
//! packed into a single sequence for MPI communication", and after loop 2
//! "the integer values for pairing indices are packed into single integer
//! array". These helpers are that packing layer: length-prefixed byte
//! strings, and arrays of fixed-width [`Wire`] records — the one
//! little-endian codec every record the ranks exchange or a checkpoint
//! stores goes through.

/// A fixed-width record: `WIDTH` little-endian bytes on the wire. A new
/// message type is one impl; [`pack`] and [`unpack`] carry its arrays.
pub trait Wire: Sized {
    /// Bytes per record.
    const WIDTH: usize;
    /// Append the record's `WIDTH` bytes to `buf`.
    fn put(&self, buf: &mut Vec<u8>);
    /// The record in the first `WIDTH` bytes of `bytes`.
    fn get(bytes: &[u8]) -> Self;
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const WIDTH: usize = std::mem::size_of::<$t>();
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn get(bytes: &[u8]) -> Self {
                <$t>::from_le_bytes(bytes[..Self::WIDTH].try_into().expect("WIDTH bytes"))
            }
        }
    )*};
}

wire_int!(u32, u64);

/// Two `u64` words, high word first (a loop-1 weld).
impl Wire for u128 {
    const WIDTH: usize = 16;
    fn put(&self, buf: &mut Vec<u8>) {
        ((self >> 64) as u64, *self as u64).put(buf);
    }
    fn get(bytes: &[u8]) -> Self {
        let (hi, lo) = <(u64, u64)>::get(bytes);
        (hi as u128) << 64 | lo as u128
    }
}

/// The first field's bytes, then the second's.
impl<A: Wire, B: Wire> Wire for (A, B) {
    const WIDTH: usize = A::WIDTH + B::WIDTH;
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
        self.1.put(buf);
    }
    fn get(bytes: &[u8]) -> Self {
        (A::get(bytes), B::get(&bytes[A::WIDTH..]))
    }
}

/// Pack records back to back, no length prefix.
pub fn pack<T: Wire>(items: &[T]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(items.len() * T::WIDTH);
    for x in items {
        x.put(&mut buf);
    }
    buf
}

/// Inverse of [`pack`]. `None` unless `buf` holds a whole number of
/// records.
pub fn unpack<T: Wire>(buf: &[u8]) -> Option<Vec<T>> {
    let records = buf.chunks_exact(T::WIDTH);
    records
        .remainder()
        .is_empty()
        .then(|| records.map(T::get).collect())
}

/// Split a `u32` off the front of `buf`; `None` if fewer than four bytes
/// are left.
fn take_u32(buf: &mut &[u8]) -> Option<u32> {
    let (head, rest) = buf.split_at_checked(u32::WIDTH)?;
    *buf = rest;
    Some(u32::get(head))
}

/// Pack a slice of byte strings into one length-prefixed buffer.
pub fn pack_byte_strings<S: AsRef<[u8]>>(items: &[S]) -> Vec<u8> {
    let total: usize = items.iter().map(|s| s.as_ref().len() + 4).sum();
    let mut buf = Vec::with_capacity(total + 4);
    (items.len() as u32).put(&mut buf);
    for s in items {
        let s = s.as_ref();
        (s.len() as u32).put(&mut buf);
        buf.extend_from_slice(s);
    }
    buf
}

/// Unpack a buffer produced by [`pack_byte_strings`].
///
/// Returns `None` on any framing violation (truncation, overrun, trailing
/// bytes).
pub fn unpack_byte_strings(mut buf: &[u8]) -> Option<Vec<Vec<u8>>> {
    let n = take_u32(&mut buf)? as usize;
    // The count is untrusted: every item costs at least its 4-byte length
    // prefix, so the bytes left bound how many can really follow.
    let mut out = Vec::with_capacity(n.min(buf.len() / 4));
    for _ in 0..n {
        let len = take_u32(&mut buf)? as usize;
        let (item, rest) = buf.split_at_checked(len)?;
        out.push(item.to_vec());
        buf = rest;
    }
    buf.is_empty().then_some(out)
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
        assert_eq!(unpack::<u32>(&pack(&items)).unwrap(), items);
        assert_eq!(pack(&[0x0403_0201u32]), [1, 2, 3, 4], "little-endian");
        assert!(unpack::<u32>(&[1, 2, 3]).is_none());
        assert_eq!(unpack::<u32>(&[]).unwrap(), Vec::<u32>::new());
    }

    #[test]
    fn u64_round_trip() {
        let items = vec![0u64, u64::MAX, 7];
        assert_eq!(unpack::<u64>(&pack(&items)).unwrap(), items);
        assert!(unpack::<u64>(&[0; 7]).is_none());
    }
}
