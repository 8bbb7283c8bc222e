//! Hash tables specialized for 2-bit packed k-mers.
//!
//! Every k-mer-keyed structure on the Chrysalis hot paths — the Jellyfish
//! counter shards, the GraphFromFasta weld-seed index, the
//! ReadsToTranscripts k-mer→component table, the Inchworm dictionary and the
//! per-component de Bruijn node index — is a map from a packed `u64` k-mer
//! to a small integer. `std::collections::HashMap` serves those loops
//! through SipHash (a keyed cryptographic hash) and a buckets-of-groups
//! layout; Jellyfish's core trick, and the lesson of the extreme-scale
//! assemblers (Georganas et al. 2014, Guidi et al. 2021), is that a table
//! *specialized* for fixed-width integer keys wins big:
//!
//! * **multiplicative hashing** — two multiplies and two shifts mix all 64
//!   key bits; no per-byte loop, no secret key;
//! * **open addressing, linear probing** — one flat array of `(u64, u32)`
//!   slots, no per-entry allocation, cache-line-friendly probes;
//! * **power-of-two capacity** — the probe start is a mask, not a modulo;
//! * **tombstone-free updates** — the pipeline only ever inserts or updates
//!   in its hot loops; deletion (`retain`) rebuilds, which the abundance
//!   filter does once, off the hot path.
//!
//! [`PackedKmerTable`] is the single-threaded table; [`Owners`] partitions
//! the key space for owner-routed builds (owner chosen by the *high* hash
//! bits, slot by the *low* bits, so the two decisions never correlate) and
//! [`PartitionedKmerTable`] is what such a build leaves behind and what
//! every pipeline stage then queries: one table per owner, adopted as
//! built, answering from a single hash per key — no concatenated copy is
//! ever made, and no table is ever written behind a lock.
//! [`PackedWeldSet`] is the table layout over `u128` keys for ≤63-base
//! weld windows.

#![warn(missing_docs)]

pub mod partitioned;
pub mod set;
pub mod table;

pub use partitioned::{Owners, PartitionedKmerTable};
pub use set::PackedWeldSet;
pub use table::PackedKmerTable;

/// Mix all bits of a packed k-mer into a table hash.
///
/// SplitMix64-style finalizer: two odd-constant multiplies with xor-shifts
/// in between. Low bits select the slot, high bits select the shard, so
/// both need full avalanche — a single Fibonacci multiply only randomizes
/// the high bits.
#[inline(always)]
pub fn mix64(key: u64) -> u64 {
    let mut h = key;
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::mix64;

    #[test]
    fn mix64_avalanches_low_bits() {
        // Consecutive packed k-mers (the common scan pattern) must land far
        // apart in both the low (slot) and high (shard) bits.
        let mut low_seen = std::collections::HashSet::new();
        let mut high_seen = std::collections::HashSet::new();
        for k in 0u64..256 {
            let h = mix64(k);
            low_seen.insert(h & 0xFFFF);
            high_seen.insert(h >> 48);
        }
        assert!(low_seen.len() > 250);
        assert!(high_seen.len() > 250);
    }

    #[test]
    fn mix64_is_deterministic() {
        assert_eq!(mix64(12345), mix64(12345));
        assert_ne!(mix64(0), mix64(1));
    }
}
