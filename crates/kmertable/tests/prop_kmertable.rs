//! Property tests: [`PackedKmerTable`] and [`PartitionedKmerTable`] must
//! match a `std::collections::HashMap` reference model on random
//! packed-k-mer workloads — the correctness contract for swapping the
//! table into every Chrysalis hot path.

use std::collections::{HashMap, HashSet};

use kmertable::{Owners, PackedKmerTable, PackedWeldSet, PartitionedKmerTable};
use proptest::prelude::*;

/// Random packed k-mers biased toward collisions: a small key universe
/// exercises the update paths, full-range keys exercise probing.
fn keys() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        prop_oneof![0u64..32, any::<u64>(), Just(u64::MAX), Just(0u64)],
        0..300,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn add_matches_hashmap_counts(ks in keys()) {
        let mut table = PackedKmerTable::new();
        let mut model: HashMap<u64, u32> = HashMap::new();
        for &k in &ks {
            table.add(k, 1);
            *model.entry(k).or_insert(0) += 1;
        }
        prop_assert_eq!(table.len(), model.len());
        for (&k, &v) in &model {
            prop_assert_eq!(table.get(k), Some(v));
        }
        let mut dumped: Vec<_> = table.iter().collect();
        dumped.sort_unstable();
        let mut want: Vec<_> = model.iter().map(|(&k, &v)| (k, v)).collect();
        want.sort_unstable();
        prop_assert_eq!(dumped, want);
    }

    #[test]
    fn insert_matches_hashmap_replace(pairs in proptest::collection::vec(
        (0u64..64, any::<u32>()), 0..200))
    {
        let mut table = PackedKmerTable::new();
        let mut model: HashMap<u64, u32> = HashMap::new();
        for &(k, v) in &pairs {
            prop_assert_eq!(table.insert(k, v), model.insert(k, v));
        }
        for (&k, &v) in &model {
            prop_assert_eq!(table.get(k), Some(v));
        }
    }

    #[test]
    fn get_or_insert_matches_entry_or_insert(pairs in proptest::collection::vec(
        (0u64..48, any::<u32>()), 0..200))
    {
        let mut table = PackedKmerTable::new();
        let mut model: HashMap<u64, u32> = HashMap::new();
        for &(k, v) in &pairs {
            let got = table.get_or_insert(k, v);
            let want = *model.entry(k).or_insert(v);
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn update_min_matches_model(pairs in proptest::collection::vec(
        (0u64..48, any::<u32>()), 0..200))
    {
        let mut table = PackedKmerTable::new();
        let mut model: HashMap<u64, u32> = HashMap::new();
        for &(k, v) in &pairs {
            table.update_min(k, v);
            model
                .entry(k)
                .and_modify(|cur| *cur = (*cur).min(v))
                .or_insert(v);
        }
        for (&k, &v) in &model {
            prop_assert_eq!(table.get(k), Some(v));
        }
    }

    #[test]
    fn retain_matches_hashmap_retain(ks in keys(), cutoff in 1u32..5) {
        let mut table = PackedKmerTable::new();
        let mut model: HashMap<u64, u32> = HashMap::new();
        for &k in &ks {
            table.add(k, 1);
            *model.entry(k).or_insert(0) += 1;
        }
        table.retain(|_, v| v >= cutoff);
        model.retain(|_, v| *v >= cutoff);
        prop_assert_eq!(table.len(), model.len());
        for (&k, &v) in &model {
            prop_assert_eq!(table.get(k), Some(v));
        }
        // The rebuilt table still accepts inserts correctly.
        for &k in ks.iter().take(10) {
            table.add(k, 1);
            *model.entry(k).or_insert(0) += 1;
            prop_assert_eq!(table.get(k), model.get(&k).copied());
        }
    }

    /// The partitioned table answers like the one merged table and like a
    /// `HashMap`, whatever the owner count: dense keys leave most of 64
    /// owners empty, the full-range run grows some owners past a doubling.
    #[test]
    fn partitioned_matches_merged_and_hashmap(
        ks in keys(),
        run_start in any::<u64>(),
        run_len in 0u64..600,
        cutoff in 1u32..4,
    ) {
        let run = (0..run_len).map(|i| run_start.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let all: Vec<u64> = ks.iter().copied().chain(run).collect();
        let mut model: HashMap<u64, u32> = HashMap::new();
        let mut merged = PackedKmerTable::new();
        for &k in &all {
            *model.entry(k).or_insert(0) += 1;
            merged.add(k, 1);
        }
        let misses = (0..40u64).map(|i| i.wrapping_mul(0xD6E8_FEB8_6659_FD93) | 1 << 40);
        let probes: Vec<u64> = all.iter().copied().chain(misses).collect();
        for owners in [1usize, 2, 8, 64] {
            let partition = Owners::new(owners);
            let mut tables = vec![PackedKmerTable::new(); owners];
            for &k in &all {
                tables[partition.of(k)].add(k, 1);
            }
            let mut table = PartitionedKmerTable::from_owners(tables);
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.is_empty(), model.is_empty());

            // get / find: values as the model's, slots distinct and in range.
            let mut slots = HashSet::new();
            for &k in &probes {
                let want = model.get(&k).copied();
                prop_assert_eq!(table.get(k), want);
                prop_assert_eq!(merged.get(k), want);
                prop_assert_eq!(table.find(k).map(|(_, v)| v), want);
                if let Some((slot, _)) = table.find(k) {
                    prop_assert!(slot < table.slots());
                    slots.insert(slot);
                }
            }
            prop_assert_eq!(slots.len(), model.len(), "one global slot per key");

            // iter as a multiset; iter_slots agrees with find.
            let mut dumped: Vec<_> = table.iter().collect();
            dumped.sort_unstable();
            let mut want: Vec<_> = model.iter().map(|(&k, &v)| (k, v)).collect();
            want.sort_unstable();
            prop_assert_eq!(&dumped, &want);
            for (slot, k, v) in table.iter_slots() {
                prop_assert_eq!(table.find(k), Some((slot, v)));
            }

            // find_each: four keys spread over the owners, then four keys
            // of one owner (hits and misses both).
            for quad in probes.chunks_exact(4) {
                let quad = [quad[0], quad[1], quad[2], quad[3]];
                prop_assert_eq!(table.find_each(quad), quad.map(|k| table.find(k)));
            }
            let first_owner = probes.first().map_or(0, |&k| partition.of(k));
            let same: Vec<u64> = probes.iter().copied().filter(|&k| partition.of(k) == first_owner).collect();
            for quad in same.chunks_exact(4) {
                let quad = [quad[0], quad[1], quad[2], quad[3]];
                prop_assert_eq!(table.find_each(quad), quad.map(|k| table.find(k)));
            }

            // Per-owner retain, then the same contract again.
            table.update_owners(|tables| {
                for t in tables {
                    t.retain(|_, v| v >= cutoff);
                }
            });
            let kept: HashMap<u64, u32> = model.iter().map(|(&k, &v)| (k, v)).filter(|&(_, v)| v >= cutoff).collect();
            prop_assert_eq!(table.len(), kept.len());
            let mut slots = HashSet::new();
            for &k in &probes {
                prop_assert_eq!(table.get(k), kept.get(&k).copied());
                if let Some((slot, _)) = table.find(k) {
                    prop_assert!(slot < table.slots());
                    slots.insert(slot);
                }
            }
            prop_assert_eq!(slots.len(), kept.len());
        }
    }

    #[test]
    fn weld_set_matches_hashset(ks in proptest::collection::vec(
        prop_oneof![
            (0u64..64).prop_map(|x| x as u128),
            (any::<u64>(), any::<u64>())
                .prop_map(|(hi, lo)| ((hi as u128) << 64 | lo as u128) & ((1u128 << 126) - 1)),
        ],
        0..300))
    {
        let mut set = PackedWeldSet::new();
        let mut model = HashSet::new();
        for &k in &ks {
            prop_assert_eq!(set.insert(k), model.insert(k));
        }
        prop_assert_eq!(set.len(), model.len());
        for &k in &ks {
            prop_assert!(set.contains(k));
        }
    }
}
