//! Property test: the owner-routed count must equal a `HashMap` reference
//! whatever the owner count, the worker count and the round size, on reads
//! with `N`s, reads shorter than k, empty reads and empty input, canonical
//! or not.

use std::collections::HashMap;

use kcount::counter::{count_kmers_on, CounterConfig};
use omp::{Pool, Team};
use proptest::prelude::*;
use seqio::packed::PackedSeq;

/// A pool whose rounds are `round` batches long instead of one batch per
/// worker: the result of a routed build must not depend on it.
struct Rounds {
    pool: Pool,
    round: usize,
}

impl Team for Rounds {
    fn threads(&self) -> usize {
        self.round
    }

    fn map<T: Sync, R: Send>(&mut self, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        Team::map(&mut self.pool, items, f)
    }

    fn ordered(
        &mut self,
        window: usize,
        take: &mut (dyn FnMut() -> bool + Send),
        work: &(dyn Fn(usize) + Sync),
        commit: &mut (dyn FnMut(usize) + Send),
    ) {
        self.pool.ordered(window, take, work, commit)
    }
}

fn count_by_hashmap(reads: &[PackedSeq], cfg: CounterConfig) -> HashMap<u64, u32> {
    let mut model = HashMap::new();
    for read in reads {
        let windows = read.kmers(cfg.k).into_iter().flatten();
        for (_, km) in windows {
            let km = if cfg.canonical { km.canonical() } else { km };
            *model.entry(km.packed()).or_insert(0) += 1;
        }
    }
    model
}

/// Reads over a 2-letter-heavy alphabet (so k-mers repeat), some with `N`
/// runs, some shorter than any k used, some empty; enough of them to span
/// several 256-read batches.
fn reads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let base = prop_oneof![
        Just(b'A'),
        Just(b'A'),
        Just(b'C'),
        Just(b'C'),
        Just(b'G'),
        Just(b'T'),
        Just(b'N')
    ];
    let read = prop_oneof![
        proptest::collection::vec(base, 0..40),
        Just(Vec::new()),
        Just(b"TTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTTT".to_vec()),
    ];
    prop_oneof![proptest::collection::vec(read, 0..900), Just(Vec::new()),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn routed_count_matches_hashmap(
        reads in reads(),
        k in prop_oneof![Just(5usize), Just(11), Just(32)],
        canonical in any::<bool>(),
    ) {
        let packed: Vec<PackedSeq> = reads.iter().map(|r| PackedSeq::from_bytes(r)).collect();
        let base = CounterConfig { k, canonical, threads: 1, shards: 1 };
        let model = count_by_hashmap(&packed, base);
        for shards in [1usize, 2, 8, 64] {
            for workers in [1usize, 3] {
                for round in [1usize, usize::MAX] {
                    let cfg = CounterConfig { threads: workers, shards, ..base };
                    let mut team = Rounds { pool: Pool::new(workers), round };
                    let routed = count_kmers_on(&packed, cfg, &mut team);
                    prop_assert_eq!(routed.len(), model.len(),
                        "owners {} workers {} round {}", shards, workers, round);
                    for (&key, &n) in &model {
                        prop_assert_eq!(routed.get_packed(key), n);
                    }
                    // The error filter is a loop over owners on the same team.
                    let mut filtered = routed;
                    let removed = filtered.retain_min_on(2, &mut team);
                    prop_assert_eq!(removed, model.values().filter(|&&n| n < 2).count());
                    prop_assert_eq!(filtered.len(), model.len() - removed);
                    prop_assert!(filtered.iter_packed().all(|(key, n)| n >= 2 && model[&key] == n));
                }
            }
        }
    }
}
