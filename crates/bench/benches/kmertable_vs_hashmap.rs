//! Head-to-head: std `HashMap` (SipHash) vs the packed open-addressing
//! `kmertable::PackedKmerTable` on the two Chrysalis hot-path shapes it
//! replaced — k-mer counting (build-heavy: one `add` per window) and
//! ReadsToTranscripts assignment (probe-heavy: one `get` per read window) —
//! and, table against table, the lookup of the owner-partitioned form every
//! stage now queries (`kmer_lookup/partitioned`: one hash, top bits → owner,
//! low bits → slot) against the one concatenated table it replaced
//! (`kmer_lookup/merged`).
//!
//! Run with `cargo bench --bench kmertable_vs_hashmap`; a custom `main`
//! writes the measured before/after pairs to `BENCH_kmertable.json` at the
//! workspace root so the speedup claim in DESIGN.md stays reproducible.

use criterion::{black_box, Criterion};
use std::collections::HashMap;

use kmertable::{Owners, PackedKmerTable, PartitionedKmerTable};
use seqio::kmer::KmerIter;
use simulate::datasets::{Dataset, DatasetPreset};

const K: usize = 24;

/// Packed canonical k-mers of every read window, in read order — the key
/// stream both table implementations consume. Extracting it once keeps
/// window decoding and canonicalization (identical work in either
/// implementation) out of the measured region, so the comparison isolates
/// the data structure that this PR swapped.
fn packed_stream() -> Vec<u64> {
    let mut keys = Vec::new();
    for r in Dataset::generate(DatasetPreset::Tiny, 7).all_reads() {
        let Ok(iter) = KmerIter::new(&r.seq, K) else {
            continue;
        };
        for (_, km) in iter {
            keys.push(km.canonical().packed());
        }
    }
    keys
}

fn count_hashmap(keys: &[u64]) -> HashMap<u64, u32> {
    let mut m: HashMap<u64, u32> = HashMap::new();
    for &k in keys {
        *m.entry(k).or_insert(0) += 1;
    }
    m
}

fn count_kmertable(keys: &[u64]) -> PackedKmerTable {
    let mut t = PackedKmerTable::new();
    for &k in keys {
        t.add(k, 1);
    }
    t
}

/// Probe-side workload: the per-window map lookup of
/// `ReadsToTranscripts::assign`'s voting loop.
fn assign_hashmap(keys: &[u64], map: &HashMap<u64, u32>) -> u64 {
    let mut hits = 0u64;
    for k in keys {
        if let Some(&c) = map.get(k) {
            hits += c as u64;
        }
    }
    hits
}

fn assign_kmertable(keys: &[u64], map: &PackedKmerTable) -> u64 {
    sum_hits(keys, |k| map.get(k))
}

/// The same probe loop over the owner-partitioned table.
fn assign_partitioned(keys: &[u64], map: &PartitionedKmerTable) -> u64 {
    sum_hits(keys, |k| map.get(k))
}

#[inline(always)]
fn sum_hits(keys: &[u64], get: impl Fn(u64) -> Option<u32>) -> u64 {
    let mut hits = 0u64;
    for &k in keys {
        if let Some(c) = get(k) {
            hits += c as u64;
        }
    }
    hits
}

/// The counts as an owner-routed build leaves them: one table per owner.
fn count_partitioned(keys: &[u64]) -> PartitionedKmerTable {
    let owners = Owners::new(kcount::routed::OWNERS);
    let mut tables = vec![PackedKmerTable::new(); owners.count()];
    for &k in keys {
        tables[owners.of(k)].add(k, 1);
    }
    PartitionedKmerTable::from_owners(tables)
}

fn bench(c: &mut Criterion) {
    let keys = packed_stream();

    // Same totals from both structures, or the comparison is meaningless.
    let hm = count_hashmap(&keys);
    let kt = count_kmertable(&keys);
    assert_eq!(hm.len(), kt.len());
    assert_eq!(
        hm.values().map(|&v| v as u64).sum::<u64>(),
        kt.iter().map(|(_, v)| v as u64).sum::<u64>()
    );
    assert_eq!(assign_hashmap(&keys, &hm), assign_kmertable(&keys, &kt));

    let mut g = c.benchmark_group("kmer_count");
    g.sample_size(20);
    g.bench_function("hashmap", |b| b.iter(|| black_box(count_hashmap(&keys))));
    g.bench_function("kmertable", |b| {
        b.iter(|| black_box(count_kmertable(&keys)))
    });
    g.finish();

    let mut g = c.benchmark_group("rtt_assign");
    g.sample_size(20);
    g.bench_function("hashmap", |b| {
        b.iter(|| black_box(assign_hashmap(&keys, &hm)))
    });
    g.bench_function("kmertable", |b| {
        b.iter(|| black_box(assign_kmertable(&keys, &kt)))
    });
    g.finish();

    // Every window key (a hit) followed by a scrambled copy (almost surely
    // a miss), against the merged table and its 64-owner partition.
    let probes: Vec<u64> = keys
        .iter()
        .flat_map(|&k| [k, k.rotate_left(21) ^ 0x5555_5555_5555])
        .collect();
    let pt = count_partitioned(&keys);
    assert_eq!(pt.len(), kt.len());
    assert!(probes.iter().all(|&k| pt.get(k) == kt.get(k)));
    let expect = assign_kmertable(&probes, &kt);
    assert_eq!(assign_partitioned(&probes, &pt), expect);
    assert!(
        expect < 2 * assign_kmertable(&keys, &kt),
        "scrambled keys miss"
    );
    let mut g = c.benchmark_group("kmer_lookup");
    g.sample_size(20);
    g.bench_function("merged", |b| {
        b.iter(|| black_box(assign_kmertable(&probes, &kt)))
    });
    g.bench_function("partitioned", |b| {
        b.iter(|| black_box(assign_partitioned(&probes, &pt)))
    });
    g.finish();
}

fn main() {
    let mut criterion = Criterion::default();
    bench(&mut criterion);

    // Persist before/after pairs. Under `cargo test` the harness runs in
    // smoke mode and every report is 0.0 s — skip writing in that case so a
    // test run never clobbers real measurements.
    let reports = criterion.reports();
    if reports.iter().any(|r| r.seconds == 0.0) {
        return;
    }
    let second_of = |id: &str| {
        reports
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.seconds)
            .unwrap_or(f64::NAN)
    };
    let pairs = [
        ("kmer_count", "hashmap", "kmertable"),
        ("rtt_assign", "hashmap", "kmertable"),
        ("kmer_lookup", "merged", "partitioned"),
    ];
    let workloads: Vec<bench::benchjson::Workload> = pairs
        .iter()
        .map(|(group, baseline, candidate)| bench::benchjson::Workload {
            name: group.to_string(),
            baseline_ns: second_of(&format!("{group}/{baseline}")) * 1e9,
            candidate_ns: second_of(&format!("{group}/{candidate}")) * 1e9,
        })
        .collect();
    bench::benchjson::write(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kmertable.json"),
        "kmertable",
        K,
        &workloads,
    );
}
