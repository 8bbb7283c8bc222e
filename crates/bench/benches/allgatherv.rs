//! Microbench: the MPI substrate's collectives (the loop-1 string pooling
//! vs loop-2 integer pooling volume difference).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use mpisim::pack::{pack, pack_byte_strings};
use mpisim::{run_cluster, NetModel};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("mpisim");
    g.sample_size(10);
    for &ranks in &[2usize, 8, 32] {
        g.bench_with_input(
            BenchmarkId::new("allgatherv_strings", ranks),
            &ranks,
            |b, &ranks| {
                b.iter(|| {
                    black_box(run_cluster(ranks, NetModel::idataplex(), |comm| {
                        let welds: Vec<Vec<u8>> =
                            (0..64).map(|i| vec![b'A' + (i % 4) as u8; 48]).collect();
                        let packed = pack_byte_strings(&welds);
                        comm.allgatherv(&packed).len()
                    }))
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("allgatherv_u32s", ranks),
            &ranks,
            |b, &ranks| {
                b.iter(|| {
                    black_box(run_cluster(ranks, NetModel::idataplex(), |comm| {
                        let pairs: Vec<u32> = (0..128).collect();
                        comm.allgatherv(&pack(&pairs)).len()
                    }))
                })
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
