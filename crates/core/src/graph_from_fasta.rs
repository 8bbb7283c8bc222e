//! GraphFromFasta: the hybrid MPI+OpenMP rank program; the shared-memory
//! baseline is that program on one rank.

use kcount::counter::KmerCounts;
use seqio::packed::PackedSeq;

use graph::unionfind::UnionFind;
use mpisim::comm::Comm;
use mpisim::pack::{pack, pack_byte_strings, unpack, unpack_byte_strings, Wire};
use mpisim::{run_cluster, NetModel};
use omp::makespan::CostedTeam;
use omp::schedule::{chunk_sequence, chunked_round_robin};
use omp::Team;

use crate::config::ChrysalisConfig;
use crate::pairs::{match_contig, pairs_from_matches, WeldKmerIndex};
use crate::timings::GffTimings;
use crate::weld::{decode_weld, harvest_contig, KmerContigMap, WeldSupport};
use crate::{no_args, rank_region};

/// Read-only state every rank needs: the contig set, the seed-occurrence
/// map and the read k-mer table (support oracle). Built once and shared;
/// `prep_cost` — the virtual time of the seed map's owner-routed build, a
/// region on a team of the configured threads — is charged to each rank's
/// clock as if it had built its own copy (see crate-level notes). The read
/// k-mer table is produced by the Jellyfish stage and only *consumed* here.
pub struct GffShared {
    /// The Inchworm contigs, 2-bit packed once at stage entry — every
    /// harvest/match loop iterates the packed form directly.
    pub contigs: Vec<PackedSeq>,
    /// Canonical (k−1)-mer → occurrence map.
    pub kmap: KmerContigMap,
    /// Read k-mer counts (the weld-support oracle).
    pub counts: KmerCounts,
    /// Virtual cost of building the seed map with the configured threads:
    /// the build's region charge, its loops' makespan plus its wall time
    /// outside them (the routing rounds' code between loops).
    pub prep_cost: f64,
    /// Stage configuration.
    pub cfg: ChrysalisConfig,
}

impl GffShared {
    /// Build the replicated state from pre-packed contigs. `counts` is the
    /// Jellyfish read-k-mer table at the same `k` as `cfg.k`.
    pub fn prepare(contigs: Vec<PackedSeq>, counts: KmerCounts, cfg: ChrysalisConfig) -> Self {
        assert_eq!(counts.k(), cfg.k, "read k-mer table must use the stage's k");
        assert!(
            cfg.weld_len() <= 63,
            "a {}-base weld (k = {}) does not fit a packed u128 window",
            cfg.weld_len(),
            cfg.k
        );
        let mut team = CostedTeam::new(cfg.threads, cfg.schedule);
        let (kmap, cost) = team.region(|team| KmerContigMap::build_routed(&contigs, cfg.k, team));
        GffShared {
            contigs,
            kmap,
            counts,
            prep_cost: cost.charge(),
            cfg,
        }
    }

    fn support(&self) -> WeldSupport<'_> {
        WeldSupport::new(&self.counts)
    }
}

/// GraphFromFasta's result: pooled welds, contig pairs and the component
/// clustering (identical on every rank).
#[derive(Debug, Clone, PartialEq)]
pub struct GffOutput {
    /// Pooled, deduplicated welds in rank order (ASCII: the checkpoint
    /// payload, decoded once at the end of the rank program).
    pub welds: Vec<Vec<u8>>,
    /// Welded contig pairs (`a < b`, sorted).
    pub pairs: Vec<(u32, u32)>,
    /// Component id per contig.
    pub component_of: Vec<usize>,
    /// Contig indices per component.
    pub components: Vec<Vec<usize>>,
    /// This rank's phase timings (derived from the span trace).
    pub timings: GffTimings,
    /// Span trace of the stage. A rank program records on [`Comm::obs`]
    /// and leaves this empty — its spans travel out via
    /// `mpisim::RankOutput::trace`; [`gff_shared_memory`] moves its one
    /// rank's trace here (track 0, per-thread busy/idle lanes at
    /// [`obs::THREAD_TRACK_BASE`]` + t`).
    pub trace: obs::Trace,
}

/// Cluster contigs from welded pairs with union-find.
pub fn cluster(n_contigs: usize, pairs: &[(u32, u32)]) -> (Vec<usize>, Vec<Vec<usize>>) {
    let mut uf = UnionFind::new(n_contigs);
    for &(a, b) in pairs {
        uf.union(a as usize, b as usize);
    }
    uf.into_components()
}

/// Shared-memory (OpenMP-only) GraphFromFasta: the paper's baseline, "run
/// with 16 threads on one node" — [`gff_hybrid`] on a one-rank cluster
/// over a free network, with the rank's span trace (clock from t = 0,
/// `"gff.total"` root on track 0) moved into [`GffOutput::trace`].
///
/// Call it from outside rank programs only: the rank runs on the calling
/// thread and takes the process-wide measurement lock, which is not
/// re-entrant.
pub fn gff_shared_memory(shared: &GffShared) -> GffOutput {
    let mut rank0 = run_cluster(1, NetModel::ideal(), |comm| gff_hybrid(comm, shared)).remove(0);
    rank0.value.trace = rank0.trace;
    rank0.value
}

/// How a hybrid loop's contigs reach the ranks.
#[derive(Clone, Copy)]
enum Partition {
    /// §III-B: static chunked round-robin; each rank runs the chunks
    /// [`rank_items`] gives it.
    ChunkedRoundRobin,
    /// §V-A's future work: a master work-queue deals the next chunk to
    /// whichever rank is idle first ([`master_dealt`]).
    MasterDealt,
}

/// The items of one rank's chunked-round-robin share, flattened.
fn rank_items(n: usize, rank: usize, size: usize, chunk: usize) -> Vec<u32> {
    let groups = chunked_round_robin(n, size, chunk);
    groups[rank]
        .iter()
        .flat_map(|c| c.start as u32..c.end as u32)
        .collect()
}

/// Deal latency of the master work-queue: one request + one response per
/// chunk (2 point-to-point latencies under the α model).
fn deal_cost(net: &mpisim::NetModel) -> f64 {
    2.0 * net.p2p(16)
}

/// Greedy replay of master-dealt dynamic chunk distribution: chunk `i` goes
/// to the rank that becomes idle first (ties to the lowest rank), paying
/// `deal` seconds of master-queue latency per chunk. Returns per-rank busy
/// times and the chunk→rank assignment.
pub fn dynamic_deal(chunk_costs: &[f64], ranks: usize, deal: f64) -> (Vec<f64>, Vec<usize>) {
    let mut busy = vec![0.0f64; ranks.max(1)];
    let mut owner = Vec::with_capacity(chunk_costs.len());
    for &c in chunk_costs {
        let mut best = 0;
        for r in 1..busy.len() {
            if busy[r] < busy[best] {
                best = r;
            }
        }
        busy[best] += c + deal;
        owner.push(best);
    }
    (busy, owner)
}

/// This rank's share of one loop under [`Partition::MasterDealt`]: the
/// outputs of the chunks dealt to it and the busy seconds to charge.
///
/// Simulation note: the modeled system computes each chunk on the rank the
/// queue deals it to. To replay the dealing protocol deterministically the
/// master executes and measures (`run`: the chunk's outputs and cost)
/// every chunk once and ships costs and packed outputs over the uncharged [`Comm::transport_bcast`]; each
/// rank then takes the chunks and the busy time — per-chunk queue latency
/// included — that [`dynamic_deal`] assigns it.
fn master_dealt<R: Wire>(
    comm: &mut Comm,
    n: usize,
    chunk: usize,
    run: impl Fn(&[u32]) -> (Vec<R>, f64),
) -> (Vec<R>, f64) {
    let (rank, size) = (comm.rank(), comm.size());
    let payload = comm.transport_bcast(0, || {
        let mut costs = Vec::new();
        let mut parts = Vec::new();
        for c in chunk_sequence(n, chunk) {
            let ids: Vec<u32> = (c.start as u32..c.end as u32).collect();
            let (outputs, cost) = run(&ids);
            costs.push(cost.to_bits());
            parts.push(pack(&outputs));
        }
        parts.push(pack(&costs));
        pack_byte_strings(&parts)
    });
    let mut parts = unpack_byte_strings(&payload).expect("root sent chunk payloads");
    let costs: Vec<f64> = unpack::<u64>(&parts.pop().expect("root sent chunk costs last"))
        .expect("whole u64s")
        .into_iter()
        .map(f64::from_bits)
        .collect();
    let (busy, owner) = dynamic_deal(&costs, size, deal_cost(&comm.net));
    let mine = owner
        .iter()
        .zip(&parts)
        .filter(|(&o, _)| o == rank)
        .flat_map(|(_, p)| unpack(p).expect("root sent whole records"))
        .collect();
    (mine, busy[rank])
}

/// One pooled hybrid loop (§III-B): distribute the contigs over the ranks,
/// run `item` on this rank's share as a region on its team (span
/// `loop_name`), and pool every rank's packed outputs with
/// `MPI_Allgatherv` under span `comm_name`. Returns the pooled outputs in
/// rank order — identical on every rank.
fn pooled_loop<R: Wire + Send>(
    comm: &mut Comm,
    shared: &GffShared,
    partition: Partition,
    [loop_name, comm_name]: [&str; 2],
    item: impl Fn(u32) -> Vec<R> + Sync,
) -> Vec<R> {
    let cfg = &shared.cfg;
    let n = shared.contigs.len();
    let chunk = cfg.chunk_size(n, comm.size());
    let on_team = |team: &mut CostedTeam, ids: &[u32]| -> Vec<R> {
        team.map(ids, |&i| item(i)).into_iter().flatten().collect()
    };
    let mine = match partition {
        Partition::ChunkedRoundRobin => {
            let ids = rank_items(n, comm.rank(), comm.size(), chunk);
            let items = |_: &_| vec![("items", ids.len() as f64)];
            rank_region(comm, cfg, ["compute", loop_name], items, |team| {
                on_team(team, &ids)
            })
        }
        Partition::MasterDealt => {
            // Each chunk is a region on its own team, as the rank it is
            // dealt to runs it.
            let run = |ids: &[u32]| {
                let mut team = CostedTeam::new(cfg.threads, cfg.schedule);
                let (outputs, cost) = team.region(|team| on_team(team, ids));
                (outputs, cost.charge())
            };
            let dealt = master_dealt(comm, n, chunk, run);
            comm.charge_costed("compute", loop_name, &[], || dealt)
        }
    };
    let t_before = comm.clock.now();
    let parts = comm.allgatherv(&pack(&mine));
    comm.obs
        .record(comm.track(), "comm", comm_name, t_before, comm.clock.now());
    let whole = |p: &Vec<u8>| unpack(p).expect("peer sent whole records");
    parts.iter().flat_map(whole).collect()
}

/// Hybrid MPI+OpenMP GraphFromFasta — one rank's program (§III-B).
///
/// Run it under [`mpisim::run_cluster`]; every rank returns the same
/// welds/pairs/components, with its own timings.
pub fn gff_hybrid(comm: &mut Comm, shared: &GffShared) -> GffOutput {
    gff_rank_program(comm, shared, Partition::ChunkedRoundRobin)
}

/// [`gff_hybrid`] with **dynamic rank-level partitioning** — the paper's
/// stated future work (§V-A): the same rank program with both loops'
/// chunks master-dealt instead of statically owned. Outputs are identical
/// to [`gff_hybrid`] up to weld order; only the load balance differs.
pub fn gff_hybrid_dynamic(comm: &mut Comm, shared: &GffShared) -> GffOutput {
    gff_rank_program(comm, shared, Partition::MasterDealt)
}

fn gff_rank_program(comm: &mut Comm, shared: &GffShared, partition: Partition) -> GffOutput {
    let cfg = &shared.cfg;
    let support = shared.support();
    let track = comm.track();
    let start = comm.clock.now();

    // Replicated seed-map build (each rank pays for its own parallel copy).
    comm.charge_costed("compute", "gff.prep", &[], || ((), shared.prep_cost));

    // Loop 1: weld harvest, pooled as fixed-width packed words.
    let pooled = pooled_loop(comm, shared, partition, ["gff.loop1", "gff.comm1"], |i| {
        harvest_contig(i, &shared.contigs, &shared.kmap, &support, cfg)
    });

    // Weld k-mer index: the one dedup of the pool, then an owner-routed
    // build — a parallel region on the rank's team, replicated on every
    // rank.
    let weld_index = rank_region(comm, cfg, ["compute", "gff.weld_index"], no_args, |team| {
        WeldKmerIndex::build_on(&pooled, cfg.weld_len(), cfg.k, team)
    });
    drop(pooled);

    // Loop 2: weld matching over the same distribution, pooled as packed
    // integers.
    let matches = pooled_loop(comm, shared, partition, ["gff.loop2", "gff.comm2"], |i| {
        match_contig(i, &shared.contigs, &weld_index)
    });

    // Clustering + output generation: non-parallel, on every rank (the
    // pooled matches are identical everywhere). The distinct welds leave
    // 2-bit space here, once: the ASCII list is the checkpoint payload.
    let name = ["compute", "gff.cluster"];
    let (welds, pairs, component_of, components) = rank_region(comm, cfg, name, no_args, |_| {
        let pairs = pairs_from_matches(&matches);
        let (component_of, components) = cluster(shared.contigs.len(), &pairs);
        let ascii = |&w: &u128| decode_weld(w, cfg.weld_len());
        let welds = weld_index.welds().iter().map(ascii).collect();
        (welds, pairs, component_of, components)
    });
    comm.barrier();

    // Everything that is not the parallel prep, a hybrid loop or an
    // exchange counts as "non-parallel" — the paper's definition (weld
    // k-mer setup + final output generation + closing sync). The residual
    // is computed from the named spans by `GffTimings::from_trace`.
    comm.obs
        .record(track, "stage", "gff.total", start, comm.clock.now());
    GffOutput {
        welds,
        pairs,
        component_of,
        components,
        timings: comm
            .obs
            .with_trace(|trace| GffTimings::from_trace(trace, track)),
        trace: obs::Trace::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcount::counter::{count_kmers, CounterConfig};
    use mpisim::{run_cluster, NetModel};
    use seqio::fasta::Record;
    use std::sync::Arc;

    fn rec(id: &str, seq: &[u8]) -> Record {
        Record::new(id, seq.to_vec())
    }

    const K: usize = 8;
    const SEED: &[u8] = b"GGATACT";
    const A_LEFT: &[u8] = b"CGAGTCGGTTAT";
    const B_RIGHT: &[u8] = b"GTGAAGTGTTCC";

    /// Contigs a and b meet at a read-supported junction; c is isolated.
    fn fixtures() -> GffShared {
        let a = [A_LEFT, SEED, b"CTTCGGCAAGTC".as_slice()].concat();
        let b = [b"AAAGCGGCACTT".as_slice(), SEED, B_RIGHT].concat();
        let c = b"TGTTCGCGTGGTGCTGAGACAAAGCACGCCAT".to_vec();
        let contigs = vec![rec("a", &a), rec("b", &b), rec("c", &c)];
        // Reads: the contigs themselves plus the junction window, so every
        // weldmer k-mer is covered.
        let junction = [&A_LEFT[A_LEFT.len() - K / 2..], SEED, &B_RIGHT[..K / 2]].concat();
        let reads = vec![a.clone(), b.clone(), c.clone(), junction];
        let counts = count_kmers(&reads, CounterConfig::new(K));
        GffShared::prepare(
            seqio::packed::encode_all(&contigs),
            counts,
            ChrysalisConfig::small(K),
        )
    }

    #[test]
    fn shared_memory_welds_related_contigs() {
        let out = gff_shared_memory(&fixtures());
        assert!(!out.welds.is_empty());
        assert!(out.pairs.contains(&(0, 1)), "pairs: {:?}", out.pairs);
        assert_eq!(out.component_of[0], out.component_of[1]);
        assert_ne!(out.component_of[0], out.component_of[2]);
        assert!(out.timings.total > 0.0);
    }

    /// The `fixtures` shape at any `k`: two pseudo-random contigs sharing
    /// one (k−1)-base seed, and reads covering both and the junction.
    fn junction_fixture(k: usize) -> GffShared {
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ k as u64;
        let mut bases = |n: usize| -> Vec<u8> {
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                b"ACGT"[(state >> 33) as usize % 4]
            };
            (0..n).map(|_| next()).collect()
        };
        let seed = bases(k - 1);
        let (a_left, b_right) = (bases(k), bases(k));
        let a = [&a_left[..], &seed, &bases(k)].concat();
        let b = [&bases(k)[..], &seed, &b_right].concat();
        let junction = [&a_left[k - k / 2..], &seed, &b_right[..k / 2]].concat();
        let counts = count_kmers(&[a.clone(), b.clone(), junction], CounterConfig::new(k));
        let contigs = seqio::packed::encode_all(&[a, b]);
        GffShared::prepare(contigs, counts, ChrysalisConfig::small(k))
    }

    #[test]
    fn every_output_weld_has_weld_len_bases() {
        // Even and odd k, and the largest a u128 window holds (63 bases).
        for (k, weld_len) in [(8, 15), (24, 47), (25, 48), (32, 63)] {
            let shared = junction_fixture(k);
            assert_eq!(shared.cfg.weld_len(), weld_len, "k={k}");
            let out = gff_shared_memory(&shared);
            assert!(!out.welds.is_empty(), "k={k}: junction harvested");
            assert!(out.welds.iter().all(|w| w.len() == weld_len), "k={k}");
            assert_eq!(out.pairs, vec![(0, 1)], "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "does not fit a packed u128 window")]
    fn a_weld_longer_than_the_packed_window_is_rejected() {
        // k = 33 still has a seed that fits a u64, but its weld is 64 bases.
        let cfg = ChrysalisConfig::small(33);
        GffShared::prepare(vec![], KmerCounts::empty(33), cfg);
    }

    #[test]
    fn hybrid_matches_shared_memory_output() {
        let shared = Arc::new(fixtures());
        let serial = gff_shared_memory(&shared);
        for ranks in [1usize, 2, 3, 5] {
            let sh = Arc::clone(&shared);
            let outs = run_cluster(ranks, NetModel::ideal(), move |comm| gff_hybrid(comm, &sh));
            for o in &outs {
                assert_eq!(o.value.pairs, serial.pairs, "ranks={ranks}");
                assert_eq!(o.value.component_of, serial.component_of);
                let mut a = o.value.welds.clone();
                let mut b = serial.welds.clone();
                a.sort();
                b.sort();
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn hybrid_ranks_agree_with_each_other() {
        let shared = Arc::new(fixtures());
        let outs = run_cluster(4, NetModel::ideal(), move |comm| gff_hybrid(comm, &shared));
        for o in &outs[1..] {
            assert_eq!(o.value.pairs, outs[0].value.pairs);
            assert_eq!(o.value.component_of, outs[0].value.component_of);
        }
    }

    #[test]
    fn hybrid_timings_are_consistent() {
        let shared = Arc::new(fixtures());
        let prep = shared.prep_cost;
        let outs = run_cluster(2, NetModel::idataplex(), move |comm| {
            gff_hybrid(comm, &shared)
        });
        for o in &outs {
            let t = o.value.timings;
            assert!(t.total > 0.0);
            assert!(t.loop1 >= 0.0 && t.loop2 >= 0.0 && t.serial >= 0.0);
            let parts = prep + t.loop1 + t.comm1 + t.loop2 + t.comm2 + t.serial;
            assert!(
                (parts - t.total).abs() <= 1e-6 + 0.05 * t.total,
                "phases {parts} ≉ total {}",
                t.total
            );
        }
    }

    #[test]
    fn weld_index_span_is_the_teams_makespan_plus_its_serial_remainder() {
        // The weld index build's loops are charged at the team's makespan,
        // drawn on the rank's thread lanes, and the dedup and what else
        // runs outside the loop calls at its wall time, the `serial_s` the
        // span reports. On one thread the makespan is the items' summed cost.
        for threads in [4, 1] {
            let mut shared = fixtures();
            shared.cfg.threads = threads;
            let shared = Arc::new(shared);
            let outs = run_cluster(2, NetModel::ideal(), move |comm| gff_hybrid(comm, &shared));
            for o in &outs {
                let mut spans = o.trace.on_track(o.rank as u32);
                let index = spans.find(|sp| sp.name == "gff.weld_index").unwrap();
                let lane = obs::THREAD_TRACK_BASE + (o.rank * threads) as u32;
                let busy = o.trace.span_sum(lane, "gff.weld_index.busy");
                let idle = o.trace.span_sum(lane, "gff.weld_index.idle");
                let serial = index.arg("serial_s").unwrap();
                let duration = index.duration();
                assert!(busy > 0.0 && serial > 0.0);
                assert!((duration - (busy + idle + serial)).abs() <= 1e-9 * duration);
                if threads == 1 {
                    assert_eq!(idle, 0.0, "one thread runs every item");
                }
            }
        }
    }

    #[test]
    fn shared_memory_trace_has_stage_timeline() {
        let out = gff_shared_memory(&fixtures());
        // Track 0 carries the phase timeline under one "gff.total" root.
        let (s, e) = out.trace.span_bounds(0, "gff.total").unwrap();
        assert_eq!(s, 0.0);
        assert!((e - out.timings.total).abs() < 1e-12);
        assert!(out.trace.span_sum(0, "gff.loop1") > 0.0);
        let roots = out.trace.tree(0);
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "gff.total");
        assert!(roots[0].children.iter().any(|c| c.name == "gff.loop1"));
        // OpenMP lanes: thread 0's busy span sits on its own track.
        assert!(out.trace.span_sum(obs::THREAD_TRACK_BASE, "gff.loop1.busy") > 0.0);
    }

    #[test]
    fn hybrid_records_spans_on_comm_tracer() {
        let shared = Arc::new(fixtures());
        let outs = run_cluster(2, NetModel::idataplex(), move |comm| {
            let out = gff_hybrid(comm, &shared);
            (out.timings, comm.rank() as u32)
        });
        for o in &outs {
            let (timings, track) = o.value;
            // The rank's spans travelled out through RankOutput::trace.
            assert!(o.trace.span_bounds(track, "gff.total").is_some());
            assert!((o.trace.span_sum(track, "gff.comm1") - timings.comm1).abs() < 1e-12);
            // The comm1 wrapper nests the allgatherv it timed.
            let rendered = o.trace.render_tree(track);
            assert!(
                rendered.contains("gff.comm1\n    mpi.allgatherv")
                    || rendered.contains("gff.comm1\n  mpi.allgatherv"),
                "tree:\n{rendered}"
            );
        }
    }

    #[test]
    fn cluster_unrelated_contigs_stay_apart() {
        let (comp_of, comps) = cluster(4, &[]);
        assert_eq!(comp_of, vec![0, 1, 2, 3]);
        assert_eq!(comps.len(), 4);
    }

    #[test]
    fn cluster_chains_merge() {
        let (comp_of, comps) = cluster(4, &[(0, 1), (1, 2)]);
        assert_eq!(comp_of[0], comp_of[2]);
        assert_ne!(comp_of[0], comp_of[3]);
        assert_eq!(comps.len(), 2);
    }

    #[test]
    fn rank_items_cover_all() {
        let n = 100;
        let mut all: Vec<u32> = (0..4).flat_map(|r| rank_items(n, r, 4, 7)).collect();
        all.sort_unstable();
        assert_eq!(all, (0..n as u32).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_kmap_build_matches_serial() {
        let shared = fixtures();
        let serial = KmerContigMap::build(&shared.contigs, K);
        assert_eq!(shared.kmap.len(), serial.len());
        // Spot-check the junction seed's occurrence list.
        let seed = seqio::kmer::Kmer::from_bases(SEED).unwrap().canonical();
        assert_eq!(shared.kmap.occurrences(seed), serial.occurrences(seed));
        // The routed build is on the clock.
        assert!(shared.prep_cost > 0.0);
    }

    #[test]
    fn empty_contig_set() {
        let counts = count_kmers::<Vec<u8>>(&[], CounterConfig::new(K));
        let shared = GffShared::prepare(vec![], counts, ChrysalisConfig::small(K));
        let out = gff_shared_memory(&shared);
        assert!(out.welds.is_empty());
        assert!(out.pairs.is_empty());
        assert!(out.components.is_empty());
    }
}

#[cfg(test)]
mod dynamic_tests {
    use super::*;
    use kcount::counter::{count_kmers, CounterConfig};
    use mpisim::{run_cluster, NetModel};
    use seqio::fasta::Record;
    use std::sync::Arc;

    const K: usize = 8;
    const SEED: &[u8] = b"GGATACT";
    const A_LEFT: &[u8] = b"CGAGTCGGTTAT";
    const B_RIGHT: &[u8] = b"GTGAAGTGTTCC";

    fn fixtures() -> GffShared {
        let a = [A_LEFT, SEED, b"CTTCGGCAAGTC".as_slice()].concat();
        let b = [b"AAAGCGGCACTT".as_slice(), SEED, B_RIGHT].concat();
        let c = b"TGTTCGCGTGGTGCTGAGACAAAGCACGCCAT".to_vec();
        let contigs = vec![
            Record::new("a", a.clone()),
            Record::new("b", b.clone()),
            Record::new("c", c.clone()),
        ];
        let junction = [&A_LEFT[A_LEFT.len() - K / 2..], SEED, &B_RIGHT[..K / 2]].concat();
        let reads = vec![a, b, c, junction];
        let counts = count_kmers(&reads, CounterConfig::new(K));
        GffShared::prepare(
            seqio::packed::encode_all(&contigs),
            counts,
            ChrysalisConfig::small(K),
        )
    }

    #[test]
    fn dynamic_matches_static_output() {
        let shared = Arc::new(fixtures());
        let serial = gff_shared_memory(&shared);
        for ranks in [1usize, 2, 4] {
            let sh = Arc::clone(&shared);
            let outs = run_cluster(ranks, NetModel::ideal(), move |comm| {
                gff_hybrid_dynamic(comm, &sh)
            });
            for o in &outs {
                assert_eq!(o.value.pairs, serial.pairs, "ranks={ranks}");
                assert_eq!(o.value.component_of, serial.component_of);
            }
        }
    }

    #[test]
    fn dynamic_deal_balances_skew() {
        // Front-loaded skewed chunk costs: dynamic dealing must beat
        // round-robin's worst rank.
        let costs: Vec<f64> = (0..64)
            .map(|i| 1.0 + 49.0 * (-(i as f64) / 8.0).exp())
            .collect();
        let ranks = 4;
        let (busy, owner) = dynamic_deal(&costs, ranks, 0.0);
        assert_eq!(owner.len(), costs.len());
        let dyn_max = busy.iter().cloned().fold(0.0, f64::max);
        // Static round-robin dealing of the same chunks.
        let mut rr = vec![0.0f64; ranks];
        for (i, &c) in costs.iter().enumerate() {
            rr[i % ranks] += c;
        }
        let rr_max = rr.iter().cloned().fold(0.0, f64::max);
        assert!(
            dyn_max <= rr_max + 1e-9,
            "dynamic ({dyn_max}) must not lose to round-robin ({rr_max})"
        );
        // Work conserved.
        let total: f64 = costs.iter().sum();
        assert!((busy.iter().sum::<f64>() - total).abs() < 1e-9);
    }

    #[test]
    fn deal_latency_is_charged() {
        let costs = vec![1.0; 8];
        let (free, _) = dynamic_deal(&costs, 2, 0.0);
        let (paid, _) = dynamic_deal(&costs, 2, 0.5);
        assert!(paid.iter().sum::<f64>() > free.iter().sum::<f64>());
    }
}
