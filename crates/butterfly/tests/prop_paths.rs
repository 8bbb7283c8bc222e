//! The explicit-stack path enumeration against the recursive one it
//! replaced (kept here as the reference), the one-probe-per-window graph
//! threading against the ASCII threading, and the depth both used to be
//! limited to: a 200 kb component on a 256 KB stack.

use butterfly::paths::{enumerate_paths, PathConfig};
use butterfly::transcripts::{reconstruct_component, ComponentInput, ReconstructionConfig};
use graph::debruijn::{DeBruijnGraph, NodeId};
use proptest::prelude::*;
use seqio::packed::PackedSeq;

/// The enumeration as it was before it kept its own stack: one call frame
/// per path node, adjacency cloned and sorted at every visit.
struct RecursiveDfs<'g> {
    g: &'g DeBruijnGraph,
    cfg: PathConfig,
    out: Vec<Vec<NodeId>>,
    visits: Vec<u8>,
}

impl RecursiveDfs<'_> {
    fn run(&mut self, path: &mut Vec<NodeId>, node: NodeId) {
        if self.out.len() >= self.cfg.max_paths {
            return;
        }
        path.push(node);
        self.visits[node as usize] += 1;

        let edges = self.g.out_edges(node);
        let mut extended = false;
        for &(next, _w) in edges.iter().take(self.cfg.max_branch) {
            if (self.visits[next as usize] as usize) < self.cfg.max_node_visits {
                extended = true;
                self.run(path, next);
                if self.out.len() >= self.cfg.max_paths {
                    break;
                }
            }
        }
        if !extended {
            self.out.push(path.clone());
        }

        self.visits[node as usize] -= 1;
        path.pop();
    }
}

fn enumerate_recursive(g: &DeBruijnGraph, cfg: PathConfig) -> Vec<Vec<u8>> {
    let mut dfs = RecursiveDfs {
        g,
        cfg,
        out: Vec::new(),
        visits: vec![0; g.node_count()],
    };
    for s in g.sources() {
        if dfs.out.len() >= cfg.max_paths {
            break;
        }
        dfs.run(&mut Vec::new(), s);
    }
    let mut ranked: Vec<(u64, Vec<NodeId>)> = dfs
        .out
        .into_iter()
        .map(|p| (g.path_weight(&p), p))
        .collect();
    ranked.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut seqs: Vec<Vec<u8>> = Vec::new();
    for (_, p) in ranked {
        let s = g.spell_path(&p);
        if s.len() >= cfg.min_len && !seqs.contains(&s) {
            seqs.push(s);
        }
    }
    seqs
}

fn bases(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    // Mostly ACGT; the occasional N cuts a read into separate runs.
    let base = prop_oneof![
        Just(b'A'),
        Just(b'C'),
        Just(b'G'),
        Just(b'T'),
        Just(b'A'),
        Just(b'C'),
        Just(b'G'),
        Just(b'T'),
        Just(b'A'),
        Just(b'C'),
        Just(b'G'),
        Just(b'T'),
        Just(b'N'),
    ];
    proptest::collection::vec(base, len)
}

/// Weighted reads drawn as runs of segments from a small pool: shared
/// flanks with different middles make bubbles, a segment picked twice in a
/// row a tandem repeat, a one-segment read is often shorter than k.
fn read_set() -> impl Strategy<Value = Vec<(Vec<u8>, u32)>> {
    let pool = proptest::collection::vec(bases(2..14), 3..8);
    let picks =
        proptest::collection::vec((proptest::collection::vec(0usize..8, 1..7), 1u32..4), 1..12);
    (pool, picks).prop_map(|(pool, picks)| {
        let reads = picks.into_iter().map(|(segments, weight)| {
            let seq: Vec<u8> = segments
                .iter()
                .flat_map(|&s| pool[s % pool.len()].iter().copied())
                .collect();
            (seq, weight)
        });
        reads.collect()
    })
}

/// Limits from the degenerate (no paths, no branches, no visits) to the
/// defaults.
fn limits() -> impl Strategy<Value = PathConfig> {
    let max_paths = prop_oneof![0usize..5, Just(32usize)];
    (max_paths, 0usize..5, 0usize..4, 0usize..12).prop_map(
        |(max_paths, max_branch, max_node_visits, min_len)| PathConfig {
            max_paths,
            max_branch,
            max_node_visits,
            min_len,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Same paths in the same order, whatever the limits.
    #[test]
    fn iterative_enumeration_equals_recursive(
        reads in read_set(),
        k in 3usize..8,
        cfg in limits(),
        min_edge_weight in 1u32..4,
    ) {
        let mut g = DeBruijnGraph::new(k);
        for (seq, weight) in &reads {
            g.add_packed(&PackedSeq::from_bytes(seq), *weight);
        }
        g.prune_edges(min_edge_weight);
        prop_assert_eq!(enumerate_paths(&g, cfg), enumerate_recursive(&g, cfg));
    }

    /// Carrying a window's suffix node over to the next window changes
    /// neither a node id nor an edge, with `N`s and short runs in the way.
    #[test]
    fn add_packed_builds_add_sequences_graph(reads in read_set(), k in 2usize..9) {
        let mut ascii = DeBruijnGraph::new(k);
        let mut packed = DeBruijnGraph::new(k);
        for (seq, weight) in &reads {
            ascii.add_sequence(seq, *weight);
            packed.add_packed(&PackedSeq::from_bytes(seq), *weight);
        }
        prop_assert_eq!(packed.node_count(), ascii.node_count());
        prop_assert_eq!(packed.edge_count(), ascii.edge_count());
        prop_assert_eq!(packed.sources(), ascii.sources());
        for id in 0..ascii.node_count() as NodeId {
            prop_assert_eq!(packed.node_kmer(id), ascii.node_kmer(id));
            prop_assert_eq!(packed.out_edges(id), ascii.out_edges(id));
        }
    }
}

/// `len` bases from a fixed LCG: at k = 25 no 24-mer repeats, so the
/// sequence threads as one chain.
fn random_bases(len: usize, mut state: u64) -> Vec<u8> {
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        b"ACGT"[(state >> 33) as usize % 4]
    };
    (0..len).map(|_| next()).collect()
}

/// Reconstruct a one-contig component on a thread with a 256 KB stack: a
/// walk that spends call stack per node cannot get through 200 kb on it.
fn reconstruct_on_small_stack(contig: Vec<u8>, cfg: ReconstructionConfig) -> Vec<Vec<u8>> {
    let worker = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || {
            let input = ComponentInput::from_bytes(0, &[contig], &[]);
            let records = reconstruct_component(&input, cfg);
            records.into_iter().map(|r| r.seq).collect::<Vec<_>>()
        })
        .expect("spawn small-stack thread");
    worker.join().expect("reconstruction finished")
}

#[test]
fn long_linear_component_needs_no_call_stack() {
    let contig = random_bases(200_000, 7);
    let seqs = reconstruct_on_small_stack(contig.clone(), ReconstructionConfig::default());
    assert_eq!(seqs, [contig]);
}

#[test]
fn long_cycle_with_a_tail_stops_at_the_visit_cap() {
    // A 300 b tail into a 200 kb cycle: the contig runs once round the
    // cycle and k−1 bases into the second lap, closing it in the graph.
    // The one path leaves the tail, laps the cycle `max_node_visits` times
    // and ends where a third entry of the cycle's first node is refused.
    let cfg = ReconstructionConfig::default();
    let tail = random_bases(300, 11);
    let cycle = random_bases(200_000, 13);
    let mut contig = tail.clone();
    contig.extend_from_slice(&cycle);
    contig.extend_from_slice(&cycle[..cfg.k - 1]);

    let seqs = reconstruct_on_small_stack(contig, cfg);
    let mut expected = tail;
    for _ in 0..cfg.paths.max_node_visits {
        expected.extend_from_slice(&cycle);
    }
    expected.extend_from_slice(&cycle[..cfg.k - 2]);
    assert_eq!(seqs, [expected]);
}
