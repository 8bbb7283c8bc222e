//! Path enumeration through one component's de Bruijn graph.
//!
//! A bounded DFS from every source node, branching where the graph
//! branches. Branch fan-out is capped (heaviest edges first) and a
//! per-path node-visit limit breaks cycles, so enumeration is total even
//! on tangled graphs. The walk keeps its own stack and allocates once per
//! graph and once per reported path, never per visited node.

use graph::debruijn::{DeBruijnGraph, NodeId};

/// Limits for path enumeration.
#[derive(Debug, Clone, Copy)]
pub struct PathConfig {
    /// Maximum paths reported per component.
    pub max_paths: usize,
    /// Maximum out-edges explored at any branch (heaviest first).
    pub max_branch: usize,
    /// A node may appear at most this many times within one path
    /// (permits small tandem repeats without infinite loops).
    pub max_node_visits: usize,
    /// Paths shorter than this many bases are dropped.
    pub min_len: usize,
}

impl Default for PathConfig {
    fn default() -> Self {
        PathConfig {
            max_paths: 32,
            max_branch: 4,
            max_node_visits: 2,
            min_len: 48,
        }
    }
}

/// Every node's successors in one flat array, each node's run sorted
/// heaviest first (then by node id — [`DeBruijnGraph::edge_order`]) and cut
/// to the branch cap: built once per graph, after threading and pruning,
/// and read as slices by the walk.
struct Adjacency {
    /// Node `n`'s successors are `edges[starts[n]..starts[n + 1]]`.
    starts: Vec<u32>,
    edges: Vec<NodeId>,
}

impl Adjacency {
    fn new(g: &DeBruijnGraph, max_branch: usize) -> Self {
        let mut starts = Vec::with_capacity(g.node_count() + 1);
        let mut edges = Vec::with_capacity(g.edge_count());
        let mut sorted: Vec<(NodeId, u32)> = Vec::new();
        starts.push(0);
        for id in 0..g.node_count() as NodeId {
            sorted.clear();
            sorted.extend(g.successors(id));
            sorted.sort_unstable_by(DeBruijnGraph::edge_order);
            edges.extend(sorted.iter().take(max_branch).map(|&(to, _)| to));
            starts.push(edges.len() as u32);
        }
        Adjacency { starts, edges }
    }

    fn of(&self, node: NodeId) -> &[NodeId] {
        let n = node as usize;
        &self.edges[self.starts[n] as usize..self.starts[n + 1] as usize]
    }
}

/// Depth-first walk from every source on an explicit stack: `path` holds
/// the nodes from the source to the current one and `cursors[i]` how far
/// `path[i]`'s successors have been tried and whether any was taken. A
/// node with no admissible successor (terminal, or every one visit-capped)
/// ends a path. Depth costs heap, not call stack, so a 200 kb linear
/// component is walked like a 200 b one.
fn walk(g: &DeBruijnGraph, adj: &Adjacency, cfg: PathConfig) -> Vec<Vec<NodeId>> {
    let mut out: Vec<Vec<NodeId>> = Vec::new();
    let mut visits = vec![0usize; g.node_count()];
    let mut path: Vec<NodeId> = Vec::new();
    let mut cursors: Vec<(usize, bool)> = Vec::new();
    for source in g.sources() {
        if out.len() >= cfg.max_paths {
            break;
        }
        path.push(source);
        cursors.push((0, false));
        visits[source as usize] += 1;
        while let (Some(&node), Some((cursor, extended))) = (path.last(), cursors.last_mut()) {
            let untried = &adj.of(node)[*cursor..];
            let step = untried
                .iter()
                .position(|&next| visits[next as usize] < cfg.max_node_visits);
            if let Some(i) = step {
                let next = untried[i];
                *cursor += i + 1;
                *extended = true;
                path.push(next);
                cursors.push((0, false));
                visits[next as usize] += 1;
                continue;
            }
            if !*extended {
                out.push(path.clone());
                if out.len() >= cfg.max_paths {
                    return out;
                }
            }
            visits[node as usize] -= 1;
            path.pop();
            cursors.pop();
        }
    }
    out
}

/// Enumerate read-supported paths of `g` starting at its source nodes.
/// Returns spelled sequences, heaviest path first, deduplicated.
pub fn enumerate_paths(g: &DeBruijnGraph, cfg: PathConfig) -> Vec<Vec<u8>> {
    let found = walk(g, &Adjacency::new(g, cfg.max_branch), cfg);

    // Rank by total path weight (read support), heaviest first.
    let mut ranked: Vec<(u64, Vec<NodeId>)> =
        found.into_iter().map(|p| (g.path_weight(&p), p)).collect();
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

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(min_len: usize) -> PathConfig {
        PathConfig {
            min_len,
            ..Default::default()
        }
    }

    #[test]
    fn linear_graph_single_path() {
        let seq = b"CGAGTCGGTTATCTTCGGATACTGTATAG";
        let g = DeBruijnGraph::build(8, [seq.as_slice()]);
        let paths = enumerate_paths(&g, cfg(10));
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0], seq.to_vec());
    }

    #[test]
    fn bubble_gives_two_isoforms() {
        // Two isoforms sharing prefix and suffix (an exon-skip bubble).
        let iso1 = b"CGAGTCGGTTATCTTCGGATACTGTATAGTCCCACCTGG".to_vec();
        let mut iso2 = Vec::new();
        iso2.extend_from_slice(&iso1[..12]);
        iso2.extend_from_slice(b"AAAGCGGCACTTGTGAAGTG"); // alternative exon
        iso2.extend_from_slice(&iso1[iso1.len() - 12..]);
        let g = DeBruijnGraph::build(8, [iso1.as_slice(), iso2.as_slice()]);
        let paths = enumerate_paths(&g, cfg(20));
        assert_eq!(paths.len(), 2);
        assert!(paths.contains(&iso1));
        assert!(paths.contains(&iso2));
    }

    #[test]
    fn min_len_filters() {
        let g = DeBruijnGraph::build(8, [b"CGAGTCGGTTATCTT".as_slice()]);
        assert!(enumerate_paths(&g, cfg(100)).is_empty());
        assert_eq!(enumerate_paths(&g, cfg(5)).len(), 1);
    }

    #[test]
    fn cycle_only_graph_yields_nothing() {
        let g = DeBruijnGraph::build(3, [b"AAAA".as_slice()]);
        assert!(
            enumerate_paths(&g, cfg(1)).is_empty(),
            "no sources in a pure cycle"
        );
    }

    #[test]
    fn max_paths_caps_explosion() {
        // Many branches: 3 bubbles -> up to 8 paths; cap at 3.
        let base = b"CGAGTCGGTTATCTTCGGATACTGTATAGTCC".to_vec();
        let mut variants = Vec::new();
        for i in 0..3 {
            let mut v = base.clone();
            v[10 + i * 6] = b'A';
            variants.push(v);
        }
        variants.push(base.clone());
        let g = DeBruijnGraph::build(6, variants.iter().map(|v| v.as_slice()));
        let paths = enumerate_paths(
            &g,
            PathConfig {
                max_paths: 3,
                ..cfg(10)
            },
        );
        assert!(paths.len() <= 3);
        assert!(!paths.is_empty());
    }

    #[test]
    fn heaviest_path_first() {
        // iso1 threaded 5x, iso2 once: iso1 must rank first.
        let iso1 = b"CGAGTCGGTTATCTTCGGATACTGTATAGTCC".to_vec();
        let mut iso2 = iso1.clone();
        iso2[15] = b'A';
        let mut g = DeBruijnGraph::new(8);
        for _ in 0..5 {
            g.add_sequence(&iso1, 1);
        }
        g.add_sequence(&iso2, 1);
        let paths = enumerate_paths(&g, cfg(10));
        assert_eq!(paths[0], iso1);
    }

    #[test]
    fn small_tandem_repeat_traversed() {
        // Unique prefix, then a tandem repeat (nodes visited twice), then a
        // unique suffix. The prefix keeps the source outside the cycle.
        let seq = b"TTGCAATGGCCGAGTCGGTTATCTTCGAGTCGGTTATCTTACGGATAC";
        let g = DeBruijnGraph::build(8, [seq.as_slice()]);
        let paths = enumerate_paths(&g, cfg(10));
        assert!(
            paths.iter().any(|p| p == &seq.to_vec()),
            "repeat path found"
        );
    }
}
