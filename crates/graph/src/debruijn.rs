//! Per-component de Bruijn graphs.
//!
//! Chrysalis finishes by building a de Bruijn graph for every component
//! (`FastaToDebruijn`): nodes are (k−1)-mers, edges are the k-mers observed
//! in the component's contigs, weighted by how often reads/contigs support
//! them. Butterfly then reconstructs transcripts as weighted paths.

use kmertable::PackedKmerTable;
use seqio::alphabet::code_to_base;
use seqio::kmer::{Kmer, KmerIter};
use seqio::packed::PackedSeq;

/// Dense node id within one graph.
pub type NodeId = u32;

/// The successor of an absent edge slot (never a real node id).
const NO_NODE: NodeId = NodeId::MAX;

/// A weighted de Bruijn graph over (k−1)-mer nodes.
#[derive(Debug, Clone)]
pub struct DeBruijnGraph {
    k: usize,
    /// Node id -> (k-1)-mer.
    nodes: Vec<Kmer>,
    /// Packed (k-1)-mer -> node id. All nodes share one word size, so the
    /// packed `u64` is a unique key and the open-addressing table makes
    /// `intern` (one probe per window on the packed path) allocation- and
    /// SipHash-free.
    index: PackedKmerTable,
    /// Out-adjacency. A (k−1)-mer has at most four successors, one per
    /// appended base, so node `n`'s edge on base code `c` is the slot
    /// `out[n][c]`: (successor, weight), successor [`NO_NODE`] when absent.
    /// Threading an edge is one indexed store — no search, no allocation.
    out: Vec<[(NodeId, u32); 4]>,
    /// In-degree per node (for source detection).
    indeg: Vec<u32>,
    edge_count: usize,
}

impl DeBruijnGraph {
    /// Create an empty graph with word size `k` (edges are k-mers, nodes
    /// are (k−1)-mers; requires `2 <= k <= 32`).
    pub fn new(k: usize) -> Self {
        Self::with_capacity(k, 0)
    }

    /// An empty graph pre-sized for `nodes` distinct (k−1)-mers. A sequence
    /// of `n` bases threads at most `n` nodes, so a component sized from
    /// its contigs' base count grows only for what its reads add — and
    /// reads mostly re-walk contig k-mers.
    pub fn with_capacity(k: usize, nodes: usize) -> Self {
        assert!((2..=32).contains(&k), "k must be in 2..=32");
        DeBruijnGraph {
            k,
            nodes: Vec::with_capacity(nodes),
            index: PackedKmerTable::with_capacity(nodes),
            out: Vec::with_capacity(nodes),
            indeg: Vec::with_capacity(nodes),
            edge_count: 0,
        }
    }

    /// Build from a set of sequences, adding weight `w` per occurrence of
    /// each k-mer.
    pub fn build<'a, I: IntoIterator<Item = &'a [u8]>>(k: usize, seqs: I) -> Self {
        let mut g = DeBruijnGraph::new(k);
        for seq in seqs {
            g.add_sequence(seq, 1);
        }
        g
    }

    /// Word size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of distinct edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    fn intern(&mut self, km: Kmer) -> NodeId {
        let next = self.nodes.len() as NodeId;
        let id = self.index.get_or_insert(km.packed(), next);
        if id == next {
            self.nodes.push(km);
            self.out.push([(NO_NODE, 0); 4]);
            self.indeg.push(0);
        }
        id
    }

    /// Thread a sequence through the graph, adding `weight` to every edge
    /// (k-mer) it contains. Windows with non-ACGT bytes are skipped.
    pub fn add_sequence(&mut self, seq: &[u8], weight: u32) {
        let k = self.k;
        let iter = match KmerIter::new(seq, k) {
            Ok(it) => it,
            Err(_) => return,
        };
        for (_, km) in iter {
            let from = self.intern(km.prefix());
            let to = self.intern(km.suffix());
            self.add_edge(from, km, to, weight);
        }
    }

    /// Thread a pre-encoded sequence through the graph — the Butterfly hot
    /// path, which receives its component bundle already packed and never
    /// re-decodes ASCII. Identical semantics to [`Self::add_sequence`],
    /// node ids included: the suffix of one window is the prefix of the
    /// next while offsets are consecutive, so its node is carried over and
    /// each window costs one table probe, not two.
    pub fn add_packed(&mut self, seq: &PackedSeq, weight: u32) {
        let iter = match seq.kmers(self.k) {
            Ok(it) => it,
            Err(_) => return,
        };
        // (offset of the window the node is the prefix of, node)
        let mut carried: Option<(usize, NodeId)> = None;
        for (offset, km) in iter {
            let from = match carried {
                Some((at, id)) if at == offset => id,
                _ => self.intern(km.prefix()),
            };
            let to = self.intern(km.suffix());
            self.add_edge(from, km, to, weight);
            carried = Some((offset + 1, to));
        }
    }

    /// Add `weight` to the edge `from -> to` spelled by the k-mer `km`
    /// (whose last base picks the slot).
    fn add_edge(&mut self, from: NodeId, km: Kmer, to: NodeId, weight: u32) {
        let slot = &mut self.out[from as usize][(km.packed() & 0b11) as usize];
        if slot.0 == NO_NODE {
            *slot = (to, weight);
            self.indeg[to as usize] += 1;
            self.edge_count += 1;
        } else {
            slot.1 = slot.1.saturating_add(weight);
        }
    }

    /// The (k−1)-mer of a node.
    pub fn node_kmer(&self, id: NodeId) -> Kmer {
        self.nodes[id as usize]
    }

    /// Look up a node by its (k−1)-mer.
    #[cfg(test)]
    fn node_of(&self, km: Kmer) -> Option<NodeId> {
        self.index.get(km.packed())
    }

    /// Successors of a node with edge weights, in base order, without
    /// allocating.
    pub fn successors(&self, id: NodeId) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        let slots = self.out[id as usize].iter();
        slots.copied().filter(|&(to, _)| to != NO_NODE)
    }

    /// The order [`Self::out_edges`] reports successors in: heaviest first,
    /// ties by node id.
    pub fn edge_order(a: &(NodeId, u32), b: &(NodeId, u32)) -> std::cmp::Ordering {
        b.1.cmp(&a.1).then(a.0.cmp(&b.0))
    }

    /// Successors of a node with edge weights, heaviest first.
    pub fn out_edges(&self, id: NodeId) -> Vec<(NodeId, u32)> {
        let mut edges: Vec<(NodeId, u32)> = self.successors(id).collect();
        edges.sort_unstable_by(Self::edge_order);
        edges
    }

    /// In-degree of a node.
    #[cfg(test)]
    fn in_degree(&self, id: NodeId) -> usize {
        self.indeg[id as usize] as usize
    }

    /// Out-degree of a node.
    #[cfg(test)]
    fn out_degree(&self, id: NodeId) -> usize {
        self.successors(id).count()
    }

    /// Nodes with in-degree 0 (path starts). If the graph is a single cycle
    /// this is empty — callers must handle that (Butterfly bails out on
    /// pure cycles exactly like the original).
    pub fn sources(&self) -> Vec<NodeId> {
        (0..self.nodes.len() as NodeId)
            .filter(|&id| self.indeg[id as usize] == 0)
            .collect()
    }

    /// Spell the sequence of a node path: first node's (k−1)-mer plus one
    /// base per subsequent node. Panics if the path is not connected.
    pub fn spell_path(&self, path: &[NodeId]) -> Vec<u8> {
        if path.is_empty() {
            return Vec::new();
        }
        let mut seq = self.node_kmer(path[0]).bases();
        seq.reserve(path.len() - 1);
        for w in path.windows(2) {
            debug_assert!(
                self.edge_weight(w[0], w[1]).is_some(),
                "path edge {}->{} missing",
                w[0],
                w[1]
            );
            // The last base of a packed (k−1)-mer is its two low bits.
            seq.push(code_to_base((self.node_kmer(w[1]).packed() & 0b11) as u8));
        }
        seq
    }

    /// Total weight along a path (sum of its edge weights).
    pub fn path_weight(&self, path: &[NodeId]) -> u64 {
        let weights = path.windows(2).filter_map(|w| self.edge_weight(w[0], w[1]));
        weights.map(u64::from).sum()
    }

    /// Weight of the edge `from -> to`, if present.
    pub fn edge_weight(&self, from: NodeId, to: NodeId) -> Option<u32> {
        self.successors(from)
            .find(|&(t, _)| t == to)
            .map(|(_, w)| w)
    }

    /// Remove edges with weight below `min_weight` (error pruning), then
    /// recompute in-degrees. Nodes are kept (possibly isolated).
    pub fn prune_edges(&mut self, min_weight: u32) {
        let mut removed = 0usize;
        for slot in self.out.iter_mut().flatten() {
            if slot.0 != NO_NODE && slot.1 < min_weight {
                *slot = (NO_NODE, 0);
                removed += 1;
            }
        }
        if removed > 0 {
            self.edge_count -= removed;
            for d in &mut self.indeg {
                *d = 0;
            }
            for &(to, _) in self.out.iter().flatten() {
                if to != NO_NODE {
                    self.indeg[to as usize] += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_sequence_makes_a_chain() {
        let g = DeBruijnGraph::build(4, [b"ACGTAC".as_slice()]);
        // 4-mers: ACGT, CGTA, GTAC -> nodes ACG,CGT,GTA,TAC
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        let sources = g.sources();
        assert_eq!(sources.len(), 1);
        assert_eq!(g.node_kmer(sources[0]).bases(), b"ACG");
    }

    #[test]
    fn spell_path_reconstructs_sequence() {
        let seq = b"ACGTACGGTTA";
        let g = DeBruijnGraph::build(5, [seq.as_slice()]);
        // Follow the chain from the single source.
        let mut path = vec![g.sources()[0]];
        loop {
            let last = *path.last().unwrap();
            let next = g.out_edges(last);
            if next.is_empty() {
                break;
            }
            path.push(next[0].0);
        }
        assert_eq!(g.spell_path(&path), seq.to_vec());
    }

    #[test]
    fn repeated_kmers_accumulate_weight() {
        let g = DeBruijnGraph::build(3, [b"AAAA".as_slice()]);
        // Node AA with a self-loop of weight 2 (AAA seen twice).
        assert_eq!(g.node_count(), 1);
        let id = g.node_of(Kmer::from_bases(b"AA").unwrap()).unwrap();
        assert_eq!(g.edge_weight(id, id), Some(2));
    }

    #[test]
    fn branch_creates_two_out_edges() {
        let g = DeBruijnGraph::build(4, [b"AACGT".as_slice(), b"AACGG".as_slice()]);
        let id = g.node_of(Kmer::from_bases(b"ACG").unwrap()).unwrap();
        assert_eq!(g.out_degree(id), 2);
    }

    #[test]
    fn out_edges_sorted_by_weight() {
        let mut g = DeBruijnGraph::new(4);
        g.add_sequence(b"AACGT", 1);
        g.add_sequence(b"AACGG", 5);
        let id = g.node_of(Kmer::from_bases(b"ACG").unwrap()).unwrap();
        let edges = g.out_edges(id);
        assert_eq!(edges.len(), 2);
        assert!(edges[0].1 >= edges[1].1);
        assert_eq!(g.node_kmer(edges[0].0).bases(), b"CGG");
    }

    #[test]
    fn cycle_has_no_source() {
        // ACGA's 3-mers: ACG, CGA; nodes AC,CG,GA + wrap creates partial
        // chain; build a true cycle with AA->AA self loop instead.
        let g = DeBruijnGraph::build(3, [b"AAA".as_slice()]);
        assert!(g.sources().is_empty());
    }

    #[test]
    fn prune_removes_light_edges() {
        let mut g = DeBruijnGraph::new(4);
        g.add_sequence(b"AACGT", 1);
        g.add_sequence(b"AACGG", 5);
        let before = g.edge_count();
        g.prune_edges(3);
        assert!(g.edge_count() < before);
        let id = g.node_of(Kmer::from_bases(b"ACG").unwrap()).unwrap();
        assert_eq!(g.out_degree(id), 1);
        // In-degrees were rebuilt: CGT lost its only in-edge.
        let cgt = g.node_of(Kmer::from_bases(b"CGT").unwrap()).unwrap();
        assert_eq!(g.in_degree(cgt), 0);
    }

    #[test]
    fn skips_n_windows() {
        let g = DeBruijnGraph::build(4, [b"ACGNACGT".as_slice()]);
        // Only the second run contributes 4-mers: ACGT -> nodes ACG, CGT.
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn short_sequence_contributes_nothing() {
        let g = DeBruijnGraph::build(5, [b"ACG".as_slice()]);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.sources().is_empty());
    }

    #[test]
    fn path_weight_sums_edges() {
        let g = DeBruijnGraph::build(3, [b"ACGT".as_slice(), b"ACGT".as_slice()]);
        let a = g.node_of(Kmer::from_bases(b"AC").unwrap()).unwrap();
        let b = g.node_of(Kmer::from_bases(b"CG").unwrap()).unwrap();
        let c = g.node_of(Kmer::from_bases(b"GT").unwrap()).unwrap();
        assert_eq!(g.path_weight(&[a, b, c]), 4);
        assert_eq!(g.path_weight(&[a]), 0);
    }

    #[test]
    fn empty_path_spells_empty() {
        let g = DeBruijnGraph::new(4);
        assert!(g.spell_path(&[]).is_empty());
    }

    #[test]
    fn add_packed_matches_add_sequence() {
        let seqs: [&[u8]; 3] = [b"ACGTACGGTTA", b"AACGNNACGT", b"TTTT"];
        let mut bytes = DeBruijnGraph::new(4);
        let mut packed = DeBruijnGraph::new(4);
        for (i, s) in seqs.iter().enumerate() {
            bytes.add_sequence(s, i as u32 + 1);
            packed.add_packed(&PackedSeq::from_bytes(s), i as u32 + 1);
        }
        assert_eq!(bytes.node_count(), packed.node_count());
        assert_eq!(bytes.edge_count(), packed.edge_count());
        for id in 0..bytes.node_count() as NodeId {
            let km = bytes.node_kmer(id);
            let pid = packed.node_of(km).expect("node present in packed graph");
            assert_eq!(bytes.out_edges(id).len(), packed.out_edges(pid).len());
            for (to, w) in bytes.out_edges(id) {
                let to_km = bytes.node_kmer(to);
                let pto = packed.node_of(to_km).unwrap();
                assert_eq!(packed.edge_weight(pid, pto), Some(w));
            }
        }
    }
}
