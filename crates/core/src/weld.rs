//! GraphFromFasta loop 1: harvesting "welding" subsequences.
//!
//! Inchworm contigs are k-mer-disjoint by construction (the greedy
//! assembler consumes each canonical k-mer once), so related contigs meet
//! only at de Bruijn *branch points*, where they share a (k−1)-mer. Loop 1
//! seeds on those shared (k−1)-mers: for every occurrence pair
//! `(contig A, pos) / (contig B, pos)` of a shared seed it builds the
//! **weldmer** — `k/2` bases of A-side left flank, the seed, and `k/2`
//! bases of B-side right flank (the paper's "seed k-mer and left- and
//! right-flanking k/2-mers", total ≈ 2k) — and keeps it if *read support
//! exists*: every k-mer of the mixed window must occur in the read k-mer
//! table with sufficient count, i.e. real reads span the junction.

use kcount::counter::KmerCounts;
use kcount::routed::{for_each_owner, routed_build, Router, OWNERS};
use kmertable::{PackedKmerTable, PackedWeldSet, PartitionedKmerTable};
use omp::Team;
use seqio::alphabet::{code_to_base, complement_code};
use seqio::kmer::{Kmer, RollState};
use seqio::packed::PackedSeq;

use crate::config::ChrysalisConfig;

/// A weld window under incremental construction: both the forward packing
/// and the reverse-complement packing grow by O(1) per appended code, so a
/// shared prefix (left flank + seed) is built once per seed occurrence and
/// copied per candidate pair — appending a base never reshuffles what is
/// already packed (`fwd` shifts up; the new complement lands above `rc`'s
/// existing bits).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WeldWindow {
    fwd: u128,
    rc: u128,
    len: u32,
}

impl WeldWindow {
    /// An empty window.
    pub fn new() -> Self {
        WeldWindow::default()
    }

    /// Append one 2-bit code (must be `< 4`; capacity 63 bases).
    #[inline(always)]
    pub fn push(&mut self, code: u8) {
        debug_assert!(code < 4);
        debug_assert!(self.len < 63, "weld windows fit 126 bits");
        self.fwd = (self.fwd << 2) | code as u128;
        self.rc |= (complement_code(code) as u128) << (2 * self.len);
        self.len += 1;
    }

    /// Window length in bases.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no codes have been appended.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The 2-bit code at position `j` of the forward window.
    #[inline(always)]
    pub fn code_at(&self, j: usize) -> u8 {
        debug_assert!(j < self.len as usize);
        weld_code_at(self.fwd, self.len as usize, j)
    }

    /// Canonical packed form: the smaller of the window and its reverse
    /// complement, so both strands harvest identically (MSB-first packing
    /// makes the `u128` comparison a lexicographic one).
    #[inline(always)]
    pub fn canonical_packed(&self) -> u128 {
        self.fwd.min(self.rc)
    }
}

/// The 2-bit code at position `j` of a packed `len`-base weld.
#[inline(always)]
pub(crate) fn weld_code_at(weld: u128, len: usize, j: usize) -> u8 {
    ((weld >> (2 * (len - 1 - j))) & 3) as u8
}

/// Decode a packed `len`-base weld to ASCII. Welds stay packed from harvest
/// to the end of the rank program; this runs once per distinct weld, to
/// fill `GffOutput::welds` (the checkpoint payload).
pub fn decode_weld(weld: u128, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| code_to_base(weld_code_at(weld, len, j)))
        .collect()
}

/// One occurrence of a seed within a contig.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeedOcc {
    /// Contig index.
    pub contig: u32,
    /// 0-based offset of the (k−1)-mer within the contig (forward strand).
    pub pos: u32,
    /// True if the canonical form equals the forward window at `pos`.
    pub forward: bool,
}

/// A k-mer → items map as an owner-routed build leaves it: each key's items
/// in one flat array per owner, grouped by key, and the open-addressing
/// [`PartitionedKmerTable`] mapping a packed key to its owner and group from
/// one hash — so a probe never hashes with SipHash, chases `HashMap`
/// buckets or follows a per-key allocation.
#[derive(Debug, Clone)]
pub(crate) struct GroupedKmerMap<T> {
    /// Packed key → group id, dense within the key's owner.
    index: PartitionedKmerTable,
    /// Per owner of `index`, the items of its keys.
    groups: Vec<Groups<T>>,
}

/// One owner's items: key `id` (owner-local) has
/// `items[starts[id]..starts[id + 1]]`, in arrival order.
#[derive(Debug, Clone)]
struct Groups<T> {
    starts: Vec<u32>,
    items: Vec<T>,
}

/// One owner's share of a [`GroupedKmerMap`] under construction: its keys,
/// ids dense in first-seen order, and every item in arrival order.
#[derive(Default)]
struct GroupOwner<T> {
    index: PackedKmerTable,
    arrivals: Vec<(u32, T)>,
}

impl<T: Copy + Default> GroupOwner<T> {
    /// An owner pre-sized for `arrivals` items, each possibly a new key:
    /// neither its index nor its arrival list then grows by doubling, which
    /// would leave as much freed memory behind as the owner ends up holding.
    fn with_capacity(arrivals: usize) -> Self {
        GroupOwner {
            index: PackedKmerTable::with_capacity(arrivals),
            arrivals: Vec::with_capacity(arrivals),
        }
    }

    #[inline]
    fn push(&mut self, key: u64, item: T) {
        let id = self.index.get_or_insert(key, self.index.len() as u32);
        self.arrivals.push((id, item));
    }

    /// The owner's finished share: its index as built, and the arrivals
    /// counting-sorted by key id — stable, so arrival order survives inside
    /// every group.
    fn finish(self) -> (PackedKmerTable, Groups<T>) {
        let keys = self.index.len();
        let mut starts = vec![0u32; keys + 1];
        for &(id, _) in &self.arrivals {
            starts[id as usize + 1] += 1;
        }
        for id in 0..keys {
            starts[id + 1] += starts[id];
        }
        let mut next = starts.clone();
        let mut items = vec![T::default(); self.arrivals.len()];
        for (id, item) in self.arrivals {
            let at = &mut next[id as usize];
            items[*at as usize] = item;
            *at += 1;
        }
        (self.index, Groups { starts, items })
    }
}

impl<T: Copy + Default + Send + Sync> GroupedKmerMap<T> {
    /// The map built sequentially from `(key, item)` pairs, in order — one
    /// owner, the reference the routed build must reproduce.
    fn build(pairs: impl Iterator<Item = (u64, T)>) -> Self {
        let mut owner = GroupOwner::default();
        pairs.for_each(|(key, item)| owner.push(key, item));
        Self::from_owners(vec![owner.finish()])
    }

    /// An owner-routed build on `team`: `route` sends each batch's
    /// `(key, item)` pairs, each owner records what it receives — in batch
    /// order, so every key's items come out in the order a sequential pass
    /// over the batches emits them — and, in a third loop, groups its own
    /// arrivals by key. `per_owner` pre-sizes each owner. The owners are
    /// kept as they are; nothing is concatenated.
    pub(crate) fn build_routed<B: Sync>(
        batches: &[B],
        per_owner: usize,
        team: &mut impl Team,
        route: impl Fn(&B, &mut Router<T>) + Sync,
    ) -> Self {
        let owners = (0..OWNERS).map(|_| GroupOwner::with_capacity(per_owner));
        let mut owners = routed_build(batches, owners.collect(), team, route, |owner, routed| {
            for &(key, item) in routed {
                owner.push(key, item);
            }
        });
        let finished = for_each_owner(&mut owners, team, |_, owner| std::mem::take(owner).finish());
        Self::from_owners(finished)
    }

    /// Adopt finished owners, in owner order.
    fn from_owners(owners: Vec<(PackedKmerTable, Groups<T>)>) -> Self {
        let (index, groups) = owners.into_iter().unzip();
        GroupedKmerMap {
            index: PartitionedKmerTable::from_owners(index),
            groups,
        }
    }

    /// The items of `key` (empty if absent).
    #[inline]
    pub(crate) fn get(&self, key: u64) -> &[T] {
        match self.index.get_with_owner(key) {
            Some((owner, id)) => {
                let Groups { starts, items } = &self.groups[owner];
                &items[starts[id as usize] as usize..starts[id as usize + 1] as usize]
            }
            None => &[],
        }
    }

    /// Number of distinct keys.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Number of items over all keys.
    fn items(&self) -> usize {
        self.groups.iter().map(|g| g.items.len()).sum()
    }
}

/// Global map from canonical (k−1)-mer to its occurrences across contigs.
/// Replicated read-only on every rank in the paper's code; built once and
/// shared here (see the crate-level simulation notes). The build is an
/// owner-routed one ([`kcount::routed`]) accounted as an OpenMP-parallel
/// region, matching the paper's attribution of "non-parallel regions" to
/// the weld-set setup and final output only. The map stays partitioned as
/// the build leaves it (a `GroupedKmerMap`), each seed's occurrences in
/// ascending (contig, position) order — the hot probe is one per contig
/// window per candidate pair.
#[derive(Debug, Clone)]
pub struct KmerContigMap {
    seed_len: usize,
    map: GroupedKmerMap<SeedOcc>,
}

/// Contigs per routed batch of the seed-map build.
const CONTIG_BATCH: usize = 32;

impl KmerContigMap {
    fn seed_len_for(k: usize) -> usize {
        assert!(k >= 4, "seed construction needs k >= 4");
        k - 1
    }

    /// Every seed occurrence of contig `i` (global index), in position
    /// order. Contigs arrive pre-packed; the oriented rolling iterator
    /// hands back `(pos, canonical, forward)` in one O(1)-per-base pass, so
    /// the build never re-encodes ASCII or re-packs windows.
    fn seeds_of(
        i: usize,
        contig: &PackedSeq,
        seed_len: usize,
    ) -> impl Iterator<Item = (u64, SeedOcc)> + '_ {
        let windows = contig.oriented_kmers(seed_len).into_iter().flatten();
        windows.map(move |(pos, canon, forward)| {
            let occ = SeedOcc {
                contig: i as u32,
                pos: pos as u32,
                forward,
            };
            (canon.packed(), occ)
        })
    }

    /// Build over a contig set with seeds of length `k - 1`, sequentially —
    /// the one-owner build, and the reference the routed one must
    /// reproduce.
    pub fn build(contigs: &[PackedSeq], k: usize) -> Self {
        let seed_len = Self::seed_len_for(k);
        let seeds = contigs
            .iter()
            .enumerate()
            .flat_map(|(i, c)| Self::seeds_of(i, c, seed_len));
        KmerContigMap {
            seed_len,
            map: GroupedKmerMap::build(seeds),
        }
    }

    /// [`Self::build`] as an owner-routed build on `team`: contig batches
    /// route `(seed, occurrence)` pairs, so every seed's occurrences come
    /// out in ascending (contig, position) order exactly as the sequential
    /// build leaves them.
    pub fn build_routed(contigs: &[PackedSeq], k: usize, team: &mut impl Team) -> Self {
        let seed_len = Self::seed_len_for(k);
        let batches: Vec<(usize, &[PackedSeq])> = contigs
            .chunks(CONTIG_BATCH)
            .enumerate()
            .map(|(b, batch)| (b * CONTIG_BATCH, batch))
            .collect();
        // Contigs are k-mer-disjoint, so nearly every window is a new seed:
        // an owner's share of the windows (plus 1/16 for the spread of the
        // hash) is the size it will reach.
        let windows: usize = contigs
            .iter()
            .map(|c| (c.len() + 1).saturating_sub(seed_len))
            .sum();
        let per_owner = windows / OWNERS + windows / (16 * OWNERS) + 1;
        let map =
            GroupedKmerMap::build_routed(&batches, per_owner, team, |&(first, batch), router| {
                for (i, c) in batch.iter().enumerate() {
                    for (key, occ) in Self::seeds_of(first + i, c, seed_len) {
                        router.push(key, occ);
                    }
                }
            });
        KmerContigMap { seed_len, map }
    }

    /// Seed length (k − 1).
    pub fn seed_len(&self) -> usize {
        self.seed_len
    }

    /// Occurrences of a canonical seed (empty slice if none).
    #[inline]
    pub fn occurrences(&self, canon: Kmer) -> &[SeedOcc] {
        self.map.get(canon.packed())
    }

    /// Number of distinct seeds.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no seeds were indexed.
    pub fn is_empty(&self) -> bool {
        self.map.len() == 0
    }

    /// Record the seed index's table health (entries, capacity, load
    /// factor, probe-length histogram — see
    /// [`PartitionedKmerTable::record_metrics`]) plus a `{prefix}.occurrences`
    /// gauge (total seed occurrences across contigs — a snapshot of the
    /// built index, so re-recording overwrites rather than double-counts)
    /// into `registry`.
    pub fn record_metrics(&self, registry: &obs::MetricsRegistry, prefix: &str) {
        self.map.index.record_metrics(registry, prefix);
        registry
            .gauge(format!("{prefix}.occurrences"))
            .set(self.map.items() as f64);
    }
}

/// Read-support oracle over the Jellyfish k-mer table: a weld is supported
/// when every k-mer of the window occurs in the reads — i.e. reads
/// actually span the junction the weld proposes.
#[derive(Debug, Clone, Copy)]
pub struct WeldSupport<'a> {
    counts: &'a KmerCounts,
    k: usize,
}

impl<'a> WeldSupport<'a> {
    /// Wrap a (canonical) read k-mer table.
    pub fn new(counts: &'a KmerCounts) -> Self {
        WeldSupport {
            k: counts.k(),
            counts,
        }
    }

    /// True if every k-mer of the window occurs in the reads:
    /// rolls canonical k-mers straight off the 2-bit codes and probes the
    /// table by packed value.
    pub fn supports_packed(&self, w: &WeldWindow) -> bool {
        let n = w.len();
        if n < self.k {
            return false;
        }
        let Ok(mut state) = RollState::new(self.k) else {
            return false;
        };
        let mut any = false;
        for j in 0..n {
            if let Some(rolled) = state.push(w.code_at(j)) {
                if self.counts.get_packed(rolled.canonical_packed()) == 0 {
                    return false;
                }
                any = true;
            }
        }
        any
    }
}

/// Flanks around one seed occurrence, oriented so the seed reads in its
/// canonical direction. Flanks are at most `k/2 <= 16` 2-bit codes, so they
/// live in fixed arrays — extracting them never touches the heap.
///
/// A flank overlapping an N-run carries its codes anyway (gap positions
/// read as code 0) with the matching validity flag cleared; the caller
/// skips any window whose flanks are not both valid: a window containing N
/// is rejected *per window*, not per occurrence.
#[derive(Debug, Clone, Copy)]
struct CodeFlanks {
    left: [u8; MAX_FLANK],
    right: [u8; MAX_FLANK],
    n: usize,
    left_valid: bool,
    right_valid: bool,
}

/// Upper bound on the flank length (`k/2` with `k <= 32`).
const MAX_FLANK: usize = 16;

impl CodeFlanks {
    fn left(&self) -> &[u8] {
        &self.left[..self.n]
    }

    fn right(&self) -> &[u8] {
        &self.right[..self.n]
    }
}

/// Orient the region around one seed occurrence so the seed reads in its
/// canonical direction. `None` when the window would leave the contig.
fn oriented_code_flanks(
    seq: &PackedSeq,
    occ: SeedOcc,
    seed_len: usize,
    flank: usize,
) -> Option<CodeFlanks> {
    assert!(flank <= MAX_FLANK, "flank k/2 fits in {MAX_FLANK} bases");
    let pos = occ.pos as usize;
    if pos < flank || pos + seed_len + flank > seq.len() {
        return None;
    }
    let lstart = pos - flank; // forward-strand left region [lstart, pos)
    let rstart = pos + seed_len; // forward-strand right region [rstart, rstart+flank)
    let left_region_valid = seq.range_valid(lstart, pos);
    let right_region_valid = seq.range_valid(rstart, rstart + flank);
    let mut f = CodeFlanks {
        left: [0; MAX_FLANK],
        right: [0; MAX_FLANK],
        n: flank,
        left_valid: left_region_valid,
        right_valid: right_region_valid,
    };
    if occ.forward {
        for i in 0..flank {
            f.left[i] = seq.code_at(lstart + i);
            f.right[i] = seq.code_at(rstart + i);
        }
    } else {
        // Reverse-complement orientation: flanks swap sides, each read
        // backwards and complemented — so the validity flags swap too.
        for i in 0..flank {
            f.left[i] = complement_code(seq.code_at(rstart + flank - 1 - i));
            f.right[i] = complement_code(seq.code_at(lstart + flank - 1 - i));
        }
        f.left_valid = right_region_valid;
        f.right_valid = left_region_valid;
    }
    Some(f)
}

/// Cap on seed occurrences considered per candidate list: highly repetitive
/// seeds (low-complexity sequence) would otherwise explode quadratically —
/// the original GraphFromFasta applies the same kind of cap.
const MAX_OCCS_PER_SEED: usize = 16;

/// Harvest weld candidates from one contig (one loop-1 iteration).
///
/// For every seed the contig shares with another contig, build the mixed
/// weldmer (this contig's left flank + seed + other contig's right flank,
/// in the seed's canonical orientation) and keep it when the reads support
/// it. Returns canonical packed welds of [`ChrysalisConfig::weld_len`]
/// bases, in discovery order, deduplicated within the contig.
///
/// The candidate loop never leaves 2-bit space: flanks are extracted as
/// code arrays, windows grow through the rolling [`WeldWindow`] packer (the
/// left-flank + seed prefix is built once per seed occurrence and copied
/// per pair), dedup goes through a packed `u128` set and support rolls
/// canonical k-mers off the packed window.
pub fn harvest_contig(
    contig_idx: u32,
    contigs: &[PackedSeq],
    kmap: &KmerContigMap,
    support: &WeldSupport<'_>,
    cfg: &ChrysalisConfig,
) -> Vec<u128> {
    let seq = &contigs[contig_idx as usize];
    let seed_len = kmap.seed_len();
    let flank = cfg.flank();
    debug_assert_eq!(2 * flank + seed_len, cfg.weld_len());
    let mut out = Vec::new();
    let mut seen = PackedWeldSet::new();
    let mut seed_codes = [0u8; 32];

    let Ok(iter) = seq.oriented_kmers(seed_len) else {
        return out;
    };
    for (pos, canon, forward) in iter {
        let occs = kmap.occurrences(canon);
        if occs.len() < 2 || occs.len() > MAX_OCCS_PER_SEED {
            continue;
        }
        // Our own occurrence at this exact position.
        let me = SeedOcc {
            contig: contig_idx,
            pos: pos as u32,
            forward,
        };
        let Some(mine) = oriented_code_flanks(seq, me, seed_len, flank) else {
            continue;
        };
        for (j, c) in seed_codes[..seed_len].iter_mut().enumerate() {
            *c = canon.code_at(j);
        }
        // Window 1's prefix (my left flank + seed) is shared across every
        // candidate pair at this seed — build it once.
        let mut w1_prefix = WeldWindow::new();
        for &c in mine.left() {
            w1_prefix.push(c);
        }
        for &c in &seed_codes[..seed_len] {
            w1_prefix.push(c);
        }
        for &other in occs {
            if other.contig == contig_idx {
                continue;
            }
            let other_seq = &contigs[other.contig as usize];
            let Some(theirs) = oriented_code_flanks(other_seq, other, seed_len, flank) else {
                continue;
            };
            // Two mixed weldmers per pair: A-left + seed + B-right and
            // B-left + seed + A-right; each only when its flanks are
            // N-free.
            if mine.left_valid && theirs.right_valid {
                let mut w = w1_prefix;
                for &c in theirs.right() {
                    w.push(c);
                }
                keep_if_supported(&w, &mut seen, support, &mut out);
            }
            if theirs.left_valid && mine.right_valid {
                let mut w = WeldWindow::new();
                for &c in theirs.left() {
                    w.push(c);
                }
                for &c in &seed_codes[..seed_len] {
                    w.push(c);
                }
                for &c in mine.right() {
                    w.push(c);
                }
                keep_if_supported(&w, &mut seen, support, &mut out);
            }
        }
    }
    out
}

/// Dedup + support gate for one assembled window; pushes the canonical
/// packed weld on success.
#[inline]
fn keep_if_supported(
    w: &WeldWindow,
    seen: &mut PackedWeldSet,
    support: &WeldSupport<'_>,
    out: &mut Vec<u128>,
) {
    let packed = w.canonical_packed();
    if seen.contains(packed) || !support.supports_packed(w) {
        return;
    }
    seen.insert(packed);
    out.push(packed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcount::counter::{count_kmers, CounterConfig};
    use seqio::alphabet::{base_to_code, revcomp};
    use seqio::kmer::KmerIter;
    use std::collections::HashSet;

    fn packed<S: AsRef<[u8]>>(seqs: &[S]) -> Vec<PackedSeq> {
        seqio::packed::encode_all(seqs)
    }

    const K: usize = 8;

    /// A junction fixture: contigs A and B share the (k-1)-mer `SEED`
    /// embedded in otherwise distinct sequence; a junction read spans
    /// A-left + seed + B-right.
    const SEED: &[u8] = b"GGATACT"; // 7 = k-1
    const A_LEFT: &[u8] = b"CGAGTCGGTTAT";
    const A_RIGHT: &[u8] = b"CTTCGGCAAGTC";
    const B_LEFT: &[u8] = b"AAAGCGGCACTT";
    const B_RIGHT: &[u8] = b"GTGAAGTGTTCC";

    fn contig_a() -> Vec<u8> {
        [A_LEFT, SEED, A_RIGHT].concat()
    }

    fn contig_b() -> Vec<u8> {
        [B_LEFT, SEED, B_RIGHT].concat()
    }

    /// The junction weldmer loop 1 should harvest (A-left flank + seed +
    /// B-right flank with flank = k/2 = 4).
    fn junction_window() -> Vec<u8> {
        let flank = K / 2;
        [&A_LEFT[A_LEFT.len() - flank..], SEED, &B_RIGHT[..flank]].concat()
    }

    /// Borrowed windows: callers pass slices, no per-call cloning.
    fn support_counts(reads: &[&[u8]]) -> KmerCounts {
        count_kmers(reads, CounterConfig::new(K))
    }

    fn cfg() -> ChrysalisConfig {
        ChrysalisConfig::small(K)
    }

    /// Per-window reference for [`WeldWindow`]: pack a whole ASCII window
    /// forward and reverse-complemented and take the smaller.
    fn canonical_weld(window: &[u8]) -> u128 {
        let pack = |w: &[u8]| {
            w.iter()
                .fold(0u128, |p, &b| (p << 2) | base_to_code(b).unwrap() as u128)
        };
        pack(window).min(pack(&revcomp(window)))
    }

    fn window_of(bases: &[u8]) -> WeldWindow {
        let mut w = WeldWindow::new();
        for &b in bases {
            w.push(base_to_code(b).unwrap());
        }
        w
    }

    /// Naive reference for [`WeldSupport::supports_packed`]: every byte
    /// window's canonical k-mer, rebuilt per window, occurs in the reads.
    fn naive_supports(counts: &KmerCounts, window: &[u8]) -> bool {
        let mut kmers = KmerIter::new(window, counts.k()).unwrap().peekable();
        kmers.peek().is_some() && kmers.all(|(_, km)| counts.get(km.canonical()) > 0)
    }

    #[test]
    fn kmap_indexes_shared_seed() {
        let contigs = packed(&[contig_a(), contig_b()]);
        let kmap = KmerContigMap::build(&contigs, K);
        assert_eq!(kmap.seed_len(), K - 1);
        let seed = Kmer::from_bases(SEED).unwrap().canonical();
        let occs = kmap.occurrences(seed);
        assert_eq!(occs.len(), 2);
        assert_ne!(occs[0].contig, occs[1].contig);
    }

    #[test]
    fn kmap_metrics_count_occurrences() {
        let contigs = packed(&[contig_a(), contig_b()]);
        let kmap = KmerContigMap::build(&contigs, K);
        let reg = obs::MetricsRegistry::new();
        kmap.record_metrics(&reg, "gff.kmap");
        // Snapshot gauges: recording twice must not double anything.
        kmap.record_metrics(&reg, "gff.kmap");
        let snap = reg.snapshot();
        assert_eq!(snap.gauge("gff.kmap.entries"), Some(kmap.len() as f64));
        // Both contigs contribute every window; the shared seed occurs twice.
        let windows: usize = contigs.iter().map(|c| c.len() - (K - 1) + 1).sum();
        assert_eq!(snap.gauge("gff.kmap.occurrences"), Some(windows as f64));
    }

    #[test]
    fn weld_window_matches_pack_reference() {
        // The incremental packer must agree with the per-window reference
        // on canonical value and decoded bytes, including prefix reuse.
        let w = junction_window();
        for end in K..=w.len() {
            let window = &w[..end];
            let ww = window_of(window);
            assert_eq!(ww.len(), window.len());
            assert_eq!(
                ww.canonical_packed(),
                canonical_weld(window),
                "window {:?}",
                String::from_utf8_lossy(window)
            );
            let rc = revcomp(window);
            let smaller = window.min(&rc);
            assert_eq!(decode_weld(ww.canonical_packed(), end), smaller);
        }
    }

    #[test]
    fn weld_wire_form_is_two_words_hi_then_lo() {
        use mpisim::pack::{pack, unpack};
        let welds = vec![0u128, 1, (7u128 << 64) | 9, u128::MAX >> 2];
        let buf = pack(&welds);
        assert_eq!(buf.len(), 16 * welds.len());
        assert_eq!(buf[16..24], 0u64.to_le_bytes(), "high word first");
        assert_eq!(buf[24..32], 1u64.to_le_bytes());
        assert_eq!(unpack::<u128>(&buf).unwrap(), welds);
        assert!(unpack::<u128>(&buf[..24]).is_none(), "half a weld");
    }

    #[test]
    fn supports_packed_matches_naive_support() {
        let window = junction_window();
        let other = [B_LEFT, SEED].concat();
        let counts = support_counts(&[&window, &window, &other]);
        let sup = WeldSupport::new(&counts);
        let unread = [A_LEFT, SEED].concat();
        for w in [
            &window[..],
            &other[..],
            &unread,
            &window[..K - 1],
            &window[1..K + 1],
        ] {
            assert_eq!(
                sup.supports_packed(&window_of(w)),
                naive_supports(&counts, w),
                "window {:?}",
                String::from_utf8_lossy(w)
            );
        }
    }

    #[test]
    fn support_requires_all_kmers() {
        let window = junction_window();
        let counts = support_counts(&[&window]);
        let sup = WeldSupport::new(&counts);
        assert!(sup.supports_packed(&window_of(&window)));
        assert!(
            sup.supports_packed(&window_of(&revcomp(&window))),
            "strand-agnostic"
        );
        assert!(!sup.supports_packed(&window_of(b"TTTTTTTTTTTTTTTT")));
        assert!(!sup.supports_packed(&window_of(b"ACG")), "shorter than k");
    }

    #[test]
    fn support_threshold() {
        // One read spanning the junction is support; a read that stops one
        // base short of its last k-mer is not.
        let window = junction_window();
        let w = window_of(&window);
        assert!(WeldSupport::new(&support_counts(&[&window])).supports_packed(&w));
        let short = support_counts(&[&window[..window.len() - 1]]);
        assert!(!WeldSupport::new(&short).supports_packed(&w));
    }

    #[test]
    fn harvest_finds_supported_junction() {
        let contigs = packed(&[contig_a(), contig_b()]);
        let kmap = KmerContigMap::build(&contigs, K);
        let w = junction_window();
        let counts = support_counts(&[&w]);
        let sup = WeldSupport::new(&counts);
        let welds = harvest_contig(0, &contigs, &kmap, &sup, &cfg());
        assert!(
            welds.contains(&canonical_weld(&junction_window())),
            "junction weld harvested: {:?}",
            welds
                .iter()
                .map(|&w| String::from_utf8_lossy(&decode_weld(w, cfg().weld_len())).to_string())
                .collect::<Vec<_>>()
        );
        // Contig B harvests the same weld from its side.
        let welds_b = harvest_contig(1, &contigs, &kmap, &sup, &cfg());
        assert!(welds_b.contains(&canonical_weld(&junction_window())));
    }

    #[test]
    fn harvest_empty_without_read_support() {
        let contigs = packed(&[contig_a(), contig_b()]);
        let kmap = KmerContigMap::build(&contigs, K);
        let empty = support_counts(&[]);
        let sup = WeldSupport::new(&empty);
        assert!(harvest_contig(0, &contigs, &kmap, &sup, &cfg()).is_empty());
    }

    #[test]
    fn harvest_empty_without_shared_seed() {
        let a: &[u8] = b"CGAGTCGGTTATCTTCGGCAAGTCAGGT";
        let b: &[u8] = b"AAAGCGGCACTTGTGAAGTGTTCCCCAC";
        let contigs = packed(&[a, b]);
        let kmap = KmerContigMap::build(&contigs, K);
        let counts = support_counts(&[a]);
        let sup = WeldSupport::new(&counts);
        assert!(harvest_contig(0, &contigs, &kmap, &sup, &cfg()).is_empty());
    }

    #[test]
    fn revcomp_contig_harvests_same_weld() {
        // Contig B given as its reverse complement: canonical seed
        // orientation makes the harvested weld identical.
        let contigs_fwd = packed(&[contig_a(), contig_b()]);
        let contigs_rc = packed(&[contig_a(), revcomp(&contig_b())]);
        let w = junction_window();
        let counts = support_counts(&[&w]);
        let sup = WeldSupport::new(&counts);
        let w_fwd: HashSet<u128> = harvest_contig(
            0,
            &contigs_fwd,
            &KmerContigMap::build(&contigs_fwd, K),
            &sup,
            &cfg(),
        )
        .into_iter()
        .collect();
        let w_rc: HashSet<u128> = harvest_contig(
            0,
            &contigs_rc,
            &KmerContigMap::build(&contigs_rc, K),
            &sup,
            &cfg(),
        )
        .into_iter()
        .collect();
        assert!(!w_fwd.is_empty());
        assert_eq!(w_fwd, w_rc);
    }

    #[test]
    fn repetitive_seed_capped() {
        // A seed occurring in > MAX_OCCS_PER_SEED contigs is skipped: no
        // harvested weld may contain it. (Flanks are pseudo-random, so
        // *other* accidental low-occurrence seeds may still weld — that is
        // fine and ignored here.)
        let mut state = 0xDEADBEEFu64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            b"ACGT"[(state >> 33) as usize % 4]
        };
        let mut seqs: Vec<Vec<u8>> = Vec::new();
        for _ in 0..(MAX_OCCS_PER_SEED + 4) {
            let mut s: Vec<u8> = (0..12).map(|_| next()).collect();
            s.extend_from_slice(SEED);
            s.extend((0..12).map(|_| next()));
            seqs.push(s);
        }
        let contigs = packed(&seqs);
        let kmap = KmerContigMap::build(&contigs, K);
        let seed = Kmer::from_bases(SEED).unwrap().canonical();
        assert!(kmap.occurrences(seed).len() > MAX_OCCS_PER_SEED);
        let counts = support_counts(&seqs.iter().map(|s| s.as_slice()).collect::<Vec<_>>());
        let sup = WeldSupport::new(&counts);
        for i in 0..contigs.len() as u32 {
            for weld in harvest_contig(i, &contigs, &kmap, &sup, &cfg()) {
                let weld = decode_weld(weld, cfg().weld_len());
                // The weld's central region is its seed; the capped seed
                // must never be the one a weld was built on. (SEED may
                // still appear off-centre inside welds seeded on adjacent
                // uncapped seeds — legitimate.)
                let flank = cfg().flank();
                let centre = &weld[flank..flank + SEED.len()];
                let rc = revcomp(&weld);
                let centre_rc = &rc[flank..flank + SEED.len()];
                assert!(
                    centre != SEED && centre_rc != SEED,
                    "capped seed used as a weld seed"
                );
            }
        }
    }

    #[test]
    fn short_contig_harvests_nothing() {
        let contigs = packed(&[b"ACGTACG".as_slice(), b"ACGTACG".as_slice()]);
        let kmap = KmerContigMap::build(&contigs, K);
        let counts = support_counts(&[b"ACGTACG".as_slice()]);
        let sup = WeldSupport::new(&counts);
        assert!(harvest_contig(0, &contigs, &kmap, &sup, &cfg()).is_empty());
    }

    #[test]
    fn n_in_one_flank_skips_only_that_window() {
        // An N inside contig A's left flank kills the A-left+seed+B-right
        // window but must NOT kill B-left+seed+A-right: N windows are
        // rejected one at a time, not per seed occurrence.
        let flank = cfg().flank();
        let a_left_n: &[u8] = b"CGAGTCGGTNAT"; // N lands inside the flank
        assert!(a_left_n[a_left_n.len() - flank..].contains(&b'N'));
        let a = [a_left_n, SEED, A_RIGHT].concat();
        let b = contig_b();
        let contigs = packed(&[a.clone(), b.clone()]);
        let kmap = KmerContigMap::build(&contigs, K);

        let w2 = [&B_LEFT[B_LEFT.len() - flank..], SEED, &A_RIGHT[..flank]].concat();
        let w1_clean = junction_window(); // what window 1 would be without N
        let counts = support_counts(&[&w2, &w1_clean]);
        let sup = WeldSupport::new(&counts);
        let welds = harvest_contig(0, &contigs, &kmap, &sup, &cfg());
        assert!(
            welds.contains(&canonical_weld(&w2)),
            "clean window still harvested"
        );
        assert!(
            !welds.contains(&canonical_weld(&w1_clean)),
            "N-flank window must not appear"
        );
    }
}
