//! Paired-end scaffolding links from the Bowtie alignment.
//!
//! "the subsequent step searches pairs of Inchworm contigs of which both
//! ends are to be combined for the construction of scaffold, provided that
//! some of input reads are aligned onto single end of each contigs. This
//! output is later combined with 'welding' pairs of Inchworm contigs from
//! GraphFromFasta for full construction of Inchworm bundles." (§III-A)

use std::collections::HashMap;

use bowtie::sam::SamRecord;
use omp::{Pool, Team};
use seqio::fasta::Record;
use seqio::par::BUCKETS;

use crate::bowtie_mpi::Hit;

/// Scaffolding parameters.
#[derive(Debug, Clone, Copy)]
pub struct ScaffoldConfig {
    /// A mate must align within this many bases of a contig end to count
    /// as an "end" alignment.
    pub end_window: usize,
    /// Minimum distinct read pairs linking two contigs.
    pub min_pairs: u32,
}

impl Default for ScaffoldConfig {
    fn default() -> Self {
        ScaffoldConfig {
            end_window: 300,
            min_pairs: 2,
        }
    }
}

/// Strip the mate suffix (`/1`, `/2`, `/s`) from a read name.
fn pair_key(qname: &str) -> &str {
    qname
        .strip_suffix("/1")
        .or_else(|| qname.strip_suffix("/2"))
        .or_else(|| qname.strip_suffix("/s"))
        .unwrap_or(qname)
}

/// FNV-1a of a pair key, mixed: the lead that buckets the key. Simulated
/// read names share long prefixes, so a byte prefix would not spread them.
fn key_hash(key: &str) -> u64 {
    let fnv = key.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    kmertable::mix64(fnv)
}

/// One placement near a contig end: the pair key's hash, the key, the
/// contig. Sorting by hash first compares whole keys only on a tie.
type Placement<'a> = (u64, &'a str, u32);

/// One aligned mate, as the scaffolding core reads it: the read's name, the
/// contig's dense index, the alignment's 0-based offset on the contig and
/// the bases it spans.
type Mate<'a> = (&'a str, u32, usize, usize);

/// Derive scaffold pairs from merged SAM records.
///
/// `contig_index` maps contig names to dense indices; `contig_lens` gives
/// each contig's length (for the end-window test). Returns `(a, b)` pairs
/// with `a < b`, sorted: the contigs whose ends the mates of at least
/// `min_pairs` read pairs align near. Unmapped records and contigs the
/// index does not know are skipped; the span is the CIGAR's `<n>M`.
pub fn scaffold_pairs(
    sam: &[SamRecord],
    contig_index: &HashMap<String, u32>,
    contig_lens: &[usize],
    cfg: ScaffoldConfig,
) -> Vec<(u32, u32)> {
    let mate = sam_mates(sam, contig_index);
    scaffold_mates_on(sam.len(), mate, contig_lens, cfg, &mut Pool::new(1))
}

/// [`scaffold_pairs`] on the merged hits of
/// [`bowtie_hits`](crate::bowtie_mpi::bowtie_hits), on `team`: a hit's
/// name and span are its read's, `reads[hit.read]`, and its contig is the
/// hit's. The links are the same on every team, and the same as
/// [`scaffold_pairs`] on the hits' SAM records.
pub fn scaffold_pairs_on(
    hits: &[Hit],
    reads: &[Record],
    contig_lens: &[usize],
    cfg: ScaffoldConfig,
    team: &mut impl Team,
) -> Vec<(u32, u32)> {
    let mate = |i: usize| {
        let hit = &hits[i];
        let (read, offset) = (&reads[hit.read as usize], hit.offset as usize);
        Some((read.id.as_str(), hit.contig, offset, read.seq.len()))
    };
    scaffold_mates_on(hits.len(), mate, contig_lens, cfg, team)
}

/// The mate of each SAM record: `None` for an unmapped record or a contig
/// `contig_index` does not know.
fn sam_mates<'a>(
    sam: &'a [SamRecord],
    contig_index: &'a HashMap<String, u32>,
) -> impl Fn(usize) -> Option<Mate<'a>> + Sync + 'a {
    move |i| {
        let rec = &sam[i];
        if rec.is_unmapped() {
            return None;
        }
        let &contig = contig_index.get(&rec.rname)?;
        let pos = (rec.pos.max(1) - 1) as usize; // SAM POS is 1-based
        let span = rec
            .cigar
            .strip_suffix('M')
            .and_then(|n| n.parse::<usize>().ok())
            .unwrap_or(0);
        Some((rec.qname.as_str(), contig, pos, span))
    }
}

/// The one scaffolding core: the links between contigs made by the mates
/// `mate(0..n)` (`None` skips an item), as three loops on `team`.
///
/// 1. Per chunk of items: apply the end-window test, and put each
///    `(hash, pair key, contig)` in the bucket of its hash's top bits — so
///    every placement of a read pair lands in one bucket.
/// 2. Per pair bucket: sort, dedup, group by pair key and emit one link
///    per read pair and pair of its contigs, into the bucket of the link's
///    first contig — buckets in `(a, b)` order, equal links together.
/// 3. Per link bucket: sort and keep each link made by `min_pairs` read
///    pairs or more. The buckets concatenate to the sorted list.
fn scaffold_mates_on<'a>(
    n: usize,
    mate: impl Fn(usize) -> Option<Mate<'a>> + Sync,
    contig_lens: &[usize],
    cfg: ScaffoldConfig,
    team: &mut impl Team,
) -> Vec<(u32, u32)> {
    let shift = 64 - BUCKETS.trailing_zeros();
    let chunks = seqio::par::chunks(n);
    let placed: Vec<Vec<Vec<Placement>>> = team.map(&chunks, |chunk| {
        let mut out = vec![Vec::new(); BUCKETS];
        for (name, contig, pos, span) in chunk.clone().filter_map(&mate) {
            let len = contig_lens[contig as usize];
            let near_start = pos < cfg.end_window;
            let near_end = pos + span + cfg.end_window >= len;
            if near_start || near_end {
                let key = pair_key(name);
                let hash = key_hash(key);
                out[(hash >> shift) as usize].push((hash, key, contig));
            }
        }
        out
    });

    let contigs = contig_lens.len().max(1);
    let buckets: Vec<usize> = (0..BUCKETS).collect();
    let linked: Vec<Vec<Vec<(u32, u32)>>> = team.map(&buckets, |&b| {
        let mut ends: Vec<Placement> = placed.iter().flat_map(|c| c[b].iter().copied()).collect();
        ends.sort_unstable();
        ends.dedup();
        let mut out = vec![Vec::new(); BUCKETS];
        for pair in ends.chunk_by(|x, y| (x.0, x.1) == (y.0, y.1)) {
            for (i, &(_, _, a)) in pair.iter().enumerate() {
                let to = &mut out[a as usize * BUCKETS / contigs];
                to.extend(pair[i + 1..].iter().map(|&(_, _, b)| (a, b)));
            }
        }
        out
    });
    drop(placed);

    let kept: Vec<Vec<(u32, u32)>> = team.map(&buckets, |&b| {
        let mut links: Vec<(u32, u32)> = linked.iter().flat_map(|p| p[b].iter().copied()).collect();
        links.sort_unstable();
        links
            .chunk_by(|x, y| x == y)
            .filter(|run| run.len() >= cfg.min_pairs as usize)
            .map(|run| run[0])
            .collect()
    });
    kept.concat()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sam(qname: &str, rname: &str, pos: u64, span: usize) -> SamRecord {
        SamRecord {
            qname: qname.into(),
            flag: 0,
            rname: rname.into(),
            pos,
            mapq: 255,
            cigar: format!("{span}M"),
            nm: 0,
        }
    }

    fn index() -> (HashMap<String, u32>, Vec<usize>) {
        let mut m = HashMap::new();
        m.insert("cA".to_string(), 0);
        m.insert("cB".to_string(), 1);
        (m, vec![1000, 1000])
    }

    fn cfg() -> ScaffoldConfig {
        ScaffoldConfig {
            end_window: 100,
            min_pairs: 2,
        }
    }

    #[test]
    fn links_contigs_with_enough_pairs() {
        let (idx, lens) = index();
        let mut records = Vec::new();
        // Two read pairs spanning cA's tail and cB's head.
        for p in 0..2 {
            records.push(sam(&format!("p{p}/1"), "cA", 950, 36));
            records.push(sam(&format!("p{p}/2"), "cB", 10, 36));
        }
        let pairs = scaffold_pairs(&records, &idx, &lens, cfg());
        assert_eq!(pairs, vec![(0, 1)]);
    }

    #[test]
    fn below_min_pairs_no_link() {
        let (idx, lens) = index();
        let records = vec![sam("p0/1", "cA", 950, 36), sam("p0/2", "cB", 10, 36)];
        assert!(scaffold_pairs(&records, &idx, &lens, cfg()).is_empty());
    }

    #[test]
    fn mid_contig_alignments_do_not_link() {
        let (idx, lens) = index();
        let mut records = Vec::new();
        for p in 0..3 {
            records.push(sam(&format!("p{p}/1"), "cA", 500, 36)); // middle
            records.push(sam(&format!("p{p}/2"), "cB", 10, 36));
        }
        assert!(scaffold_pairs(&records, &idx, &lens, cfg()).is_empty());
    }

    #[test]
    fn same_contig_pairs_do_not_link() {
        let (idx, lens) = index();
        let mut records = Vec::new();
        for p in 0..3 {
            records.push(sam(&format!("p{p}/1"), "cA", 10, 36));
            records.push(sam(&format!("p{p}/2"), "cA", 950, 36));
        }
        assert!(scaffold_pairs(&records, &idx, &lens, cfg()).is_empty());
    }

    #[test]
    fn unmapped_and_unknown_contigs_ignored() {
        let (idx, lens) = index();
        let mut records = vec![SamRecord::unmapped("p0/1"), sam("p0/2", "cZ", 10, 36)];
        for p in 1..3 {
            records.push(sam(&format!("p{p}/1"), "cA", 960, 36));
            records.push(sam(&format!("p{p}/2"), "cB", 5, 36));
        }
        let pairs = scaffold_pairs(&records, &idx, &lens, cfg());
        assert_eq!(pairs, vec![(0, 1)]);
    }

    /// The `HashMap` body `scaffold_pairs` had before it sorted instead.
    fn hashmap_oracle(
        sam: &[SamRecord],
        contig_index: &HashMap<String, u32>,
        contig_lens: &[usize],
        cfg: ScaffoldConfig,
    ) -> Vec<(u32, u32)> {
        use std::collections::HashSet;
        let mut placements: HashMap<&str, Vec<(u32, bool)>> = HashMap::new();
        for rec in sam {
            if rec.is_unmapped() {
                continue;
            }
            let Some(&contig) = contig_index.get(&rec.rname) else {
                continue;
            };
            let len = contig_lens[contig as usize];
            let pos = (rec.pos.max(1) - 1) as usize;
            let read_span = rec
                .cigar
                .strip_suffix('M')
                .and_then(|n| n.parse::<usize>().ok())
                .unwrap_or(0);
            let near_start = pos < cfg.end_window;
            let near_end = pos + read_span + cfg.end_window >= len;
            let near = near_start || near_end;
            placements
                .entry(pair_key(&rec.qname))
                .or_default()
                .push((contig, near));
        }
        let mut link_counts: HashMap<(u32, u32), u32> = HashMap::new();
        for (_key, places) in placements {
            let ends: HashSet<u32> = places
                .iter()
                .filter(|(_, near)| *near)
                .map(|(c, _)| *c)
                .collect();
            let mut ends: Vec<u32> = ends.into_iter().collect();
            ends.sort_unstable();
            for i in 0..ends.len() {
                for j in i + 1..ends.len() {
                    *link_counts.entry((ends[i], ends[j])).or_insert(0) += 1;
                }
            }
        }
        let mut pairs: Vec<(u32, u32)> = link_counts
            .into_iter()
            .filter(|&(_, n)| n >= cfg.min_pairs)
            .map(|(p, _)| p)
            .collect();
        pairs.sort_unstable();
        pairs
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Mates of a few read pairs (some unmapped, some on contigs the
        /// index does not know, some with a name without a mate suffix)
        /// anywhere on a handful of short contigs, so ends, middles,
        /// repeats of one placement and every `min_pairs` occur.
        /// A hub pair whose mates sit at the start of every contig, so
        /// one pair key spans them all. Every loop order gives the
        /// oracle's links: in place, reversed, and on two OS threads.
        #[test]
        fn sorted_links_equal_the_hashmap_body(
            records in proptest::collection::vec(
                (0usize..12, 0usize..4, 0usize..7, 0u64..700, 20usize..60, 0u8..8),
                0..120,
            ),
            lens in proptest::collection::vec(100usize..700, 6),
            end_window in 0usize..200,
            min_pairs in 0u32..4,
            hubs in 0usize..3,
        ) {
            let names = ["c0", "c1", "c2", "c3", "c4", "c5", "unknown"];
            let idx: HashMap<String, u32> =
                (0..6).map(|c| (names[c].to_string(), c as u32)).collect();
            let mut records: Vec<SamRecord> = records
                .into_iter()
                .map(|(pair, mate, contig, pos, span, kind)| {
                    let qname = format!("p{pair}{}", ["/1", "/2", "/s", ""][mate]);
                    match kind {
                        0 => SamRecord::unmapped(&qname),
                        _ => sam(&qname, names[contig], pos, span),
                    }
                })
                .collect();
            for hub in 0..hubs {
                for (c, name) in names.iter().enumerate() {
                    let mate = ["/1", "/2"][c % 2];
                    records.push(sam(&format!("hub{hub}{mate}"), name, 1, 30));
                }
            }
            let cfg = ScaffoldConfig { end_window, min_pairs };
            let expect = hashmap_oracle(&records, &idx, &lens, cfg);
            proptest::prop_assert_eq!(&scaffold_pairs(&records, &idx, &lens, cfg), &expect);
            let mates = sam_mates(&records, &idx);
            let reversed = &mut crate::test_teams::Reversed;
            let on_reversed = scaffold_mates_on(records.len(), &mates, &lens, cfg, reversed);
            proptest::prop_assert_eq!(&on_reversed, &expect);
            let pool = &mut Pool::new(2);
            let on_threads = scaffold_mates_on(records.len(), &mates, &lens, cfg, pool);
            proptest::prop_assert_eq!(&on_threads, &expect);
        }
    }

    #[test]
    fn many_records_spread_over_the_buckets() {
        // More records than one chunk holds, on many contigs: every loop
        // has several tasks, and links land in many buckets.
        let contigs = 200;
        let idx: HashMap<String, u32> = (0..contigs).map(|c| (format!("c{c}"), c)).collect();
        let lens = vec![1000; contigs as usize];
        let mut records = Vec::new();
        for p in 0..3000u32 {
            let (a, b) = (p % contigs, (p * 7 + 1) % contigs);
            records.push(sam(
                &format!("read{}/1", p % 1500),
                &format!("c{a}"),
                950,
                36,
            ));
            records.push(sam(
                &format!("read{}/2", p % 1500),
                &format!("c{b}"),
                10,
                36,
            ));
        }
        let cfg = cfg();
        let expect = hashmap_oracle(&records, &idx, &lens, cfg);
        assert!(expect.len() > 100);
        assert_eq!(scaffold_pairs(&records, &idx, &lens, cfg), expect);
        let mates = sam_mates(&records, &idx);
        let reversed = &mut crate::test_teams::Reversed;
        let on_reversed = scaffold_mates_on(records.len(), mates, &lens, cfg, reversed);
        assert_eq!(on_reversed, expect);
    }

    #[test]
    fn pair_key_strips_suffixes() {
        assert_eq!(pair_key("r1/1"), "r1");
        assert_eq!(pair_key("r1/2"), "r1");
        assert_eq!(pair_key("r1/s"), "r1");
        assert_eq!(pair_key("r1"), "r1");
    }
}
