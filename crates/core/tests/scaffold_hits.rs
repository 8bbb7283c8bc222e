//! One scaffolding core: the pinned SAM path (`scaffold_pairs` over the
//! names step's records, through `contig_name_index` and the CIGAR) and the
//! pipeline's hit path (`scaffold_pairs_on` over Bowtie's merged hits) give
//! the same links on any hits.

use chrysalis::bowtie_mpi::{contig_name_index, sam_records, Hit};
use chrysalis::scaffold::{scaffold_pairs, scaffold_pairs_on, ScaffoldConfig};
use proptest::prelude::*;
use seqio::fasta::Record;

/// Where on its contig a mate aligns.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Spot {
    /// At the contig's start.
    Head,
    /// Ending at the contig's end.
    Tail,
    /// At offset `end_window − 1` (0: the last offset near the start) or
    /// `end_window` (1: the first one past it).
    HeadEdge(u8),
    /// Ending `end_window` bases before the contig's end (0: the last
    /// placement near the end) or one base earlier (1: the first past it).
    TailEdge(u8),
    /// Anywhere, `0..len`: mostly mid-contig on the long contigs.
    Anywhere(u32),
}

/// A hit of `read` (of `span` bases) on `contig` at `spot`.
fn hit(read: usize, contig: usize, spot: Spot, span: usize, ends: (&[usize], usize)) -> Hit {
    let (lens, end_window) = ends;
    let len = lens[contig];
    let offset = match spot {
        Spot::Head => 0,
        Spot::Tail => len.saturating_sub(span),
        Spot::HeadEdge(past) => (end_window - 1 + usize::from(past)).min(len),
        Spot::TailEdge(past) => len.saturating_sub(span + end_window + usize::from(past)),
        Spot::Anywhere(at) => at as usize % len,
    };
    Hit {
        read: read as u32,
        contig: contig as u32,
        offset: offset as u32,
        reverse: (read + contig) % 2 == 1,
        mismatches: (read % 3) as u8,
    }
}

fn spot() -> impl Strategy<Value = Spot> {
    prop_oneof![
        Just(Spot::Head),
        Just(Spot::Tail),
        (0u8..2).prop_map(Spot::HeadEdge),
        (0u8..2).prop_map(Spot::TailEdge),
        any::<u32>().prop_map(Spot::Anywhere),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random mates (both strands, at either end, on either side of an end
    /// window's edge, or anywhere) plus groups of read pairs joining one
    /// contig to another — `min_pairs − 1` or `min_pairs` of them, each
    /// group's mates at one spot on each contig — and pairs with both mates
    /// on one contig. The hits' SAM records, scaffolded through the contig
    /// name index, give the links the hits give on one and on two OS
    /// threads; a full group from a tail to a head is always linked.
    #[test]
    fn sam_records_and_hits_scaffold_alike(
        lens in proptest::collection::vec(40usize..900, 2..8),
        mates in proptest::collection::vec((0usize..30, 0usize..2, 0usize..8, spot()), 0..120),
        groups in proptest::collection::vec(
            (0usize..8, 0usize..8, any::<bool>(), spot(), spot()), 0..6),
        same_contig in proptest::collection::vec(0usize..8, 0..4),
        spans in proptest::collection::vec(20usize..80, 64),
        window_and_min in (1usize..200, 1u32..4),
    ) {
        let (end_window, min_pairs) = window_and_min;
        let cfg = ScaffoldConfig { end_window, min_pairs };
        let n = lens.len();
        let contigs: Vec<Record> = lens
            .iter()
            .enumerate()
            .map(|(c, &len)| Record::new(format!("c{c}"), vec![b'A'; len]))
            .collect();
        let mut reads: Vec<Record> = Vec::new();
        let pair = |reads: &mut Vec<Record>| {
            let p = reads.len() / 2;
            for mate in ["/1", "/2"] {
                let span = spans[reads.len() % spans.len()];
                reads.push(Record::new(format!("p{p}{mate}"), vec![b'C'; span]));
            }
            2 * p
        };
        let span = |reads: &[Record], r: usize| reads[r].seq.len();

        // Random mates of 30 read pairs.
        for _ in 0..30 {
            pair(&mut reads);
        }
        let ends = (&lens[..], end_window);
        let mut hits: Vec<Hit> = mates
            .iter()
            .map(|&(p, mate, contig, at)| {
                let r = 2 * p + mate;
                hit(r, contig % n, at, span(&reads, r), ends)
            })
            .collect();
        // Link groups: a to b, at `min_pairs` read pairs or one fewer.
        let mut expect_links = Vec::new();
        for &(a, b, full, at_a, at_b) in &groups {
            let (a, b) = (a % n, b % n);
            let count = min_pairs - u32::from(!full);
            for _ in 0..count {
                let r = pair(&mut reads);
                hits.push(hit(r, a, at_a, span(&reads, r), ends));
                hits.push(hit(r + 1, b, at_b, span(&reads, r + 1), ends));
            }
            if full && a != b && (at_a, at_b) == (Spot::Tail, Spot::Head) {
                expect_links.push((a.min(b) as u32, a.max(b) as u32));
            }
        }
        // Both mates on one contig, at its two ends.
        for &c in &same_contig {
            let r = pair(&mut reads);
            hits.push(hit(r, c % n, Spot::Head, span(&reads, r), ends));
            hits.push(hit(r + 1, c % n, Spot::Tail, span(&reads, r + 1), ends));
        }
        hits.sort_unstable();

        let sam = sam_records(&hits, &contigs, &reads);
        let via_sam = scaffold_pairs(&sam, &contig_name_index(&contigs), &lens, cfg);
        for threads in [1, 2] {
            let pool = &mut omp::Pool::new(threads);
            let via_hits = scaffold_pairs_on(&hits, &reads, &lens, cfg, pool);
            prop_assert_eq!(&via_hits, &via_sam, "{} threads", threads);
        }
        for link in expect_links {
            prop_assert!(via_sam.binary_search(&link).is_ok(), "{:?} in {:?}", link, via_sam);
        }
    }
}
