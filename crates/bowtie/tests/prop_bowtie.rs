//! Property-based tests for the aligner substrate: FM-index results always
//! agree with naive string search, on any DNA reference and pattern; the
//! aligner agrees with a brute-force Hamming scan, the rank structure with
//! naive counting, and the suffix sort with the naive one on the
//! low-complexity texts a packed-key seed and group refinement get wrong
//! first — in whatever order the builders' parallel loops run.

use bowtie::align::{align_read, AlignConfig, Alignment, Strand};
use bowtie::bwt::Bwt;
use bowtie::fmindex::FmIndex;
use bowtie::suffix::{suffix_array, suffix_array_naive, suffix_array_on};
use proptest::prelude::*;
use seqio::alphabet::revcomp;
use seqio::fasta::Record;

/// A parallel loop that runs its indices last to first.
fn reversed(n: usize, body: &(dyn Fn(usize) + Sync)) {
    (0..n).rev().for_each(body)
}

fn dna(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        prop_oneof![Just(b'A'), Just(b'C'), Just(b'G'), Just(b'T')],
        len,
    )
}

/// Count naive occurrences of `pat` in `text`.
fn naive_count(text: &[u8], pat: &[u8]) -> usize {
    if pat.is_empty() || pat.len() > text.len() {
        return 0;
    }
    text.windows(pat.len()).filter(|w| w == &pat).count()
}

/// The aligner's oracle: every end-to-end placement of `read` on either
/// strand of every contig with at most `v` substitutions, by scanning all
/// offsets; then the documented order, stratum filter and truncation. A
/// window holding a byte outside `ACGT` aligns to nothing; a read `N`
/// mismatches whatever it lies on.
fn brute_force_align(contigs: &[Vec<u8>], read: &[u8], cfg: AlignConfig) -> Vec<Alignment> {
    let mut strands = vec![(Strand::Forward, read.to_vec())];
    if cfg.both_strands {
        strands.push((Strand::Reverse, revcomp(read)));
    }
    let mut out = Vec::new();
    for (strand, seq) in &strands {
        for (contig, text) in contigs.iter().enumerate() {
            // As `FmIndex::build` does; a read is matched as given.
            let text = text.to_ascii_uppercase();
            for (offset, window) in text.windows(seq.len().max(1)).enumerate() {
                if seq.is_empty() || !window.iter().all(|b| b"ACGT".contains(b)) {
                    continue;
                }
                let mm = window.iter().zip(seq).filter(|(a, b)| a != b).count();
                if mm <= cfg.max_mismatches.min(3) as usize {
                    out.push(Alignment {
                        contig,
                        offset,
                        strand: *strand,
                        mismatches: mm as u8,
                        read_len: seq.len(),
                    });
                }
            }
        }
    }
    out.sort_by_key(|a| {
        (
            a.mismatches,
            a.contig,
            a.offset,
            a.strand == Strand::Reverse,
        )
    });
    if cfg.best_strata {
        let best = out.first().map(|a| a.mismatches);
        out.retain(|a| Some(a.mismatches) == best);
    }
    out.truncate(cfg.max_hits);
    out
}

/// `align_read` ≡ the oracle for every configuration in the issue's grid.
fn assert_aligner_matches_oracle(contigs: &[Vec<u8>], read: &[u8]) {
    let records: Vec<Record> = contigs
        .iter()
        .enumerate()
        .map(|(i, s)| Record::new(format!("c{i}"), s.clone()))
        .collect();
    let idx = FmIndex::build(&records);
    for max_mismatches in 0..=3u8 {
        for (best_strata, both_strands) in
            [(true, true), (true, false), (false, true), (false, false)]
        {
            for max_hits in [0usize, 1, 4, 16, usize::MAX] {
                let cfg = AlignConfig {
                    max_mismatches,
                    max_hits,
                    best_strata,
                    both_strands,
                };
                assert_eq!(
                    align_read(&idx, read, cfg),
                    brute_force_align(contigs, read, cfg),
                    "read {:?} cfg {cfg:?} contigs {:?}",
                    String::from_utf8_lossy(read),
                    contigs
                        .iter()
                        .map(|c| String::from_utf8_lossy(c))
                        .collect::<Vec<_>>()
                );
            }
        }
    }
}

/// Rank at every row against counting the naive transform.
fn assert_rank_matches_naive(text: &[u8]) {
    let n = text.len();
    let bwt = Bwt::build(text);
    let naive: Vec<u8> = suffix_array_naive(text)
        .iter()
        .map(|&p| text[(p as usize + n - 1) % n])
        .collect();
    for (code, base) in b"ACGT".iter().enumerate() {
        let smaller = text.iter().filter(|&&b| b < *base).count();
        let mut occ = 0;
        for i in 0..=n {
            assert_eq!(
                bwt.backward_step(0, i, code as u8),
                (occ > 0).then_some((smaller, smaller + occ)),
                "base {} row {i} of {n}",
                *base as char
            );
            occ += usize::from(naive.get(i) == Some(base));
        }
    }
}

#[test]
fn rank_matches_naive_at_block_edges() {
    // Lengths 0, 1, 63, 64, 65 (mod 64), with separators and a non-base.
    let alphabet = b"ACGT\x01ACGTNACGT";
    let mut state = 99u64;
    for n in [1usize, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193] {
        let mut text: Vec<u8> = (1..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                alphabet[(state >> 33) as usize % alphabet.len()]
            })
            .collect();
        text.push(0);
        assert_rank_matches_naive(&text);
    }
}

#[test]
fn suffix_array_matches_naive_on_low_complexity() {
    let unit = b"GATTACAGATTACCAGGATTTACA".repeat(4); // 96 bases
    let mut cases: Vec<Vec<u8>> = Vec::new();
    for n in [1usize, 20, 21, 22, 42, 43, 63, 64, 65, 130, 300] {
        cases.push(vec![b'A'; n]);
        cases.push(b"AC".iter().copied().cycle().take(n).collect());
        cases.push(b"ACGTAC".iter().copied().cycle().take(n).collect());
    }
    // Two (and three) identical contigs joined by separators: every suffix
    // of one is tied with a suffix of the other for its whole length.
    cases.push([&unit[..], b"\x01", &unit[..], b"\x01"].concat());
    cases.push([&unit[..], b"\x01", &unit[..], b"\x01", &unit[..40], b"\x01"].concat());
    // > 64-base shared prefixes that then diverge.
    cases.push(
        [
            &unit[..],
            b"C\x01",
            &unit[..],
            b"G\x01",
            &unit[..70],
            b"T\x01",
        ]
        .concat(),
    );
    cases.push(
        [
            &b"A".repeat(70)[..],
            b"C",
            &b"A".repeat(70)[..],
            b"G",
            &b"A".repeat(140)[..],
        ]
        .concat(),
    );
    for mut text in cases {
        assert_eq!(
            suffix_array(&text),
            suffix_array_naive(&text),
            "bare {text:?}"
        );
        text.push(0);
        assert_eq!(
            suffix_array(&text),
            suffix_array_naive(&text),
            "terminated {text:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn align_read_matches_brute_force(
        (seqs, repeat, plants, copies) in (
            proptest::collection::vec(dna(20..120), 1..5),
            dna(8..30),
            proptest::collection::vec((0usize..1000, 0usize..1000), 0..5),
            2usize..6,
        ),
        (source, subs, read_ns) in (
            (0usize..1000, 0usize..1000, 12usize..40, any::<bool>()),
            proptest::collection::vec((0usize..1000, 1usize..4), 0..5),
            proptest::collection::vec(0usize..1000, 0..3),
        ),
        (junk, short, overhang, kept) in (dna(12..40), dna(1..5), dna(1..6), 4usize..30),
        noise in proptest::collection::vec((0usize..1000, 0usize..1000, 0u8..3), 0..4),
    ) {
        // Plant the repeat unit so multi-hit reads and paralog-like
        // near-repeats occur, and a tandem run of it so the unit itself has
        // more rows than `max_hits: 1` (and, mostly, 4) keeps: tie order.
        let mut contigs = seqs;
        let n_contigs = contigs.len();
        for (c, at) in plants {
            let contig = &mut contigs[c % n_contigs];
            if contig.len() >= repeat.len() {
                let at = at % (contig.len() - repeat.len() + 1);
                contig[at..at + repeat.len()].copy_from_slice(&repeat);
            }
        }
        contigs.push(repeat.repeat(copies));
        // A read sampled from the reference with 0-4 substitutions and 0-2
        // `N`s, on either strand; and one that aligns nowhere (or by
        // accident).
        let (c, at, len, flip) = source;
        let contig = &contigs[c % contigs.len()];
        let len = len.min(contig.len());
        let at = at % (contig.len() - len + 1);
        let mut read = contig[at..at + len].to_vec();
        for (pos, rot) in subs {
            let b = &mut read[pos % len];
            *b = b"ACGT"[(b"ACGT".iter().position(|x| x == b).unwrap() + rot) % 4];
        }
        for pos in read_ns {
            read[pos % len] = b'N';
        }
        if flip {
            read = revcomp(&read);
        }
        // Where a candidate window leaves its contig. A whole contig, and one
        // base more; the first (last) bases of the first (last) contig behind
        // (before) an overhang, so the seed's start falls before the text
        // (its window runs past the terminator); the same at an inner
        // boundary, across a separator.
        let (first, last) = (&contigs[0], &contigs[contigs.len() - 1]);
        let whole = contig.clone();
        let longer = [&contig[..], &overhang[..1]].concat();
        let before_text = [&overhang[..], &first[..kept.min(first.len())]].concat();
        let past_end = [&last[last.len() - kept.min(last.len())..], &overhang[..]].concat();
        let across = [&first[first.len() - kept.min(first.len())..], &overhang[..]].concat();
        // Contig `N`s (either case) and lowercase bases, after the reads
        // were cut: a read may now lie across a byte that matches nothing.
        for (c, at, kind) in noise {
            let contig = &mut contigs[c % (n_contigs + 1)];
            let at = at % contig.len();
            let b = &mut contig[at];
            *b = match kind {
                0 => b'N',
                1 => b'n',
                _ => b.to_ascii_lowercase(),
            };
        }
        for read in [read, junk, short, repeat, whole, longer, before_text, past_end, across] {
            assert_aligner_matches_oracle(&contigs, &read);
        }
    }

    #[test]
    fn suffix_array_matches_naive_on_repeats(unit in dna(1..40), copies in 2usize..8, tail in dna(0..30)) {
        let mut text = unit.repeat(copies);
        text.extend_from_slice(&tail);
        text.push(1);
        text.extend(unit.repeat(copies));
        text.push(0);
        prop_assert_eq!(suffix_array(&text), suffix_array_naive(&text));
    }

    #[test]
    fn suffix_array_matches_naive(mut text in dna(1..300)) {
        text.push(0);
        prop_assert_eq!(suffix_array(&text), suffix_array_naive(&text));
    }

    /// The parallel region's loops in reverse order build the sequential
    /// array, and both are the naive one: empty and one-byte texts, texts
    /// shorter than one suffix-sort bucket per byte, and texts of many
    /// buckets mixing DNA, separators, `N`, lowercase and a tandem repeat
    /// long enough to need three doubling rounds or more.
    #[test]
    fn suffix_array_on_matches_naive_in_any_loop_order(
        size in 0usize..4,
        segments in proptest::collection::vec((dna(1..120), 0u8..4), 1..12),
        (unit, copies) in (dna(1..6), 40usize..200),
    ) {
        let mut text: Vec<u8> = Vec::new();
        for (seq, kind) in segments {
            match kind {
                0 => text.extend(seq),
                1 => text.extend(seq.iter().map(u8::to_ascii_lowercase)),
                2 => text.extend([&seq[..seq.len() / 2], b"N", &seq[seq.len() / 2..]].concat()),
                _ => text.extend([&seq[..], b"\x01"].concat()),
            }
        }
        let tandem = unit.repeat(copies);
        let long_repeat = size == 3 && tandem.len() >= 200;
        match size {
            0 => text.clear(),
            1 => text.truncate(1),
            2 => text.truncate(63),
            _ => text.extend(tandem),
        }
        text.push(0);
        let text = if size == 0 { Vec::new() } else { text };
        let expect = suffix_array_naive(&text);
        let (sequential, rounds) = suffix_array_on(&text, &mut seqio::par::sequential);
        prop_assert_eq!(&sequential, &expect);
        prop_assert_eq!(suffix_array_on(&text, &mut reversed), (expect, rounds));
        prop_assert!(!long_repeat || rounds >= 3, "{} rounds", rounds);
    }

    #[test]
    fn fmindex_count_matches_naive(seqs in proptest::collection::vec(dna(5..80), 1..5),
                                   pat in dna(1..12)) {
        let contigs: Vec<Record> = seqs
            .iter()
            .enumerate()
            .map(|(i, s)| Record::new(format!("c{i}"), s.clone()))
            .collect();
        let idx = FmIndex::build(&contigs);
        prop_assert_eq!(&FmIndex::build_on(&contigs, &mut reversed), &idx);
        let expect: usize = seqs.iter().map(|s| naive_count(s, &pat)).sum();
        prop_assert_eq!(idx.count(&pat), expect);
        // locate agrees with count and every hit verifies.
        let hits = idx.locate(&pat);
        prop_assert_eq!(hits.len(), expect);
        for h in hits {
            prop_assert_eq!(&seqs[h.contig][h.offset..h.offset + pat.len()], pat.as_slice());
        }
    }

    #[test]
    fn exact_alignment_finds_planted_read(seq in dna(40..120), start in 0usize..20, len in 12usize..24) {
        prop_assume!(start + len <= seq.len());
        let read = seq[start..start + len].to_vec();
        let idx = FmIndex::build(&[Record::new("c", seq.clone())]);
        let hits = align_read(&idx, &read, AlignConfig {
            max_mismatches: 0,
            max_hits: 64,
            best_strata: true,
            both_strands: true,
        });
        prop_assert!(
            hits.iter().any(|h| h.offset == start && h.strand == Strand::Forward),
            "planted read must be found"
        );
    }

    #[test]
    fn revcomp_read_found_on_reverse_strand(seq in dna(40..120)) {
        let read = revcomp(&seq[5..30]);
        let idx = FmIndex::build(&[Record::new("c", seq.clone())]);
        let hits = align_read(&idx, &read, AlignConfig::default());
        prop_assert!(hits.iter().any(|h| h.strand == Strand::Reverse && h.offset == 5));
    }

    #[test]
    fn mismatch_budget_is_respected(seq in dna(60..120), pos in 10usize..30) {
        let mut read = seq[5..45].to_vec();
        let i = pos - 5;
        read[i] = match read[i] {
            b'A' => b'C',
            b'C' => b'G',
            b'G' => b'T',
            _ => b'A',
        };
        let idx = FmIndex::build(&[Record::new("c", seq.clone())]);
        // Budget 1 finds it at offset 5 with exactly 1 mismatch...
        let hits = align_read(&idx, &read, AlignConfig {
            max_mismatches: 1,
            max_hits: 64,
            best_strata: false,
            both_strands: false,
        });
        prop_assert!(hits.iter().any(|h| h.offset == 5 && h.mismatches <= 1));
        // ...and every reported alignment verifies its mismatch count.
        for h in &hits {
            if h.strand == Strand::Forward {
                let region = &seq[h.offset..h.offset + read.len()];
                let mm = region.iter().zip(&read).filter(|(a, b)| a != b).count();
                prop_assert_eq!(mm, h.mismatches as usize);
            }
        }
    }
}
