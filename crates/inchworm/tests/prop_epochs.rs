//! Property and directed tests of Inchworm's ordered loop: the contigs are
//! the serial loop's at every window — on the in-order loop, on executors
//! that hold each commit back for a number of later takes (walks in take
//! order, which are never replayed) and on one that walks each window's
//! tasks in reverse take order (walks that see later walks' marks, which
//! are) — against a plain reimplementation of that loop (one walk at a
//! time, rightward then leftward, a `HashSet` of used slots) — on random
//! reads, tandem repeats (walks that run back into their own claims),
//! palindromic k-mers at even k, the k = 32 all-T key, and seed and
//! extension thresholds above 1.

use std::collections::{HashSet, VecDeque};

use inchworm::{assemble, assemble_on, Contig, Dictionary, InchwormConfig, WalkStats};
use kcount::counter::{count_kmers, CounterConfig};
use proptest::prelude::*;
use seqio::alphabet::{code_to_base, revcomp};
use seqio::kmer::Kmer;
use seqio::par::in_order;

const WINDOWS: [usize; 6] = [1, 2, 3, 16, 64, 256];

/// The serial Inchworm loop, written out the plain way. Ties go to the
/// smallest base (no jitter).
fn serial(dict: &Dictionary, cfg: InchwormConfig) -> Vec<Contig> {
    let mut used = HashSet::new();
    let mut contigs = Vec::new();
    let extend = |used: &mut HashSet<usize>,
                  seed: Kmer,
                  roll: fn(Kmer, u8) -> Kmer,
                  bases: &mut Vec<u8>,
                  cov: &mut (u64, usize)| {
        let mut cur = seed;
        loop {
            let next: [Kmer; 4] = std::array::from_fn(|code| roll(cur, code as u8));
            let mut best: Option<(u32, usize, usize)> = None;
            for (code, found) in dict.find_each(next).into_iter().enumerate() {
                let Some((slot, count)) = found else { continue };
                let eligible = count >= cfg.min_extend_count.max(1) && !used.contains(&slot);
                if eligible && best.is_none_or(|(c, ..)| count > c) {
                    best = Some((count, code, slot));
                }
            }
            let Some((count, code, slot)) = best else {
                break;
            };
            used.insert(slot);
            bases.push(code_to_base(code as u8));
            *cov = (cov.0 + u64::from(count), cov.1 + 1);
            cur = next[code];
        }
    };
    for (seed, slot, count) in dict.seeds() {
        if count < cfg.min_seed_count.max(1) || !used.insert(slot) {
            continue;
        }
        let mut cov = (u64::from(count), 1);
        let mut body = seed.bases();
        extend(&mut used, seed, Kmer::roll_right, &mut body, &mut cov);
        let mut seq = Vec::new();
        extend(&mut used, seed, Kmer::roll_left, &mut seq, &mut cov);
        seq.reverse();
        seq.extend_from_slice(&body);
        if seq.len() >= cfg.min_contig_len {
            let id = contigs.len();
            let coverage = cov.0 as f64 / cov.1 as f64;
            contigs.push(Contig { id, seq, coverage });
        }
    }
    contigs
}

/// An ordered loop on the calling thread that runs each task's work as soon
/// as it is taken and holds its commit back for `delay(window)` later takes
/// — or until the window is full or no task is left — so that walks run
/// against a bitset missing some earlier walks' commits. Commits stay in
/// index order: a task whose delay ran out waits for the ones before it.
#[allow(clippy::type_complexity)]
fn delayed(
    mut delay: impl FnMut(usize) -> usize,
) -> impl FnMut(
    usize,
    &mut (dyn FnMut() -> bool + Send),
    &(dyn Fn(usize) + Sync),
    &mut (dyn FnMut(usize) + Send),
) {
    move |window, take, work, commit| {
        // Each task in flight with the takes left before its commit.
        let mut pending: VecDeque<(usize, usize)> = VecDeque::new();
        for i in 0.. {
            while let Some(&(j, left)) = pending.front() {
                if left > 0 && pending.len() < window {
                    break;
                }
                commit(j);
                pending.pop_front();
            }
            if !take() {
                break;
            }
            work(i);
            pending
                .iter_mut()
                .for_each(|(_, left)| *left = left.saturating_sub(1));
            pending.push_back((i, delay(window)));
        }
        pending.into_iter().for_each(|(j, _)| commit(j));
    }
}

/// An ordered loop on the calling thread that takes as many tasks as the
/// window holds, runs their work in the order `order(n)` gives for `n`
/// tasks — a permutation of `0..n` — and then commits them in index order:
/// walks that run before earlier walks of their window have walked.
#[allow(clippy::type_complexity)]
fn batched(
    mut order: impl FnMut(usize) -> Vec<usize>,
) -> impl FnMut(
    usize,
    &mut (dyn FnMut() -> bool + Send),
    &(dyn Fn(usize) + Sync),
    &mut (dyn FnMut(usize) + Send),
) {
    move |window, take, work, commit| {
        let mut first = 0;
        loop {
            let n = (0..window).take_while(|_| take()).count();
            order(n).into_iter().for_each(|j| work(first + j));
            (first..first + n).for_each(&mut *commit);
            first += n;
            if n < window {
                break;
            }
        }
    }
}

/// Each window's walks in reverse take order.
fn reversed(n: usize) -> Vec<usize> {
    (0..n).rev().collect()
}

/// Delays drawn from a xorshift stream: below the window.
fn random_delays(mut state: u64) -> impl FnMut(usize) -> usize {
    move |window| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % window as u64) as usize
    }
}

/// Every commit held back until the window is full: each walk runs against
/// the bitset of `window − 1` commits ago.
fn fully_delayed() -> impl FnMut(usize) -> usize {
    |window| window
}

fn dictionary(reads: &[Vec<u8>], k: usize, canonical: bool) -> Dictionary {
    let counts = count_kmers(
        reads,
        CounterConfig {
            canonical,
            ..CounterConfig::new(k)
        },
    );
    Dictionary::from_counts(counts, 1)
}

fn cfg(min_seed_count: u32, min_extend_count: u32, min_contig_len: usize) -> InchwormConfig {
    InchwormConfig {
        min_seed_count,
        min_extend_count,
        min_contig_len,
        jitter_seed: None,
    }
}

/// `dict`'s contigs at every window — in order, with commits held back and
/// walked in reverse — all equal to the plain serial loop's.
fn check_every_window(dict: &Dictionary, cfg: InchwormConfig) {
    let expect = serial(dict, cfg);
    assert_eq!(assemble(dict, cfg), expect);
    // Walked in take order, every walk sees every earlier walk's commit or
    // marks: nothing is replayed or thrown away.
    let exact = |stats: WalkStats| (stats.replays, stats.wasted_steps) == (0, 0);
    for window in WINDOWS {
        let (contigs, stats) = assemble_on(dict, cfg, window, &mut in_order);
        assert_eq!(contigs, expect, "window {window}, in order");
        assert!(exact(stats), "window {window}, in order: {stats:?}");
        for executor in [0x2545_F491_4F6C_DD1D, window as u64] {
            let mut ord = delayed(random_delays(executor));
            let (contigs, stats) = assemble_on(dict, cfg, window, &mut ord);
            assert_eq!(contigs, expect, "window {window}, delays {executor}");
            assert!(
                exact(stats),
                "window {window}, delays {executor}: {stats:?}"
            );
        }
        let (contigs, stats) = assemble_on(dict, cfg, window, &mut delayed(fully_delayed()));
        assert_eq!(contigs, expect, "window {window}, fully delayed");
        assert!(exact(stats), "window {window}, fully delayed: {stats:?}");
        let (contigs, stats) = assemble_on(dict, cfg, window, &mut batched(reversed));
        assert_eq!(contigs, expect, "window {window}, reversed");
        assert!(stats.wasted_steps <= stats.steps);
    }
}

fn bases(alphabet: &'static [u8], len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    let base = (0..alphabet.len()).prop_map(move |i| alphabet[i]);
    proptest::collection::vec(base, len)
}

/// Reads sampled from a few random transcripts (so k-mers repeat and
/// unitigs branch), some reverse-complemented, plus unrelated noise reads.
fn transcript_reads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let transcripts = proptest::collection::vec(bases(b"ACGT", 20..120), 1..4);
    let picks =
        proptest::collection::vec((0usize..4, 0usize..120, 8usize..50, any::<bool>()), 0..60);
    let noise = proptest::collection::vec(bases(b"AACGT", 0..30), 0..6);
    (transcripts, picks, noise).prop_map(|(transcripts, picks, noise)| {
        let mut reads = noise;
        for (t, start, len, flip) in picks {
            let t = &transcripts[t % transcripts.len()];
            let start = start % t.len();
            let read = t[start..(start + len).min(t.len())].to_vec();
            reads.push(if flip { revcomp(&read) } else { read });
        }
        reads
    })
}

/// Tandem repeats: a short unit many times over, with the occasional
/// substitution and flank — cyclic k-mer graphs, where a walk's two ends
/// meet.
fn tandem_reads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let read = (
        bases(b"ACGT", 1..8),
        2usize..30,
        bases(b"ACGT", 0..12),
        0usize..200,
    );
    proptest::collection::vec(read, 1..6).prop_map(|reads| {
        reads
            .into_iter()
            .map(|(unit, times, flank, at)| {
                let mut read = unit.repeat(times);
                read.extend_from_slice(&flank);
                if !read.is_empty() {
                    let i = at % read.len();
                    read[i] = b"ACGT"[(read[i] as usize + at) % 4];
                }
                read
            })
            .collect()
    })
}

/// Reads made of reverse-complement palindromes `x + revcomp(x)`: at even
/// k the k-mer centred on each is its own reverse complement.
fn palindrome_reads() -> impl Strategy<Value = Vec<Vec<u8>>> {
    let half = (bases(b"ACGT", 2..20), bases(b"ACGT", 0..10));
    proptest::collection::vec(half, 1..12).prop_map(|halves| {
        halves
            .into_iter()
            .map(|(x, tail)| [x.clone(), revcomp(&x), tail].concat())
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn epochs_equal_serial_on_random_reads(
        reads in transcript_reads(),
        k in 5usize..14,
        min_seed in 1u32..4,
        min_extend in 1u32..3,
    ) {
        let dict = dictionary(&reads, k, true);
        check_every_window(&dict, cfg(min_seed, min_extend, k + 3));
    }

    #[test]
    fn epochs_equal_serial_on_tandem_repeats(
        reads in tandem_reads(),
        k in 3usize..12,
        min_extend in 1u32..3,
    ) {
        let dict = dictionary(&reads, k, true);
        check_every_window(&dict, cfg(1, min_extend, k));
    }

    #[test]
    fn epochs_equal_serial_on_palindromes(reads in palindrome_reads(), half_k in 2usize..8) {
        let k = 2 * half_k;
        let dict = dictionary(&reads, k, true);
        check_every_window(&dict, cfg(1, 1, k));
    }

    #[test]
    fn epochs_equal_serial_at_k32_with_the_all_t_key(
        runs in proptest::collection::vec((0usize..3, 30usize..60, bases(b"ACGT", 0..40)), 1..6),
        canonical in any::<bool>(),
    ) {
        // Poly-A and poly-T runs with random flanks: the all-T 32-mer packs
        // to `u64::MAX`, the tables' out-of-line key; a table counted
        // without strand merging takes the dictionary's rebuild path.
        let reads: Vec<Vec<u8>> = runs
            .into_iter()
            .map(|(kind, len, flank)| {
                let run = vec![b"ATA"[kind]; len];
                [flank.clone(), run, flank].concat()
            })
            .collect();
        let dict = dictionary(&reads, 32, canonical);
        check_every_window(&dict, cfg(1, 1, 32));
    }
}

/// A transcript with no repeated 8-mer on either strand, drawn from a fixed
/// generator.
fn transcript(len: usize, mut state: u64) -> Vec<u8> {
    let seq: Vec<u8> = (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            b"ACGT"[(state >> 62) as usize]
        })
        .collect();
    let kmers: HashSet<Kmer> = (0..=len - 8)
        .map(|i| Kmer::from_bases(&seq[i..i + 8]).unwrap().canonical())
        .collect();
    assert_eq!(kmers.len(), len - 7, "pick another state");
    seq
}

#[test]
fn a_later_seed_on_an_earlier_seeds_unitig_aborts_early() {
    // One unitig of 53 8-mers; the 8-mer at 20 seen 4 times (seed A), the
    // one at 40 three times (seed B), everything else once. In a window of
    // 2, walked in take order, A's walk marks the whole unitig, so the
    // other 52 8-mers — each a seed at a minimum count of 1, B's among
    // them — are deferred without a step and skipped at their turn. Walked
    // in reverse, A and B are taken together and B does not see A's marks:
    // it stops at A instead of walking the unitig too, and is skipped at
    // its turn.
    let t = transcript(60, 0x2545_F491_4F6C_DD1D);
    let mut reads = vec![t.clone()];
    reads.extend(std::iter::repeat_n(t[20..28].to_vec(), 3));
    reads.extend(std::iter::repeat_n(t[40..48].to_vec(), 2));
    let dict = dictionary(&reads, 8, true);
    let cfg = cfg(1, 1, 8);
    let expect = serial(&dict, cfg);
    assert_eq!(expect.len(), 1);
    let (contigs, stats) = assemble_on(&dict, cfg, 2, &mut delayed(fully_delayed()));
    assert_eq!(contigs, expect);
    let exact = (
        stats.walks,
        stats.deferred,
        stats.replays,
        stats.wasted_steps,
    );
    assert_eq!(exact, (1, 52, 0, 0), "{stats:?}");
    let (contigs, stats) = assemble_on(&dict, cfg, 2, &mut batched(reversed));
    assert_eq!(contigs, expect);
    // B's walk stopped at A instead of claiming A's seed, so A was walked,
    // not deferred; it stepped around B's marks, which B's skip left free,
    // so A was replayed, and both walks' steps were thrown away.
    assert_eq!((stats.walks, stats.replays), (2, 1), "{stats:?}");
    assert!(
        stats.wasted_steps == stats.steps && stats.steps > 0,
        "{stats:?}"
    );
}

#[test]
fn walks_that_meet_from_opposite_branches_replay() {
    // Two branches X and Y run into one stem S. Seed A on X (count 4) and
    // seed B on Y (count 3) are in flight together in a window of 2. Walked
    // in take order, B finds S marked by A, steps around it and walks Y
    // alone, and both commit. Walked in reverse, B walks on through S and
    // A steps around B's marks: A is replayed because S was left free for
    // it, and B because A's commit took S.
    let (x, y, s) = (
        transcript(30, 0x9E37_79B9_7F4A_7C15),
        transcript(30, 0xD1B5_4A32_D192_ED03),
        transcript(40, 0x2545_F491_4F6C_DD1D),
    );
    let mut reads = vec![[x.clone(), s.clone()].concat(), [y.clone(), s].concat()];
    reads.extend(std::iter::repeat_n(x[10..18].to_vec(), 3));
    reads.extend(std::iter::repeat_n(y[10..18].to_vec(), 2));
    let dict = dictionary(&reads, 8, true);
    let cfg = cfg(1, 1, 8);
    let expect = serial(&dict, cfg);
    assert_eq!(expect.len(), 2);
    let (contigs, stats) = assemble_on(&dict, cfg, 2, &mut delayed(fully_delayed()));
    assert_eq!(contigs, expect);
    assert_eq!((stats.replays, stats.wasted_steps), (0, 0), "{stats:?}");
    let (contigs, stats) = assemble_on(&dict, cfg, 2, &mut batched(reversed));
    assert_eq!(contigs, expect);
    assert_eq!(stats.replays, 2, "{stats:?}");
}

#[test]
fn a_slot_assumed_from_a_replayed_walk_fails_the_commit() {
    // At k = 12: read 1 is W·J·V (twice), read 2 is S·J·L (once), so the
    // 12-mer J joins them; the 12-mers of S next to J are seen twice more,
    // so that a walk leftward through J prefers S (count 3) over W (2),
    // while one rightward through J prefers V (2) over L (1). Reads B·S
    // (once) and C·S (twice) end where S begins, so a walk leftward off S
    // prefers C. Seed Z in W (count 6), seed A in L (5), seed B in B (4).
    // Serially Z takes W·J·V; A then stops at J: L alone; B takes B·S up
    // to J, and C is left to a later seed.
    //
    // A window of 3 walks A, B and then Z. A walks before Z and passes
    // through J into S and C; B then finds S's first 12-mer marked by A and
    // steps around it. At A's turn J is Z's, so A is replayed along L alone
    // and its marks on S go: S's first 12-mer, which B assumed, is still
    // free at B's turn, so B is replayed too — and takes S. (Z, walked
    // last, found J marked by A and is replayed as well.)
    let t = transcript(260, 0x9E37_79B9_7F4A_7C15);
    let (w, j, v) = (&t[0..40], &t[40..52], &t[52..92]);
    let (s, l, b, c) = (&t[92..132], &t[132..192], &t[192..232], &t[232..258]);
    let read1 = [w, j, v].concat();
    let c_s = [c, &s[..11]].concat();
    let mut reads = vec![read1.clone(), read1, [s, j, l].concat(), c_s.clone(), c_s];
    reads.push([b, &s[..11]].concat());
    reads.extend(std::iter::repeat_n([&s[28..], &j[..11]].concat(), 2));
    reads.extend(std::iter::repeat_n(w[10..22].to_vec(), 4));
    reads.extend(std::iter::repeat_n(l[30..42].to_vec(), 4));
    reads.extend(std::iter::repeat_n(b[10..22].to_vec(), 3));
    let dict = dictionary(&reads, 12, true);
    let cfg = cfg(1, 1, 12);
    let expect = serial(&dict, cfg);
    let lens: Vec<usize> = expect.iter().map(|c| c.seq.len()).collect();
    assert_eq!(lens, [92, 71, 91, 37], "W·J·V; L; B·S; C");
    let mut first = true;
    let mut order = |n| match std::mem::take(&mut first) {
        true => vec![1, 2, 0],
        false => (0..n).collect(),
    };
    let (contigs, stats) = assemble_on(&dict, cfg, 3, &mut batched(&mut order));
    assert_eq!(contigs, expect);
    assert_eq!(stats.replays, 3, "{stats:?}");
    // Walked in take order, the three walks step around each other.
    let (contigs, stats) = assemble_on(&dict, cfg, 3, &mut delayed(fully_delayed()));
    assert_eq!(contigs, expect);
    assert_eq!((stats.replays, stats.wasted_steps), (0, 0), "{stats:?}");
}

/// Ten small transcripts, each with a two-way branch of equal count: ten
/// independent ties.
fn branchy_reads() -> Vec<Vec<u8>> {
    let mut reads = Vec::new();
    for i in 0..10u64 {
        let stem = transcript(
            24,
            0x9E37_79B9_7F4A_7C15 ^ (i + 1).wrapping_mul(0xD1B5_4A32_D192_ED03),
        );
        let mut a = stem.clone();
        a.extend_from_slice(b"ACGTTGCA");
        let mut c = stem;
        c.extend_from_slice(b"CATGGTAC");
        reads.extend([a, c]);
    }
    reads
}

#[test]
fn jitter_is_a_pure_tie_break() {
    let dict = dictionary(&branchy_reads(), 8, true);
    let jittered = |seed| InchwormConfig {
        jitter_seed: Some(seed),
        ..cfg(1, 1, 8)
    };
    for seed in [1, 2] {
        let one = assemble(&dict, jittered(seed));
        for window in WINDOWS {
            let mut ord = delayed(random_delays(seed));
            assert_eq!(assemble_on(&dict, jittered(seed), window, &mut ord).0, one);
            let mut ord = batched(reversed);
            assert_eq!(assemble_on(&dict, jittered(seed), window, &mut ord).0, one);
        }
    }
    assert_ne!(assemble(&dict, jittered(1)), assemble(&dict, jittered(2)));
    // Without jitter every tie goes to the smallest base.
    assert_eq!(assemble(&dict, cfg(1, 1, 8)), serial(&dict, cfg(1, 1, 8)));
}
