//! Greedy contig assembly (the Inchworm main loop), as one ordered loop.
//!
//! The serial loop walks each unused seed in abundance order and claims the
//! k-mers the walk extends through. [`assemble_on`] runs the same walks as
//! an ordered loop (`seqio::par`'s `ord`): a worker takes the next unused
//! seed and walks it against the `used` bitset as it stands, plus the
//! walk's own claims, while other walks are in flight — at most `window`
//! taken and not yet committed — and each walk commits in seed order as
//! soon as every earlier one has. A walk commits if no commit took one of
//! its claims (its seed first); it is replayed at its turn against the live
//! bitset otherwise, or skipped if its seed is gone. Three rules keep this
//! cheap and exact:
//!
//! * **early abort** — a walk about to claim a k-mer that comes before its
//!   own seed in seeding order stops there: by its turn every such k-mer is
//!   claimed, so it would be replayed anyway;
//! * **alternating ends** — a walk's two ends take a step each in turn, so
//!   an earlier seed on either side is met early; that is the serial walk
//!   (rightward end first) unless the rightward end meets a k-mer the
//!   leftward one claimed, and then the walk is redone in the serial order;
//! * **a pure tie-break** — candidates of equal count are ranked by a pure
//!   function of (jitter seed, current k-mer, base), never by a stream
//!   threaded through the walks, so what a walk picks depends only on the
//!   bitset it sees.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

use seqio::alphabet::code_to_base;
use seqio::kmer::Kmer;

use crate::contig::Contig;
use crate::dictionary::Dictionary;

/// The ordered loop's window per thread of the team it runs on: walks taken
/// but not yet committed (DESIGN §3i has the sweep this was picked from).
pub const WINDOW_PER_THREAD: usize = 8;

/// Assembly parameters.
#[derive(Debug, Clone, Copy)]
pub struct InchwormConfig {
    /// Minimum k-mer abundance to seed a contig.
    pub min_seed_count: u32,
    /// Minimum abundance for an extension k-mer.
    pub min_extend_count: u32,
    /// Contigs shorter than this are discarded. Trinity's default is
    /// roughly 2k (48 bases at k = 25).
    pub min_contig_len: usize,
    /// Optional tie-break jitter. Trinity's output is "slightly
    /// indeterministic" (§IV): repeated runs differ where extension
    /// candidates tie. `None` breaks ties deterministically (smallest
    /// base); `Some(seed)` ranks tied candidates by a hash of the seed, the
    /// k-mer being extended and the base, so runs with different seeds
    /// reproduce that run-to-run distribution and runs with one seed agree.
    pub jitter_seed: Option<u64>,
}

impl Default for InchwormConfig {
    fn default() -> Self {
        InchwormConfig {
            min_seed_count: 2,
            min_extend_count: 1,
            min_contig_len: 48,
            jitter_seed: None,
        }
    }
}

/// What an ordered run did, counted in walks and extension steps (a step
/// is one neighbour lookup).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkStats {
    /// Speculative walks run: one per seed taken.
    pub walks: usize,
    /// Walks redone at their turn because a commit made after they started
    /// took one of their claims.
    pub replays: usize,
    /// Extension steps of the speculative walks.
    pub steps: usize,
    /// The part of `steps` thrown away: walks replayed, or skipped because
    /// an earlier commit took their seed.
    pub wasted_steps: usize,
}

/// One flag per dictionary slot. Walks read it while commits set flags: a
/// flag is only ever set, and only under the loop's lock, so what a walk
/// sees is part of what its commit will see. `Relaxed` suffices: the flags
/// publish no other data, a stale read is an older subset of the flags, and
/// the takes and commits that must see every earlier commit run under the
/// loop's lock, which orders them.
struct Bits(Vec<AtomicU64>);

impl Bits {
    fn new(slots: usize) -> Self {
        Bits((0..slots.div_ceil(64)).map(|_| AtomicU64::new(0)).collect())
    }

    fn get(&self, slot: usize) -> bool {
        self.0[slot / 64].load(Relaxed) >> (slot % 64) & 1 == 1
    }

    /// Only the holder of the loop's lock sets flags, so a plain store
    /// does (no read-modify-write).
    fn set(&self, slot: usize) {
        let word = &self.0[slot / 64];
        word.store(word.load(Relaxed) | 1 << (slot % 64), Relaxed);
    }
}

/// The growing ends of a walk.
const RIGHT: usize = 0;
const LEFT: usize = 1;

/// A walk's own claims: one flag per dictionary slot and end.
struct Own(Vec<[u64; 2]>);

impl Own {
    fn new(slots: usize) -> Self {
        Own(vec![[0; 2]; slots.div_ceil(64)])
    }

    /// The end that claimed `slot`, if either did.
    fn end_of(&self, slot: usize) -> Option<usize> {
        let [right, left] = self.0[slot / 64].map(|word| word >> (slot % 64) & 1 == 1);
        (right || left).then_some(if right { RIGHT } else { LEFT })
    }

    fn set(&mut self, slot: usize, end: usize) {
        self.0[slot / 64][end] |= 1 << (slot % 64);
    }

    fn unset(&mut self, slot: usize) {
        self.0[slot / 64] = self.0[slot / 64].map(|word| word & !(1 << (slot % 64)));
    }
}

/// A [`Dictionary::seeds`] entry: `(k-mer, slot, count)`.
type Seed = (Kmer, usize, u32);

/// What a walk may not claim, and where it gives up.
struct Seen<'a> {
    /// The bitset the walk runs against.
    used: &'a Bits,
    own: &'a mut Own,
    /// The walk's seed: a winner that comes before it in seeding order
    /// aborts the walk.
    seed: Seed,
}

impl Seen<'_> {
    /// Does the winner `next`, counted `count`, come before the seed in
    /// seeding order (decreasing count, then increasing canonical k-mer)?
    fn before_seed(&self, next: Kmer, count: u32) -> bool {
        let (seed, _, seed_count) = self.seed;
        count > seed_count || count == seed_count && next.canonical().packed() < seed.packed()
    }
}

/// One growing end of a walk: the k-mer it grows from and the bases it
/// added (the leftward end's reversed).
struct End {
    cur: Kmer,
    bases: Vec<u8>,
    open: bool,
}

/// A walk from one seed.
struct Walk {
    seq: Vec<u8>,
    /// Claimed slots, the seed's first.
    claims: Vec<u32>,
    /// Sum and number of the claimed k-mers' counts.
    coverage: (u64, usize),
    /// Stopped before claiming a k-mer that comes before its seed.
    aborted: bool,
    steps: usize,
}

/// Why a walk stopped short.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Halt {
    /// The winner comes before the walk's seed in seeding order.
    Aborted,
    /// The rightward end met a k-mer the leftward end claimed first: the
    /// alternation has left the serial walk's path.
    Crossed,
}

/// The splitmix64 finalizer: the jitter tie-break's hash (no dependency on
/// `rand` in this hot path; the ranks only have to be uncorrelated).
fn splitmix(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Walker<'d> {
    dict: &'d Dictionary,
    cfg: InchwormConfig,
}

impl Walker<'_> {
    /// Rank of extending `cur` by base `code` among candidates of equal
    /// count: a pure function of the jitter seed, `cur` and `code`; 0 for
    /// all without jitter.
    fn tie_rank(&self, cur: Kmer, code: u8) -> u64 {
        let rank = |seed| splitmix(splitmix(seed ^ cur.packed()) ^ u64::from(code));
        self.cfg.jitter_seed.map_or(0, rank)
    }

    /// One step of end `E`: among the four neighbours of its k-mer that the
    /// dictionary holds, claim the one that neither `seen.used` nor the
    /// walk claimed, with the highest count, then the highest tie rank,
    /// then the smallest base — or close the end if there is none.
    fn step<const E: usize>(
        &self,
        end: &mut End,
        walk: &mut Walk,
        seen: &mut Seen,
    ) -> Result<(), Halt> {
        let next: [Kmer; 4] = std::array::from_fn(|code| match E {
            RIGHT => end.cur.roll_right(code as u8),
            _ => end.cur.roll_left(code as u8),
        });
        walk.steps += 1;
        let mut best: Option<((u32, u64), u8, usize)> = None;
        for (code, candidate) in self.dict.find_each(next).into_iter().enumerate() {
            let Some((slot, count)) = candidate else {
                continue;
            };
            if count < self.cfg.min_extend_count.max(1) || seen.used.get(slot) {
                continue;
            }
            match seen.own.end_of(slot) {
                // The serial walk finishes its rightward end before the
                // leftward one claims anything.
                Some(LEFT) if E == RIGHT => return Err(Halt::Crossed),
                Some(_) => continue,
                None => {}
            }
            let rank = (count, self.tie_rank(end.cur, code as u8));
            if best.is_none_or(|(best_rank, ..)| rank > best_rank) {
                best = Some((rank, code as u8, slot));
            }
        }
        let Some(((count, _), code, slot)) = best else {
            end.open = false;
            return Ok(());
        };
        if seen.before_seed(next[code as usize], count) {
            return Err(Halt::Aborted);
        }
        end.bases.push(code_to_base(code));
        end.cur = next[code as usize];
        seen.own.set(slot, E);
        walk.claims.push(slot as u32);
        walk.coverage.0 += u64::from(count);
        walk.coverage.1 += 1;
        Ok(())
    }

    /// Step until neither end extends: the two ends in turn if
    /// `alternate`, else the rightward end to its stop first (the serial
    /// order).
    fn run(
        &self,
        [right, left]: &mut [End; 2],
        alternate: bool,
        walk: &mut Walk,
        seen: &mut Seen,
    ) -> Result<(), Halt> {
        while right.open || left.open {
            if right.open {
                self.step::<RIGHT>(right, walk, seen)?;
            }
            if left.open && (alternate || !right.open) {
                self.step::<LEFT>(left, walk, seen)?;
            }
        }
        Ok(())
    }

    /// The walk from `seed` against `used` plus its own claims, which it
    /// keeps in `own` — clean on entry and left clean. It is the serial
    /// loop's walk, which extends rightward and then leftward; the two ends
    /// take a step each in turn, so that an earlier seed on either side is
    /// met early. That is the same walk unless the rightward end reaches a
    /// k-mer the leftward one claimed first — then it is walked again in
    /// the serial order. It stops short, aborted, at a winner that comes
    /// before `seed` in seeding order: against the bitset of its turn there
    /// is none.
    fn walk(&self, seed: Seed, used: &Bits, own: &mut Own) -> Walk {
        let (kmer, slot, count) = seed;
        let mut steps = 0;
        for alternate in [true, false] {
            let mut walk = Walk {
                seq: Vec::new(),
                claims: vec![slot as u32],
                coverage: (u64::from(count), 1),
                aborted: false,
                steps,
            };
            own.set(slot, RIGHT);
            let mut seen = Seen {
                used,
                own: &mut *own,
                seed,
            };
            let mut ends = [kmer.bases(), Vec::new()].map(|bases| End {
                cur: kmer,
                bases,
                open: true,
            });
            let outcome = self.run(&mut ends, alternate, &mut walk, &mut seen);
            for &claim in &walk.claims {
                own.unset(claim as usize);
            }
            if outcome == Err(Halt::Crossed) {
                steps = walk.steps;
                continue;
            }
            let [right, left] = ends;
            walk.aborted = outcome.is_err();
            walk.seq = left.bases;
            walk.seq.reverse();
            walk.seq.extend_from_slice(&right.bases);
            return walk;
        }
        unreachable!("the serial order never crosses")
    }
}

/// Run the Inchworm main loop over a dictionary, one seed at a time.
pub fn assemble(dict: &Dictionary, cfg: InchwormConfig) -> Vec<Contig> {
    assemble_on(dict, cfg, 1, &mut seqio::par::in_order).0
}

/// A walk in flight: its seed and, once walked, the walk.
type Task = (Seed, Option<Walk>);

/// Run the Inchworm main loop as one ordered loop `ord` with `window`
/// walks in flight (see the crate docs). The contigs are [`assemble`]'s at
/// every window, under every executor of the `ord` contract.
pub fn assemble_on(
    dict: &Dictionary,
    cfg: InchwormConfig,
    window: usize,
    ord: &mut impl FnMut(
        usize,
        &mut (dyn FnMut() -> bool + Send),
        &(dyn Fn(usize) + Sync),
        &mut (dyn FnMut(usize) + Send),
    ),
) -> (Vec<Contig>, WalkStats) {
    let walker = Walker { dict, cfg };
    let used = Bits::new(dict.slots());
    let window = window.max(1);
    // The walks in flight, each at its index modulo the window: task `i`
    // is taken only once task `i − window` has committed.
    let line: Vec<Mutex<Option<Task>>> = (0..window).map(|_| Mutex::new(None)).collect();
    let task = |i: usize| line[i % window].lock().expect("a walk panicked");
    // Own-claim flags for the walks in flight, and one set for the replays.
    let spare = Mutex::new(Vec::new());
    let mut own = Own::new(dict.slots());
    // Seeds come in decreasing count: the first one below the threshold
    // ends the run. `next` is where the next take looks from; a walk moves
    // it past the seeds it finds used behind the last take — a used seed
    // stays used — so that a take, under the lock, seldom has to skip any.
    // It only ever grows (`fetch_max`) and a take re-checks from it, so it
    // is a hint that publishes nothing: `Relaxed`.
    let min_seed = cfg.min_seed_count.max(1);
    let next = AtomicUsize::new(0);
    let unused_from = |from: usize| {
        (from..dict.len())
            .map_while(|at| dict.seed(at).map(|seed| (at, seed)))
            .take_while(|&(_, (_, _, count))| count >= min_seed)
            .find(|&(_, (_, slot, _))| !used.get(slot))
    };
    let mut taken = 0;
    let mut stats = WalkStats::default();
    let mut contigs = Vec::new();
    let mut take = || {
        let Some((at, seed)) = unused_from(next.load(Relaxed)) else {
            return false;
        };
        next.fetch_max(at + 1, Relaxed);
        *task(taken) = Some((seed, None));
        taken += 1;
        true
    };
    let work = |i| {
        let seed = task(i).as_ref().expect("a taken walk").0;
        let spare_own = spare.lock().expect("a walk panicked").pop();
        let mut walk_own = spare_own.unwrap_or_else(|| Own::new(dict.slots()));
        let walk = walker.walk(seed, &used, &mut walk_own);
        spare.lock().expect("a walk panicked").push(walk_own);
        task(i).as_mut().expect("a taken walk").1 = Some(walk);
        let ahead = unused_from(next.load(Relaxed)).map_or(usize::MAX, |(at, _)| at);
        next.fetch_max(ahead, Relaxed);
    };
    let mut commit = |i| {
        let (seed, walk) = task(i).take().expect("a taken walk");
        let walk = walk.expect("walked before its commit");
        stats.walks += 1;
        stats.steps += walk.steps;
        if used.get(seed.1) {
            stats.wasted_steps += walk.steps;
            return;
        }
        // A claim a commit took since the walk started means it saw a
        // different bitset from the serial loop's: redo it.
        let free = !walk.aborted && walk.claims.iter().all(|&c| !used.get(c as usize));
        let walk = if free {
            walk
        } else {
            stats.replays += 1;
            stats.wasted_steps += walk.steps;
            walker.walk(seed, &used, &mut own)
        };
        for &claim in &walk.claims {
            used.set(claim as usize);
        }
        if walk.seq.len() >= cfg.min_contig_len {
            contigs.push(Contig {
                id: contigs.len(),
                coverage: walk.coverage.0 as f64 / walk.coverage.1 as f64,
                seq: walk.seq,
            });
        }
    };
    ord(window, &mut take, &work, &mut commit);
    (contigs, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcount::counter::{count_kmers, CounterConfig};
    use seqio::alphabet::revcomp;

    fn assemble_reads(reads: &[&[u8]], k: usize, cfg: InchwormConfig) -> Vec<Contig> {
        let table = count_kmers(reads, CounterConfig::new(k));
        let dict = Dictionary::from_counts(table, 1);
        assemble(&dict, cfg)
    }

    fn tiny_cfg() -> InchwormConfig {
        InchwormConfig {
            min_seed_count: 1,
            min_extend_count: 1,
            min_contig_len: 10,
            jitter_seed: None,
        }
    }

    /// Simulate perfect tiling reads over a transcript.
    fn tile(transcript: &[u8], read_len: usize, step: usize) -> Vec<Vec<u8>> {
        let mut reads = Vec::new();
        let mut i = 0;
        while i + read_len <= transcript.len() {
            reads.push(transcript[i..i + read_len].to_vec());
            i += step;
        }
        // Always cover the tail so every k-mer of the transcript exists.
        if transcript.len() >= read_len {
            reads.push(transcript[transcript.len() - read_len..].to_vec());
        }
        reads
    }

    #[test]
    fn reconstructs_single_transcript() {
        // A transcript with no repeated k-mers for k=8.
        let transcript = b"CGAGTCGGTTATCTTCGGATACTGTATAGTCCCACCTGGT";
        let reads = tile(transcript, 20, 3);
        let read_refs: Vec<&[u8]> = reads.iter().map(|r| r.as_slice()).collect();
        let contigs = assemble_reads(&read_refs, 8, tiny_cfg());
        assert_eq!(contigs.len(), 1);
        let got = &contigs[0].seq;
        assert!(
            got == &transcript.to_vec() || got == &revcomp(transcript),
            "reconstructed {:?}",
            String::from_utf8_lossy(got)
        );
    }

    #[test]
    fn two_disjoint_transcripts_give_two_contigs() {
        let t1 = b"AAAGCGGCACTTGTGAAGTGTTCCCCACGCCG";
        let t2 = b"TGTTCGCGTGGTGCTGAGACAAAGCACGCCAT";
        let mut reads = tile(t1, 16, 2);
        reads.extend(tile(t2, 16, 2));
        let refs: Vec<&[u8]> = reads.iter().map(|r| r.as_slice()).collect();
        let contigs = assemble_reads(&refs, 8, tiny_cfg());
        assert_eq!(contigs.len(), 2);
        let mut lens: Vec<usize> = contigs.iter().map(|c| c.len()).collect();
        lens.sort_unstable();
        assert_eq!(lens, vec![t1.len(), t2.len()]);
    }

    #[test]
    fn min_contig_len_discards_short() {
        let contigs = assemble_reads(
            &[b"ACGTACGTACG"],
            8,
            InchwormConfig {
                min_contig_len: 100,
                ..tiny_cfg()
            },
        );
        assert!(contigs.is_empty());
    }

    #[test]
    fn abundant_seed_assembled_first() {
        let rare = b"TGTTCGCGTGGTGCTGAGACAAAGCACGCCAT";
        let common = b"AAAGCGGCACTTGTGAAGTGTTCCCCACGCCG";
        let mut reads: Vec<Vec<u8>> = tile(common, 16, 2);
        let extra = reads.clone();
        reads.extend(extra); // double the common transcript's coverage
        reads.extend(tile(rare, 16, 2));
        let refs: Vec<&[u8]> = reads.iter().map(|r| r.as_slice()).collect();
        let contigs = assemble_reads(&refs, 8, tiny_cfg());
        assert_eq!(contigs.len(), 2);
        assert!(contigs[0].coverage > contigs[1].coverage);
        assert_eq!(contigs[0].id, 0);
    }

    #[test]
    fn kmers_consumed_once_no_duplicate_contigs() {
        let transcript = b"AAAGCGGCACTTGTGAAGTGTTCCCCACGCCG";
        let reads = tile(transcript, 16, 1);
        let refs: Vec<&[u8]> = reads.iter().map(|r| r.as_slice()).collect();
        let contigs = assemble_reads(&refs, 8, tiny_cfg());
        assert_eq!(contigs.len(), 1);
    }

    #[test]
    fn deterministic_without_jitter() {
        let transcript = b"CCATACCAAGAGGTAGTAGTCTCAGAATCTTGCGGGTACAGACCCATC";
        let reads = tile(transcript, 20, 2);
        let refs: Vec<&[u8]> = reads.iter().map(|r| r.as_slice()).collect();
        let a = assemble_reads(&refs, 8, tiny_cfg());
        let b = assemble_reads(&refs, 8, tiny_cfg());
        assert_eq!(a, b);
    }

    #[test]
    fn jitter_changes_tie_breaks_but_not_coverage_mass() {
        // A branch point with equal counts: jitter may choose differently.
        let reads: Vec<&[u8]> = vec![b"AAAACGTTTC", b"AAAACGTTTG"];
        let base = assemble_reads(
            &reads,
            6,
            InchwormConfig {
                jitter_seed: None,
                min_contig_len: 6,
                ..tiny_cfg()
            },
        );
        let jit = assemble_reads(
            &reads,
            6,
            InchwormConfig {
                jitter_seed: Some(7),
                min_contig_len: 6,
                ..tiny_cfg()
            },
        );
        let mass = |cs: &[Contig]| cs.iter().map(|c| c.len()).sum::<usize>();
        // Same total assembled mass even if tie-breaks differ.
        assert_eq!(mass(&base), mass(&jit));
    }

    #[test]
    fn tie_rank_is_a_pure_function_and_zero_without_jitter() {
        let table = count_kmers(&[b"ACGTACGTAA".as_slice()], CounterConfig::new(4));
        let dict = Dictionary::from_counts(table, 1);
        let cur = Kmer::from_bases(b"ACGT").unwrap();
        let plain = Walker {
            dict: &dict,
            cfg: tiny_cfg(),
        };
        assert!((0..4).all(|code| plain.tie_rank(cur, code) == 0));
        let jittered = |seed| Walker {
            dict: &dict,
            cfg: InchwormConfig {
                jitter_seed: Some(seed),
                ..tiny_cfg()
            },
        };
        let ranks = |seed| {
            (0..4)
                .map(|code| jittered(seed).tie_rank(cur, code))
                .collect::<Vec<_>>()
        };
        assert_eq!(ranks(3), ranks(3));
        assert_ne!(ranks(3), ranks(4));
    }

    #[test]
    fn poly_a_and_poly_t_at_k32_assemble_as_before() {
        // The all-T 32-mer packs to `u64::MAX`, the count table's
        // out-of-line key: present when the table is not canonical, merged
        // into the all-A k-mer by the dictionary. Output recorded at the
        // `HashSet`-based assembler this one replaced.
        let left = b"GATTACAGGCTTCAGATCCGA".to_vec();
        let right = b"CCGGTTAACGTGCATGCAAGG".to_vec();
        let through = [left.clone(), vec![b'A'; 40], right.clone()].concat();
        let reads = [
            vec![b'A'; 40],
            vec![b'T'; 40],
            through.clone(),
            revcomp(&through),
            vec![b'T'; 33],
        ];
        for canonical in [true, false] {
            let cfg = CounterConfig {
                canonical,
                ..CounterConfig::new(32)
            };
            let table = count_kmers(&reads, cfg);
            let all_t = if canonical { 0 } else { 21 };
            assert_eq!(table.get_packed(u64::MAX), all_t);
            let dict = Dictionary::from_counts(table, 1);
            let cfg = InchwormConfig {
                min_contig_len: 32,
                ..tiny_cfg()
            };
            let contigs = assemble(&dict, cfg);
            assert_eq!(contigs.len(), 1);
            // The 40-base run collapses: the all-A k-mer is consumed once.
            assert_eq!(
                String::from_utf8_lossy(&contigs[0].seq),
                "GATTACAGGCTTCAGATCCGAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAACCGGTTAACGTGCATGCAAGG"
            );
            assert_eq!(contigs[0].coverage, 61.0 / 21.0);
        }
    }

    #[test]
    fn empty_dictionary_yields_nothing() {
        let contigs = assemble_reads(&[b"ACG"], 8, tiny_cfg());
        assert!(contigs.is_empty());
    }

    #[test]
    fn respects_min_seed_count() {
        let contigs = assemble_reads(
            &[b"CGAGTCGGTTATCTTCGGATAC"],
            8,
            InchwormConfig {
                min_seed_count: 5, // nothing reaches count 5
                ..tiny_cfg()
            },
        );
        assert!(contigs.is_empty());
    }

    #[test]
    fn a_walk_whose_ends_meet_is_redone_in_the_serial_order() {
        // A circular transcript: every 8-mer has one neighbour each way, so
        // the two ends of a walk meet halfway round — a crossing — while
        // the serial walk goes all the way round rightward: one step per
        // k-mer after the seed, and one failed step at each end.
        let ring = b"CGAGTCGGTTATCTTCGGATACTGTATAGTCC";
        let reads = [[ring.as_slice(), &ring[..7]].concat()];
        let dict = Dictionary::from_counts(count_kmers(&reads, CounterConfig::new(8)), 1);
        let walker = Walker {
            dict: &dict,
            cfg: tiny_cfg(),
        };
        let mut own = Own::new(dict.slots());
        let seed = dict.seeds().next().unwrap();
        let walk = walker.walk(seed, &Bits::new(dict.slots()), &mut own);
        assert!(!walk.aborted);
        assert_eq!(walk.claims.len(), ring.len());
        assert_eq!(walk.seq.len(), ring.len() + 7);
        assert!(
            walk.steps > ring.len() + 1,
            "the crossed attempt came first"
        );
        assert!(own.0.iter().all(|words| words == &[0, 0]), "own left clean");
    }

    #[test]
    fn seeds_below_min_seed_count_end_the_run() {
        // Every seed is below the threshold: the loop stops at the first
        // one instead of checking them all, so no walk is taken.
        let table = count_kmers(
            &[b"CGAGTCGGTTATCTTCGGATAC".as_slice()],
            CounterConfig::new(8),
        );
        let dict = Dictionary::from_counts(table, 1);
        let cfg = InchwormConfig {
            min_seed_count: 5,
            ..tiny_cfg()
        };
        let (contigs, stats) = assemble_on(&dict, cfg, 4, &mut seqio::par::in_order);
        assert!(contigs.is_empty());
        assert_eq!(stats, WalkStats::default());
    }
}
