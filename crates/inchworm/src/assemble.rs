//! Greedy contig assembly (the Inchworm main loop), as one ordered loop.
//!
//! The serial loop walks each unused seed in abundance order and claims the
//! k-mers the walk extends through. [`assemble_on`] runs the same walks as
//! an ordered loop (`seqio::par`'s `ord`): a worker takes the next unused
//! seed and walks it against the `used` bitset as it stands, plus the
//! walk's own claims, while other walks are in flight — at most `window`
//! taken and not yet committed — and each walk commits in seed order as
//! soon as every earlier one has. A walk commits if no commit took one of
//! its claims (its seed first) and every slot it stepped around as claimed
//! by a walk in flight has been committed; it is replayed at its turn
//! against the live bitset otherwise, or skipped if its seed is gone. Four
//! rules keep this cheap and exact:
//!
//! * **marks** — a walk marks each slot it claims, and a later walk treats
//!   a marked slot as used and records it as *assumed*; a seed already
//!   marked is not walked and takes no place in the window: it is deferred
//!   to its turn, which the commit of the next walk taken settles. On an
//!   executor that walks in take order every mark is an earlier walk's
//!   claim, which that walk commits, so no walk is replayed or thrown away;
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

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
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
    /// Speculative walks run: one per seed taken and walked.
    pub walks: usize,
    /// Seeds not walked because a walk in flight had marked them, or a
    /// commit taken them, when they were reached: at their turn they are
    /// skipped, or walked as a replay if the seed is still free.
    pub deferred: usize,
    /// Walks redone at their turn: a commit made after they started took
    /// one of their claims, a slot they stepped around was left free, or
    /// their deferred seed was.
    pub replays: usize,
    /// Extension steps of the speculative walks.
    pub steps: usize,
    /// The part of `steps` thrown away: walks replayed, or skipped because
    /// an earlier commit took their seed.
    pub wasted_steps: usize,
}

/// A slot's flags: a commit took it.
const USED: u64 = 1;
/// A slot's flags: a walk in flight claims it.
const MARKED: u64 = 2;

/// Two flags per dictionary slot, `USED` and `MARKED`, kept per 64 slots in
/// a pair of words side by side (one cache line holds both). `USED` is only
/// ever set, and only under the loop's lock, so what a walk sees of it is
/// part of what its commit will see; as only the lock's holder writes the
/// `USED` words, a plain load and store sets a flag. Marks are hints: walks
/// set them with `fetch_or` and clear the ones they abandon with
/// `fetch_and`, in words of their own, so no commit can lose one — and no
/// commit trusts one: it checks the slots a walk claimed and assumed
/// instead. `Relaxed` suffices: the flags publish no other data, a stale
/// read of `USED` is an older subset of the flags, and the takes and commits
/// that must see every earlier commit run under the loop's lock, which
/// orders them.
struct Bits(Vec<[AtomicU64; 2]>);

impl Bits {
    fn new(slots: usize) -> Self {
        let words = || [AtomicU64::new(0), AtomicU64::new(0)];
        Bits((0..slots.div_ceil(64)).map(|_| words()).collect())
    }

    /// The slot's `USED` and `MARKED` words, and its bit in each.
    fn words(&self, slot: usize) -> (&[AtomicU64; 2], u32) {
        (&self.0[slot / 64], (slot % 64) as u32)
    }

    /// The slot's flags.
    fn get(&self, slot: usize) -> u64 {
        let ([used, marked], at) = self.words(slot);
        flags(used.load(Relaxed), marked.load(Relaxed), at)
    }

    fn used(&self, slot: usize) -> bool {
        let ([used, _], at) = self.words(slot);
        used.load(Relaxed) >> at & 1 == 1
    }

    /// Mark the slot and return its flags before.
    fn mark(&self, slot: usize) -> u64 {
        let ([used, marked], at) = self.words(slot);
        let was_marked = marked.fetch_or(1 << at, Relaxed);
        flags(used.load(Relaxed), was_marked, at)
    }

    /// Set the slot's `USED` flag: only the holder of the loop's lock does.
    fn set_used(&self, slot: usize) {
        let ([used, _], at) = self.words(slot);
        used.store(used.load(Relaxed) | 1 << at, Relaxed);
    }

    /// Clear the marks of `slots`.
    fn unmark(&self, slots: &[u32]) {
        for &slot in slots {
            let ([_, marked], at) = self.words(slot as usize);
            marked.fetch_and(!(1 << at), Relaxed);
        }
    }
}

/// The flags of the slot at bit `at` of a `USED` and a `MARKED` word.
fn flags(used: u64, marked: u64, at: u32) -> u64 {
    let flag = |word: u64, flag| if word >> at & 1 == 1 { flag } else { 0 };
    flag(used, USED) | flag(marked, MARKED)
}

/// The growing ends of a walk.
const RIGHT: usize = 0;
const LEFT: usize = 1;

/// A walk's own claims: one flag per dictionary slot and end. Private to
/// the walk, unlike its marks, which a racing walk may set too.
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
    bits: &'a Bits,
    /// A speculative walk marks its claims and steps around marked slots;
    /// a walk at its turn does neither.
    speculative: bool,
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
#[derive(Default)]
struct Walk {
    seq: Vec<u8>,
    /// Claimed slots, the seed's first.
    claims: Vec<u32>,
    /// Unused slots it stepped around because a walk in flight marked
    /// them: its commit needs them used.
    assumed: Vec<u32>,
    /// Sum and number of the claimed k-mers' counts.
    coverage: (u64, usize),
    /// Stopped before claiming a k-mer that comes before its seed.
    aborted: bool,
    /// Not walked: its seed was claimed when its turn to walk came.
    deferred: bool,
    steps: usize,
}

impl Walk {
    /// A seed's walk that was not walked: its seed was claimed.
    fn deferred() -> Self {
        Walk {
            deferred: true,
            ..Walk::default()
        }
    }
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
    /// dictionary holds, claim the one that is neither used, claimed by the
    /// walk nor — for a speculative walk — marked, with the highest count,
    /// then the highest tie rank, then the smallest base — or close the end
    /// if there is none.
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
            if count < self.cfg.min_extend_count.max(1) {
                continue;
            }
            let flags = seen.bits.get(slot);
            if flags & USED != 0 {
                continue;
            }
            match seen.own.end_of(slot) {
                // The serial walk finishes its rightward end before the
                // leftward one claims anything.
                Some(LEFT) if E == RIGHT => return Err(Halt::Crossed),
                Some(_) => continue,
                None => {}
            }
            if seen.speculative && flags & MARKED != 0 {
                // Another walk in flight claims it: step around it as if
                // its commit had landed, and have this walk's commit check.
                walk.assumed.push(slot as u32);
                continue;
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
        if seen.speculative {
            seen.bits.mark(slot);
        }
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

    /// The walk from `seed` against `bits` plus its own claims, which it
    /// keeps in `own` — clean on entry and left clean. A `speculative`
    /// walk, whose seed its caller has marked, marks its claims and steps
    /// around marked slots; one at its turn reads `USED` alone. It is the
    /// serial loop's walk, which extends rightward and then leftward; the
    /// two ends take a step each in turn, so that an earlier seed on either
    /// side is met early. That is the same walk unless the rightward end
    /// reaches a k-mer the leftward one claimed first — then the marks of
    /// that attempt are cleared and it is walked again in the serial order.
    /// It stops short, aborted, at a winner that comes before `seed` in
    /// seeding order: against the bitset of its turn there is none.
    fn walk(&self, seed: Seed, bits: &Bits, speculative: bool, own: &mut Own) -> Walk {
        let (kmer, slot, count) = seed;
        let mut steps = 0;
        for alternate in [true, false] {
            let mut walk = Walk {
                claims: vec![slot as u32],
                coverage: (u64::from(count), 1),
                steps,
                ..Walk::default()
            };
            own.set(slot, RIGHT);
            let mut seen = Seen {
                bits,
                speculative,
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
                if speculative {
                    bits.unmark(&walk.claims[1..]);
                }
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

/// A walk in flight: its seed, the seed's place in seeding order and, once
/// walked, the walk. A commit leaves the walk's buffers in place; the next
/// walk at the same place in the window frees them, outside the lock.
struct Task {
    at: usize,
    seed: Seed,
    walk: Option<Walk>,
}

/// Where the seeding order stands ahead of the walks in flight.
struct Ahead {
    /// The first seed neither taken nor passed over.
    next: usize,
    /// Seeds passed over while a walk in flight had marked them, with their
    /// places in seeding order: each is settled at its turn.
    deferred: VecDeque<(usize, Seed)>,
}

/// Run the Inchworm main loop as one ordered loop `ord` with `window`
/// walks in flight (see the module docs). The contigs are [`assemble`]'s at
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
    let bits = Bits::new(dict.slots());
    let window = window.max(1);
    // The walks in flight, each at its index modulo the window: task `i`
    // is taken only once task `i − window` has committed.
    let line: Vec<Mutex<Option<Task>>> = (0..window).map(|_| Mutex::new(None)).collect();
    let task = |i: usize| line[i % window].lock().expect("a walk panicked");
    // Own-claim flags for the walks in flight, and one set for the replays.
    let spare = Mutex::new(Vec::new());
    let mut own = Own::new(dict.slots());
    // Seeds come in decreasing count: the first one below the threshold
    // ends the run. Most seeds are claimed, or marked, by some walk before
    // their turn, and a take would have to pass over them — serial work,
    // under the loop's lock. So after each walk its worker moves `ahead`
    // past them up to the next free seed: a used seed stays used, and a
    // marked one is deferred to its turn. A take then mostly finds a free
    // seed at once.
    let min_seed = cfg.min_seed_count.max(1);
    let ahead = Mutex::new(Ahead {
        next: 0,
        deferred: VecDeque::new(),
    });
    let pass_over = |ahead: &mut Ahead| {
        while let Some(seed) = dict.seed(ahead.next).filter(|seed| seed.2 >= min_seed) {
            match bits.get(seed.1) {
                0 => return Some((ahead.next, seed)),
                MARKED => ahead.deferred.push_back((ahead.next, seed)),
                _ => {}
            }
            ahead.next += 1;
        }
        None
    };
    let mut taken = 0;
    let mut take = || {
        let mut ahead = ahead.lock().expect("a walk panicked");
        let Some((at, seed)) = pass_over(&mut ahead) else {
            return false;
        };
        ahead.next = at + 1;
        drop(ahead);
        match &mut *task(taken) {
            Some(task) => (task.at, task.seed) = (at, seed),
            empty => {
                *empty = Some(Task {
                    at,
                    seed,
                    walk: None,
                })
            }
        }
        taken += 1;
        true
    };
    let work = |i| {
        let seed = task(i).as_ref().expect("a taken walk").seed;
        // A seed claimed since its take, committed or marked, is left to
        // its commit; otherwise the walk owns its seed's mark.
        let walk = if bits.mark(seed.1) != 0 {
            Walk::deferred()
        } else {
            let spare_own = spare.lock().expect("a walk panicked").pop();
            let mut walk_own = spare_own.unwrap_or_else(|| Own::new(dict.slots()));
            let walk = walker.walk(seed, &bits, true, &mut walk_own);
            spare.lock().expect("a walk panicked").push(walk_own);
            walk
        };
        task(i).as_mut().expect("a taken walk").walk = Some(walk);
        pass_over(&mut ahead.lock().expect("a walk panicked"));
    };
    let mut stats = WalkStats::default();
    let mut contigs = Vec::new();
    // Land `seed`'s walk at its turn: skip it if its seed is used, commit
    // it if it is the serial walk, walk it again against the live bitset
    // otherwise.
    let mut land = |seed: Seed, walk: &mut Walk| {
        stats.walks += usize::from(!walk.deferred);
        stats.deferred += usize::from(walk.deferred);
        stats.steps += walk.steps;
        if bits.used(seed.1) {
            stats.wasted_steps += walk.steps;
            bits.unmark(&walk.claims);
            return;
        }
        // The walk saw the commits made before it plus the slots it
        // assumed. If those are all used now and its claims all free, it
        // saw part of this bitset and took the serial walk's path.
        let exact = !walk.aborted
            && !walk.deferred
            && walk.claims.iter().all(|&c| !bits.used(c as usize))
            && walk.assumed.iter().all(|&a| bits.used(a as usize));
        let mut replay;
        let walk = if exact {
            walk
        } else {
            stats.replays += 1;
            stats.wasted_steps += walk.steps;
            bits.unmark(&walk.claims);
            replay = walker.walk(seed, &bits, false, &mut own);
            &mut replay
        };
        for &claim in &walk.claims {
            bits.set_used(claim as usize);
        }
        if walk.seq.len() >= cfg.min_contig_len {
            contigs.push(Contig {
                id: contigs.len(),
                coverage: walk.coverage.0 as f64 / walk.coverage.1 as f64,
                seq: std::mem::take(&mut walk.seq),
            });
        }
    };
    // Land the deferred seeds that come before seed number `before`. They
    // leave the queue under `ahead`'s lock and land after it, which a
    // replay would otherwise hold against every worker's pass-over.
    let mut due = Vec::new();
    let mut settle = |before: usize, land: &mut dyn FnMut(Seed, &mut Walk)| {
        let mut ahead = ahead.lock().expect("a walk panicked");
        let queued = ahead.deferred.iter().take_while(|&&(at, _)| at < before);
        let count = queued.count();
        due.extend(ahead.deferred.drain(..count).map(|(_, seed)| seed));
        drop(ahead);
        for seed in due.drain(..) {
            land(seed, &mut Walk::deferred());
        }
    };
    let mut commit = |i| {
        let mut task = task(i);
        let task = task.as_mut().expect("a taken walk");
        settle(task.at, &mut land);
        land(
            task.seed,
            task.walk.as_mut().expect("walked before its commit"),
        );
    };
    ord(window, &mut take, &work, &mut commit);
    settle(usize::MAX, &mut land);
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
        let walk = walker.walk(seed, &Bits::new(dict.slots()), true, &mut own);
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
