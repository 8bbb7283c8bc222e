//! Greedy contig assembly (the Inchworm main loop), in speculative epochs.
//!
//! The serial loop walks each unused seed in abundance order and claims the
//! k-mers the walk extends through. [`assemble_on`] runs the same walks
//! `width` at a time: an epoch takes the next `width` unused seeds, walks
//! each one in one parallel loop against the `used` bitset as the epoch
//! found it plus the walk's own claims, and commits the walks in seed order.
//! A walk commits if no earlier commit of its epoch took one of its claims
//! (its seed first); it is replayed at its turn against the live bitset
//! otherwise, or skipped if its seed is gone. Three rules keep this cheap
//! and exact:
//!
//! * **early abort** — a walk about to claim the seed of an earlier walk of
//!   its epoch stops there: by its turn every earlier seed of the epoch is
//!   claimed, so it would be replayed anyway;
//! * **alternating ends** — a walk's two ends take a step each in turn, so
//!   an earlier seed on either side is met early; that is the serial walk
//!   (rightward end first) unless the rightward end meets a k-mer the
//!   leftward one claimed, and then the walk is redone in the serial order;
//! * **a pure tie-break** — candidates of equal count are ranked by a pure
//!   function of (jitter seed, current k-mer, base), never by a stream
//!   threaded through the walks, so what a walk picks depends only on the
//!   bitset it sees.

use std::sync::Mutex;

use seqio::alphabet::code_to_base;
use seqio::kmer::Kmer;
use seqio::par::par_map;

use crate::contig::Contig;
use crate::dictionary::Dictionary;

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

/// What an epoch run did, counted in walks and extension steps (a step is
/// one neighbour lookup).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Epochs run.
    pub epochs: usize,
    /// Speculative walks run: one per seed an epoch took.
    pub walks: usize,
    /// Walks redone at their turn because an earlier commit of their epoch
    /// took one of their claims.
    pub replays: usize,
    /// Extension steps of the speculative walks.
    pub steps: usize,
    /// The part of `steps` thrown away: walks replayed, or skipped because
    /// an earlier commit took their seed.
    pub wasted_steps: usize,
}

/// One flag per dictionary slot.
struct Bits(Vec<u64>);

impl Bits {
    fn new(slots: usize) -> Self {
        Bits(vec![0; slots.div_ceil(64)])
    }

    fn get(&self, slot: usize) -> bool {
        self.0[slot / 64] >> (slot % 64) & 1 == 1
    }

    fn set(&mut self, slot: usize) {
        self.0[slot / 64] |= 1 << (slot % 64);
    }

    /// Set every flag of `slots` — unless one is set already: then leave
    /// them all as they were and return false.
    fn claim_all(&mut self, slots: &[u32]) -> bool {
        let taken = slots.iter().position(|&slot| {
            let (word, bit) = (&mut self.0[slot as usize / 64], 1 << (slot % 64));
            let was = *word & bit != 0;
            *word |= bit;
            was
        });
        let Some(taken) = taken else {
            return true;
        };
        for &slot in &slots[..taken] {
            self.0[slot as usize / 64] &= !(1 << (slot % 64));
        }
        false
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

/// What a walk may not claim, and where it gives up.
struct Seen<'a, S> {
    /// The bitset the walk runs against.
    used: &'a Bits,
    own: &'a mut Own,
    /// True for a winner (slot, count) that is the seed of an earlier walk
    /// of the epoch.
    stop: &'a S,
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
    /// Stopped before claiming the seed of an earlier walk of its epoch.
    aborted: bool,
    steps: usize,
}

/// Why a walk stopped short.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Halt {
    /// The winner is the seed of an earlier walk of the epoch.
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
    fn step<const E: usize, S: Fn(usize, u32) -> bool>(
        &self,
        end: &mut End,
        walk: &mut Walk,
        seen: &mut Seen<S>,
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
        if (seen.stop)(slot, count) {
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
    fn run<S: Fn(usize, u32) -> bool>(
        &self,
        [right, left]: &mut [End; 2],
        alternate: bool,
        walk: &mut Walk,
        seen: &mut Seen<S>,
    ) -> Result<(), Halt> {
        while right.open || left.open {
            if right.open {
                self.step::<RIGHT, S>(right, walk, seen)?;
            }
            if left.open && (alternate || !right.open) {
                self.step::<LEFT, S>(left, walk, seen)?;
            }
        }
        Ok(())
    }

    /// The walk from `seed` (a [`Dictionary::seeds`] entry) against `used`
    /// plus its own claims, which it keeps in `own` — clean on entry and
    /// left clean. It is the serial loop's walk, which extends rightward
    /// and then leftward; the two ends take a step each in turn, so that an
    /// earlier seed on either side is met early. That is the same walk
    /// unless the rightward end reaches a k-mer the leftward one claimed
    /// first — then it is walked again in the serial order. It stops short,
    /// aborted, at a winner `stop` names.
    fn walk(
        &self,
        (seed, slot, count): (Kmer, usize, u32),
        used: &Bits,
        own: &mut Own,
        stop: impl Fn(usize, u32) -> bool,
    ) -> Walk {
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
                stop: &stop,
            };
            let mut ends = [seed.bases(), Vec::new()].map(|bases| End {
                cur: seed,
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
    assemble_on(dict, cfg, 1, &mut seqio::par::sequential).0
}

/// Run the Inchworm main loop in epochs of `width` seeds, each epoch's
/// walks one loop on `par` (see the crate docs). The contigs are
/// [`assemble`]'s at every width, in every loop order.
pub fn assemble_on(
    dict: &Dictionary,
    cfg: InchwormConfig,
    width: usize,
    par: &mut impl FnMut(usize, &(dyn Fn(usize) + Sync)),
) -> (Vec<Contig>, EpochStats) {
    let walker = Walker { dict, cfg };
    let mut used = Bits::new(dict.slots());
    // Own-claim flags for the walks in flight, and one set for the replays.
    let spare = Mutex::new(Vec::new());
    let mut own = Own::new(dict.slots());
    // Seeds come in decreasing count: the first one below the threshold
    // ends the run.
    let min_seed = cfg.min_seed_count.max(1);
    let mut seeds = dict.seeds().take_while(|&(_, _, count)| count >= min_seed);
    let mut epoch = Vec::with_capacity(width.max(1));
    let mut stats = EpochStats::default();
    let mut contigs = Vec::new();
    loop {
        epoch.clear();
        let unused = seeds.by_ref().filter(|&(_, slot, _)| !used.get(slot));
        epoch.extend(unused.take(width.max(1)));
        if epoch.is_empty() {
            break;
        }
        // Each epoch seed's slot with its position, for the early abort.
        let mut positions: Vec<(usize, usize)> = epoch
            .iter()
            .enumerate()
            .map(|(i, &(_, slot, _))| (slot, i))
            .collect();
        positions.sort_unstable();
        let position = |slot| {
            let found = positions.binary_search_by_key(&slot, |&(s, _)| s);
            found.map(|p| positions[p].1)
        };
        let walks = par_map(par, epoch.len(), |i| {
            let spare_own = spare.lock().expect("a walk panicked").pop();
            let mut own = spare_own.unwrap_or_else(|| Own::new(dict.slots()));
            // The unused k-mers counted above this walk's seed are all
            // earlier seeds of the epoch: only a tie needs looking up.
            let (_, _, seed_count) = epoch[i];
            let walk = walker.walk(epoch[i], &used, &mut own, |slot, count| {
                count > seed_count || count == seed_count && position(slot).is_ok_and(|j| j < i)
            });
            spare.lock().expect("a walk panicked").push(own);
            walk
        });
        stats.epochs += 1;
        stats.walks += epoch.len();
        for (&seed, walk) in epoch.iter().zip(walks) {
            stats.steps += walk.steps;
            if used.get(seed.1) {
                stats.wasted_steps += walk.steps;
                continue;
            }
            // A claim an earlier commit of the epoch took means the walk
            // saw a different bitset from the serial loop's: redo it.
            let walk = if !walk.aborted && used.claim_all(&walk.claims) {
                walk
            } else {
                stats.replays += 1;
                stats.wasted_steps += walk.steps;
                let replay = walker.walk(seed, &used, &mut own, |_, _| false);
                for &claim in &replay.claims {
                    used.set(claim as usize);
                }
                replay
            };
            if walk.seq.len() >= cfg.min_contig_len {
                contigs.push(Contig {
                    id: contigs.len(),
                    coverage: walk.coverage.0 as f64 / walk.coverage.1 as f64,
                    seq: walk.seq,
                });
            }
        }
    }
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
        let walk = walker.walk(seed, &Bits::new(dict.slots()), &mut own, |_, _| false);
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
        // one instead of checking them all, so no epoch starts.
        let table = count_kmers(
            &[b"CGAGTCGGTTATCTTCGGATAC".as_slice()],
            CounterConfig::new(8),
        );
        let dict = Dictionary::from_counts(table, 1);
        let cfg = InchwormConfig {
            min_seed_count: 5,
            ..tiny_cfg()
        };
        let (contigs, stats) = assemble_on(&dict, cfg, 4, &mut seqio::par::sequential);
        assert!(contigs.is_empty());
        assert_eq!(stats, EpochStats::default());
    }
}
