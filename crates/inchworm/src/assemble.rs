//! Greedy contig assembly (the Inchworm main loop).

use seqio::alphabet::code_to_base;
use seqio::kmer::Kmer;

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
    /// base); `Some(seed)` breaks them pseudo-randomly so repeated runs
    /// reproduce that run-to-run distribution.
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

/// A tiny splitmix64 step for tie-break jitter (no dependency on `rand` in
/// this hot path; the sequence only has to be uncorrelated, not strong).
#[inline]
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Assembler<'d> {
    dict: &'d Dictionary,
    /// One used flag per dictionary slot — a bitset the size of the table's
    /// slot array over 64, so one probe per candidate answers both "how
    /// abundant" and "already consumed".
    used: Vec<u64>,
    cfg: InchwormConfig,
    rng: u64,
}

impl<'d> Assembler<'d> {
    fn is_used(&self, slot: usize) -> bool {
        self.used[slot / 64] >> (slot % 64) & 1 == 1
    }

    fn mark_used(&mut self, slot: usize) {
        self.used[slot / 64] |= 1 << (slot % 64);
    }

    /// Pick the best extension among the candidates the dictionary holds
    /// (`found[code]` is the table slot and count of the neighbour reached
    /// by base `code`): highest count wins; ties go to the smallest base
    /// code, or are shuffled when jitter is enabled. Returns the winner's
    /// `(code, slot, count)`.
    fn best_candidate(&mut self, found: [Option<(usize, u32)>; 4]) -> Option<(u8, usize, u32)> {
        let mut best: Option<(u8, usize, u32)> = None;
        for (code, candidate) in found.into_iter().enumerate() {
            let Some((slot, count)) = candidate else {
                continue;
            };
            if count < self.cfg.min_extend_count.max(1) || self.is_used(slot) {
                continue;
            }
            let better = match best {
                None => true,
                Some((_, _, bc)) => {
                    if count != bc {
                        count > bc
                    } else if self.cfg.jitter_seed.is_some() {
                        splitmix(&mut self.rng) & 1 == 1
                    } else {
                        false // keep the earlier (smaller) base
                    }
                }
            };
            if better {
                best = Some((code as u8, slot, count));
            }
        }
        best
    }

    /// Greedily extend from `seed` one base at a time, `roll` giving the
    /// neighbour of the current k-mer on the growing side for a base code;
    /// chosen bases are appended to `seq`.
    fn extend(
        &mut self,
        seed: Kmer,
        roll: impl Fn(Kmer, u8) -> Kmer,
        seq: &mut Vec<u8>,
        cov_acc: &mut (u64, usize),
    ) {
        let mut cur = seed;
        loop {
            let next: [Kmer; 4] = std::array::from_fn(|code| roll(cur, code as u8));
            let found = self.dict.find_each(next);
            let Some((code, slot, count)) = self.best_candidate(found) else {
                break;
            };
            seq.push(code_to_base(code));
            self.mark_used(slot);
            cov_acc.0 += count as u64;
            cov_acc.1 += 1;
            cur = next[code as usize];
        }
    }
}

/// Run the Inchworm main loop over a dictionary.
pub fn assemble(dict: &Dictionary, cfg: InchwormConfig) -> Vec<Contig> {
    let mut asm = Assembler {
        dict,
        used: vec![0; dict.slots().div_ceil(64)],
        cfg,
        rng: cfg.jitter_seed.unwrap_or(0),
    };
    let mut contigs = Vec::new();

    for (seed, slot, count) in dict.seeds() {
        if count < cfg.min_seed_count.max(1) || asm.is_used(slot) {
            continue;
        }
        asm.mark_used(slot);
        let mut cov = (count as u64, 1usize);

        let mut body = seed.bases();
        asm.extend(seed, Kmer::roll_right, &mut body, &mut cov);
        // Leftward bases are collected reversed, then fixed.
        let mut rev_prefix = Vec::new();
        asm.extend(seed, Kmer::roll_left, &mut rev_prefix, &mut cov);
        rev_prefix.reverse();

        let mut seq = rev_prefix;
        seq.extend_from_slice(&body);
        if seq.len() >= cfg.min_contig_len {
            contigs.push(Contig {
                id: contigs.len(),
                seq,
                coverage: cov.0 as f64 / cov.1 as f64,
            });
        }
    }
    contigs
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
}
