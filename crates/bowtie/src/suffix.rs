//! Suffix-array construction: packed-key seed, then prefix doubling over
//! the still-tied runs only (Larsson–Sadakane style).
//!
//! The alphabet is made dense first (6 symbols for a contig reference:
//! terminator, separator, `ACGT`), so one `u64` seed holds the next
//! `64 / bits` symbols — 21 bases — and a single sort by that seed already
//! separates every suffix whose 21-symbol prefix is unique. Each later
//! round sorts only the runs that are still tied, by the rank of the suffix
//! `depth` symbols further on, and doubles `depth`. Independent of alphabet
//! size, so the separator bytes used to join contigs need no special
//! handling.

/// Build the suffix array of `text`. Returns `sa` with `sa[i]` = start
/// position of the i-th smallest suffix (a suffix that is a proper prefix of
/// another sorts first). The caller is expected to have appended a unique
/// smallest terminator (byte 0) if total ordering of rotations matters (the
/// BWT builder does).
pub fn suffix_array(text: &[u8]) -> Vec<u32> {
    let n = text.len();
    assert!(
        n <= u32::MAX as usize,
        "text too large for u32 suffix array"
    );

    // Dense codes 1..=sigma in byte order; 0 is "past the end".
    let mut dense = [0u64; 256];
    for &b in text {
        dense[b as usize] = 1;
    }
    let mut sigma = 0u64;
    for d in dense.iter_mut().filter(|d| **d != 0) {
        sigma += 1;
        *d = sigma;
    }
    let bits = (u64::BITS - sigma.leading_zeros()).max(1);
    let seed_len = (u64::BITS / bits) as usize;

    // seeds[i] = the `seed_len` symbols from `i`, first symbol most
    // significant.
    let mut seeds = vec![0u64; n];
    let mut seed = 0u64;
    for (s, &b) in seeds.iter_mut().zip(text).rev() {
        seed = seed >> bits | dense[b as usize] << (bits * (seed_len as u32 - 1));
        *s = seed;
    }

    // `sa` is sorted to `depth` symbols; `rank[i]` is the index in `sa` of
    // the first suffix tied with `i` at that depth; `tied` lists the
    // `[start, end)` runs of `sa` that hold more than one suffix. A round
    // sorts every tied run — by seed first, afterwards by the rank `depth`
    // symbols further on — and doubles the depth. Ranks are updated in
    // place: a rank only ever splits into finer ranks in suffix order, so a
    // run sorted against partly-refined ranks is ordered at least to twice
    // the depth. A run's own keys are copied out before its ranks change.
    let mut sa: Vec<u32> = (0..n as u32).collect();
    let mut rank = vec![0u32; n];
    let mut tied = vec![(0, n)];
    let mut depth = 0;
    let mut run: Vec<(u64, u32)> = Vec::new();
    while !tied.is_empty() {
        let mut still_tied = Vec::new();
        for &(lo, hi) in &tied {
            run.clear();
            run.extend(sa[lo..hi].iter().map(|&i| {
                let key = match depth {
                    0 => seeds[i as usize],
                    _ => rank
                        .get(i as usize + depth)
                        .map_or(0, |&r| u64::from(r) + 1),
                };
                (key, i)
            }));
            run.sort_unstable();
            let mut start = 0;
            for w in 1..=run.len() {
                if w == run.len() || run[w].0 != run[start].0 {
                    for (slot, &(_, i)) in sa[lo + start..lo + w].iter_mut().zip(&run[start..w]) {
                        *slot = i;
                        rank[i as usize] = (lo + start) as u32;
                    }
                    if w - start > 1 {
                        still_tied.push((lo + start, lo + w));
                    }
                    start = w;
                }
            }
        }
        tied = still_tied;
        depth = if depth == 0 { seed_len } else { 2 * depth };
    }
    sa
}

/// Naive O(n^2 log n) construction, kept as the test oracle.
pub fn suffix_array_naive(text: &[u8]) -> Vec<u32> {
    let mut sa: Vec<u32> = (0..text.len() as u32).collect();
    sa.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
    sa
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banana() {
        // Suffixes of "banana$" sorted: $ a$ ana$ anana$ banana$ na$ nana$
        let sa = suffix_array(b"banana\x00");
        assert_eq!(sa, vec![6, 5, 3, 1, 0, 4, 2]);
    }

    #[test]
    fn empty_and_single() {
        assert!(suffix_array(b"").is_empty());
        assert_eq!(suffix_array(b"A"), vec![0]);
    }

    #[test]
    fn all_same_byte() {
        // Longest suffix of identical bytes is largest.
        let sa = suffix_array(b"AAAA");
        assert_eq!(sa, vec![3, 2, 1, 0]);
    }

    #[test]
    fn matches_naive_on_dna() {
        let texts: [&[u8]; 5] = [
            b"ACGTACGTACGT\x00",
            b"GATTACA\x00",
            b"AAACCCGGGTTT\x00",
            b"ACGT\x01TGCA\x00",
            b"TTTTTTTTAAAAAAAA\x00",
        ];
        for t in texts {
            assert_eq!(suffix_array(t), suffix_array_naive(t), "text {t:?}");
        }
    }

    #[test]
    fn matches_naive_on_pseudorandom() {
        // Deterministic pseudo-random DNA.
        let mut state = 12345u64;
        let mut text: Vec<u8> = (0..500)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                b"ACGT"[(state >> 33) as usize % 4]
            })
            .collect();
        text.push(0);
        assert_eq!(suffix_array(&text), suffix_array_naive(&text));
    }
}
