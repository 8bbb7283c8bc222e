//! The parallel-loop contract the stage builders take, and the pieces their
//! loops share.
//!
//! A builder with parallel loops (the Inchworm dictionary and walks, the
//! FM-index's suffix sort and Occ fill) does not own threads: it takes the
//! loop as `par(n, body)`, which calls `body(i)` once for every `i` in
//! `0..n`, in any order and on any threads. [`sequential`] runs it in place;
//! a caller with a thread team passes the team's loop (`omp::par_loop`). A
//! builder whose loop bodies write only what their own index owns gives the
//! same result under every `par`.
//!
//! A loop whose tasks must land in order (the Inchworm walks) takes the
//! second contract, `ord(window, take, work, commit)`: `take()` claims the
//! next task, which gets index `i` — the number taken before it — or returns
//! false when none is left; `work(i)` may run concurrently with other `work`
//! calls and with `take` or `commit`; `take` and `commit(i)` run one at a
//! time, under one lock, and `commit` is called once per task in index
//! order; at most `window` tasks are taken but not yet committed.
//! [`in_order`] is the sequential form — take, work, commit, repeat — and a
//! caller with a thread team passes the team's (`omp::ord_loop`).
//!
//! The rest is what those builders' loops have in common: cutting one array
//! into pieces a loop writes ([`cut`], [`map_pieces`], [`map_chunks`]), and
//! the splitter sort ([`Splitters`], [`scatter`]).

use std::ops::Range;
use std::sync::{Mutex, OnceLock};

/// The parallel loop that runs `body` over `0..n` one index at a time, in
/// order, on the calling thread.
pub fn sequential(n: usize, body: &(dyn Fn(usize) + Sync)) {
    (0..n).for_each(body)
}

/// The ordered loop that runs each task to its commit before taking the
/// next, on the calling thread: no task is ever speculative.
pub fn in_order(
    _window: usize,
    take: &mut (dyn FnMut() -> bool + Send),
    work: &(dyn Fn(usize) + Sync),
    commit: &mut (dyn FnMut(usize) + Send),
) {
    let mut i = 0;
    while take() {
        work(i);
        commit(i);
        i += 1;
    }
}

/// `f` over `0..n` through the caller's loop `par`, results in index order.
pub fn par_map<R: Send + Sync>(
    par: &mut impl FnMut(usize, &(dyn Fn(usize) + Sync)),
    n: usize,
    f: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    let slots: Vec<OnceLock<R>> = (0..n).map(|_| OnceLock::new()).collect();
    par(n, &|i| {
        let _ = slots[i].set(f(i));
    });
    let filled = slots.into_iter().map(OnceLock::into_inner);
    filled
        .map(|r| r.expect("the loop ran every index"))
        .collect()
}

/// `data` cut into consecutive pieces of the given lengths.
pub fn cut<T>(mut data: &mut [T], lens: impl Iterator<Item = usize>) -> Vec<&mut [T]> {
    lens.map(|len| {
        let (piece, rest) = std::mem::take(&mut data).split_at_mut(len);
        data = rest;
        piece
    })
    .collect()
}

/// A loop on `par` with one task per piece of `data` (cut at `lens`):
/// `f(p, piece)` for piece `p`, results in piece order.
pub fn map_pieces<T: Send, R: Send + Sync>(
    data: &mut [T],
    lens: impl Iterator<Item = usize>,
    par: &mut impl FnMut(usize, &(dyn Fn(usize) + Sync)),
    f: impl Fn(usize, &mut [T]) -> R + Sync,
) -> Vec<R> {
    // The mutexes only carry `&mut` through the `Fn` loop body: each is
    // locked once, by the one task that runs for it.
    let pieces: Vec<Mutex<&mut [T]>> = cut(data, lens).into_iter().map(Mutex::new).collect();
    par_map(par, pieces.len(), |p| {
        f(p, &mut pieces[p].lock().expect("a piece's task panicked"))
    })
}

/// Fewest elements in a chunk: below this, a task's bookkeeping outweighs
/// its work.
const MIN_CHUNK: usize = 1024;

/// `0..n` cut into at most [`BUCKETS`] consecutive, equal-length ranges of
/// at least `MIN_CHUNK` elements (but the last): the items of a chunked
/// loop over `n` elements.
pub fn chunks(n: usize) -> Vec<Range<usize>> {
    let len = n.div_ceil(BUCKETS).max(MIN_CHUNK);
    (0..n).step_by(len).map(|lo| lo..n.min(lo + len)).collect()
}

/// [`map_pieces`] over `data` cut into its [`chunks`].
pub fn map_chunks<T: Send, R: Send + Sync>(
    data: &mut [T],
    par: &mut impl FnMut(usize, &(dyn Fn(usize) + Sync)),
    f: impl Fn(usize, &mut [T]) -> R + Sync,
) -> Vec<R> {
    let lens = chunks(data.len()).into_iter().map(|r| r.len());
    map_pieces(data, lens, par, f)
}

/// Buckets of a splitter sort: more than any configured thread count, so a
/// loop over buckets balances.
pub const BUCKETS: usize = 64;

/// The bucketing of a splitter sort: `BUCKETS − 1` ascending bounds over a
/// `u64` lead, so that equal leads share a bucket and the buckets are in
/// lead order.
#[derive(Debug, Clone)]
pub struct Splitters {
    bounds: [u64; BUCKETS - 1],
}

impl Splitters {
    /// Bounds evenly spaced over the sorted `sample` of leads.
    pub fn new(sample: impl Iterator<Item = u64>) -> Self {
        let mut leads: Vec<u64> = sample.collect();
        leads.sort_unstable();
        let mut bounds = [u64::MAX; BUCKETS - 1];
        for (b, bound) in bounds.iter_mut().enumerate() {
            if let Some(&lead) = leads.get((b + 1) * leads.len() / BUCKETS) {
                *bound = lead;
            }
        }
        Splitters { bounds }
    }

    /// The bucket of `lead`: how many bounds lie below it, by a
    /// branch-free binary search.
    #[inline]
    pub fn bucket(&self, lead: u64) -> usize {
        let mut b = 0;
        let mut half = BUCKETS / 2;
        while half > 0 {
            b += half * usize::from(self.bounds[b + half - 1] < lead);
            half /= 2;
        }
        b
    }
}

/// One source's shares of the buckets, filled in order by [`Shares::put`].
pub struct Shares<'a, T> {
    pieces: Vec<&'a mut [T]>,
    filled: [usize; BUCKETS],
}

impl<T> Shares<'_, T> {
    /// Append `item` to this source's share of `bucket`.
    #[inline]
    pub fn put(&mut self, bucket: usize, item: T) {
        self.pieces[bucket][self.filled[bucket]] = item;
        self.filled[bucket] += 1;
    }
}

/// The scatter loop of a splitter sort, on `par`: `emit(s, shares)` puts
/// source `s`'s items, `tallies[s][b]` of them in bucket `b`. `out` is cut
/// bucket-major, source-minor — source `s`'s share of bucket `b` is piece
/// `b * sources + s` — so each bucket is one contiguous range and the
/// buckets are in order. Returns the buckets' lengths.
pub fn scatter<T: Send>(
    out: &mut [T],
    tallies: &[[usize; BUCKETS]],
    par: &mut impl FnMut(usize, &(dyn Fn(usize) + Sync)),
    emit: impl Fn(usize, &mut Shares<'_, T>) + Sync,
) -> Vec<usize> {
    let sources = tallies.len();
    let share_lens = (0..BUCKETS).flat_map(|b| tallies.iter().map(move |tally| tally[b]));
    let mut pieces: Vec<Vec<&mut [T]>> = (0..sources).map(|_| Vec::new()).collect();
    for (i, share) in cut(out, share_lens).into_iter().enumerate() {
        pieces[i % sources].push(share);
    }
    let shares: Vec<Mutex<Shares<T>>> = pieces
        .into_iter()
        .map(|pieces| {
            Mutex::new(Shares {
                pieces,
                filled: [0; BUCKETS],
            })
        })
        .collect();
    par(sources, &|s| {
        emit(s, &mut shares[s].lock().expect("a source task panicked"));
    });
    (0..BUCKETS)
        .map(|b| tallies.iter().map(|tally| tally[b]).sum())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reversed(n: usize, body: &(dyn Fn(usize) + Sync)) {
        (0..n).rev().for_each(body)
    }

    #[test]
    fn par_map_keeps_index_order_under_any_loop_order() {
        assert_eq!(par_map(&mut reversed, 5, |i| i * i), vec![0, 1, 4, 9, 16]);
        assert_eq!(par_map(&mut sequential, 0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn pieces_and_chunks_tile_the_input() {
        let mut data = [1, 2, 3, 4, 5, 6];
        let sums = map_pieces(
            &mut data,
            [2, 0, 3, 1].into_iter(),
            &mut reversed,
            |p, piece| {
                piece.iter_mut().for_each(|x| *x *= 10);
                (p, piece.iter().sum::<i32>())
            },
        );
        assert_eq!(sums, [(0, 30), (1, 0), (2, 120), (3, 60)]);
        assert_eq!(data, [10, 20, 30, 40, 50, 60]);
        for n in [0, 1, 1023, 1024, 1025, 100_000] {
            let ranges = chunks(n);
            assert!(ranges.len() <= BUCKETS);
            let covered: Vec<usize> = ranges.clone().into_iter().flatten().collect();
            assert_eq!(covered, (0..n).collect::<Vec<_>>());
            let mut data: Vec<usize> = vec![0; n];
            let lens = map_chunks(&mut data, &mut reversed, |c, piece| {
                piece.iter_mut().for_each(|x| *x = c);
                piece.len()
            });
            assert_eq!(lens, ranges.iter().map(|r| r.len()).collect::<Vec<_>>());
            let owners = ranges
                .iter()
                .enumerate()
                .flat_map(|(c, r)| r.clone().map(move |_| c));
            assert!(data.iter().copied().eq(owners));
        }
    }

    #[test]
    fn splitters_keep_equal_leads_together_and_in_order() {
        let sample = (0..1000u64).map(|i| i % 37 * 1000);
        let s = Splitters::new(sample);
        let mut last = 0;
        for lead in (0..40_000u64).step_by(7) {
            let b = s.bucket(lead);
            assert!(b >= last && b < BUCKETS);
            last = b;
        }
        // No sample: one bucket holds everything.
        assert_eq!(Splitters::new(std::iter::empty()).bucket(u64::MAX), 0);
    }

    #[test]
    fn scatter_then_bucket_sort_is_the_sort() {
        let items: Vec<u64> = (0..5000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9) % 7919)
            .collect();
        let sources: Vec<&[u64]> = items.chunks(700).collect();
        let splitters = Splitters::new(items.iter().step_by(13).copied());
        let tallies: Vec<[usize; BUCKETS]> = sources
            .iter()
            .map(|src| {
                let mut tally = [0; BUCKETS];
                src.iter().for_each(|&x| tally[splitters.bucket(x)] += 1);
                tally
            })
            .collect();
        let mut out = vec![0u64; items.len()];
        let lens = scatter(&mut out, &tallies, &mut reversed, |s, shares| {
            for &x in sources[s] {
                shares.put(splitters.bucket(x), x);
            }
        });
        map_pieces(&mut out, lens.into_iter(), &mut reversed, |_, b| {
            b.sort_unstable()
        });
        let mut expect = items.clone();
        expect.sort_unstable();
        assert_eq!(out, expect);
    }
}
