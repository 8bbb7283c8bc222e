//! Owner-routed table builds — HipMer's k-mer analysis (Georganas et al.,
//! arXiv 1705.11147 §3), in process.
//!
//! Every k-mer-keyed table the pipeline constructs (the Jellyfish counts,
//! GraphFromFasta's seed map, ReadsToTranscripts' k-mer→component table)
//! is built the same way, in rounds of two barrier-separated parallel
//! loops:
//!
//! 1. **route** — a loop over item batches; each worker rolls the k-mers
//!    of its batch and appends `(key, payload)` to one buffer per owner,
//!    owner = [`Owners::of`]`(key)`;
//! 2. **absorb** — a loop over owners; owner `o` folds the round's buffers
//!    addressed to it, in batch order, into its own state with plain
//!    single-threaded table operations.
//!
//! No key is ever touched by two workers, so nothing is counted under a
//! contended lock, nothing is staged in a per-read or per-batch table, and
//! no partial tables are merged: each key instance is hashed once to route
//! it and once to place it. What is left after the last round is one
//! disjoint state per owner, and that *is* the table: the callers adopt
//! the owner tables as a [`kmertable::PartitionedKmerTable`] (or their own
//! per-owner form), which routes a lookup with the same [`Owners::of`] the
//! build routed the key with. Nothing is concatenated, so no build has a
//! serial section proportional to its table; whatever an owner still has to
//! do once its last buffer is absorbed (filter, sort its arrivals) is a
//! third loop over owners, [`for_each_owner`].
//!
//! A round routes [`Team::threads`] batches, so the routed k-mers resident
//! at any time are one round's worth — a few MB at the pipeline's batch
//! sizes — regardless of input size. Both loops are [`Team::map`]s, so each
//! is one [`Team::for_each`] of the team, `schedule(dynamic, 1)` over batches
//! or owners. Which clock pays depends only on the team: [`omp::Pool`] runs
//! both loops on OS threads, [`omp::CostedTeam`] charges them to the virtual
//! clock.

use std::sync::Mutex;

use kmertable::Owners;
use omp::Team;

/// Owners the pipeline's builds partition into. More owners than any
/// configured thread count, so the absorb loop balances, and enough of them
/// that one owner's table stays cache-resident while it is being built.
pub const OWNERS: usize = 64;

/// The per-owner buffers one batch routes into.
#[derive(Debug)]
pub struct Router<P> {
    owners: Owners,
    buffers: Vec<Vec<(u64, P)>>,
}

impl<P> Router<P> {
    fn new(owners: Owners, capacity: usize) -> Self {
        Router {
            owners,
            buffers: (0..owners.count())
                .map(|_| Vec::with_capacity(capacity))
                .collect(),
        }
    }

    /// Send `(key, payload)` to `key`'s owner.
    #[inline(always)]
    pub fn push(&mut self, key: u64, payload: P) {
        self.buffers[self.owners.of(key)].push((key, payload));
    }
}

/// Run the route/absorb rounds over `batches` on `team` and return the
/// finished owner states, in owner order.
///
/// `owners` holds one initial state per owner (a power of two of them).
/// `route` emits a batch's `(key, payload)` pairs; `absorb` folds one
/// routed buffer into an owner's state. An owner sees the pairs addressed
/// to it in batch order and, within a batch, in emission order — so a
/// first-claim or append-only `absorb` reproduces the sequential build.
pub fn routed_build<B, P, O>(
    batches: &[B],
    mut owners: Vec<O>,
    team: &mut impl Team,
    route: impl Fn(&B, &mut Router<P>) + Sync,
    absorb: impl Fn(&mut O, &[(u64, P)]) + Sync,
) -> Vec<O>
where
    B: Sync,
    P: Send + Sync,
    O: Send,
{
    let partition = Owners::new(owners.len());
    assert_eq!(partition.count(), owners.len(), "one state per owner");
    // Buffers start at the mean length of the round before plus a quarter:
    // most appends then fit without reallocating, while the round's few
    // fullest buffers grow on their own instead of every buffer being
    // sized to the fullest.
    let mut capacity = 0;
    for round_batches in batches.chunks(team.threads().max(1)) {
        let routed = team.map(round_batches, |batch| {
            let mut router = Router::new(partition, capacity);
            route(batch, &mut router);
            router
        });
        for_each_owner(&mut owners, team, |o, state| {
            for router in &routed {
                absorb(state, &router.buffers[o]);
            }
        });
        let buffers = routed.len() * partition.count();
        let routed_pairs: usize = routed.iter().flat_map(|r| &r.buffers).map(Vec::len).sum();
        let mean = routed_pairs / buffers.max(1);
        capacity = mean + mean / 4;
    }
    owners
}

/// A loop over owners on `team`: `f(o, state)` runs once per owner with
/// exclusive access to that owner's state — the absorb loop of a round, and
/// any per-owner finalisation after the last one. Results in owner order.
pub fn for_each_owner<O: Send, R: Send>(
    owners: &mut [O],
    team: &mut impl Team,
    f: impl Fn(usize, &mut O) -> R + Sync,
) -> Vec<R> {
    // The mutex only carries `&mut O` through the `Fn` loop body: owner `o`
    // is locked once, by the one task that runs for it.
    let cells: Vec<(usize, Mutex<&mut O>)> = owners
        .iter_mut()
        .enumerate()
        .map(|(o, state)| (o, Mutex::new(state)))
        .collect();
    team.map(&cells, |(o, cell)| {
        f(*o, &mut cell.lock().expect("an owner task panicked"))
    })
}
