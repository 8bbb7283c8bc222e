//! Property-based tests for the MPI substrate: packing round-trips and
//! collective semantics at arbitrary rank counts and payload shapes.

use mpisim::pack::{pack, pack_byte_strings, unpack, unpack_byte_strings, Wire};
use mpisim::{run_cluster, NetModel};
use proptest::prelude::*;

/// `unpack(pack(xs)) == xs`, and every cut of the buffer that is not a
/// whole number of records is refused.
fn codec_round_trips<T: Wire + PartialEq + std::fmt::Debug>(xs: &[T]) {
    let buf = pack(xs);
    assert_eq!(buf.len(), xs.len() * T::WIDTH);
    assert_eq!(unpack::<T>(&buf).as_deref(), Some(xs));
    for cut in 0..buf.len() {
        let whole = cut % T::WIDTH == 0;
        let back = unpack::<T>(&buf[..cut]);
        assert_eq!(
            back.as_deref(),
            whole.then_some(&xs[..cut / T::WIDTH]),
            "cut {cut}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn byte_strings_round_trip(items in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..64), 0..32)) {
        let packed = pack_byte_strings(&items);
        prop_assert_eq!(unpack_byte_strings(&packed).unwrap(), items);
    }

    #[test]
    fn truncated_pack_never_panics(
        items in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 1..8),
        cut in 0usize..200,
    ) {
        let packed = pack_byte_strings(&items);
        let cut = cut.min(packed.len());
        // Must return None or a (possibly wrong-length) value, never panic.
        let _ = unpack_byte_strings(&packed[..cut]);
    }

    #[test]
    fn u32_u64_round_trip(a in proptest::collection::vec(any::<u32>(), 0..64),
                          b in proptest::collection::vec(any::<u64>(), 0..64)) {
        codec_round_trips(&a);
        codec_round_trips(&b);
    }

    #[test]
    fn u128_and_pairs_round_trip(
        words in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..32),
        pairs in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..32),
        counts in proptest::collection::vec((any::<u64>(), any::<u32>()), 0..32),
    ) {
        let welds: Vec<u128> = words.iter().map(|&(hi, lo)| (hi as u128) << 64 | lo as u128).collect();
        codec_round_trips(&welds);
        codec_round_trips(&pairs);
        codec_round_trips(&counts);
    }

    #[test]
    fn allgatherv_reassembles_in_rank_order(ranks in 1usize..9, base in 0u8..200) {
        let outs = run_cluster(ranks, NetModel::ideal(), move |comm| {
            let mine = vec![base.wrapping_add(comm.rank() as u8); comm.rank() % 5 + 1];
            comm.allgatherv(&mine)
        });
        for o in &outs {
            prop_assert_eq!(o.value.len(), ranks);
            for (r, part) in o.value.iter().enumerate() {
                prop_assert_eq!(part.len(), r % 5 + 1);
                prop_assert!(part.iter().all(|&b| b == base.wrapping_add(r as u8)));
            }
        }
    }

    /// Pin the payload semantics of the three v-collectives against a
    /// plain single-rank reference model, across 1..=8 ranks and
    /// arbitrary per-rank payloads (empty ones included):
    ///
    /// * `allgatherv` — every rank gets `size` positional parts, part `r`
    ///   being exactly rank `r`'s contribution;
    /// * `bcast` — every rank gets the root's buffer, whatever it passed
    ///   itself;
    /// * `gatherv` — the root gets all parts positionally, everyone else
    ///   gets `None`.
    #[test]
    fn v_collectives_match_reference_model(
        ranks in 1usize..9,
        root in 0usize..8,
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..48), 8),
    ) {
        let root = root % ranks;
        let p = payloads.clone();
        let outs = run_cluster(ranks, NetModel::idataplex(), move |comm| {
            let mine = p[comm.rank()].clone();
            let ag = comm.allgatherv(&mine);
            let bc = comm.bcast(root, &mine);
            let gv = comm.gatherv(root, &mine);
            (ag, bc, gv)
        });
        let model: Vec<Vec<u8>> = payloads[..ranks].to_vec();
        for (r, o) in outs.iter().enumerate() {
            let (ag, bc, gv) = &o.value;
            prop_assert_eq!(ag, &model, "allgatherv on rank {}", r);
            prop_assert_eq!(bc, &model[root], "bcast on rank {}", r);
            if r == root {
                prop_assert_eq!(gv.as_ref().unwrap(), &model, "gatherv root");
            } else {
                prop_assert!(gv.is_none(), "gatherv non-root {} gets None", r);
            }
        }
    }

    #[test]
    fn barrier_clock_sync_is_max(ranks in 2usize..8, charges in proptest::collection::vec(0.0f64..5.0, 8)) {
        let ch = charges.clone();
        let outs = run_cluster(ranks, NetModel::ideal(), move |comm| {
            let seconds = ch[comm.rank()];
            comm.charge_costed("compute", "work", &[], || ((), seconds));
            comm.barrier();
            comm.clock.now()
        });
        let expect = charges[..ranks].iter().cloned().fold(0.0, f64::max);
        for o in &outs {
            prop_assert!((o.value - expect).abs() < 1e-9);
        }
    }
}
