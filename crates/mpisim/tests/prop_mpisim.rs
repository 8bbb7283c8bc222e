//! Property-based tests for the MPI substrate: packing round-trips and
//! collective semantics at arbitrary rank counts and payload shapes.

use mpisim::pack::{
    pack_byte_strings, pack_u32s, pack_u64s, unpack_byte_strings, unpack_u32s, unpack_u64s,
};
use mpisim::{run_cluster, NetModel};
use proptest::prelude::*;

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
        prop_assert_eq!(unpack_u32s(&pack_u32s(&a)).unwrap(), a);
        prop_assert_eq!(unpack_u64s(&pack_u64s(&b)).unwrap(), b);
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
