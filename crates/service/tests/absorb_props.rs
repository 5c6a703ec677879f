//! Property pin of the absorb/merge commutation the catch-up path
//! rests on: pushing a peer snapshot into a live served object through
//! `ObjectWriter::absorb` leaves exactly the state that merging the two
//! snapshots produces — absorb-then-snapshot equals
//! snapshot-then-merge, per kind, over random streams. This is what
//! makes a `PUSH_STATE` absorb indistinguishable from having served
//! the peer's updates directly, so an absorbed object stays an
//! intermediate mix of real updates (IVL-preserving).

use ivl_service::{merge_states, MergePolicy, Metrics, ObjectConfig, ObjectKind, ObjectRegistry};
use proptest::prelude::*;

fn registry(seed: u64) -> ObjectRegistry {
    ObjectRegistry::build(
        &[
            ObjectConfig::new("cm", ObjectKind::CountMin),
            ObjectConfig::new("hll", ObjectKind::Hll),
            ObjectConfig::new("morris", ObjectKind::Morris),
            ObjectConfig::new("low", ObjectKind::MinRegister),
        ],
        0.005,
        0.01,
        2,
        0,
        seed,
    )
}

fn feed(r: &ObjectRegistry, metrics: &Metrics, id: u32, batch: &[(u64, u64)]) {
    let obj = r.get(id).expect("registered object");
    let mut w = obj.writer(metrics);
    w.ensure_ready().expect("zero-buffer writer acquires");
    for item in batch {
        w.apply_batch(std::slice::from_ref(item));
    }
    w.release();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Absorbing a same-seed peer snapshot commutes with snapshot-level
    /// merging for every served kind: the add-absorbed CountMin, the
    /// max-absorbed HLL registers, the raised Morris exponent, and the
    /// lowered min register.
    #[test]
    fn absorb_then_snapshot_equals_snapshot_then_merge(
        own in proptest::collection::vec((0u64..64, 1u64..4), 0..60),
        peer in proptest::collection::vec((0u64..64, 1u64..4), 0..60),
        seed in 0u64..500,
    ) {
        let metrics = Metrics::new();
        let a = registry(seed);
        let b = registry(seed); // same seed: absorbing is legal
        for id in 0..4u32 {
            feed(&a, &metrics, id, &own);
            feed(&b, &metrics, id, &peer);
        }
        let peer_weight: u64 = peer.iter().map(|&(_, wt)| wt).sum();
        for id in 0..4u32 {
            let sa = a.snapshot(id).expect("registered object");
            let sb = b.snapshot(id).expect("registered object");
            // `Add` is the absorb algebra: CountMin cells add, the
            // other kinds' joins ignore the policy (idempotent).
            let merged = match merge_states(MergePolicy::Add, &[&sa.state, &sb.state]) {
                Ok(m) => m,
                Err(e) => return Err(proptest::test_runner::TestCaseError::fail(
                    format!("same-seed snapshots must merge: {e}"),
                )),
            };
            let obj = a.get(id).expect("registered object");
            let mut w = obj.writer(&metrics);
            w.ensure_ready().expect("writer acquires");
            if let Err(e) = w.absorb(&sb.state, peer_weight) {
                return Err(proptest::test_runner::TestCaseError::fail(
                    format!("object {id}: same-seed absorb must be accepted: {e}"),
                ));
            }
            w.release();
            prop_assert_eq!(a.snapshot(id).expect("registered object").state, merged);
        }
    }
}
