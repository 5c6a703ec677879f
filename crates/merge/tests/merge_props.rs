//! Property tests pinning the mergeable-summary algebra: per kind,
//! `merge_into` is commutative and associative (so merge order across
//! replicas never matters), and the kind-tagged encode/decode pair is
//! the identity on every state.

use ivl_merge::{merge_states, CellRun, DeltaChange, MergePolicy, MergeableState, SnapshotState};
use proptest::collection::vec;
use proptest::prelude::*;

/// `a ⊔ b` under `policy`, as a value.
fn merged(a: &SnapshotState, b: &SnapshotState, policy: MergePolicy) -> SnapshotState {
    let mut target = b.clone();
    a.merge_into(&mut target, policy).expect("same-kind merge");
    target
}

fn cm_state(cells: Vec<u64>) -> SnapshotState {
    SnapshotState::CountMin {
        width: 4,
        depth: 3,
        hash_fp: 0xc01d_c0de,
        cells,
    }
}

fn hll_state(registers: Vec<u8>) -> SnapshotState {
    SnapshotState::Hll {
        hash_fp: 0xab1e,
        registers,
    }
}

/// Checks both laws for one triple under one policy.
fn check_laws(a: &SnapshotState, b: &SnapshotState, c: &SnapshotState, policy: MergePolicy) {
    assert_eq!(merged(a, b, policy), merged(b, a, policy), "commutativity");
    assert_eq!(
        merged(&merged(a, b, policy), c, policy),
        merged(a, &merged(b, c, policy), policy),
        "associativity"
    );
}

proptest! {
    #[test]
    fn cm_merge_is_commutative_and_associative(
        a in vec(0u64..1 << 40, 12..13),
        b in vec(0u64..1 << 40, 12..13),
        c in vec(0u64..1 << 40, 12..13),
    ) {
        let (a, b, c) = (cm_state(a), cm_state(b), cm_state(c));
        for policy in [MergePolicy::Add, MergePolicy::Join] {
            check_laws(&a, &b, &c, policy);
        }
    }

    #[test]
    fn hll_merge_is_commutative_and_associative(
        a in vec(any::<u8>(), 16..17),
        b in vec(any::<u8>(), 16..17),
        c in vec(any::<u8>(), 16..17),
    ) {
        let (a, b, c) = (hll_state(a), hll_state(b), hll_state(c));
        for policy in [MergePolicy::Add, MergePolicy::Join] {
            check_laws(&a, &b, &c, policy);
        }
    }

    #[test]
    fn scalar_merges_are_commutative_and_associative(
        a in any::<u32>(),
        b in any::<u32>(),
        c in any::<u32>(),
        x in any::<u64>(),
        y in any::<u64>(),
        z in any::<u64>(),
    ) {
        let (ma, mb, mc) = (
            SnapshotState::Morris { exponent: a },
            SnapshotState::Morris { exponent: b },
            SnapshotState::Morris { exponent: c },
        );
        let (na, nb, nc) = (
            SnapshotState::MinRegister { minimum: x },
            SnapshotState::MinRegister { minimum: y },
            SnapshotState::MinRegister { minimum: z },
        );
        for policy in [MergePolicy::Add, MergePolicy::Join] {
            check_laws(&ma, &mb, &mc, policy);
            check_laws(&na, &nb, &nc, policy);
        }
    }

    #[test]
    fn join_merges_are_idempotent(
        cells in vec(0u64..1 << 40, 12..13),
        registers in vec(any::<u8>(), 16..17),
        exponent in any::<u32>(),
        minimum in any::<u64>(),
    ) {
        for state in [
            cm_state(cells),
            hll_state(registers),
            SnapshotState::Morris { exponent },
            SnapshotState::MinRegister { minimum },
        ] {
            prop_assert_eq!(merged(&state, &state, MergePolicy::Join), state);
        }
    }

    /// The replica group's accumulator contract: folding each cache's
    /// `apply_change` patch into the merge of the caches equals
    /// re-merging the patched caches, under either policy — for
    /// monotone deltas (cells only rise, as served). Only a CountMin
    /// answers a sparse delta; every other kind's changed reply is a
    /// full state, which the accumulator rebuilds from.
    #[test]
    fn folding_patches_equals_remerging_the_caches(
        cells in vec(vec(0u64..1 << 40, 12..13), 1..4),
        bumps in vec((0usize..4, 0u32..12, 0u64..1 << 20), 0..12),
    ) {
        for policy in [MergePolicy::Add, MergePolicy::Join] {
            let mut caches: Vec<SnapshotState> = cells.iter().cloned().map(cm_state).collect();
            let mut accum = merge_states(policy, &caches.iter().collect::<Vec<_>>()).unwrap();
            for (which, cell, by) in &bumps {
                let n = caches.len();
                let cache = &mut caches[which % n];
                let SnapshotState::CountMin { cells, .. } = cache else {
                    unreachable!("only CountMin caches here");
                };
                let change = DeltaChange::CmRuns {
                    base_epoch: 0,
                    runs: vec![CellRun { row: cell / 4, lo: cell % 4, len: 1 }],
                    values: vec![cells[*cell as usize] + by],
                };
                let patch = cache.apply_change(change).unwrap();
                accum.fold_patch(&patch, policy).unwrap();
                prop_assert_eq!(
                    &accum,
                    &merge_states(policy, &caches.iter().collect::<Vec<_>>()).unwrap()
                );
            }
        }
    }

    #[test]
    fn encode_decode_roundtrips_every_kind(
        cells in vec(any::<u64>(), 12..13),
        registers in vec(any::<u8>(), 0..64),
        exponent in any::<u32>(),
        minimum in any::<u64>(),
    ) {
        for state in [
            cm_state(cells),
            hll_state(registers),
            SnapshotState::Morris { exponent },
            SnapshotState::MinRegister { minimum },
        ] {
            let mut buf = Vec::new();
            state.encode_into(&mut buf);
            let mut body = buf.as_slice();
            let back = SnapshotState::decode_from(state.kind(), &mut body).unwrap();
            prop_assert_eq!(back, state);
            prop_assert!(body.is_empty(), "decode must consume the whole body");
        }
    }
}
