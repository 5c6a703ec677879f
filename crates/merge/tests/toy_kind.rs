//! A fifth kind, defined here and nowhere else: a max register. It
//! merges under `Add` and `Join` through the generic `kinds::merge`, and
//! composes its envelope through the generic `kinds::compose`, with no
//! other file of the workspace knowing it exists.

use ivl_merge::kinds::{compose, merge};
use ivl_merge::{take_u64, ComposeError, Kind, MergeError, MergePolicy};
use ivl_sketch::CoinFlips;

/// The largest key inserted so far (0 when empty).
#[derive(Debug)]
struct MaxKind;

/// The served maximum and the acknowledged weight behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
struct MaxEnvelope {
    max: u64,
    observed: u64,
}

impl Kind for MaxKind {
    const NAMES: &'static [&'static str] = &["max"];
    type State = u64;
    type Shape = ();
    type Envelope = MaxEnvelope;
    type Proto = ();

    fn shape(_state: &u64) {}

    /// The max of the union, or of the common stream, under both laws.
    fn merge(part: &u64, target: &mut u64, _policy: MergePolicy) {
        *target = (*target).max(*part);
    }

    fn compose(
        acc: MaxEnvelope,
        part: &MaxEnvelope,
        policy: MergePolicy,
    ) -> Result<MaxEnvelope, ComposeError> {
        Ok(MaxEnvelope {
            max: acc.max.max(part.max),
            observed: policy.fold(acc.observed, part.observed),
        })
    }

    fn observed(envelope: &MaxEnvelope) -> u64 {
        envelope.observed
    }

    fn value(envelope: &MaxEnvelope) -> u64 {
        envelope.max
    }

    fn encode_state(state: &u64, out: &mut Vec<u8>) {
        out.extend_from_slice(&state.to_le_bytes());
    }

    fn decode_state(body: &mut &[u8]) -> Result<u64, &'static str> {
        take_u64(body)
    }

    fn encode_envelope(envelope: &MaxEnvelope, out: &mut Vec<u8>) {
        for word in [envelope.max, envelope.observed] {
            out.extend_from_slice(&word.to_le_bytes());
        }
    }

    fn decode_envelope(body: &mut &[u8]) -> Result<MaxEnvelope, &'static str> {
        Ok(MaxEnvelope {
            max: take_u64(body)?,
            observed: take_u64(body)?,
        })
    }

    fn seed(_shape: &(), _coins: &mut CoinFlips) -> Result<((), ()), MergeError> {
        Ok(((), ()))
    }
}

#[test]
fn a_max_register_merges_under_both_laws() {
    for policy in [MergePolicy::Add, MergePolicy::Join] {
        assert_eq!(merge::<MaxKind>(policy, &[&3, &9, &5]), Ok(9));
        assert_eq!(merge::<MaxKind>(policy, &[&4]), Ok(4));
        assert!(merge::<MaxKind>(policy, &[]).is_err());
    }
}

#[test]
fn a_max_register_composes_its_envelope() {
    let parts = [
        MaxEnvelope {
            max: 12,
            observed: 4,
        },
        MaxEnvelope {
            max: 30,
            observed: 6,
        },
        MaxEnvelope {
            max: 7,
            observed: u64::MAX,
        },
    ];
    let add = compose::<MaxKind>(&parts, MergePolicy::Add).unwrap();
    assert_eq!((add.max, add.observed), (30, u64::MAX), "sums saturate");
    let join = compose::<MaxKind>(&parts[..2], MergePolicy::Join).unwrap();
    assert_eq!(MaxKind::value(&join), 30);
    assert_eq!(MaxKind::observed(&join), 6);
    assert_eq!(
        compose::<MaxKind>(&[], MergePolicy::Add),
        Err(ComposeError::Empty)
    );
}

#[test]
fn a_max_register_round_trips_its_codec() {
    let (mut state, mut envelope) = (Vec::new(), Vec::new());
    MaxKind::encode_state(&41, &mut state);
    let env = MaxEnvelope {
        max: 41,
        observed: 3,
    };
    MaxKind::encode_envelope(&env, &mut envelope);
    assert_eq!(MaxKind::decode_state(&mut state.as_slice()), Ok(41));
    assert_eq!(MaxKind::decode_envelope(&mut envelope.as_slice()), Ok(env));
    assert!(MaxKind::decode_state(&mut [1u8, 2].as_slice()).is_err());
    assert_eq!(MaxKind::NAMES, ["max"]);
}
