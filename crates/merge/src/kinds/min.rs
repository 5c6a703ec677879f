//! The min-register kind: one minimum (`u64::MAX` when empty), joined by
//! min, exact but antitone. No coins reach its merge.

use super::Kind;
use crate::{
    put_u64s, take_u64, ComposeError, ErrorEnvelope, MergeError, MergePolicy, SnapshotState,
    StateShape,
};
use ivl_sketch::CoinFlips;
use std::fmt;

/// The min-register [`Kind`].
#[derive(Clone, Copy, Debug)]
pub struct MinKind;

fn minimum(state: &SnapshotState) -> u64 {
    let SnapshotState::MinRegister { minimum } = *state else {
        unreachable!("dispatched on its kind")
    };
    minimum
}

/// The minimum variant's `(minimum, observed)`.
fn min_env(envelope: &ErrorEnvelope) -> (u64, u64) {
    let ErrorEnvelope::Minimum { minimum, observed } = *envelope else {
        unreachable!("dispatched on its kind")
    };
    (minimum, observed)
}

impl Kind for MinKind {
    const NAMES: &'static [&'static str] = &["min", "min-register"];
    type State = SnapshotState;
    type Shape = StateShape;
    type Envelope = ErrorEnvelope;
    type Proto = ();

    fn shape(_state: &SnapshotState) -> StateShape {
        StateShape::MinRegister
    }

    /// The minimum of the union (or of the common stream) is the min of
    /// the parts' minima, under either policy.
    fn merge(part: &SnapshotState, target: &mut SnapshotState, _policy: MergePolicy) {
        *target = SnapshotState::MinRegister {
            minimum: minimum(target).min(minimum(part)),
        };
    }

    /// The min of the part minima, exactly, under both laws.
    fn compose(
        acc: ErrorEnvelope,
        part: &ErrorEnvelope,
        policy: MergePolicy,
    ) -> Result<ErrorEnvelope, ComposeError> {
        let ((minimum, observed), (p_minimum, p_observed)) = (min_env(&acc), min_env(part));
        Ok(ErrorEnvelope::Minimum {
            minimum: minimum.min(p_minimum),
            observed: policy.fold(observed, p_observed),
        })
    }

    fn observed(envelope: &ErrorEnvelope) -> u64 {
        min_env(envelope).1
    }

    fn value(envelope: &ErrorEnvelope) -> u64 {
        min_env(envelope).0
    }

    fn encode_state(state: &SnapshotState, out: &mut Vec<u8>) {
        out.extend_from_slice(&minimum(state).to_le_bytes());
    }

    fn decode_state(body: &mut &[u8]) -> Result<SnapshotState, &'static str> {
        Ok(SnapshotState::MinRegister {
            minimum: take_u64(body)?,
        })
    }

    fn encode_envelope(envelope: &ErrorEnvelope, out: &mut Vec<u8>) {
        let (minimum, observed) = min_env(envelope);
        put_u64s(out, &[minimum, observed]);
    }

    fn decode_envelope(body: &mut &[u8]) -> Result<ErrorEnvelope, &'static str> {
        Ok(ErrorEnvelope::Minimum {
            minimum: take_u64(body)?,
            observed: take_u64(body)?,
        })
    }

    fn fmt_state(state: &SnapshotState, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match minimum(state) {
            u64::MAX => write!(f, "min register, empty"),
            minimum => write!(f, "min register, minimum {minimum}"),
        }
    }

    fn fmt_envelope(envelope: &ErrorEnvelope, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match min_env(envelope) {
            (u64::MAX, observed) => write!(f, "minimum: empty (observed weight {observed})"),
            (minimum, observed) => write!(f, "minimum: {minimum} (observed weight {observed})"),
        }
    }

    fn seed(_shape: &StateShape, _coins: &mut CoinFlips) -> Result<(StateShape, ()), MergeError> {
        Ok((StateShape::MinRegister, ()))
    }
}
