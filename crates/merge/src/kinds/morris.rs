//! The Morris kind: one exponent, joined by max, and the
//! approximate-count envelope. No coins reach its merge, so there is
//! nothing to fingerprint.

use super::Kind;
use crate::{
    put_u64s, take_f64, take_u32, take_u64, ComposeError, ErrorEnvelope, MergeError, MergePolicy,
    SnapshotState, StateShape,
};
use ivl_sketch::CoinFlips;
use std::fmt;

/// The Morris [`Kind`].
#[derive(Clone, Copy, Debug)]
pub struct MorrisKind;

impl ErrorEnvelope {
    /// The approximate-count envelope of a Morris counter with accuracy
    /// parameter `a` at `exponent`: the unbiased estimate
    /// `((1+a)^x − 1)/a`.
    pub fn approx_count(a: f64, exponent: u32, observed: u64) -> ErrorEnvelope {
        ErrorEnvelope::ApproxCount {
            estimate: ((1.0 + a).powi(exponent as i32) - 1.0) / a,
            a,
            exponent,
            observed,
        }
    }
}

fn exponent(state: &SnapshotState) -> u32 {
    let SnapshotState::Morris { exponent } = *state else {
        unreachable!("dispatched on its kind")
    };
    exponent
}

/// The approximate-count variant's `(estimate, a, exponent, observed)`.
fn approx(envelope: &ErrorEnvelope) -> (f64, f64, u32, u64) {
    let ErrorEnvelope::ApproxCount {
        estimate,
        a,
        exponent,
        observed,
    } = *envelope
    else {
        unreachable!("dispatched on its kind")
    };
    (estimate, a, exponent, observed)
}

impl Kind for MorrisKind {
    const NAMES: &'static [&'static str] = &["morris"];
    type State = SnapshotState;
    type Shape = StateShape;
    type Envelope = ErrorEnvelope;
    type Proto = ();

    fn shape(_state: &SnapshotState) -> StateShape {
        StateShape::Morris
    }

    /// Exponent max under either policy.
    fn merge(part: &SnapshotState, target: &mut SnapshotState, _policy: MergePolicy) {
        *target = SnapshotState::Morris {
            exponent: exponent(target).max(exponent(part)),
        };
    }

    /// `Add`: estimates add (each part counted a disjoint substream);
    /// `Join`: the largest copy's estimate. The composed `exponent`
    /// keeps the max as the monotone indicator under both. Parts must
    /// agree on `a`.
    fn compose(
        acc: ErrorEnvelope,
        part: &ErrorEnvelope,
        policy: MergePolicy,
    ) -> Result<ErrorEnvelope, ComposeError> {
        let (estimate, a, exponent, observed) = approx(&acc);
        let (p_estimate, p_a, p_exponent, p_observed) = approx(part);
        if p_a != a {
            return Err(ComposeError::ParamMismatch("a"));
        }
        Ok(ErrorEnvelope::ApproxCount {
            estimate: match policy {
                MergePolicy::Add => estimate + p_estimate,
                MergePolicy::Join => estimate.max(p_estimate),
            },
            a,
            exponent: exponent.max(p_exponent),
            observed: policy.fold(observed, p_observed),
        })
    }

    fn observed(envelope: &ErrorEnvelope) -> u64 {
        approx(envelope).3
    }

    /// The acknowledged weight: the exponent's coin flips live
    /// server-side, so the weight counter is the checkable functional.
    fn value(envelope: &ErrorEnvelope) -> u64 {
        approx(envelope).3
    }

    fn encode_state(state: &SnapshotState, out: &mut Vec<u8>) {
        out.extend_from_slice(&exponent(state).to_le_bytes());
    }

    fn decode_state(body: &mut &[u8]) -> Result<SnapshotState, &'static str> {
        Ok(SnapshotState::Morris {
            exponent: take_u32(body)?,
        })
    }

    fn encode_envelope(envelope: &ErrorEnvelope, out: &mut Vec<u8>) {
        let (estimate, a, exponent, observed) = approx(envelope);
        put_u64s(out, &[estimate.to_bits(), a.to_bits()]);
        out.extend_from_slice(&exponent.to_le_bytes());
        put_u64s(out, &[observed]);
    }

    fn decode_envelope(body: &mut &[u8]) -> Result<ErrorEnvelope, &'static str> {
        Ok(ErrorEnvelope::ApproxCount {
            estimate: take_f64(body)?,
            a: take_f64(body)?,
            exponent: take_u32(body)?,
            observed: take_u64(body)?,
        })
    }

    fn fmt_state(state: &SnapshotState, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Morris exponent {}", exponent(state))
    }

    fn fmt_envelope(envelope: &ErrorEnvelope, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (estimate, a, exponent, observed) = approx(envelope);
        write!(
            f,
            "approximate count: estimate {estimate:.1} (a {a}, exponent {exponent}, \
             acknowledged weight {observed})"
        )
    }

    fn seed(_shape: &StateShape, _coins: &mut CoinFlips) -> Result<(StateShape, ()), MergeError> {
        Ok((StateShape::Morris, ()))
    }
}
