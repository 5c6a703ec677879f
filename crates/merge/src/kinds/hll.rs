//! The HyperLogLog kind: max-rank registers and the cardinality
//! envelope. Registers merge by register-wise max under either law, so
//! an HLL answers `Unchanged` or `Full`, never a delta.

use super::Kind;
use crate::{
    fp_mix, put_u64s, take_f64, take_u32, take_u64, ComposeError, ErrorEnvelope, MergeError,
    MergePolicy, SnapshotState, StateShape, FP_PROBES, SHORT_BODY,
};
use ivl_sketch::hll::{HyperLogLog, RegisterSummary};
use ivl_sketch::CoinFlips;
use std::fmt;

/// The HyperLogLog [`Kind`].
#[derive(Clone, Copy, Debug)]
pub struct HllKind;

impl ErrorEnvelope {
    /// The cardinality envelope of an HLL whose registers `summary`
    /// summarizes: their estimate and standard error, plus their sum —
    /// the monotone indicator the verdict checks.
    pub fn cardinality(summary: &RegisterSummary, observed: u64) -> ErrorEnvelope {
        ErrorEnvelope::Cardinality {
            estimate: summary.estimate(),
            rel_std_err: summary.standard_error(),
            registers: summary.registers(),
            register_sum: summary.register_sum(),
            observed,
        }
    }
}

/// A u64 fingerprint of an HLL's routing hash (bucket and rank of every
/// fixed probe key) — the HLL counterpart of
/// [`cm_hash_fingerprint`](super::cm_hash_fingerprint).
pub fn hll_hash_fingerprint(hll: &HyperLogLog) -> u64 {
    let mut acc = fp_mix(0xca8d_117a, hll.num_registers() as u64);
    for probe in FP_PROBES {
        let (bucket, rank) = hll.route(probe);
        acc = fp_mix(acc, ((bucket as u64) << 8) | rank as u64);
    }
    acc
}

/// The shape of every state of an HLL built from `proto`'s coins.
pub fn hll_shape(proto: &HyperLogLog) -> StateShape {
    StateShape::Hll {
        registers: proto.num_registers(),
        hash_fp: hll_hash_fingerprint(proto),
    }
}

/// The HLL variant's `(hash_fp, registers)`; the enums hand this kind
/// no other.
fn fields(state: &SnapshotState) -> (u64, &[u8]) {
    let SnapshotState::Hll { hash_fp, registers } = state else {
        unreachable!("dispatched on its kind")
    };
    (*hash_fp, registers)
}

/// The cardinality variant's `(estimate, rel_std_err, registers,
/// register_sum, observed)`.
fn card(envelope: &ErrorEnvelope) -> (f64, f64, u64, u64, u64) {
    let ErrorEnvelope::Cardinality {
        estimate,
        rel_std_err,
        registers,
        register_sum,
        observed,
    } = *envelope
    else {
        unreachable!("dispatched on its kind")
    };
    (estimate, rel_std_err, registers, register_sum, observed)
}

impl Kind for HllKind {
    const NAMES: &'static [&'static str] = &["hll"];
    type State = SnapshotState;
    type Shape = StateShape;
    type Envelope = ErrorEnvelope;
    /// The merged registers' summary, kept until they move: rebuilding
    /// it costs a pass over every register.
    type Proto = Option<RegisterSummary>;

    fn shape(state: &SnapshotState) -> StateShape {
        let (hash_fp, registers) = fields(state);
        StateShape::Hll {
            registers: registers.len(),
            hash_fp,
        }
    }

    /// Register max under either policy: both copies hold max-ranks,
    /// and max is the union summary.
    fn merge(part: &SnapshotState, target: &mut SnapshotState, _policy: MergePolicy) {
        let SnapshotState::Hll { registers: tr, .. } = target else {
            unreachable!("dispatched on its kind")
        };
        for (t, &r) in tr.iter_mut().zip(fields(part).1) {
            *t = (*t).max(r);
        }
    }

    /// Register-wise max merging only grows registers, so the max of
    /// part `register_sum`s (and of the monotone-in-registers raw
    /// estimates) lower-bounds the merged sketch under either law; a
    /// merged read re-estimates from the merged registers for the
    /// served value. Parts must agree on `registers` (same precision)
    /// and `rel_std_err`.
    fn compose(
        acc: ErrorEnvelope,
        part: &ErrorEnvelope,
        policy: MergePolicy,
    ) -> Result<ErrorEnvelope, ComposeError> {
        let (estimate, rel_std_err, registers, register_sum, observed) = card(&acc);
        let (p_estimate, p_rse, p_registers, p_sum, p_observed) = card(part);
        if p_registers != registers {
            return Err(ComposeError::ParamMismatch("registers"));
        }
        if p_rse != rel_std_err {
            return Err(ComposeError::ParamMismatch("rel_std_err"));
        }
        Ok(ErrorEnvelope::Cardinality {
            estimate: estimate.max(p_estimate),
            rel_std_err,
            registers,
            register_sum: register_sum.max(p_sum),
            observed: policy.fold(observed, p_observed),
        })
    }

    fn observed(envelope: &ErrorEnvelope) -> u64 {
        card(envelope).4
    }

    /// The register sum: registers are max-registers, so the sum is a
    /// monotone functional of the update set.
    fn value(envelope: &ErrorEnvelope) -> u64 {
        card(envelope).3
    }

    fn cells(state: &SnapshotState) -> usize {
        fields(state).1.len()
    }

    fn encode_state(state: &SnapshotState, out: &mut Vec<u8>) {
        let (hash_fp, registers) = fields(state);
        out.extend_from_slice(&hash_fp.to_le_bytes());
        out.extend_from_slice(&(registers.len() as u32).to_le_bytes());
        out.extend_from_slice(registers);
    }

    fn decode_state(body: &mut &[u8]) -> Result<SnapshotState, &'static str> {
        let hash_fp = take_u64(body)?;
        let len = take_u32(body)? as usize;
        if body.len() < len {
            return Err(SHORT_BODY);
        }
        let (raw, rest) = body.split_at(len);
        *body = rest;
        Ok(SnapshotState::Hll {
            hash_fp,
            registers: raw.to_vec(),
        })
    }

    fn encode_envelope(envelope: &ErrorEnvelope, out: &mut Vec<u8>) {
        let (estimate, rel_std_err, registers, register_sum, observed) = card(envelope);
        put_u64s(
            out,
            &[
                estimate.to_bits(),
                rel_std_err.to_bits(),
                registers,
                register_sum,
                observed,
            ],
        );
    }

    fn decode_envelope(body: &mut &[u8]) -> Result<ErrorEnvelope, &'static str> {
        Ok(ErrorEnvelope::Cardinality {
            estimate: take_f64(body)?,
            rel_std_err: take_f64(body)?,
            registers: take_u64(body)?,
            register_sum: take_u64(body)?,
            observed: take_u64(body)?,
        })
    }

    fn fmt_state(state: &SnapshotState, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (hash_fp, registers) = fields(state);
        let set = registers.iter().filter(|&&r| r != 0).count();
        write!(
            f,
            "HLL ({} registers, {set} set, fingerprint {hash_fp:#018x})",
            registers.len()
        )
    }

    fn fmt_envelope(envelope: &ErrorEnvelope, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (estimate, rel_std_err, registers, register_sum, observed) = card(envelope);
        write!(
            f,
            "cardinality: estimate {estimate:.1} (rel std err {rel_std_err:.4}, \
             {registers} registers, register sum {register_sum}, observed weight {observed})"
        )
    }

    /// A register count of no served precision is refused before it
    /// reaches a constructor that panics on it.
    fn seed(
        shape: &StateShape,
        coins: &mut CoinFlips,
    ) -> Result<(StateShape, Option<RegisterSummary>), MergeError> {
        let &StateShape::Hll { registers, .. } = shape else {
            unreachable!("dispatched on its kind")
        };
        let precision = registers.trailing_zeros();
        if !registers.is_power_of_two() || !(4..=16).contains(&precision) {
            return Err(MergeError::new(format!(
                "{registers} HLL registers is no served precision"
            )));
        }
        Ok((hll_shape(&HyperLogLog::new(precision, coins)), None))
    }

    /// The cardinality of the merged registers, at the composed
    /// acknowledged weight.
    fn answer(
        summary: &mut Option<RegisterSummary>,
        merged: &SnapshotState,
        moved: bool,
        _key: Option<u64>,
        envelope: &mut ErrorEnvelope,
    ) {
        if moved {
            *summary = None;
        }
        let summary = summary
            .get_or_insert_with(|| RegisterSummary::from_ranks(fields(merged).1.iter().copied()));
        *envelope = ErrorEnvelope::cardinality(summary, Self::observed(envelope));
    }
}
