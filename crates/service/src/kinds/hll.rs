//! The served HyperLogLog: `fetch_max` registers, the cardinality
//! envelope, and the register sum as its checkable query value and its
//! epoch.

use super::{AtomicApply, AtomicWriter, OpCounters, Serve, ServeParams};
use crate::metrics::{Metrics, ObjectStats};
use crate::objects::{ObjectWriter, ServedObject};
use crate::ErrorEnvelope;
use ivl_concurrent::ConcurrentHll;
use ivl_merge::kinds::{hll_shape, HllKind};
use ivl_merge::{DeltaChange, MergeError, ObjectKind, SnapshotState, StateShape};
use ivl_sketch::hll::{HyperLogLog, RegisterSummary};
use ivl_sketch::CoinFlips;
use ivl_spec::history::History;
use ivl_spec::ivl::check_ivl_monotone;
use ivl_spec::spec::{MonotoneSpec, ObjectSpec};
use std::sync::atomic::Ordering;

/// Register precision of served HLL objects (`2^12` registers, ~1.6%
/// standard error) — a fixed serving choice, like the CountMin taking
/// its `(α, δ)` from the server config.
pub const HLL_PRECISION: u32 = 12;

/// Sequential spec of the served HLL, with the **register sum** as the
/// query value: registers are max-registers, so the sum is a monotone,
/// commutative functional of the update set — exactly the shape the
/// interval checker needs (the corrected float estimate is monotone
/// too, but piecewise; the integer sum is the checkable projection).
#[derive(Clone, Debug)]
pub struct HllSumSpec {
    proto: HyperLogLog,
}

impl ObjectSpec for HllSumSpec {
    type Update = (u64, u64);
    type Query = u64;
    type Value = u64;
    type State = HyperLogLog;

    fn initial_state(&self) -> HyperLogLog {
        self.proto.clone()
    }

    fn apply_update(&self, state: &mut HyperLogLog, &(key, _weight): &(u64, u64)) {
        state.update(key);
    }

    fn eval_query(&self, state: &HyperLogLog, _q: &u64) -> u64 {
        state.registers().iter().map(|&r| r as u64).sum()
    }
}

impl MonotoneSpec for HllSumSpec {}

/// A concurrent HLL as a served object.
#[derive(Debug)]
pub struct ServedHll {
    pub(crate) hll: ConcurrentHll,
    /// The shape every full state ships and every absorbed one must have.
    shape: StateShape,
    ops: OpCounters,
}

impl Serve for HllKind {
    fn serve(_params: &ServeParams, mut coins: CoinFlips) -> Box<dyn ServedObject> {
        Box::new(ServedHll::new(HLL_PRECISION, &mut coins))
    }
}

impl ServedHll {
    /// Creates an HLL with `2^precision` registers.
    pub fn new(precision: u32, coins: &mut CoinFlips) -> Self {
        let hll = ConcurrentHll::new(precision, coins);
        ServedHll {
            shape: hll_shape(hll.prototype()),
            hll,
            ops: OpCounters::default(),
        }
    }

    /// The exact sequential spec of this object's register sum.
    pub fn spec(&self) -> HllSumSpec {
        HllSumSpec {
            proto: self.hll.prototype().clone(),
        }
    }

    /// The served envelope of one register load.
    fn envelope(&self, summary: &RegisterSummary) -> ErrorEnvelope {
        let observed = self.ops.observed.load(Ordering::Relaxed);
        ErrorEnvelope::cardinality(summary, observed)
    }

    /// One register load as a reply: the shipped state, its envelope
    /// and its epoch (the register sum), all of the same bytes.
    fn load(&self) -> (SnapshotState, ErrorEnvelope, u64) {
        let StateShape::Hll { hash_fp, .. } = self.shape else {
            unreachable!("an HLL has an HLL shape")
        };
        let registers = self.hll.registers_snapshot();
        let summary = RegisterSummary::from_ranks(registers.iter().copied());
        let state = SnapshotState::Hll { hash_fp, registers };
        (state, self.envelope(&summary), summary.register_sum())
    }
}

impl ServedObject for ServedHll {
    fn kind(&self) -> ObjectKind {
        ObjectKind::Hll
    }

    fn writer<'a>(&'a self, _metrics: &'a Metrics) -> Box<dyn ObjectWriter + 'a> {
        Box::new(AtomicWriter { obj: self })
    }

    fn query(&self, _key: u64) -> ErrorEnvelope {
        self.ops.note_query();
        // One pass feeds both the estimate and the checkable sum, so
        // the recorded query value matches the served envelope.
        self.envelope(&self.hll.summary())
    }

    /// The register sum. Registers only grow, so two loads with equal
    /// sums loaded equal registers: the sum is an exact epoch, and it
    /// moves exactly when a register does.
    fn epoch(&self) -> u64 {
        self.hll.summary().register_sum()
    }

    /// `Unchanged` only when the registers equal those of the reply that
    /// returned `base`: a pass that sums to `base` answers from that
    /// pass without allocating. Any other base gets a fresh load whose
    /// state, envelope and epoch all describe the same bytes — an epoch
    /// counted apart from the registers could lag a raise whose update
    /// was already acknowledged, and hide it behind `Unchanged`.
    fn snapshot_since(&self, base: Option<u64>) -> (u64, DeltaChange, ErrorEnvelope) {
        self.ops.note_query();
        if let Some(base) = base {
            let summary = self.hll.summary();
            if summary.register_sum() == base {
                return (base, DeltaChange::Unchanged, self.envelope(&summary));
            }
        }
        let (state, envelope, epoch) = self.load();
        (epoch, DeltaChange::Full(state), envelope)
    }

    fn op_stats(&self) -> ObjectStats {
        self.ops.stats()
    }

    fn check_projection(
        &self,
        projection: &History<(u64, u64), u64, u64>,
    ) -> (Option<bool>, &'static str) {
        (
            Some(check_ivl_monotone(&self.spec(), projection).is_ivl()),
            "register sums vs the sequential HLL replay",
        )
    }
}

impl AtomicApply for ServedHll {
    fn apply_one(&self, key: u64, weight: u64) {
        // Set semantics: the item is observed once; `weight` only
        // feeds the acknowledged-weight counter.
        self.hll.update(key);
        self.ops.note_updates(1, weight);
    }

    /// Register-wise `fetch_max` into the live vector after the shape
    /// guard — a join with the update path, so concurrent updates and
    /// an absorb interleave safely.
    fn absorb_state(&self, state: &SnapshotState, observed: u64) -> Result<(), MergeError> {
        self.shape.admit(state)?;
        if let SnapshotState::Hll { registers, .. } = state {
            self.hll.absorb(registers);
        }
        self.ops.note_absorbed(observed);
        Ok(())
    }
}
