//! The served min register: `fetch_min`, an antitone object the
//! endpoint-sorting interval checker verifies directly.

use super::{scalar_reply, AtomicApply, AtomicWriter, OpCounters, Serve, ServeParams};
use crate::metrics::{Metrics, ObjectStats};
use crate::objects::{ObjectWriter, ServedObject};
use crate::ErrorEnvelope;
use ivl_concurrent::ConcurrentMinRegister;
use ivl_merge::kinds::MinKind;
use ivl_merge::{DeltaChange, MergeError, ObjectKind, SnapshotState, StateShape};
use ivl_sketch::CoinFlips;
use ivl_spec::history::History;
use ivl_spec::ivl::check_ivl_monotone;
use ivl_spec::spec::{MonotoneSpec, ObjectSpec};
use std::sync::atomic::Ordering;

/// Sequential spec of the served min register: updates lower the
/// minimum to at most their key (weights ignored), queries read it.
/// Antitone; the endpoint-sorting interval checker handles it.
#[derive(Clone, Debug, Default)]
pub struct ServedMinSpec;

impl ObjectSpec for ServedMinSpec {
    type Update = (u64, u64);
    type Query = u64;
    type Value = u64;
    type State = u64;

    fn initial_state(&self) -> u64 {
        u64::MAX
    }

    fn apply_update(&self, state: &mut u64, &(key, _weight): &(u64, u64)) {
        *state = (*state).min(key);
    }

    fn eval_query(&self, state: &u64, _q: &u64) -> u64 {
        *state
    }
}

impl MonotoneSpec for ServedMinSpec {}

/// A concurrent min register as a served object.
#[derive(Debug, Default)]
pub struct ServedMinRegister {
    pub(crate) reg: ConcurrentMinRegister,
    ops: OpCounters,
}

impl Serve for MinKind {
    fn serve(_params: &ServeParams, _coins: CoinFlips) -> Box<dyn ServedObject> {
        Box::new(ServedMinRegister::new())
    }
}

impl ServedMinRegister {
    /// Creates an empty min register.
    pub fn new() -> Self {
        Self::default()
    }

    /// The served envelope at `minimum`.
    fn envelope(&self, minimum: u64) -> ErrorEnvelope {
        ErrorEnvelope::Minimum {
            minimum,
            observed: self.ops.observed.load(Ordering::Relaxed),
        }
    }
}

impl ServedObject for ServedMinRegister {
    fn kind(&self) -> ObjectKind {
        ObjectKind::MinRegister
    }

    fn writer<'a>(&'a self, _metrics: &'a Metrics) -> Box<dyn ObjectWriter + 'a> {
        Box::new(AtomicWriter { obj: self })
    }

    fn query(&self, _key: u64) -> ErrorEnvelope {
        self.ops.note_query();
        self.envelope(self.reg.min())
    }

    /// The minimum itself: it is the whole state, so equal minima are
    /// equal states. (An epoch counted beside the `fetch_min` could lag
    /// a lowering whose insert was already acknowledged.)
    fn epoch(&self) -> u64 {
        self.reg.min()
    }

    fn snapshot_since(&self, base: Option<u64>) -> (u64, DeltaChange, ErrorEnvelope) {
        self.ops.note_query();
        let minimum = self.reg.min();
        let state = SnapshotState::MinRegister { minimum };
        scalar_reply(base, minimum, state, self.envelope(minimum))
    }

    fn op_stats(&self) -> ObjectStats {
        self.ops.stats()
    }

    fn check_projection(
        &self,
        projection: &History<(u64, u64), u64, u64>,
    ) -> (Option<bool>, &'static str) {
        (
            Some(check_ivl_monotone(&ServedMinSpec, projection).is_ivl()),
            "minima vs the antitone min-register spec",
        )
    }
}

impl AtomicApply for ServedMinRegister {
    fn apply_one(&self, key: u64, weight: u64) {
        self.reg.insert(key);
        self.ops.note_updates(1, weight);
    }

    /// `fetch_min` with the peer's minimum (`u64::MAX` is the empty
    /// sentinel and inserting it is a no-op join either way).
    fn absorb_state(&self, state: &SnapshotState, observed: u64) -> Result<(), MergeError> {
        StateShape::MinRegister.admit(state)?;
        if let SnapshotState::MinRegister { minimum } = state {
            self.reg.insert(*minimum);
        }
        self.ops.note_absorbed(observed);
        Ok(())
    }
}
