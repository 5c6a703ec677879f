//! The served Morris counter: a CAS'd exponent whose coin flips live
//! server-side, so its verdict checks the acknowledged-weight counter.

use super::{scalar_reply, AtomicApply, AtomicWriter, OpCounters, Serve, ServeParams};
use crate::metrics::{Metrics, ObjectStats};
use crate::objects::{ObjectWriter, ServedObject};
use crate::ErrorEnvelope;
use ivl_concurrent::ConcurrentMorris;
use ivl_merge::kinds::MorrisKind;
use ivl_merge::{DeltaChange, MergeError, ObjectKind, SnapshotState, StateShape};
use ivl_sketch::CoinFlips;
use ivl_spec::history::History;
use ivl_spec::ivl::check_ivl_monotone;
use ivl_spec::spec::{MonotoneSpec, ObjectSpec};
use std::sync::atomic::Ordering;

/// Accuracy parameter `a` of served Morris counters.
pub const MORRIS_A: f64 = 0.5;

/// A single update may apply at most this many Morris estimator
/// events; larger weights are acknowledged in full (the `observed`
/// counter always gets the whole weight) but clamp the estimator work,
/// bounding per-frame service time against hostile weights.
pub const MORRIS_MAX_EVENTS_PER_UPDATE: u64 = 1 << 16;

/// Sequential spec of an object's acknowledged-weight counter: updates
/// add their weight, queries read the total. This is the deterministic
/// projection every served object exposes through its envelope's
/// `observed` field; it is the whole strict story for Morris, whose
/// estimator coins live server-side.
#[derive(Clone, Debug, Default)]
pub struct AckCounterSpec;

impl ObjectSpec for AckCounterSpec {
    type Update = (u64, u64);
    type Query = u64;
    type Value = u64;
    type State = u64;

    fn initial_state(&self) -> u64 {
        0
    }

    fn apply_update(&self, state: &mut u64, &(_key, weight): &(u64, u64)) {
        *state = state.saturating_add(weight);
    }

    fn eval_query(&self, state: &u64, _q: &u64) -> u64 {
        *state
    }
}

impl MonotoneSpec for AckCounterSpec {}

/// A concurrent Morris counter as a served object.
#[derive(Debug)]
pub struct ServedMorris {
    morris: ConcurrentMorris,
    a: f64,
    ops: OpCounters,
}

impl Serve for MorrisKind {
    fn serve(_params: &ServeParams, coins: CoinFlips) -> Box<dyn ServedObject> {
        Box::new(ServedMorris::new(MORRIS_A, coins))
    }
}

impl ServedMorris {
    /// Creates a Morris counter with accuracy parameter `a`.
    pub fn new(a: f64, coins: CoinFlips) -> Self {
        ServedMorris {
            morris: ConcurrentMorris::new(a, coins),
            a,
            ops: OpCounters::default(),
        }
    }

    /// The served envelope at `exponent`.
    fn envelope(&self, exponent: u32) -> ErrorEnvelope {
        ErrorEnvelope::approx_count(self.a, exponent, self.ops.observed.load(Ordering::Relaxed))
    }
}

impl ServedObject for ServedMorris {
    fn kind(&self) -> ObjectKind {
        ObjectKind::Morris
    }

    fn writer<'a>(&'a self, _metrics: &'a Metrics) -> Box<dyn ObjectWriter + 'a> {
        Box::new(AtomicWriter { obj: self })
    }

    fn query(&self, _key: u64) -> ErrorEnvelope {
        self.ops.note_query();
        // Exponent before estimate: the estimate is derived from the
        // exponent, and reading the monotone value first keeps the
        // recorded value a lower bound of what the envelope shows.
        self.envelope(self.morris.exponent())
    }

    fn epoch(&self) -> u64 {
        // The exponent is the whole state: it is its own update epoch.
        self.morris.exponent() as u64
    }

    fn snapshot_since(&self, base: Option<u64>) -> (u64, DeltaChange, ErrorEnvelope) {
        self.ops.note_query();
        let exponent = self.morris.exponent();
        let state = SnapshotState::Morris { exponent };
        scalar_reply(base, exponent as u64, state, self.envelope(exponent))
    }

    fn op_stats(&self) -> ObjectStats {
        self.ops.stats()
    }

    fn check_projection(
        &self,
        projection: &History<(u64, u64), u64, u64>,
    ) -> (Option<bool>, &'static str) {
        (
            Some(check_ivl_monotone(&AckCounterSpec, projection).is_ivl()),
            "acknowledged-weight counter (estimator coins are server-side)",
        )
    }
}

impl AtomicApply for ServedMorris {
    fn apply_one(&self, _key: u64, weight: u64) {
        // `weight` events, clamped against hostile frame weights; the
        // acknowledged counter always gets the full weight.
        for _ in 0..weight.min(MORRIS_MAX_EVENTS_PER_UPDATE) {
            self.morris.update();
        }
        self.ops.note_updates(1, weight);
    }

    /// Raises the exponent to at least the peer's (exponent max is the
    /// Morris merge; no coins are involved, so there is nothing to
    /// fingerprint).
    fn absorb_state(&self, state: &SnapshotState, observed: u64) -> Result<(), MergeError> {
        StateShape::Morris.admit(state)?;
        if let SnapshotState::Morris { exponent } = state {
            self.morris.raise_to(*exponent);
        }
        self.ops.note_absorbed(observed);
        Ok(())
    }
}
