//! The kind algebra: one [`Kind`] trait, one file per served kind.
//!
//! Theorem 6 transfers a sequential (ε,δ) bound to any IVL
//! implementation of a bounded object, and Theorem 1 (locality) argues
//! one object at a time, so everything the serving and replication
//! layers do with an object's state is per kind and per object: its
//! shape, its codec, its two merge laws ([`MergePolicy::Add`] for copies
//! of disjoint substreams, [`MergePolicy::Join`] for copies of one
//! stream), the envelope its answers carry and that envelope's
//! composition, and what a read re-derives from a merged state. A
//! [`Kind`] impl holds all of it. The wire enums ([`ObjectKind`],
//! [`SnapshotState`], [`ErrorEnvelope`], [`StateShape`]) keep their
//! variants and bytes; each of their operations is one forward, through
//! [`for_kind!`](crate::for_kind), to the impl of the value's kind.
//!
//! [`merge`] and [`compose`] are the generic folds: the enums' own
//! [`merge_states`](crate::merge_states) and [`ErrorEnvelope::compose`]
//! check that their parts are of one kind and forward to them, and a
//! kind outside the enum uses them directly.

use crate::{
    CellRun, ComposeError, ErrorEnvelope, MergeError, MergePolicy, MergeableState, ObjectKind,
    SnapshotState, StatePatch, StateShape,
};
use ivl_sketch::CoinFlips;
use std::fmt;

mod countmin;
mod hll;
mod min;
mod morris;

pub use countmin::{cm_hash_fingerprint, seeded_count_min, CountMinHashes, CountMinKind, Envelope};
pub use hll::{hll_hash_fingerprint, hll_shape, HllKind};
pub use min::MinKind;
pub use morris::MorrisKind;

/// Evaluates `$body` with the type alias `$K` naming the [`Kind`] impl
/// of `$kind` (an [`ObjectKind`]) — the one place the served kinds are
/// listed, so every operation on a wire enum is one forward.
#[macro_export]
macro_rules! for_kind {
    ($kind:expr, $K:ident => $body:expr) => {
        match $kind {
            $crate::ObjectKind::CountMin => {
                type $K = $crate::kinds::CountMinKind;
                $body
            }
            $crate::ObjectKind::Hll => {
                type $K = $crate::kinds::HllKind;
                $body
            }
            $crate::ObjectKind::Morris => {
                type $K = $crate::kinds::MorrisKind;
                $body
            }
            $crate::ObjectKind::MinRegister => {
                type $K = $crate::kinds::MinKind;
                $body
            }
        }
    };
}

impl ObjectKind {
    /// Every served kind, in wire-tag order.
    pub const ALL: [ObjectKind; 4] = [
        ObjectKind::CountMin,
        ObjectKind::Hll,
        ObjectKind::Morris,
        ObjectKind::MinRegister,
    ];
}

/// One quantitative kind: its state, shape, envelope and their laws.
///
/// The four served kinds take the wire enums as their types, and each
/// is only ever handed values of its own variant: the enums dispatch on
/// the value's kind, and check that every part of a merge or compose
/// is of one kind, before they forward.
///
/// Laws every impl keeps (pinned per kind by the property tests):
/// * `decode_state(encode_state(s)) == s`, consuming exactly the body,
///   and likewise for envelopes;
/// * [`merge`](Self::merge) is associative and commutative under both
///   policies, and `Join` is idempotent;
/// * [`compose`](Self::compose) covers what the merge of the parts'
///   states covers: it is sound for `Add` over disjoint substreams and
///   for `Join` over copies of one stream (DESIGN §15.1).
pub trait Kind {
    /// Roster names of the kind; the first is how it prints.
    const NAMES: &'static [&'static str];
    /// The mergeable state.
    type State: Clone + fmt::Debug;
    /// What two states must agree on to merge.
    type Shape: Copy + PartialEq + fmt::Debug + Send;
    /// The guarantee every answer carries.
    type Envelope: Clone + fmt::Debug;
    /// What an object's seed samples for this kind: the prototype a
    /// merged read re-derives its answer with.
    type Proto: fmt::Debug + Send;

    /// The state's shape.
    fn shape(state: &Self::State) -> Self::Shape;

    /// Folds `part` into `target`, a state of the same shape, under
    /// `policy`. Every sum saturates at `u64::MAX`.
    fn merge(part: &Self::State, target: &mut Self::State, policy: MergePolicy);

    /// Composes one more part's envelope into `acc` under `policy` —
    /// the envelope counterpart of [`merge`](Self::merge).
    ///
    /// # Errors
    ///
    /// [`ComposeError::ParamMismatch`] when the parts disagree on a
    /// parameter that must be shared.
    fn compose(
        acc: Self::Envelope,
        part: &Self::Envelope,
        policy: MergePolicy,
    ) -> Result<Self::Envelope, ComposeError>;

    /// The acknowledged update weight an envelope reports.
    fn observed(envelope: &Self::Envelope) -> u64;

    /// The integer an envelope records into a history: a monotone (or
    /// antitone) functional of the update set, so every projection is
    /// checkable by the interval checker.
    fn value(envelope: &Self::Envelope) -> u64;

    /// How many cells the state ships (one for a scalar state).
    fn cells(_state: &Self::State) -> usize {
        1
    }

    /// Appends the state's wire body (little-endian, no kind tag).
    fn encode_state(state: &Self::State, out: &mut Vec<u8>);

    /// Decodes a state body from the front of `body`, consuming exactly
    /// the encoded bytes and never trusting a length past them.
    fn decode_state(body: &mut &[u8]) -> Result<Self::State, &'static str>;

    /// Appends the envelope's wire body (no kind tag).
    fn encode_envelope(envelope: &Self::Envelope, out: &mut Vec<u8>);

    /// Decodes an envelope body from the front of `body`.
    fn decode_envelope(body: &mut &[u8]) -> Result<Self::Envelope, &'static str>;

    /// A one-line summary of the state for an operator.
    fn fmt_state(state: &Self::State, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{state:?}")
    }

    /// One line per envelope: the served value and every term of its
    /// bound.
    fn fmt_envelope(envelope: &Self::Envelope, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{envelope:?}")
    }

    /// The shape and prototype `coins` sample at the dimensions `shape`
    /// names — what a state of this object must match to merge.
    ///
    /// # Errors
    ///
    /// A dimension no object of this kind can have.
    fn seed(
        shape: &Self::Shape,
        coins: &mut CoinFlips,
    ) -> Result<(Self::Shape, Self::Proto), MergeError>;

    /// Re-derives in `envelope`, composed from the parts, what the
    /// merged state knows better than any part: the point estimate for
    /// `key` (`None` keeps a snapshot's sentinels), or an estimate
    /// recomputed from merged registers. `moved` says whether `merged`
    /// changed since the last call with this `proto`.
    fn answer(
        _proto: &mut Self::Proto,
        _merged: &Self::State,
        _moved: bool,
        _key: Option<u64>,
        _envelope: &mut Self::Envelope,
    ) {
    }

    /// Widens an envelope for weight the merged state may not see
    /// (`unseen`) and weight it may count twice (`doubt`). Kinds whose
    /// envelope carries no such term leave it as it is.
    fn widen(_envelope: &mut Self::Envelope, _unseen: u64, _doubt: u64) {}

    /// Patches sparse overwrite runs into a cached state. Only a kind
    /// that answers deltas overrides it.
    fn apply_runs(
        _state: &mut Self::State,
        _runs: &[CellRun],
        _values: &[u64],
    ) -> Result<StatePatch, MergeError> {
        Err(MergeError::new("cell runs for a kind that sends no deltas"))
    }

    /// Folds moved cells `(index, old, new)` of one cache into a merged
    /// accumulator under `policy`.
    fn fold_cells(
        _state: &mut Self::State,
        _moved: &[(usize, u64, u64)],
        _policy: MergePolicy,
    ) -> Result<(), MergeError> {
        Err(MergeError::new("patch cannot fold into this state"))
    }
}

/// The refusal of a state whose shape is not the one wanted.
pub(crate) fn shape_mismatch(got: &dyn fmt::Debug, want: &dyn fmt::Debug) -> MergeError {
    MergeError::new(format!(
        "kind, dimensions or coins do not match: {got:?} against {want:?}"
    ))
}

/// Folds any number of states of kind `K` into one summary under
/// `policy`.
///
/// # Errors
///
/// An empty slice, or a state whose shape is not the first one's.
pub fn merge<K: Kind>(policy: MergePolicy, states: &[&K::State]) -> Result<K::State, MergeError> {
    let (first, rest) = states
        .split_first()
        .ok_or_else(|| MergeError::new("no states to merge"))?;
    let shape = K::shape(first);
    let mut merged = (*first).clone();
    for state in rest {
        let got = K::shape(state);
        if got != shape {
            return Err(shape_mismatch(&got, &shape));
        }
        K::merge(state, &mut merged, policy);
    }
    Ok(merged)
}

/// Composes per-part envelopes of kind `K` into one envelope covering
/// what the merged state covers.
///
/// # Errors
///
/// [`ComposeError::Empty`] on an empty slice, or the kind's refusal of
/// a part.
pub fn compose<K: Kind>(
    parts: &[K::Envelope],
    policy: MergePolicy,
) -> Result<K::Envelope, ComposeError> {
    let (first, rest) = parts.split_first().ok_or(ComposeError::Empty)?;
    rest.iter()
        .try_fold(first.clone(), |acc, part| K::compose(acc, part, policy))
}

/// One object's seeded shape and prototype, its kind erased — what a
/// replica group holds per object to check states against its seed and
/// to answer from the merged state.
pub trait Seeded: fmt::Debug + Send {
    /// Refuses `state` unless it has the seeded shape.
    fn admit(&self, state: &SnapshotState) -> Result<(), MergeError>;

    /// [`Kind::answer`] for the seeded kind.
    ///
    /// # Errors
    ///
    /// `merged` and `envelope` are not both of the seeded kind.
    fn answer(
        &mut self,
        merged: &SnapshotState,
        moved: bool,
        key: Option<u64>,
        envelope: &mut ErrorEnvelope,
    ) -> Result<(), MergeError>;
}

/// A [`Seeded`] of kind `K`.
#[derive(Debug)]
struct Seed<K: Kind> {
    shape: K::Shape,
    proto: K::Proto,
}

impl<K> Seeded for Seed<K>
where
    K: Kind<State = SnapshotState, Shape = StateShape, Envelope = ErrorEnvelope> + fmt::Debug,
{
    fn admit(&self, state: &SnapshotState) -> Result<(), MergeError> {
        self.shape.admit(state)
    }

    fn answer(
        &mut self,
        merged: &SnapshotState,
        moved: bool,
        key: Option<u64>,
        envelope: &mut ErrorEnvelope,
    ) -> Result<(), MergeError> {
        if merged.kind() != envelope.kind() {
            return Err(MergeError::new("kind tag and envelope disagree"));
        }
        K::answer(&mut self.proto, merged, moved, key, envelope);
        Ok(())
    }
}

/// Seeds the object whose first state read is `state` from `coins`
/// (its [`slot_coins`](crate::slot_coins)), at the dimensions that state
/// names.
///
/// # Errors
///
/// A dimension no object of the state's kind can have.
pub fn seed(state: &SnapshotState, coins: &mut CoinFlips) -> Result<Box<dyn Seeded>, MergeError> {
    for_kind!(state.kind(), K => {
        let (shape, proto) = K::seed(&K::shape(state), coins)?;
        Ok(Box::new(Seed::<K> { shape, proto }))
    })
}
