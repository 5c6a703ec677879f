//! `ivl-merge`: the kind algebra shared by the serving and replication
//! subsystems — for each quantitative kind, one home for its state, its
//! envelope, their byte layouts, and their merge and compose laws.
//!
//! The served sketches are **mergeable summaries** (the algebra *Fast
//! Concurrent Data Sketches* builds on): CountMin cells add
//! cell-wise, HyperLogLog registers max register-wise, Morris exponents
//! and min registers join as scalars, so independently grown copies
//! combine into one summary of the union (or, mirrored, of the common
//! stream). Theorem 6 transfers each sequential (ε,δ) bound to the
//! concurrent object and Theorem 1 makes the argument per object, so
//! each kind is one [`Kind`] impl in one file under [`kinds`]:
//!
//! * [`SnapshotState`] — the kind-tagged state, with
//!   [`CellRun`]/[`DeltaChange`] as its sparse-delta vocabulary.
//! * [`MergeableState`] — the state algebra: `encode_into`/`decode_from`
//!   (the exact wire schema of the snapshot frames), `merge_into` (the
//!   summary join, under a [`MergePolicy`]) and `apply_change` (delta
//!   application against a cached copy).
//! * [`envelope`] — [`ErrorEnvelope`], the per-kind guarantee every
//!   answer carries, with its wire body and [`ErrorEnvelope::compose`],
//!   the envelope counterpart of `merge_into`.
//! * [`StateShape`] — the one merge guard: kind, dimensions and the
//!   [`cm_hash_fingerprint`]/[`hll_hash_fingerprint`] of the coins
//!   [`slot_coins`] samples. Only equal shapes merge; a mismatch is a
//!   typed [`MergeError`] (the wire's `MergeMismatch`).
//!
//! Each operation on those enums is one forward, through [`for_kind!`],
//! to the impl of the value's kind; [`kinds::merge`] and
//! [`kinds::compose`] are the folds any [`Kind`] can use.
//!
//! Everything here is sequential and allocation-explicit. The
//! concurrent absorb paths live with the live structures: a served
//! object computes its [`StateShape`] once and [`StateShape::admit`]s
//! only states of that shape.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use ivl_sketch::CoinFlips;
use std::fmt;

pub mod envelope;
pub mod kinds;

pub use envelope::{ComposeError, ErrorEnvelope};
pub use kinds::{cm_hash_fingerprint, hll_hash_fingerprint, Envelope, Kind};

/// The kinds of quantitative objects the server can register. The
/// discriminant is the wire tag used by kind-tagged state and envelope
/// frames and the `OBJECTS` listing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ObjectKind {
    /// Sharded CountMin frequency sketch (the original served object).
    CountMin = 0,
    /// Concurrent HyperLogLog cardinality sketch.
    Hll = 1,
    /// Concurrent Morris approximate counter.
    Morris = 2,
    /// Concurrent min register (antitone).
    MinRegister = 3,
}

impl ObjectKind {
    /// Wire tag of this kind.
    pub fn to_u8(self) -> u8 {
        self as u8
    }

    /// Parses a wire tag.
    pub fn from_u8(v: u8) -> Option<Self> {
        Self::ALL.get(v as usize).copied()
    }

    /// The roster names of this kind; the first is how it prints.
    fn names(self) -> &'static [&'static str] {
        for_kind!(self, K => K::NAMES)
    }
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.names()[0])
    }
}

impl std::str::FromStr for ObjectKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::ALL
            .into_iter()
            .find(|kind| kind.names().contains(&s))
            .ok_or_else(|| format!("unknown object kind {s:?} (want cm|hll|morris|min)"))
    }
}

/// The kind-specific mergeable state carried by a full `SNAPSHOT_SINCE`
/// reply (and by `PUSH_STATE`).
///
/// Each variant is the raw material of that kind's merge operator
/// (CountMin cells add cell-wise, HLL registers max register-wise,
/// Morris exponents and min registers are scalars), so a replication
/// layer can combine any number of snapshots into one summary over
/// the union (partition) or the common stream (mirror) — the
/// "mergeable summaries" property the full paper builds on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotState {
    /// A CountMin cell matrix, row-major (`depth × width` sums).
    CountMin {
        /// Matrix width (columns per row).
        width: u32,
        /// Matrix depth (rows).
        depth: u32,
        /// Probe fingerprint of the row hash functions (see
        /// [`cm_hash_fingerprint`]); peers whose fingerprints differ
        /// sampled different coins and must not be merged.
        hash_fp: u64,
        /// The `depth * width` cell sums.
        cells: Vec<u64>,
    },
    /// HLL registers (one max-rank byte per bucket).
    Hll {
        /// Probe fingerprint of the routing hash (see
        /// [`hll_hash_fingerprint`]).
        hash_fp: u64,
        /// The `2^precision` register bytes.
        registers: Vec<u8>,
    },
    /// A Morris counter's exponent.
    Morris {
        /// Current exponent.
        exponent: u32,
    },
    /// A min register's current minimum.
    MinRegister {
        /// Current minimum (`u64::MAX` when empty).
        minimum: u64,
    },
}

/// What two states must agree on to merge: the kind, and for the
/// hashed kinds the dimensions and the fingerprint of the coins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StateShape {
    /// A CountMin cell matrix.
    CountMin {
        /// Matrix width (columns per row).
        width: u32,
        /// Matrix depth (rows).
        depth: u32,
        /// [`cm_hash_fingerprint`] of the row hashes.
        hash_fp: u64,
    },
    /// HLL registers.
    Hll {
        /// Register count (`2^precision`).
        registers: usize,
        /// [`hll_hash_fingerprint`] of the routing hash.
        hash_fp: u64,
    },
    /// A Morris exponent (its merge samples no coins).
    Morris,
    /// A min register.
    MinRegister,
}

impl StateShape {
    /// Refuses `state` unless its shape is this one — the guard before
    /// every merge, absorb and seed check.
    pub fn admit(&self, state: &SnapshotState) -> Result<(), MergeError> {
        let shape = state.shape();
        if shape == *self {
            return Ok(());
        }
        Err(kinds::shape_mismatch(&shape, self))
    }
}

impl SnapshotState {
    /// This state's [`StateShape`].
    pub fn shape(&self) -> StateShape {
        for_kind!(self.kind(), K => K::shape(self))
    }

    /// How many cells the state ships: CountMin cells, HLL registers,
    /// or the one scalar of a Morris counter or min register.
    pub fn cell_count(&self) -> usize {
        for_kind!(self.kind(), K => K::cells(self))
    }
}

/// A one-line summary of the state — its shape, how much of it is set,
/// and the coin fingerprint that guards its merges — not its cells.
impl fmt::Display for SnapshotState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for_kind!(self.kind(), K => K::fmt_state(self, f))
    }
}

/// One sparse overwrite run of a CountMin delta: the next `len` of the
/// delta's `values` replace the client's cached cells `[lo, lo + len)`
/// of `row`. Runs carry current summed cell values (not increments),
/// so applying a delta is idempotent and never double-counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellRun {
    /// Matrix row the run overwrites.
    pub row: u32,
    /// First column (inclusive) of the overwrite.
    pub lo: u32,
    /// Number of cells the run overwrites.
    pub len: u32,
}

impl CellRun {
    /// Pairs each run with its own cells out of a delta's flat
    /// `values` (concatenated in run order).
    ///
    /// # Panics
    ///
    /// The iterator panics when `values` is shorter than the runs
    /// claim; [`MergeableState::apply_change`] checks the lengths of
    /// untrusted deltas before walking them.
    pub fn zip_values<'a>(
        runs: &'a [CellRun],
        mut values: &'a [u64],
    ) -> impl Iterator<Item = (CellRun, &'a [u64])> + 'a {
        runs.iter().map(move |&run| {
            let (cells, rest) = values.split_at(run.len as usize);
            values = rest;
            (run, cells)
        })
    }
}

/// How a `SNAPSHOT_SINCE` reply changes the client's cached state.
/// Only a CountMin answers a sparse delta; the other kinds answer
/// `Unchanged` or `Full`.
#[derive(Clone, Debug, PartialEq)]
pub enum DeltaChange {
    /// Nothing changed since the client's base epoch: keep the cached
    /// state (the reply still carries a fresh envelope — acknowledged
    /// weight may move without a cell change).
    Unchanged,
    /// Sparse cell overwrites against a cached CountMin whose epoch is
    /// `base_epoch`.
    CmRuns {
        /// The cache epoch these runs patch.
        base_epoch: u64,
        /// The overwrite runs (row-sparse, column-contiguous).
        runs: Vec<CellRun>,
        /// The replacement cell sums of every run, concatenated in run
        /// order — one allocation however many runs a delta has.
        values: Vec<u64>,
    },
    /// A full replacement state: the client's base was unknown (or too
    /// old to diff), or a delta would not beat the full frame.
    Full(SnapshotState),
}

/// Change tags of the `SNAPSHOT_DELTA_REPLY` body, one per
/// [`DeltaChange`] variant. Tag 2, a retired HLL register range,
/// decodes as an unknown tag.
const DELTA_UNCHANGED: u8 = 0;
const DELTA_CM_RUNS: u8 = 1;
const DELTA_FULL: u8 = 3;

impl DeltaChange {
    /// The cache epoch a sparse delta patches; `None` for `Unchanged`
    /// (implicitly the cache held) and `Full` (which needs no base).
    pub fn base_epoch(&self) -> Option<u64> {
        match self {
            DeltaChange::CmRuns { base_epoch, .. } => Some(*base_epoch),
            _ => None,
        }
    }

    /// Appends the change body: the tag byte, then for cell runs the
    /// base epoch, the run count and each run's header followed by its
    /// own cells (the flat `values` is an in-memory layout, not a wire
    /// change), for a full state its kind-implied body.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            DeltaChange::Unchanged => out.push(DELTA_UNCHANGED),
            DeltaChange::CmRuns {
                base_epoch,
                runs,
                values,
            } => {
                out.push(DELTA_CM_RUNS);
                out.extend_from_slice(&base_epoch.to_le_bytes());
                out.extend_from_slice(&(runs.len() as u32).to_le_bytes());
                for (run, cells) in CellRun::zip_values(runs, values) {
                    for word in [run.row, run.lo, run.len] {
                        out.extend_from_slice(&word.to_le_bytes());
                    }
                    put_u64s(out, cells);
                }
            }
            DeltaChange::Full(state) => {
                out.push(DELTA_FULL);
                state.encode_into(out);
            }
        }
    }

    /// Decodes the change body of a reply about a `kind` object from
    /// the front of `body`, consuming exactly the encoded bytes. Cell
    /// runs are legal on a CountMin reply only.
    pub fn decode_from(kind: ObjectKind, body: &mut &[u8]) -> Result<Self, &'static str> {
        match take_u8(body)? {
            DELTA_UNCHANGED => Ok(DeltaChange::Unchanged),
            DELTA_CM_RUNS if kind != ObjectKind::CountMin => {
                Err("cell runs on a non-CountMin delta reply")
            }
            DELTA_CM_RUNS => {
                let base_epoch = take_u64(body)?;
                let count = take_u32(body)?;
                let mut runs = Vec::with_capacity(count.min(1024) as usize);
                // Every cell is still ahead in the body, which bounds
                // the allocation against a lying header.
                let mut values = Vec::with_capacity(body.len() / 8);
                for _ in 0..count {
                    let (row, lo, len) = (take_u32(body)?, take_u32(body)?, take_u32(body)?);
                    for _ in 0..len {
                        values.push(take_u64(body)?);
                    }
                    runs.push(CellRun { row, lo, len });
                }
                Ok(DeltaChange::CmRuns {
                    base_epoch,
                    runs,
                    values,
                })
            }
            DELTA_FULL => SnapshotState::decode_from(kind, body).map(DeltaChange::Full),
            _ => Err("unknown delta change tag"),
        }
    }
}

/// Fixed probe keys hashed by the fingerprint helpers. Two hash
/// functions that agree on all probes are overwhelmingly likely the
/// same sampled function; replicas built from the same seed (see
/// [`slot_coins`]) always agree exactly.
pub(crate) const FP_PROBES: [u64; 8] = [
    0,
    1,
    0x5bd1_e995,
    0x0b1e_c7ed,
    u64::MAX / 3,
    u64::MAX / 2,
    u64::MAX - 1,
    u64::MAX,
];

pub(crate) fn fp_mix(acc: u64, v: u64) -> u64 {
    // splitmix64-style finalizer: order-sensitive, avalanching.
    let mut x = acc.wrapping_add(v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^ (x >> 27)
}

/// The coin-flip stream for registry slot `idx` under `seed`.
///
/// Exposed (and kept deliberately simple) because replication depends
/// on it: replicas started with the same `--seed` and the same object
/// roster sample identical hash functions per slot, which is exactly
/// the precondition for merging their snapshots. A replica-group
/// client rebuilds prototypes with this same function to re-derive
/// estimates from merged state.
pub fn slot_coins(seed: u64, idx: u32) -> CoinFlips {
    // Distinct streams per registry slot, so two `hll` objects do not
    // share hash functions.
    CoinFlips::from_seed(seed ^ ((idx as u64) << 32 | 0x0b1ec7))
}

/// How two copies of the same-kind state combine.
///
/// CountMin cells are the only place the distinction matters: copies
/// that counted **disjoint substreams** (a partitioned group) add
/// cell-wise, while copies that counted the **same stream** (a
/// mirrored group) join by cell-wise max. The other kinds' operators
/// are idempotent joins (register max, exponent max, scalar min) and
/// behave identically under either policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergePolicy {
    /// Cell-wise addition, saturating at `u64::MAX`: summaries of
    /// disjoint substreams.
    Add,
    /// Cell-wise max: summaries of the same stream.
    Join,
}

impl MergePolicy {
    /// The law's fold of one additive term: a saturating sum over
    /// disjoint substreams, the max over copies.
    pub fn fold(self, acc: u64, v: u64) -> u64 {
        match self {
            MergePolicy::Add => acc.saturating_add(v),
            MergePolicy::Join => acc.max(v),
        }
    }
}

/// A refused merge or absorb: kinds, dimensions, or hash fingerprints
/// disagree, or a delta does not fit the cache it claims to patch.
/// Maps to the wire's `MergeMismatch` error code; callers prefix the
/// object id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergeError {
    reason: String,
}

impl MergeError {
    /// A new typed refusal with a human-readable reason.
    pub fn new(reason: impl Into<String>) -> Self {
        MergeError {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.reason)
    }
}

impl std::error::Error for MergeError {}

/// What [`MergeableState::apply_change`] did to the cached state, with
/// enough detail for a caller keeping a derived accumulator (the
/// replica group's merged state) to fold it in with
/// [`MergeableState::fold_patch`] instead of rebuilding from every
/// cache.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StatePatch {
    /// The delta was `Unchanged`: the cache is already current.
    Unchanged,
    /// Sparse CountMin overwrites were applied; each entry is
    /// `(flat cell index, old value, new value)` of a cell that moved.
    CmCells(Vec<(usize, u64, u64)>),
    /// The delta carried a full state; the cache was replaced wholesale.
    Replaced,
}

/// The mergeable-summary algebra of the kind-tagged state, tied to a
/// wire schema.
///
/// [`SnapshotState`] implements it by forwarding every operation to
/// the [`Kind`] of the value; the trait names the contract the servers,
/// the codec, and the replica group all rely on:
///
/// * `encode_into`/`decode_from` are exact inverses and *are* the wire
///   schema of the snapshot frame bodies (kind tag carried separately).
/// * `merge_into` is associative and commutative per kind (pinned by
///   this crate's property tests), so merge order across replicas
///   never matters.
/// * `apply_change` applies a `SNAPSHOT_SINCE` delta to a cached copy;
///   runs carry absolute values, so re-application is idempotent.
///   `fold_patch` carries what it reports into a merged accumulator:
///   folding every cache's patch equals re-merging the patched caches
///   (property-pinned).
pub trait MergeableState: Sized {
    /// This state's kind tag.
    fn kind(&self) -> ObjectKind;

    /// Appends the kind-specific wire body (little-endian, no kind
    /// tag — the frame carries that).
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Decodes a wire body of `kind` from the front of `body`,
    /// consuming exactly the encoded bytes. Never trusts a length
    /// field further than the bytes actually present.
    fn decode_from(kind: ObjectKind, body: &mut &[u8]) -> Result<Self, &'static str>;

    /// Merges `self` into `target` under `policy`.
    fn merge_into(&self, target: &mut Self, policy: MergePolicy) -> Result<(), MergeError>;

    /// Applies a delta to this cached state, reporting what changed.
    fn apply_change(&mut self, change: DeltaChange) -> Result<StatePatch, MergeError>;

    /// Folds one cache's [`StatePatch`] into `self`, an accumulator
    /// holding the `policy` merge of every cache, so the accumulator
    /// follows its caches without re-merging them. A patch that cannot
    /// be folded exactly — a `Replaced` cache, another kind, an index
    /// out of bounds, a CountMin cell that moved down — is refused, and
    /// the caller rebuilds with [`merge_states`].
    fn fold_patch(&mut self, patch: &StatePatch, policy: MergePolicy) -> Result<(), MergeError>;
}

/// Takes one byte off the front of `body`. With [`take_u32`] and
/// [`take_u64`] (little-endian), the one family of readers every codec
/// of the wire stack decodes with: a body shorter than its schema is
/// [`SHORT_BODY`], never a panic or an over-read. Inlined: the wire
/// layer's batch decode reads every item through them.
#[inline]
pub fn take_u8(body: &mut &[u8]) -> Result<u8, &'static str> {
    let (&byte, rest) = body.split_first().ok_or(SHORT_BODY)?;
    *body = rest;
    Ok(byte)
}

/// Takes a little-endian `u32` off the front of `body`.
#[inline]
pub fn take_u32(body: &mut &[u8]) -> Result<u32, &'static str> {
    if body.len() < 4 {
        return Err(SHORT_BODY);
    }
    let (head, rest) = body.split_at(4);
    *body = rest;
    Ok(u32::from_le_bytes(head.try_into().expect("4 bytes")))
}

/// Takes a little-endian `u64` off the front of `body`.
#[inline]
pub fn take_u64(body: &mut &[u8]) -> Result<u64, &'static str> {
    if body.len() < 8 {
        return Err(SHORT_BODY);
    }
    let (head, rest) = body.split_at(8);
    *body = rest;
    Ok(u64::from_le_bytes(head.try_into().expect("8 bytes")))
}

/// Takes an IEEE-754 `f64`, shipped as its little-endian bit pattern.
pub(crate) fn take_f64(body: &mut &[u8]) -> Result<f64, &'static str> {
    take_u64(body).map(f64::from_bits)
}

/// Appends `words` little-endian.
pub(crate) fn put_u64s(out: &mut Vec<u8>, words: &[u64]) {
    for word in words {
        out.extend_from_slice(&word.to_le_bytes());
    }
}

/// The refusal of a body that ends before its schema does.
pub const SHORT_BODY: &str = "body shorter than its schema";

impl MergeableState for SnapshotState {
    fn kind(&self) -> ObjectKind {
        match self {
            SnapshotState::CountMin { .. } => ObjectKind::CountMin,
            SnapshotState::Hll { .. } => ObjectKind::Hll,
            SnapshotState::Morris { .. } => ObjectKind::Morris,
            SnapshotState::MinRegister { .. } => ObjectKind::MinRegister,
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        for_kind!(self.kind(), K => K::encode_state(self, out))
    }

    fn decode_from(kind: ObjectKind, body: &mut &[u8]) -> Result<Self, &'static str> {
        for_kind!(kind, K => K::decode_state(body))
    }

    fn merge_into(&self, target: &mut Self, policy: MergePolicy) -> Result<(), MergeError> {
        target.shape().admit(self)?;
        for_kind!(self.kind(), K => K::merge(self, target, policy));
        Ok(())
    }

    fn apply_change(&mut self, change: DeltaChange) -> Result<StatePatch, MergeError> {
        match change {
            DeltaChange::Unchanged => Ok(StatePatch::Unchanged),
            DeltaChange::Full(state) => {
                *self = state;
                Ok(StatePatch::Replaced)
            }
            DeltaChange::CmRuns { runs, values, .. } => {
                for_kind!(self.kind(), K => K::apply_runs(self, &runs, &values))
            }
        }
    }

    fn fold_patch(&mut self, patch: &StatePatch, policy: MergePolicy) -> Result<(), MergeError> {
        match patch {
            StatePatch::Unchanged => Ok(()),
            StatePatch::CmCells(moved) => {
                for_kind!(self.kind(), K => K::fold_cells(self, moved, policy))
            }
            StatePatch::Replaced => Err(MergeError::new("patch cannot fold into this state")),
        }
    }
}

/// Folds any number of same-kind states into one merged summary under
/// `policy`. Errors on an empty slice, on mixed kinds, and on any
/// dimension/fingerprint disagreement.
pub fn merge_states(
    policy: MergePolicy,
    states: &[&SnapshotState],
) -> Result<SnapshotState, MergeError> {
    let Some(first) = states.first() else {
        return Err(MergeError::new("no states to merge"));
    };
    let shape = first.shape();
    for state in states {
        shape.admit(state)?;
    }
    for_kind!(first.kind(), K => kinds::merge::<K>(policy, states))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cm(cells: Vec<u64>) -> SnapshotState {
        SnapshotState::CountMin {
            width: 3,
            depth: 2,
            hash_fp: 0xfeed,
            cells,
        }
    }

    #[test]
    fn kinds_roundtrip_through_wire_tags_and_strings() {
        for kind in [
            ObjectKind::CountMin,
            ObjectKind::Hll,
            ObjectKind::Morris,
            ObjectKind::MinRegister,
        ] {
            assert_eq!(ObjectKind::from_u8(kind.to_u8()), Some(kind));
            assert_eq!(kind.to_string().parse::<ObjectKind>().unwrap(), kind);
        }
        assert_eq!(ObjectKind::from_u8(9), None);
        assert!("quartz".parse::<ObjectKind>().is_err());
    }

    #[test]
    fn encode_decode_is_the_identity_and_consumes_exactly_the_body() {
        let states = [
            cm(vec![1, 2, 3, 4, 5, 6]),
            SnapshotState::Hll {
                hash_fp: 9,
                registers: vec![0, 3, 1, 7],
            },
            SnapshotState::Morris { exponent: 12 },
            SnapshotState::MinRegister { minimum: 41 },
        ];
        for state in &states {
            let mut buf = Vec::new();
            state.encode_into(&mut buf);
            buf.extend_from_slice(b"trailer");
            let mut body = buf.as_slice();
            let back = SnapshotState::decode_from(state.kind(), &mut body).unwrap();
            assert_eq!(&back, state);
            assert_eq!(body, b"trailer");
        }
    }

    #[test]
    fn decode_refuses_lying_lengths_without_allocating() {
        // CM header claiming a huge matrix over a tiny body.
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        let mut body = buf.as_slice();
        assert_eq!(
            SnapshotState::decode_from(ObjectKind::CountMin, &mut body),
            Err(SHORT_BODY)
        );
        // HLL register count beyond the bytes present.
        let mut buf = Vec::new();
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&100u32.to_le_bytes());
        buf.extend_from_slice(&[1, 2, 3]);
        let mut body = buf.as_slice();
        assert_eq!(
            SnapshotState::decode_from(ObjectKind::Hll, &mut body),
            Err(SHORT_BODY)
        );
    }

    #[test]
    fn merge_adds_or_joins_cells_and_refuses_mismatches() {
        let a = cm(vec![1, 0, 2, 3, 0, 0]);
        let mut add = cm(vec![4, 1, 0, 0, 2, 0]);
        a.merge_into(&mut add, MergePolicy::Add).unwrap();
        assert_eq!(add, cm(vec![5, 1, 2, 3, 2, 0]));
        let mut join = cm(vec![4, 1, 0, 0, 2, 0]);
        a.merge_into(&mut join, MergePolicy::Join).unwrap();
        assert_eq!(join, cm(vec![4, 1, 2, 3, 2, 0]));

        let mut wrong_fp = cm(vec![0; 6]);
        if let SnapshotState::CountMin { hash_fp, .. } = &mut wrong_fp {
            *hash_fp = 1;
        }
        assert!(a.merge_into(&mut wrong_fp, MergePolicy::Add).is_err());
        let mut wrong_kind = SnapshotState::Morris { exponent: 0 };
        let err = a.merge_into(&mut wrong_kind, MergePolicy::Add).unwrap_err();
        assert_eq!(
            err.to_string(),
            "kind, dimensions or coins do not match: \
             CountMin { width: 3, depth: 2, hash_fp: 65261 } against Morris"
        );
    }

    #[test]
    fn apply_change_patches_and_reports_old_and_new_values() {
        let mut cache = cm(vec![1, 2, 3, 4, 5, 6]);
        let patch = cache
            .apply_change(DeltaChange::CmRuns {
                base_epoch: 1,
                runs: vec![CellRun {
                    row: 1,
                    lo: 0,
                    len: 3,
                }],
                values: vec![4, 50, 60],
            })
            .unwrap();
        // The re-sent but unmoved cell (index 3) reports nothing.
        assert_eq!(patch, StatePatch::CmCells(vec![(4, 5, 50), (5, 6, 60)]));
        assert_eq!(cache, cm(vec![1, 2, 3, 4, 50, 60]));
        let run = |row, len| CellRun { row, lo: 0, len };
        for (runs, values) in [
            (vec![run(2, 1)], vec![1]),          // row out of bounds
            (vec![run(1, 4)], vec![1, 1, 1, 1]), // past the row's end
            (vec![run(0, 2)], vec![1]),          // fewer values than the runs claim
            (vec![run(0, 1)], vec![1, 2]),       // more values than the runs claim
        ] {
            let change = DeltaChange::CmRuns {
                base_epoch: 1,
                runs,
                values,
            };
            assert!(cache.apply_change(change).is_err());
        }

        let mut hll = SnapshotState::Hll {
            hash_fp: 0,
            registers: vec![1, 2, 3, 4],
        };
        // Cell runs patch only a CountMin cache.
        assert!(hll
            .apply_change(DeltaChange::CmRuns {
                base_epoch: 1,
                runs: Vec::new(),
                values: Vec::new(),
            })
            .is_err());
        assert!(matches!(
            hll.apply_change(DeltaChange::Full(SnapshotState::Morris { exponent: 1 })),
            Ok(StatePatch::Replaced)
        ));
    }

    #[test]
    fn state_summaries_are_one_line_per_kind() {
        let lines = [
            cm(vec![0, 2, 0, 0, 5, 0]),
            SnapshotState::Hll {
                hash_fp: 9,
                registers: vec![0, 3, 1, 0],
            },
            SnapshotState::Morris { exponent: 12 },
            SnapshotState::MinRegister { minimum: 41 },
            SnapshotState::MinRegister { minimum: u64::MAX },
        ]
        .map(|state| (state.to_string(), state.cell_count()));
        assert_eq!(
            lines,
            [
                (
                    "CountMin 2x3 (2 nonzero cells, fingerprint 0x000000000000feed)".into(),
                    6
                ),
                (
                    "HLL (4 registers, 2 set, fingerprint 0x0000000000000009)".into(),
                    4
                ),
                ("Morris exponent 12".into(), 1),
                ("min register, minimum 41".into(), 1),
                ("min register, empty".into(), 1),
            ]
        );
    }

    #[test]
    fn merge_states_folds_and_refuses_empty() {
        let a = cm(vec![1, 0, 0, 0, 0, 0]);
        let b = cm(vec![0, 2, 0, 0, 0, 0]);
        let c = cm(vec![0, 0, 3, 0, 0, 0]);
        let merged = merge_states(MergePolicy::Add, &[&a, &b, &c]).unwrap();
        assert_eq!(merged, cm(vec![1, 2, 3, 0, 0, 0]));
        assert!(merge_states(MergePolicy::Add, &[]).is_err());
    }
}
