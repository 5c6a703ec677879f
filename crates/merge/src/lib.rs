//! `ivl-merge`: the kind algebra shared by the serving and replication
//! subsystems — for each quantitative kind, one home for its state, its
//! envelope, their byte layouts, and their merge and compose laws.
//!
//! The served sketches are **mergeable summaries** (the algebra *Fast
//! Concurrent Data Sketches* builds on): CountMin cell matrices add
//! cell-wise, HyperLogLog registers max register-wise, Morris exponents
//! and min registers join as scalars, so independently grown copies
//! combine into one summary of the union (or, mirrored, of the common
//! stream). Theorem 6 transfers each sequential (ε,δ) bound to the
//! concurrent object and Theorem 1 makes the argument per object, so
//! each kind needs one state, one envelope, one codec and one law:
//!
//! * [`SnapshotState`] — the kind-tagged state, with
//!   [`CellRun`]/[`DeltaChange`] as its sparse-delta vocabulary.
//! * [`MergeableState`] — the state algebra: `encode_into`/`decode_from`
//!   (the exact wire schema of the snapshot frames), `merge_into` (the
//!   summary join, under a [`MergePolicy`]) and `apply_change` (delta
//!   application against a cached copy).
//! * [`envelope`] — [`ErrorEnvelope`], the per-kind guarantee every
//!   answer carries: its wire body, on the same readers ([`take_u64`]
//!   and kin) as the state codec, and [`ErrorEnvelope::compose`], the
//!   envelope counterpart of `merge_into`.
//! * [`cm_hash_fingerprint`]/[`hll_hash_fingerprint`]/[`slot_coins`] —
//!   the coin discipline that makes merging safe: state is only combined
//!   when both sides provably sampled the same hash functions, and a
//!   mismatch is a typed [`MergeError`] (the wire's `MergeMismatch`).
//!
//! Everything here is sequential and allocation-explicit. The
//! concurrent absorb paths live with the live structures: a served
//! object takes its own [`SnapshotState`] variant and refuses every
//! other kind with a [`MergeError`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use ivl_sketch::hash::PairwiseHash;
use ivl_sketch::hll::HyperLogLog;
use ivl_sketch::CoinFlips;
use std::fmt;

pub mod envelope;

pub use envelope::{ComposeError, Envelope, ErrorEnvelope};

/// The kinds of quantitative objects the server can register. The
/// discriminant is the wire tag used by kind-tagged envelope frames
/// and the `OBJECTS` listing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObjectKind {
    /// Sharded CountMin frequency sketch (the original served object).
    CountMin,
    /// Concurrent HyperLogLog cardinality sketch.
    Hll,
    /// Concurrent Morris approximate counter.
    Morris,
    /// Concurrent min register (antitone).
    MinRegister,
}

impl ObjectKind {
    /// Wire tag of this kind.
    pub fn to_u8(self) -> u8 {
        match self {
            ObjectKind::CountMin => 0,
            ObjectKind::Hll => 1,
            ObjectKind::Morris => 2,
            ObjectKind::MinRegister => 3,
        }
    }

    /// Parses a wire tag.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(ObjectKind::CountMin),
            1 => Some(ObjectKind::Hll),
            2 => Some(ObjectKind::Morris),
            3 => Some(ObjectKind::MinRegister),
            _ => None,
        }
    }
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ObjectKind::CountMin => "cm",
            ObjectKind::Hll => "hll",
            ObjectKind::Morris => "morris",
            ObjectKind::MinRegister => "min",
        })
    }
}

impl std::str::FromStr for ObjectKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cm" | "countmin" | "count-min" => Ok(ObjectKind::CountMin),
            "hll" => Ok(ObjectKind::Hll),
            "morris" => Ok(ObjectKind::Morris),
            "min" | "min-register" => Ok(ObjectKind::MinRegister),
            other => Err(format!(
                "unknown object kind {other:?} (want cm|hll|morris|min)"
            )),
        }
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

impl SnapshotState {
    /// How many cells the state ships: CountMin cells, HLL registers,
    /// or the one scalar of a Morris counter or min register.
    pub fn cell_count(&self) -> usize {
        match self {
            SnapshotState::CountMin { cells, .. } => cells.len(),
            SnapshotState::Hll { registers, .. } => registers.len(),
            SnapshotState::Morris { .. } | SnapshotState::MinRegister { .. } => 1,
        }
    }
}

/// A one-line summary of the state — its shape, how much of it is set,
/// and the coin fingerprint that guards its merges — not its cells.
impl fmt::Display for SnapshotState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotState::CountMin {
                width,
                depth,
                hash_fp,
                cells,
            } => {
                let nonzero = cells.iter().filter(|&&c| c != 0).count();
                write!(
                    f,
                    "CountMin {depth}x{width} ({nonzero} nonzero cells, fingerprint {hash_fp:#018x})"
                )
            }
            SnapshotState::Hll { hash_fp, registers } => {
                let set = registers.iter().filter(|&&r| r != 0).count();
                write!(
                    f,
                    "HLL ({} registers, {set} set, fingerprint {hash_fp:#018x})",
                    registers.len()
                )
            }
            SnapshotState::Morris { exponent } => write!(f, "Morris exponent {exponent}"),
            SnapshotState::MinRegister { minimum: u64::MAX } => write!(f, "min register, empty"),
            SnapshotState::MinRegister { minimum } => {
                write!(f, "min register, minimum {minimum}")
            }
        }
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
                    for cell in cells {
                        out.extend_from_slice(&cell.to_le_bytes());
                    }
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
const FP_PROBES: [u64; 8] = [
    0,
    1,
    0x5bd1_e995,
    0x0b1e_c7ed,
    u64::MAX / 3,
    u64::MAX / 2,
    u64::MAX - 1,
    u64::MAX,
];

fn fp_mix(acc: u64, v: u64) -> u64 {
    // splitmix64-style finalizer: order-sensitive, avalanching.
    let mut x = acc.wrapping_add(v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^ (x >> 27)
}

/// A u64 fingerprint of a CountMin's row hash functions, computed by
/// hashing [`FP_PROBES`] through every row. Snapshots carry it so a
/// merging peer can refuse mismatched coins with a typed error
/// instead of silently adding cells that count different things.
pub fn cm_hash_fingerprint(hashes: &[PairwiseHash]) -> u64 {
    let mut acc = fp_mix(0x1dea_c0de, hashes.len() as u64);
    for h in hashes {
        for probe in FP_PROBES {
            acc = fp_mix(acc, h.hash(probe) as u64);
        }
    }
    acc
}

/// A u64 fingerprint of an HLL's routing hash (bucket and rank of
/// every [`FP_PROBES`] key) — the HLL counterpart of
/// [`cm_hash_fingerprint`].
pub fn hll_hash_fingerprint(hll: &HyperLogLog) -> u64 {
    let mut acc = fp_mix(0xca8d_117a, hll.num_registers() as u64);
    for probe in FP_PROBES {
        let (bucket, rank) = hll.route(probe);
        acc = fp_mix(acc, ((bucket as u64) << 8) | rank as u64);
    }
    acc
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

/// The mergeable-summary algebra, tied to a wire schema.
///
/// One implementation ships ([`SnapshotState`]); the trait names the
/// contract the servers, the codec, and the replica group all rely on:
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
        match self {
            SnapshotState::CountMin {
                width,
                depth,
                hash_fp,
                cells,
            } => {
                out.extend_from_slice(&width.to_le_bytes());
                out.extend_from_slice(&depth.to_le_bytes());
                out.extend_from_slice(&hash_fp.to_le_bytes());
                // No cell-count field: the count is `width * depth`.
                for &cell in cells {
                    out.extend_from_slice(&cell.to_le_bytes());
                }
            }
            SnapshotState::Hll { hash_fp, registers } => {
                out.extend_from_slice(&hash_fp.to_le_bytes());
                out.extend_from_slice(&(registers.len() as u32).to_le_bytes());
                out.extend_from_slice(registers);
            }
            SnapshotState::Morris { exponent } => {
                out.extend_from_slice(&exponent.to_le_bytes());
            }
            SnapshotState::MinRegister { minimum } => {
                out.extend_from_slice(&minimum.to_le_bytes());
            }
        }
    }

    fn decode_from(kind: ObjectKind, body: &mut &[u8]) -> Result<Self, &'static str> {
        match kind {
            ObjectKind::CountMin => {
                let width = take_u32(body)?;
                let depth = take_u32(body)?;
                let hash_fp = take_u64(body)?;
                let cells_len = width as u64 * depth as u64;
                // Cross-check the claimed dimensions against the bytes
                // actually present before allocating.
                if cells_len > (body.len() / 8) as u64 {
                    return Err(SHORT_BODY);
                }
                let mut cells = Vec::with_capacity(cells_len as usize);
                for _ in 0..cells_len {
                    cells.push(take_u64(body)?);
                }
                Ok(SnapshotState::CountMin {
                    width,
                    depth,
                    hash_fp,
                    cells,
                })
            }
            ObjectKind::Hll => {
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
            ObjectKind::Morris => Ok(SnapshotState::Morris {
                exponent: take_u32(body)?,
            }),
            ObjectKind::MinRegister => Ok(SnapshotState::MinRegister {
                minimum: take_u64(body)?,
            }),
        }
    }

    fn merge_into(&self, target: &mut Self, policy: MergePolicy) -> Result<(), MergeError> {
        match (self, target) {
            (
                SnapshotState::CountMin {
                    width,
                    depth,
                    hash_fp,
                    cells,
                },
                SnapshotState::CountMin {
                    width: tw,
                    depth: td,
                    hash_fp: tf,
                    cells: tc,
                },
            ) => {
                if (width, depth, hash_fp) != (tw, td, tf) {
                    return Err(MergeError::new(
                        "replica CountMin dimensions or coins disagree",
                    ));
                }
                for (t, &c) in tc.iter_mut().zip(cells) {
                    match policy {
                        MergePolicy::Add => *t = t.saturating_add(c),
                        MergePolicy::Join => *t = (*t).max(c),
                    }
                }
                Ok(())
            }
            (
                SnapshotState::Hll { hash_fp, registers },
                SnapshotState::Hll {
                    hash_fp: tf,
                    registers: tr,
                },
            ) => {
                if hash_fp != tf || registers.len() != tr.len() {
                    return Err(MergeError::new("replica HLL precision or coins disagree"));
                }
                // Register max under either policy: both copies hold
                // max-ranks, and max is the union summary.
                for (t, &r) in tr.iter_mut().zip(registers) {
                    *t = (*t).max(r);
                }
                Ok(())
            }
            (SnapshotState::Morris { exponent }, SnapshotState::Morris { exponent: te }) => {
                *te = (*te).max(*exponent);
                Ok(())
            }
            (
                SnapshotState::MinRegister { minimum },
                SnapshotState::MinRegister { minimum: tm },
            ) => {
                *tm = (*tm).min(*minimum);
                Ok(())
            }
            _ => Err(MergeError::new("kind tag and state disagree")),
        }
    }

    fn apply_change(&mut self, change: DeltaChange) -> Result<StatePatch, MergeError> {
        match change {
            DeltaChange::Unchanged => Ok(StatePatch::Unchanged),
            DeltaChange::Full(state) => {
                *self = state;
                Ok(StatePatch::Replaced)
            }
            DeltaChange::CmRuns { runs, values, .. } => {
                let SnapshotState::CountMin {
                    width,
                    depth,
                    cells,
                    ..
                } = self
                else {
                    return Err(MergeError::new("CountMin runs for a non-CountMin cache"));
                };
                let (width, depth) = (*width as usize, *depth as usize);
                if runs.iter().map(|r| r.len as usize).sum::<usize>() != values.len() {
                    return Err(MergeError::new("delta runs and values disagree"));
                }
                // Typically one cell per run, and it moved.
                let mut patched = Vec::with_capacity(runs.len());
                for (run, new) in CellRun::zip_values(&runs, &values) {
                    let (row, lo) = (run.row as usize, run.lo as usize);
                    if row >= depth || lo + new.len() > width {
                        return Err(MergeError::new("delta run out of bounds"));
                    }
                    // A cell re-sent unchanged (one touched twice since
                    // the base arrives twice) has nothing to report.
                    let at = row * width + lo;
                    for (k, (cell, &value)) in
                        cells[at..][..new.len()].iter_mut().zip(new).enumerate()
                    {
                        if *cell != value {
                            patched.push((at + k, *cell, value));
                            *cell = value;
                        }
                    }
                }
                Ok(StatePatch::CmCells(patched))
            }
        }
    }

    fn fold_patch(&mut self, patch: &StatePatch, policy: MergePolicy) -> Result<(), MergeError> {
        match (patch, self) {
            (StatePatch::Unchanged, _) => Ok(()),
            (StatePatch::CmCells(moved), SnapshotState::CountMin { cells, .. }) => {
                for &(idx, old, new) in moved {
                    let cell = cells
                        .get_mut(idx)
                        .filter(|_| new >= old)
                        .ok_or_else(|| MergeError::new("cell patch out of bounds or downward"))?;
                    // The cache's cell rose by `new - old`: a sum rises by
                    // as much, a max to at least `new`.
                    *cell = match policy {
                        MergePolicy::Add => cell.saturating_add(new - old),
                        MergePolicy::Join => (*cell).max(new),
                    };
                }
                Ok(())
            }
            _ => Err(MergeError::new("patch cannot fold into this state")),
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
    let mut iter = states.iter();
    let Some(first) = iter.next() else {
        return Err(MergeError::new("no states to merge"));
    };
    let mut merged = (*first).clone();
    for state in iter {
        state.merge_into(&mut merged, policy)?;
    }
    Ok(merged)
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
        assert_eq!(err.to_string(), "kind tag and state disagree");
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
