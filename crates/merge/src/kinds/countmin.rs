//! The CountMin kind: a `depth × width` cell matrix, the Theorem 6
//! frequency envelope, and the only sparse deltas on the wire.
//!
//! The server's sketch is the sharded `PCM(c̄)` — IVL but not
//! linearizable. Theorem 6 is what makes a *served* estimate meaningful
//! despite concurrency: an IVL implementation of a sequential
//! (ε,δ)-bounded object is itself (ε,δ)-bounded, with the sequential
//! error bound read against `v_min` (the object's value over completed
//! updates when the query starts) and `v_max` (its value over invoked
//! updates when the query ends). For CountMin that instantiates to
//!
//! * `estimate ≥ f_start` always — CountMin never underestimates, and
//!   by IVL the estimate dominates some state containing every update
//!   completed before the query began;
//! * `estimate ≤ f_end + ε` with probability at least `1 − δ`, where
//!   `ε = α·n` and `n` is the total stream weight at the query's end.
//!
//! With write buffering enabled (Lemma 10's batched-counter
//! construction, DESIGN §9) the server additionally widens the envelope
//! by a deterministic `lag ≤ n_writers·b`: an acknowledged update may
//! sit invisible in a writer's local buffer, so the lower guarantee
//! relaxes to `estimate ≥ f_start − lag`. Queries on an unbuffered
//! server carry `lag = 0` and recover the strict envelope exactly.

use super::Kind;
use crate::{
    fp_mix, put_u64s, take_f64, take_u32, take_u64, CellRun, ComposeError, ErrorEnvelope,
    MergeError, MergePolicy, SnapshotState, StatePatch, StateShape, FP_PROBES, SHORT_BODY,
};
use ivl_sketch::countmin::CountMinParams;
use ivl_sketch::hash::PairwiseHash;
use ivl_sketch::CoinFlips;
use std::fmt;

/// The CountMin [`Kind`].
#[derive(Clone, Copy, Debug)]
pub struct CountMinKind;

/// A frequency estimate together with its Theorem 6 (ε,δ) bound,
/// widened by the deferred-visibility `lag` when write buffering is
/// enabled (Lemma 10, DESIGN §9). It ships `(estimate, ε, δ, n, lag)`
/// so the client can reconstruct the guarantee without knowing the
/// sketch's dimensions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Envelope {
    /// The queried item.
    pub key: u64,
    /// The served point estimate.
    pub estimate: u64,
    /// Absolute error bound `⌈α·n⌉` at the query's stream length.
    pub epsilon: u64,
    /// Failure probability of the upper bound.
    pub delta: f64,
    /// Total stream weight observed by the server (an IVL read of the
    /// ingest counter, so itself an intermediate value).
    pub stream_len: u64,
    /// The sketch's relative-error parameter `α` (`ε = α·n`).
    pub alpha: f64,
    /// Deferred-visibility bound: at most this much acknowledged
    /// weight may still be invisible in writer-local buffers
    /// (`n_writers·b`; 0 when write buffering is off).
    pub lag: u64,
}

impl Envelope {
    /// Builds the envelope for `estimate` of `key` at stream length
    /// `stream_len`, under sketch parameters `(alpha, delta)`, with a
    /// deferred-visibility bound of `lag` (0 when the server applies
    /// every update before acknowledging it).
    pub fn new(key: u64, estimate: u64, stream_len: u64, alpha: f64, delta: f64, lag: u64) -> Self {
        Envelope {
            key,
            estimate,
            epsilon: (alpha * stream_len as f64).ceil() as u64,
            delta,
            stream_len,
            alpha,
            lag,
        }
    }

    /// Smallest true frequency compatible with the envelope's upper
    /// bound: `max(0, estimate − ε)`.
    pub fn lower_bound(&self) -> u64 {
        self.estimate.saturating_sub(self.epsilon)
    }

    /// Largest completed frequency compatible with the envelope:
    /// `estimate + lag`. Without buffering this is the estimate itself
    /// — CountMin never underestimates; with buffering, up to `lag`
    /// acknowledged weight may still be pending in writer buffers.
    pub fn upper_bound(&self) -> u64 {
        self.estimate.saturating_add(self.lag)
    }

    /// The Theorem 6 check for a concurrent query: `f_start` is the
    /// key's true frequency over updates *completed* before the query
    /// was invoked, `f_end` over updates *invoked* before it returned.
    /// Deterministically `estimate ≥ f_start − lag` (Lemma 10 widens
    /// the lower guarantee by the buffered weight; `lag = 0` recovers
    /// `estimate ≥ f_start`); with probability `1 − δ`,
    /// `estimate ≤ f_end + ε`. Returns whether the served envelope
    /// satisfies both.
    pub fn covers(&self, f_start: u64, f_end: u64) -> bool {
        f_start <= self.upper_bound() && self.estimate <= f_end.saturating_add(self.epsilon)
    }

    /// Appends the frequency fields (little-endian; the floats as
    /// IEEE-754 bit patterns): what follows the kind tag.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64s(
            out,
            &[
                self.key,
                self.estimate,
                self.epsilon,
                self.stream_len,
                self.alpha.to_bits(),
                self.delta.to_bits(),
                self.lag,
            ],
        );
    }

    /// Decodes the frequency fields from the front of `body`, consuming
    /// exactly the encoded bytes.
    pub(crate) fn decode_from(body: &mut &[u8]) -> Result<Self, &'static str> {
        Ok(Envelope {
            key: take_u64(body)?,
            estimate: take_u64(body)?,
            epsilon: take_u64(body)?,
            stream_len: take_u64(body)?,
            alpha: take_f64(body)?,
            delta: take_f64(body)?,
            lag: take_u64(body)?,
        })
    }
}

impl ErrorEnvelope {
    /// The Theorem 6 frequency envelope, when this is one.
    pub fn frequency(&self) -> Option<&Envelope> {
        match self {
            ErrorEnvelope::Frequency(env) => Some(env),
            _ => None,
        }
    }
}

/// A u64 fingerprint of a CountMin's row hash functions, computed by
/// hashing the fixed probe keys through every row. Snapshots carry it
/// so a merging peer can refuse mismatched coins with a typed error
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

/// What a CountMin's coins fix: its dimensions and row hashes, with no
/// cells — all a merged read needs to locate a key's cells, and all a
/// served CountMin needs beside its shards.
#[derive(Clone, Debug, PartialEq)]
pub struct CountMinHashes {
    /// The sketch dimensions.
    pub params: CountMinParams,
    /// One hash per row, drawn by [`CountMinParams::draw_hashes`].
    pub hashes: Vec<PairwiseHash>,
}

/// The row hashes `coins` sample at `params`, with their shape — the
/// one construction a served CountMin and a replica group's seed check
/// share. It draws the coins [`CountMin::new`] would, in the same order.
///
/// [`CountMin::new`]: ivl_sketch::countmin::CountMin::new
pub fn seeded_count_min(
    params: CountMinParams,
    coins: &mut CoinFlips,
) -> (StateShape, CountMinHashes) {
    let hashes = params.draw_hashes(coins);
    let shape = StateShape::CountMin {
        width: params.width as u32,
        depth: params.depth as u32,
        hash_fp: cm_hash_fingerprint(&hashes),
    };
    (shape, CountMinHashes { params, hashes })
}

/// The CountMin variant's `(width, depth, hash_fp, cells)`; the enums
/// hand this kind no other.
fn fields(state: &SnapshotState) -> (u32, u32, u64, &[u64]) {
    let SnapshotState::CountMin {
        width,
        depth,
        hash_fp,
        cells,
    } = state
    else {
        unreachable!("dispatched on its kind")
    };
    (*width, *depth, *hash_fp, cells)
}

/// The CountMin variant's `(width, depth, cells)`, for a patch.
fn cells_mut(state: &mut SnapshotState) -> (usize, usize, &mut Vec<u64>) {
    let SnapshotState::CountMin {
        width,
        depth,
        cells,
        ..
    } = state
    else {
        unreachable!("dispatched on its kind")
    };
    (*width as usize, *depth as usize, cells)
}

fn freq(envelope: &ErrorEnvelope) -> &Envelope {
    envelope.frequency().expect("dispatched on its kind")
}

impl Kind for CountMinKind {
    const NAMES: &'static [&'static str] = &["cm", "countmin", "count-min"];
    type State = SnapshotState;
    type Shape = StateShape;
    type Envelope = ErrorEnvelope;
    /// The row hashes that locate a key's cells.
    type Proto = CountMinHashes;

    fn shape(state: &SnapshotState) -> StateShape {
        let (width, depth, hash_fp, _) = fields(state);
        StateShape::CountMin {
            width,
            depth,
            hash_fp,
        }
    }

    /// Copies of disjoint substreams add cell-wise; copies of one
    /// stream join by cell-wise max.
    fn merge(part: &SnapshotState, target: &mut SnapshotState, policy: MergePolicy) {
        for (t, &c) in cells_mut(target).2.iter_mut().zip(fields(part).3) {
            *t = match policy {
                MergePolicy::Add => t.saturating_add(c),
                MergePolicy::Join => (*t).max(c),
            };
        }
    }

    /// `Add`: merged cells are cell-wise sums, so the merged estimate is
    /// at most the sum of part estimates and at least the union
    /// frequency. Summing `epsilon` terms is the union bound over the
    /// parts' (ε,δ) events (`⌈αΣnᵢ⌉ ≤ Σ⌈αnᵢ⌉`), `delta` adds (capped at
    /// 1), and `stream_len`/`lag` add because the substreams and writer
    /// sets are disjoint. `Join`: merged cells are cell-wise maxima of
    /// copies that share their hash functions, so they never pass the
    /// cells of one sketch over the whole stream — the parts share one
    /// (ε,δ) event, and every term takes its max. Parts must agree on
    /// `key` and `alpha`.
    fn compose(
        acc: ErrorEnvelope,
        part: &ErrorEnvelope,
        policy: MergePolicy,
    ) -> Result<ErrorEnvelope, ComposeError> {
        let (acc, env) = (*freq(&acc), freq(part));
        if env.key != acc.key {
            return Err(ComposeError::ParamMismatch("key"));
        }
        if env.alpha != acc.alpha {
            return Err(ComposeError::ParamMismatch("alpha"));
        }
        let law = |a: u64, b: u64| policy.fold(a, b);
        Ok(ErrorEnvelope::Frequency(Envelope {
            estimate: law(acc.estimate, env.estimate),
            epsilon: law(acc.epsilon, env.epsilon),
            delta: match policy {
                MergePolicy::Add => (acc.delta + env.delta).min(1.0),
                MergePolicy::Join => acc.delta.max(env.delta),
            },
            stream_len: law(acc.stream_len, env.stream_len),
            lag: law(acc.lag, env.lag),
            ..acc
        }))
    }

    fn observed(envelope: &ErrorEnvelope) -> u64 {
        freq(envelope).stream_len
    }

    fn value(envelope: &ErrorEnvelope) -> u64 {
        freq(envelope).estimate
    }

    fn cells(state: &SnapshotState) -> usize {
        fields(state).3.len()
    }

    fn encode_state(state: &SnapshotState, out: &mut Vec<u8>) {
        let (width, depth, hash_fp, cells) = fields(state);
        out.extend_from_slice(&width.to_le_bytes());
        out.extend_from_slice(&depth.to_le_bytes());
        out.extend_from_slice(&hash_fp.to_le_bytes());
        // No cell-count field: the count is `width * depth`.
        put_u64s(out, cells);
    }

    fn decode_state(body: &mut &[u8]) -> Result<SnapshotState, &'static str> {
        let width = take_u32(body)?;
        let depth = take_u32(body)?;
        let hash_fp = take_u64(body)?;
        let cells_len = width as u64 * depth as u64;
        // Cross-check the claimed dimensions against the bytes actually
        // present before allocating.
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

    fn encode_envelope(envelope: &ErrorEnvelope, out: &mut Vec<u8>) {
        freq(envelope).encode_into(out);
    }

    fn decode_envelope(body: &mut &[u8]) -> Result<ErrorEnvelope, &'static str> {
        Envelope::decode_from(body).map(ErrorEnvelope::Frequency)
    }

    fn fmt_state(state: &SnapshotState, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (width, depth, hash_fp, cells) = fields(state);
        let nonzero = cells.iter().filter(|&&c| c != 0).count();
        write!(
            f,
            "CountMin {depth}x{width} ({nonzero} nonzero cells, fingerprint {hash_fp:#018x})"
        )
    }

    fn fmt_envelope(envelope: &ErrorEnvelope, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let env = freq(envelope);
        write!(
            f,
            "frequency of key {}: estimate {} (true frequency in [{}, {}] w.p. >= {:.3}; \
             epsilon {} = ceil({:.4} * {}), write-buffer lag {})",
            env.key,
            env.estimate,
            env.lower_bound(),
            env.upper_bound(),
            1.0 - env.delta,
            env.epsilon,
            env.alpha,
            env.stream_len,
            env.lag
        )
    }

    fn seed(
        shape: &StateShape,
        coins: &mut CoinFlips,
    ) -> Result<(StateShape, CountMinHashes), MergeError> {
        let &StateShape::CountMin { width, depth, .. } = shape else {
            unreachable!("dispatched on its kind")
        };
        let params = CountMinParams {
            width: width as usize,
            depth: depth as usize,
        };
        Ok(seeded_count_min(params, coins))
    }

    /// The point estimate of `key` over the merged cells: the minimum of
    /// its cell in every row.
    fn answer(
        proto: &mut CountMinHashes,
        merged: &SnapshotState,
        _moved: bool,
        key: Option<u64>,
        envelope: &mut ErrorEnvelope,
    ) {
        let ErrorEnvelope::Frequency(env) = envelope else {
            unreachable!("dispatched on its kind")
        };
        let cells = fields(merged).3;
        let width = proto.params.width;
        env.key = key.unwrap_or(0);
        env.estimate = key.map_or(0, |k| {
            proto
                .hashes
                .iter()
                .enumerate()
                .map(|(row, h)| cells[row * width + h.hash(k)])
                .min()
                .unwrap_or(0)
        });
    }

    /// Unseen weight may be missing from the estimate (`lag`); in-doubt
    /// weight may also be counted twice (`ε`).
    fn widen(envelope: &mut ErrorEnvelope, unseen: u64, doubt: u64) {
        if let ErrorEnvelope::Frequency(env) = envelope {
            env.lag = env.lag.saturating_add(unseen);
            env.epsilon = env.epsilon.saturating_add(doubt);
        }
    }

    fn apply_runs(
        state: &mut SnapshotState,
        runs: &[CellRun],
        values: &[u64],
    ) -> Result<StatePatch, MergeError> {
        let (width, depth, cells) = cells_mut(state);
        if runs.iter().map(|r| r.len as usize).sum::<usize>() != values.len() {
            return Err(MergeError::new("delta runs and values disagree"));
        }
        // Typically one cell per run, and it moved.
        let mut patched = Vec::with_capacity(runs.len());
        for (run, new) in CellRun::zip_values(runs, values) {
            let (row, lo) = (run.row as usize, run.lo as usize);
            if row >= depth || lo + new.len() > width {
                return Err(MergeError::new("delta run out of bounds"));
            }
            // A cell re-sent unchanged (one touched twice since the base
            // arrives twice) has nothing to report.
            let at = row * width + lo;
            for (k, (cell, &value)) in cells[at..][..new.len()].iter_mut().zip(new).enumerate() {
                if *cell != value {
                    patched.push((at + k, *cell, value));
                    *cell = value;
                }
            }
        }
        Ok(StatePatch::CmCells(patched))
    }

    fn fold_cells(
        state: &mut SnapshotState,
        moved: &[(usize, u64, u64)],
        policy: MergePolicy,
    ) -> Result<(), MergeError> {
        let cells = cells_mut(state).2;
        for &(idx, old, new) in moved {
            let cell = cells
                .get_mut(idx)
                .filter(|_| new >= old)
                .ok_or_else(|| MergeError::new("cell patch out of bounds or downward"))?;
            // The cache's cell rose by `new - old`: a sum rises by as
            // much, a max to at least `new`.
            *cell = match policy {
                MergePolicy::Add => cell.saturating_add(new - old),
                MergePolicy::Join => (*cell).max(new),
            };
        }
        Ok(())
    }
}
