//! The served kinds, one file each: a kind's served object over its
//! concurrent core, its writer, its sequential spec and its
//! `check_projection` verdict. The registry builds an object of any
//! kind through [`Serve`], implemented for each `ivl-merge` [`Kind`]
//! (the algebra of the object's state and envelope lives there).
//!
//! [`Kind`]: ivl_merge::Kind

use crate::metrics::ObjectStats;
use crate::objects::{ObjectWriter, Refusal, ServedObject};
use crate::ErrorEnvelope;
use ivl_merge::{DeltaChange, MergeError, SnapshotState};
use ivl_sketch::CoinFlips;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

pub(crate) mod countmin;
mod hll;
mod min;
mod morris;

pub use countmin::ServedCountMin;
pub use hll::{HllSumSpec, ServedHll, HLL_PRECISION};
pub use min::{ServedMinRegister, ServedMinSpec};
pub use morris::{AckCounterSpec, ServedMorris, MORRIS_A, MORRIS_MAX_EVENTS_PER_UPDATE};

/// The server configuration a served object is built from.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ServeParams {
    /// CountMin relative error `α`.
    pub alpha: f64,
    /// CountMin failure probability `δ`.
    pub delta: f64,
    /// Single-writer shards per CountMin.
    pub shards: usize,
    /// Write-buffer batch `b` (0 = strict).
    pub write_buffer: u64,
}

/// A kind the registry can serve.
pub(crate) trait Serve {
    /// A fresh object of this kind drawing its hashes from `coins`.
    fn serve(params: &ServeParams, coins: CoinFlips) -> Box<dyn ServedObject>;
}

/// Per-object operation counters shared by every [`ServedObject`]
/// implementation.
#[derive(Debug, Default)]
pub(crate) struct OpCounters {
    updates: AtomicU64,
    queries: AtomicU64,
    pub(crate) observed: AtomicU64,
}

impl OpCounters {
    /// Accounts `n` updates of `weight` total observed weight, whether
    /// for one update or a whole batch frame.
    pub(crate) fn note_updates(&self, n: u64, weight: u64) {
        self.updates.fetch_add(n, Ordering::Relaxed);
        self.note_absorbed(weight);
    }

    /// Catch-up accounting: absorbed weight raises `observed` (the
    /// envelope's acknowledged-weight field) without counting as an
    /// update operation — the peer already counted those updates.
    /// Saturates at `u64::MAX`, like every add a client-chosen weight
    /// reaches.
    pub(crate) fn note_absorbed(&self, weight: u64) {
        let _ = self
            .observed
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |o| {
                Some(o.saturating_add(weight))
            });
    }

    pub(crate) fn note_query(&self) {
        self.queries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn stats(&self) -> ObjectStats {
        ObjectStats {
            id: 0, // filled by the registry
            updates: self.updates.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            observed: self.observed.load(Ordering::Relaxed),
        }
    }
}

/// The reply of a kind whose whole state is one scalar that is its own
/// epoch: `Unchanged` when the client's cache holds it, the state
/// otherwise.
pub(crate) fn scalar_reply(
    base: Option<u64>,
    epoch: u64,
    state: SnapshotState,
    envelope: ErrorEnvelope,
) -> (u64, DeltaChange, ErrorEnvelope) {
    let change = if base == Some(epoch) {
        DeltaChange::Unchanged
    } else {
        DeltaChange::Full(state)
    };
    (epoch, change, envelope)
}

/// Shared writer shape for the wait-free objects: updates go straight
/// to the shared atomics, no lease, no buffer, never busy.
pub(crate) trait AtomicApply: ServedObject {
    /// Applies one update to the shared object.
    fn apply_one(&self, key: u64, weight: u64);

    /// Absorbs a peer's pushed state of this object's own shape into
    /// the shared object and credits the `observed` weight it covers,
    /// refusing every other shape.
    fn absorb_state(&self, state: &SnapshotState, observed: u64) -> Result<(), MergeError>;
}

pub(crate) struct AtomicWriter<'a, T: AtomicApply + ?Sized> {
    pub(crate) obj: &'a T,
}

impl<T: AtomicApply + ?Sized> fmt::Debug for AtomicWriter<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AtomicWriter").finish_non_exhaustive()
    }
}

impl<T: AtomicApply + ?Sized> ObjectWriter for AtomicWriter<'_, T> {
    fn ensure_ready(&mut self) -> Result<(), Refusal> {
        Ok(())
    }

    fn apply_batch(&mut self, items: &[(u64, u64)]) {
        for &(key, weight) in items {
            self.obj.apply_one(key, weight);
        }
    }

    fn absorb(&mut self, state: &SnapshotState, observed: u64) -> Result<(), MergeError> {
        self.obj.absorb_state(state, observed)
    }

    fn flush(&mut self) {}

    fn release(&mut self) -> bool {
        false
    }
}
