//! The served CountMin: the sharded `PCM(c̄)` behind single-writer shard
//! leases, with optional write buffering and the Theorem 6 frequency
//! envelope, answering `SNAPSHOT_SINCE` with sparse cell runs.

use super::{OpCounters, Serve, ServeParams};
use crate::metrics::{Metrics, ObjectStats};
use crate::objects::{ObjectWriter, Refusal, ServedObject};
use crate::protocol::{ErrorCode, MAX_BATCH_ITEMS};
use crate::wspec::WeightedCmSpec;
use crate::{Envelope, ErrorEnvelope};
use ivl_concurrent::{BatchScratch, ShardLease, ShardedPcm};
use ivl_counter::{IvlBatchedCounter, SharedBatchedCounter};
use ivl_merge::kinds::{seeded_count_min, CountMinHashes, CountMinKind};
use ivl_merge::{CellRun, DeltaChange, MergeError, ObjectKind, SnapshotState, StateShape};
use ivl_sketch::countmin::{CountMin, CountMinParams};
use ivl_sketch::CoinFlips;
use ivl_spec::history::History;
use ivl_spec::ivl::check_ivl_monotone;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;

/// The sharded CountMin as a served object: everything the pre-registry
/// server kept inline — [`ShardedPcm`], ingest counter, and the
/// write-buffer discipline — behind the [`ServedObject`] interface.
#[derive(Debug)]
pub struct ServedCountMin {
    /// The shape every full state ships and every absorbed one must have.
    shape: StateShape,
    /// The shards' cells and the coin flips' row hashes: the only
    /// width × depth matrices this object holds are the shards'.
    sketch: ShardedPcm,
    /// Stream-weight counter, one single-writer slot per shard.
    ingest: IvlBatchedCounter,
    write_buffer: u64,
    ops: OpCounters,
    /// Bounded ring of recently served `(sum epoch → per-shard epoch
    /// vector)` decompositions. The wire epoch is the *sum* of the
    /// per-shard epochs, but touches are logged per shard, so a delta
    /// against a client base needs the base's decomposition back. Only
    /// the snapshot path locks it — never the ingest path.
    ledger: Mutex<VecDeque<(u64, Vec<u64>)>>,
}

/// How many served snapshot epochs [`ServedCountMin`] remembers the
/// per-shard decomposition of. A client more than this many snapshots
/// behind falls back to a full snapshot.
pub(crate) const SNAPSHOT_LEDGER_CAP: usize = 32;

impl Serve for CountMinKind {
    fn serve(params: &ServeParams, mut coins: CoinFlips) -> Box<dyn ServedObject> {
        Box::new(ServedCountMin::new(
            params.alpha,
            params.delta,
            params.shards,
            params.write_buffer,
            &mut coins,
        ))
    }
}

impl ServedCountMin {
    /// Creates a sharded CountMin for `(alpha, delta)` with `shards`
    /// single-writer shards and write-buffer batch `write_buffer`
    /// (0 = strict).
    pub fn new(
        alpha: f64,
        delta: f64,
        shards: usize,
        write_buffer: u64,
        coins: &mut CoinFlips,
    ) -> Self {
        let (shape, CountMinHashes { params, hashes }) =
            seeded_count_min(CountMinParams::for_bounds(alpha, delta), coins);
        ServedCountMin {
            shape,
            sketch: ShardedPcm::with_hashes(params, hashes, shards),
            ingest: IvlBatchedCounter::new(shards),
            write_buffer,
            ops: OpCounters::default(),
            ledger: Mutex::new(VecDeque::with_capacity(SNAPSHOT_LEDGER_CAP)),
        }
    }

    /// Records a served `(sum epoch, per-shard epochs)` decomposition
    /// so later `SNAPSHOT_SINCE` calls can diff against it, and hands
    /// back the remembered decomposition of `base` (a client's base
    /// epoch), if any — one lock per poll. Concurrent readers can split
    /// one sum differently (each loads the shards at its own instants),
    /// so a repeated sum keeps the component-wise minimum: a delta from
    /// it misses for neither reader's cells.
    pub(crate) fn ledger_exchange(
        &self,
        shard_epochs: Vec<u64>,
        base: Option<u64>,
    ) -> Option<Vec<u64>> {
        let epoch: u64 = shard_epochs.iter().sum();
        let mut ring = self.ledger.lock().expect("ledger mutex");
        if let Some((_, known)) = ring.iter_mut().find(|(e, _)| *e == epoch) {
            for (k, s) in known.iter_mut().zip(shard_epochs) {
                *k = (*k).min(s);
            }
        } else {
            if ring.len() == SNAPSHOT_LEDGER_CAP {
                ring.pop_front();
            }
            ring.push_back((epoch, shard_epochs));
        }
        let base = base?;
        ring.iter()
            .find(|(e, _)| *e == base)
            .map(|(_, v)| v.clone())
    }

    /// The frequency envelope of `estimate` for `key`, read after it:
    /// cells lead the ingest counter on the write side. Snapshots and
    /// deltas serve key and estimate 0 — the receiver queries the
    /// merged state.
    fn envelope(&self, key: u64, estimate: u64) -> ErrorEnvelope {
        let stream_len = self.ingest.read();
        let params = self.sketch.params();
        ErrorEnvelope::Frequency(Envelope::new(
            key,
            estimate,
            stream_len,
            params.alpha(),
            params.delta(),
            self.lag_bound(),
        ))
    }

    /// The whole cell matrix as a mergeable state.
    fn full_state(&self) -> SnapshotState {
        let StateShape::CountMin {
            width,
            depth,
            hash_fp,
        } = self.shape
        else {
            unreachable!("a CountMin has a CountMin shape")
        };
        SnapshotState::CountMin {
            width,
            depth,
            hash_fp,
            cells: self.sketch.cells_snapshot(),
        }
    }

    /// Sparse overwrite runs bringing a cache at `base` — whose
    /// per-shard decomposition is `base_epochs` — up to date, or `None`
    /// when a shard's log lapped the base or sparseness does not pay.
    fn runs_since(&self, base: u64, base_epochs: &[u64]) -> Option<DeltaChange> {
        let params = self.sketch.params();
        let dirty = self.sketch.dirty_spans_since(base_epochs)?;
        // A run costs 12 bytes of header plus its cells; fall back to
        // the full frame when sparseness does not pay.
        let cells: usize = dirty.iter().map(|&(_, lo, hi)| (hi - lo) as usize).sum();
        if 12 * dirty.len() + 8 * cells >= params.width * params.depth * 8 {
            return None;
        }
        let mut values = Vec::with_capacity(cells);
        self.sketch.sum_runs_into(&dirty, &mut values);
        let runs = dirty
            .into_iter()
            .map(|(row, lo, hi)| CellRun {
                row,
                lo,
                len: hi - lo,
            })
            .collect();
        Some(DeltaChange::CmRuns {
            base_epoch: base,
            runs,
            values,
        })
    }

    /// The sketch dimensions in force.
    pub fn params(&self) -> CountMinParams {
        self.sketch.params()
    }

    /// The shared sharded sketch (reads are always allowed).
    pub fn sketch(&self) -> &ShardedPcm {
        &self.sketch
    }

    /// This object's acknowledged stream weight (an IVL read).
    pub fn stream_len(&self) -> u64 {
        self.ingest.read()
    }

    /// The exact sequential spec of this object: an empty sketch over
    /// the same sampled hashes, built on request.
    pub fn spec(&self) -> WeightedCmSpec {
        WeightedCmSpec::new(CountMin::with_hashes(
            self.sketch.params(),
            self.sketch.hashes().to_vec(),
        ))
    }

    /// The deferred-visibility bound advertised in every envelope: at
    /// most `shards` writers each holding `< write_buffer` weight.
    pub fn lag_bound(&self) -> u64 {
        self.write_buffer
            .saturating_mul(self.sketch.num_shards() as u64)
    }
}

impl ServedObject for ServedCountMin {
    fn kind(&self) -> ObjectKind {
        ObjectKind::CountMin
    }

    /// An unbuffered writer sweeps every frame, so its scratch starts at
    /// one entry and grows to the largest frame it sees; a buffered one
    /// is pre-sized so its sweep cadence does not depend on regrowth.
    fn writer<'a>(&'a self, metrics: &'a Metrics) -> Box<dyn ObjectWriter + 'a> {
        let frame = if self.write_buffer == 0 {
            1
        } else {
            MAX_BATCH_ITEMS as usize
        };
        Box::new(CmWriter {
            obj: self,
            metrics,
            lease: None,
            scratch: BatchScratch::with_capacity(self.sketch.params().depth, frame),
        })
    }

    fn query(&self, key: u64) -> ErrorEnvelope {
        self.ops.note_query();
        self.envelope(key, self.sketch.estimate(key))
    }

    fn epoch(&self) -> u64 {
        self.sketch.epoch()
    }

    fn snapshot_since(&self, base: Option<u64>) -> (u64, DeltaChange, ErrorEnvelope) {
        self.ops.note_query();
        // Epochs before cells: the shipped cells are then at least as
        // new as the recorded decomposition, so a later delta against
        // this epoch only ever re-sends (never misses) a write.
        let mut shard_epochs = Vec::with_capacity(self.sketch.num_shards());
        self.sketch.shard_epochs_into(&mut shard_epochs);
        let epoch: u64 = shard_epochs.iter().sum();
        let base_epochs = self.ledger_exchange(shard_epochs, base.filter(|&b| b != epoch));
        if base == Some(epoch) {
            // Per-shard epochs are monotone, so equal sums mean the
            // decomposition (hence every shard's log, hence every cell
            // the client holds) is unchanged.
            return (epoch, DeltaChange::Unchanged, self.envelope(0, 0));
        }
        let change = base
            .zip(base_epochs)
            .and_then(|(base, base_epochs)| self.runs_since(base, &base_epochs))
            .unwrap_or_else(|| DeltaChange::Full(self.full_state()));
        (epoch, change, self.envelope(0, 0))
    }

    fn op_stats(&self) -> ObjectStats {
        ObjectStats {
            observed: self.ingest.read(),
            ..self.ops.stats()
        }
    }

    fn free_shards(&self) -> Option<usize> {
        Some(self.sketch.free_shards())
    }

    fn as_count_min(&self) -> Option<&ServedCountMin> {
        Some(self)
    }

    fn check_projection(
        &self,
        projection: &History<(u64, u64), u64, u64>,
    ) -> (Option<bool>, &'static str) {
        if self.write_buffer > 0 {
            // Acknowledged-before-visible is the advertised relaxation
            // (envelope lag); the strict check would fail by design.
            return (
                None,
                "write-buffered: strict check waived, bound is the envelope lag",
            );
        }
        (
            Some(check_ivl_monotone(&self.spec(), projection).is_ivl()),
            "frequency estimates vs the weighted CountMin spec",
        )
    }
}

/// CountMin per-writer state: the per-(object, shard) lease and the
/// write buffer.
struct CmWriter<'a> {
    obj: &'a ServedCountMin,
    metrics: &'a Metrics,
    lease: Option<ShardLease<'a>>,
    /// The write buffer: frames are absorbed into its live entries and
    /// swept into the leased shard once `write_buffer` weight is pending
    /// (every frame at `b = 0`). Kept across frames, so a steady-state
    /// batch allocates nothing.
    scratch: BatchScratch,
}

impl fmt::Debug for CmWriter<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CmWriter")
            .field("leased", &self.lease.is_some())
            .finish_non_exhaustive()
    }
}

impl ObjectWriter for CmWriter<'_> {
    fn ensure_ready(&mut self) -> Result<(), Refusal> {
        if self.lease.is_none() {
            self.lease = self.obj.sketch.lease();
        }
        if self.lease.is_some() {
            Ok(())
        } else {
            Err(Refusal {
                code: ErrorCode::Busy,
                message: format!("all {} shards leased", self.obj.sketch.num_shards()),
            })
        }
    }

    fn apply_batch(&mut self, items: &[(u64, u64)]) {
        let lease = self.lease.as_mut().expect("ensure_ready acquired a lease");
        let (b, metrics) = (self.obj.write_buffer, self.metrics);
        let (total, buffered) = items.iter().fold((0u64, 0u64), |(t, p), &(_, w)| {
            (t.saturating_add(w), p.saturating_add(w.max(1)))
        });
        if b > 0 {
            metrics.record_buffered(buffered);
        }
        self.scratch
            .buffer(self.obj.sketch.hashes(), items, b, |scratch| {
                let swept = lease.sweep(scratch);
                if b > 0 {
                    metrics.record_flush(swept);
                }
            });
        self.obj.ingest.update_slot(lease.shard(), total);
        self.obj.ops.note_updates(items.len() as u64, 0); // observed comes from `ingest`
    }

    /// Peer cells add into the leased shard under the single-writer
    /// discipline (plain stores, one epoch commit) after the shape
    /// guard — merging a peer's matrix is the same algebra as applying
    /// its substream locally.
    fn absorb(&mut self, state: &SnapshotState, observed: u64) -> Result<(), MergeError> {
        self.obj.shape.admit(state)?;
        let params = self.obj.sketch.params();
        match state {
            // A state built in-process can name the served dimensions
            // and still carry another number of cells.
            SnapshotState::CountMin { cells, .. } if cells.len() == params.width * params.depth => {
                let lease = self.lease.as_mut().expect("ensure_ready acquired a lease");
                lease.absorb_cells(cells);
                // Cells lead the ingest counter, the same discipline as
                // the update path.
                self.obj.ingest.update_slot(lease.shard(), observed);
                Ok(())
            }
            _ => Err(MergeError::new(
                "peer CountMin cells do not fill its dimensions",
            )),
        }
    }

    fn flush(&mut self) {
        if let Some(lease) = self.lease.as_mut().filter(|_| !self.scratch.is_empty()) {
            self.metrics.record_flush(lease.sweep(&mut self.scratch));
        }
    }

    fn release(&mut self) -> bool {
        self.flush();
        self.lease.take().is_some()
    }
}
