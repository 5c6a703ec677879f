//! A sharded IVL CountMin: per-thread sub-matrices, summed at query
//! time.
//!
//! `PCM` keeps one shared matrix and pays a `fetch_add` (RMW) per cell
//! per update. The sharded variant gives each handle its own matrix of
//! plain atomics written with cheap stores (the handle is the only
//! writer of its shard — the IVL-counter trick applied per cell);
//! a query reads the cell in *every* shard, sums, and takes the row
//! minimum.
//!
//! Because CountMin cells are additive, the summed matrix equals the
//! single-matrix sketch of the union stream, so the estimator — and
//! the (ε,δ) analysis — is unchanged. Cells only grow and updates
//! commute, so the object is monotone and the implementation is IVL
//! by the same Lemma 7 argument; recorded histories are checked
//! against the same [`ivl_sketch::cm_spec::CountMinSpec`].
//!
//! Trade-off: updates avoid RMW contention entirely; queries cost
//! `shards × depth` cell reads instead of `depth` — the CountMin
//! analogue of the paper's O(1)-update / O(n)-read batched counter.

use crate::arena::CellArena;
use crate::batch::BatchScratch;
use crate::{ConcurrentSketch, SketchHandle};
use ivl_sketch::countmin::{CountMin, CountMinParams};
use ivl_sketch::hash::PairwiseHash;
use ivl_sketch::CoinFlips;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Entries in a shard's touch log (a power of two). Unit tests shrink
/// it so wrap-around and lapping happen within a few ops.
const LOG_CAP: usize = if cfg!(test) { 64 } else { 1024 };
/// The most cells one op may log. A larger op (a 4096-item frame, a
/// dense absorb) jumps `head` a whole ring instead, which answers every
/// older base "lapped".
const LOG_OP_MAX: usize = LOG_CAP / 4;

/// Per-shard delta-snapshot metadata, written only by the shard's
/// single writer (the same ownership discipline as the cells): a ring
/// of the last [`LOG_CAP`] touched `(row, col)` cells plus `head`, the
/// count of touches ever logged. `head` is the shard's epoch: monotone,
/// and it moves iff cells may have changed.
///
/// Writer order per op is cells → log entries → `head`, all stores
/// `Release`; a reader that loads `head` with `Acquire` therefore sees
/// every entry and cell of the ops it counts. Because entry stores are
/// `Release` too, a reader that sees an entry of op k+1 also sees op
/// k's `head`, so at most one unpublished op — at most [`LOG_OP_MAX`]
/// entries — sits past any `head` it observed (DESIGN.md §14.2).
#[derive(Debug)]
struct ShardMeta {
    head: AtomicU64,
    /// Touch `t` lives at `t % LOG_CAP` as `row << 32 | col`.
    log: Box<[AtomicU64]>,
}

impl ShardMeta {
    fn new() -> Self {
        ShardMeta {
            head: AtomicU64::new(0),
            log: (0..LOG_CAP).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Reader side of [`OpLog::publish`].
    fn head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Single-writer: starts logging one op at the current `head`.
    fn begin(&self) -> OpLog<'_> {
        OpLog {
            meta: self,
            start: self.head.load(Ordering::Relaxed),
            touched: 0,
        }
    }

    /// Whether entries `[since, head)` were safe from the writer when
    /// `head` was read: the one op that may be in flight past `head`
    /// reuses the slots of touches before `head + LOG_OP_MAX - LOG_CAP`.
    /// A base ahead of `head` (never one of ours) wraps to "lapped" too.
    fn covers(head: u64, since: u64) -> bool {
        head.wrapping_sub(since) <= (LOG_CAP - LOG_OP_MAX) as u64
    }
}

/// Single-writer cursor over one op's log entries, the one way both
/// write paths (a sweep, an absorb) mark cells dirty.
struct OpLog<'a> {
    meta: &'a ShardMeta,
    start: u64,
    touched: usize,
}

impl OpLog<'_> {
    /// Logs `row`'s cells at `cols`, after their cell stores. Once the
    /// op outgrows [`LOG_OP_MAX`] it only counts.
    fn touch(&mut self, row: usize, cols: &[u32]) {
        if self.touched + cols.len() <= LOG_OP_MAX {
            for (k, &col) in cols.iter().enumerate() {
                let at = (self.start + (self.touched + k) as u64) as usize % LOG_CAP;
                self.meta.log[at].store((row as u64) << 32 | col as u64, Ordering::Release);
            }
        }
        self.touched += cols.len();
    }

    /// Publishes the op (ordered after its cell stores and entries); an
    /// op that touched nothing leaves the epoch alone.
    fn publish(self) {
        let advance = match self.touched {
            0 => return,
            n if n <= LOG_OP_MAX => n,
            _ => LOG_CAP,
        };
        let head = self.start + advance as u64;
        self.meta.head.store(head, Ordering::Release);
    }
}

/// A sharded concurrent CountMin (one sub-matrix per handle).
///
/// # Examples
///
/// ```
/// use ivl_concurrent::{ConcurrentSketch, ShardedPcm, SketchHandle};
/// use ivl_sketch::countmin::CountMinParams;
/// use ivl_sketch::CoinFlips;
///
/// let mut coins = CoinFlips::from_seed(2);
/// let sketch = ShardedPcm::new(CountMinParams { width: 64, depth: 4 }, 2, &mut coins);
/// crossbeam::scope(|s| {
///     for _ in 0..2 {
///         let mut h = sketch.handle(); // one shard per thread
///         s.spawn(move |_| {
///             for _ in 0..1_000 {
///                 h.update(9);
///             }
///         });
///     }
/// })
/// .unwrap();
/// assert_eq!(sketch.estimate(9), 2_000);
/// ```
#[derive(Debug)]
pub struct ShardedPcm {
    params: CountMinParams,
    hashes: Vec<PairwiseHash>,
    /// One padded [`CellArena`] per shard.
    shards: Vec<CellArena>,
    /// One [`ShardMeta`] per shard (its touch log), same single-writer
    /// ownership as the matching arena.
    meta: Vec<ShardMeta>,
    /// Single-writer ownership flags, one per shard, held by a
    /// [`ShardLease`] until it drops so serving layers can recycle
    /// shards across connections.
    in_use: Vec<AtomicBool>,
}

impl ShardedPcm {
    /// Creates a sketch with `shards` sub-matrices, drawing hashes
    /// from `coins`. At most `shards` handles may be live at a time.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0.
    pub fn new(params: CountMinParams, shards: usize, coins: &mut CoinFlips) -> Self {
        Self::with_hashes(params, params.draw_hashes(coins), shards)
    }

    /// Creates a sharded sketch sharing the hashes of an (empty)
    /// prototype — same coins, same deterministic algorithm.
    ///
    /// # Panics
    ///
    /// Panics if the prototype is non-empty or `shards` is 0.
    pub fn from_prototype(proto: &CountMin, shards: usize) -> Self {
        assert_eq!(
            ivl_sketch::FrequencySketch::stream_len(proto),
            0,
            "prototype must be empty"
        );
        Self::with_hashes(proto.params(), proto.hashes().to_vec(), shards)
    }

    /// Creates a sharded sketch over row hashes already drawn (by
    /// [`CountMinParams::draw_hashes`]): the shards' cells are the only
    /// matrices it allocates.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is 0 or there is not one hash per row.
    pub fn with_hashes(params: CountMinParams, hashes: Vec<PairwiseHash>, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert_eq!(hashes.len(), params.depth, "one hash per row");
        ShardedPcm {
            params,
            hashes,
            shards: (0..shards)
                .map(|_| CellArena::new(params.depth, params.width))
                .collect(),
            meta: (0..shards).map(|_| ShardMeta::new()).collect(),
            in_use: (0..shards).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// The per-row hash functions (`c̄`), shared with the sequential
    /// prototype — what a writer absorbs frames into its
    /// [`BatchScratch`] with before [`ShardLease::sweep`].
    pub fn hashes(&self) -> &[PairwiseHash] {
        &self.hashes
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of currently unleased shards. A snapshot — another
    /// thread may win the shard before the caller leases it, so use
    /// it as a wakeup hint, not a reservation.
    pub fn free_shards(&self) -> usize {
        self.in_use
            .iter()
            .filter(|flag| !flag.load(Ordering::Acquire))
            .count()
    }

    /// The sketch dimensions.
    pub fn params(&self) -> CountMinParams {
        self.params
    }

    /// Claims the lowest free shard, or `None` when all are taken.
    fn acquire_free_shard(&self) -> Option<usize> {
        self.in_use
            .iter()
            .position(|flag| !flag.swap(true, Ordering::AcqRel))
    }

    /// Checks out a free shard as a droppable single-writer lease, or
    /// returns `None` when every shard is busy. The lease returns the
    /// shard to the free pool on drop — the shape a serving layer needs
    /// to hand shards to connections that come and go.
    /// [`ConcurrentSketch::handle`] is the same lease, panicking
    /// instead of returning `None`.
    pub fn lease(&self) -> Option<ShardLease<'_>> {
        self.acquire_free_shard().map(|shard| ShardLease {
            parent: self,
            shard,
            one: None,
        })
    }

    /// Estimates `item`'s frequency: per row, sum the cell across all
    /// shards; return the row minimum. The `mod p` reduction of
    /// `item` happens once, not per row.
    pub fn estimate(&self, item: u64) -> u64 {
        let xr = PairwiseHash::reduce(item);
        self.hashes
            .iter()
            .enumerate()
            .map(|(row, h)| {
                let col = h.hash_reduced(xr);
                self.shards
                    .iter()
                    .map(|m| m.cell(row, col).load(Ordering::Acquire))
                    .fold(0, u64::saturating_add)
            })
            .min()
            .expect("depth >= 1")
    }

    /// Total stream weight visible in the sketch: every update adds
    /// its count to exactly one cell of row 0 per shard, so the sum of
    /// row 0 across shards is the applied weight — an IVL read, like
    /// [`Pcm::stream_len_estimate`](crate::Pcm::stream_len_estimate).
    pub fn stream_len_estimate(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|m| m.row(0))
            .map(|cell| cell.load(Ordering::Acquire))
            .fold(0, u64::saturating_add)
    }

    /// Row-major snapshot of the summed cell matrix (`depth × width`
    /// values, each the per-(row, col) sum across shards). Because
    /// cells are additive and only grow, the returned matrix equals a
    /// single-matrix CountMin over some intermediate mix of the
    /// concurrent streams — an IVL read per cell, exactly what a
    /// replication layer may merge cell-wise into a peer's snapshot
    /// (concatenated-stream semantics of `CountMin::merge`).
    pub fn cells_snapshot(&self) -> Vec<u64> {
        let (depth, width) = (self.params.depth, self.params.width);
        let mut out = vec![0u64; depth * width];
        for shard in &self.shards {
            for row in 0..depth {
                for (col, cell) in shard.row(row).enumerate() {
                    let sum = &mut out[row * width + col];
                    *sum = sum.saturating_add(cell.load(Ordering::Acquire));
                }
            }
        }
        out
    }

    /// The sketch's update epoch: the sum of the per-shard touch counts
    /// (each `Acquire`-loaded). Monotone, and moved only by ops that may
    /// change cell values — so an unchanged epoch means an unchanged
    /// summed matrix, which a snapshot server answers `Unchanged`.
    pub fn epoch(&self) -> u64 {
        self.meta.iter().map(ShardMeta::head).sum()
    }

    /// Appends the per-shard epoch vector (the decomposition of
    /// [`epoch`](Self::epoch)) to `out`. A snapshot server remembers it
    /// per served epoch so a later
    /// [`dirty_spans_since`](Self::dirty_spans_since) can diff per shard.
    pub fn shard_epochs_into(&self, out: &mut Vec<u64>) {
        out.extend(self.meta.iter().map(ShardMeta::head));
    }

    /// The cells touched since `base` (a per-shard epoch vector captured
    /// by [`shard_epochs_into`](Self::shard_epochs_into)) as
    /// `(row, lo, hi)` column runs in log order, a run per touch unless
    /// it extends the one before it; a cell touched twice appears twice.
    /// Exact: a column changed after `base` was logged by an op whose
    /// entries precede its `head` store, which `base` does not count.
    /// `None` when some shard's log has lapped its base (more than
    /// `LOG_CAP - LOG_OP_MAX` touches, or one over-size op, since): the
    /// caller falls back to the full matrix.
    ///
    /// # Panics
    ///
    /// Panics if `base.len()` differs from the shard count.
    pub fn dirty_spans_since(&self, base: &[u64]) -> Option<Vec<(u32, u32, u32)>> {
        assert_eq!(base.len(), self.meta.len(), "one base epoch per shard");
        let mut runs: Vec<(u32, u32, u32)> = Vec::new();
        for (meta, &since) in self.meta.iter().zip(base) {
            let head = meta.head();
            if !ShardMeta::covers(head, since) {
                return None;
            }
            runs.reserve((head - since) as usize);
            for touch in since..head {
                let entry = meta.log[touch as usize % LOG_CAP].load(Ordering::Acquire);
                let (row, col) = ((entry >> 32) as u32, entry as u32);
                match runs.last_mut() {
                    Some(run) if run.0 == row && run.2 == col => run.2 += 1,
                    _ => runs.push((row, col, col + 1)),
                }
            }
            // An entry overwritten mid-copy came after a `head` that fails this.
            if !ShardMeta::covers(meta.head(), since) {
                return None;
            }
        }
        Some(runs)
    }

    /// Appends the summed (across shards) cell values of every
    /// `(row, lo, hi)` run's columns to `out`, in run order — the sparse
    /// read backing a delta snapshot, same per-cell `Acquire` IVL
    /// semantics as [`cells_snapshot`](Self::cells_snapshot). Runs must
    /// lie inside the matrix, as [`dirty_spans_since`](Self::dirty_spans_since)'s do.
    pub fn sum_runs_into(&self, runs: &[(u32, u32, u32)], out: &mut Vec<u64>) {
        let at = out.len();
        let columns: u32 = runs.iter().map(|&(_, lo, hi)| hi - lo).sum();
        out.resize(at + columns as usize, 0);
        for shard in &self.shards {
            let mut slots = out[at..].iter_mut();
            for &(row, lo, hi) in runs {
                let cells = shard.row_cells(row as usize);
                for (col, slot) in (lo..hi).zip(&mut slots) {
                    *slot = slot.saturating_add(cells.cell(col as usize).load(Ordering::Acquire));
                }
            }
        }
    }

    /// The body of [`ShardLease::sweep`]; the caller holds `shard`'s lease.
    fn sweep(&self, shard: usize, scratch: &mut BatchScratch) -> u64 {
        let mut op = self.meta[shard].begin();
        scratch.sweep(&self.shards[shard], swmr_add, |row, cols| {
            op.touch(row, cols)
        });
        op.publish();
        scratch.clear()
    }
}

/// The single-writer cell add every write path uses: plain load +
/// `Release` store, no RMW — a leased shard has exactly one writer.
/// Saturates at `u64::MAX`: weights are client-chosen, and a pinned
/// cell still never reads below a count it was given.
#[inline]
fn swmr_add(cell: &AtomicU64, add: u64) {
    let cur = cell.load(Ordering::Relaxed);
    cell.store(cur.saturating_add(add), Ordering::Release);
}

/// A single-writer shard checkout that returns its shard to the free
/// pool on drop (see [`ShardedPcm::lease`]).
#[derive(Debug)]
pub struct ShardLease<'a> {
    parent: &'a ShardedPcm,
    shard: usize,
    /// The one-entry scratch behind [`update_by`](Self::update_by),
    /// made on first use (a frame writer brings its own scratch).
    one: Option<BatchScratch>,
}

impl ShardLease<'_> {
    /// The shard this lease owns.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Batched update: `count` occurrences at once, one store per row
    /// regardless of `count` — a one-entry [`apply_batch`](Self::apply_batch).
    pub fn update_by(&mut self, item: u64, count: u64) {
        let (parent, shard) = (self.parent, self.shard);
        let one = self
            .one
            .get_or_insert_with(|| BatchScratch::with_capacity(parent.params.depth, 1));
        one.prepare(&parent.hashes, &[(item, count)]);
        parent.sweep(shard, one);
    }

    /// Applies a whole frame of `(item, count)` pairs to the leased
    /// shard: [`BatchScratch::prepare`], then [`sweep`](Self::sweep).
    /// The final state is identical to per-item updates.
    pub fn apply_batch(&mut self, items: &[(u64, u64)], scratch: &mut BatchScratch) {
        scratch.prepare(&self.parent.hashes, items);
        self.sweep(scratch);
    }

    /// Adds `scratch`'s live entries into the leased shard as one op —
    /// the row-major sweep with a plain load + `Release` store per cell,
    /// each row's cells logged after their stores, then one `head`
    /// publish — and clears it. Returns the pending weight swept. A sweep of more than
    /// `LOG_OP_MAX` cells laps every older delta base (DESIGN §14.2).
    pub fn sweep(&mut self, scratch: &mut BatchScratch) -> u64 {
        self.parent.sweep(self.shard, scratch)
    }

    /// Adds a peer's full `depth × width` cell matrix (row-major, as
    /// shipped by a snapshot) into the leased shard — the CountMin
    /// absorb path of replication catch-up. Cells are additive, so
    /// adding the peer matrix into any one shard makes the summed
    /// sketch equal the cell-wise merge of the two sketches
    /// (concatenated-stream semantics, like `CountMin::merge`). Same
    /// single-writer discipline as [`sweep`](Self::sweep): the same
    /// cell add and a log entry per touched cell, one `head` store for
    /// the whole matrix. Zero cells are skipped (no store, no entry),
    /// so absorbing a sparse peer keeps deltas sparse.
    ///
    /// # Panics
    ///
    /// Panics if `cells.len()` differs from `depth * width` — callers
    /// gate peer dimensions (and hash fingerprints) before absorbing.
    pub fn absorb_cells(&mut self, cells: &[u64]) {
        let (depth, width) = (self.parent.params.depth, self.parent.params.width);
        assert_eq!(cells.len(), depth * width, "one cell per (row, col)");
        let arena = &self.parent.shards[self.shard];
        let mut op = self.parent.meta[self.shard].begin();
        for row in 0..depth {
            let row_cells = arena.row_cells(row);
            let src = &cells[row * width..(row + 1) * width];
            for (col, &add) in src.iter().enumerate() {
                if add == 0 {
                    continue;
                }
                swmr_add(row_cells.cell(col), add);
                op.touch(row, &[col as u32]);
            }
        }
        op.publish();
    }
}

impl SketchHandle for ShardLease<'_> {
    fn update(&mut self, item: u64) {
        self.update_by(item, 1);
    }
}

impl Drop for ShardLease<'_> {
    fn drop(&mut self) {
        self.parent.in_use[self.shard].store(false, Ordering::Release);
    }
}

impl ConcurrentSketch for ShardedPcm {
    type Handle<'a> = ShardLease<'a>;

    /// Leases the lowest free shard.
    ///
    /// # Panics
    ///
    /// Panics when more handles are live than shards exist — two
    /// writers on one shard would break the single-writer cells.
    fn handle(&self) -> ShardLease<'_> {
        self.lease()
            .unwrap_or_else(|| panic!("more handles requested than shards ({})", self.shards.len()))
    }

    fn query(&self, item: u64) -> u64 {
        self.estimate(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivl_sketch::FrequencySketch;

    fn params() -> CountMinParams {
        CountMinParams {
            width: 64,
            depth: 4,
        }
    }

    #[test]
    fn quiescent_equals_single_matrix_sketch() {
        let mut coins = CoinFlips::from_seed(1);
        let mut cm = CountMin::new(params(), &mut coins);
        let sharded = ShardedPcm::from_prototype(&cm, 4);
        crossbeam::scope(|s| {
            for t in 0..4u64 {
                let mut h = sharded.handle();
                s.spawn(move |_| {
                    for k in 0..10_000u64 {
                        h.update((t * 13 + k) % 101);
                    }
                });
            }
        })
        .unwrap();
        for t in 0..4u64 {
            for k in 0..10_000u64 {
                cm.update((t * 13 + k) % 101);
            }
        }
        for item in 0..101u64 {
            assert_eq!(sharded.estimate(item), cm.estimate(item), "item {item}");
        }
    }

    #[test]
    fn batched_updates_count_in_bulk() {
        let mut coins = CoinFlips::from_seed(2);
        let sharded = ShardedPcm::new(params(), 2, &mut coins);
        let mut h = sharded.handle();
        h.update_by(9, 1_000);
        assert_eq!(sharded.estimate(9), 1_000);
    }

    #[test]
    fn estimates_monotone_under_concurrent_reads() {
        let mut coins = CoinFlips::from_seed(3);
        let sharded = ShardedPcm::new(params(), 2, &mut coins);
        crossbeam::scope(|s| {
            let mut h = sharded.handle();
            let w = s.spawn(move |_| {
                for _ in 0..50_000u64 {
                    h.update(7);
                }
            });
            let sh = &sharded;
            s.spawn(move |_| {
                let mut last = 0;
                loop {
                    let v = sh.estimate(7);
                    assert!(v >= last, "estimate regressed: {v} < {last}");
                    last = v;
                    if v >= 50_000 {
                        break;
                    }
                }
            });
            w.join().unwrap();
        })
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "more handles")]
    fn over_subscription_rejected() {
        let mut coins = CoinFlips::from_seed(4);
        let sharded = ShardedPcm::new(params(), 1, &mut coins);
        let _h1 = sharded.handle();
        let _h2 = sharded.handle();
    }

    #[test]
    fn leases_recycle_shards() {
        let mut coins = CoinFlips::from_seed(6);
        let sharded = ShardedPcm::new(params(), 2, &mut coins);
        {
            let mut a = sharded.lease().expect("shard 0 free");
            let mut b = sharded.lease().expect("shard 1 free");
            assert_ne!(a.shard(), b.shard());
            assert!(sharded.lease().is_none(), "pool exhausted");
            a.update_by(3, 10);
            b.update_by(3, 5);
        }
        // Both leases dropped: the pool refills and writes persist.
        assert_eq!(sharded.estimate(3), 15);
        let c = sharded.lease().expect("returned to pool");
        assert_eq!(c.shard(), 0, "lowest shard first");
    }

    #[test]
    fn leases_and_handles_share_the_pool() {
        let mut coins = CoinFlips::from_seed(7);
        let sharded = ShardedPcm::new(params(), 2, &mut coins);
        let h = sharded.handle();
        let l = sharded.lease().expect("one shard left");
        assert_ne!(h.shard(), l.shard());
        assert!(sharded.lease().is_none());
        drop(l);
        assert_eq!(sharded.lease().expect("lease shard free").shard(), 1);
        // A handle is a lease too: its shard returns on drop.
        drop(h);
        assert_eq!(sharded.lease().expect("handle shard free").shard(), 0);
    }

    #[test]
    fn cells_snapshot_matches_sequential_sketch() {
        let mut coins = CoinFlips::from_seed(8);
        let mut cm = CountMin::new(params(), &mut coins);
        let sharded = ShardedPcm::from_prototype(&cm, 3);
        {
            let mut a = sharded.lease().expect("shard free");
            let mut b = sharded.lease().expect("shard free");
            for k in 0..500u64 {
                a.update_by(k % 17, 2);
                b.update_by(k % 5, 1);
            }
        }
        for k in 0..500u64 {
            cm.update_by(k % 17, 2);
            cm.update_by(k % 5, 1);
        }
        assert_eq!(sharded.cells_snapshot(), cm.cells());
    }

    fn wide() -> CountMinParams {
        CountMinParams {
            width: 1024,
            depth: 4,
        }
    }

    /// The `(row, col)` cells `runs` name, one per column of each run.
    fn cells_of_in_order(runs: &[(u32, u32, u32)]) -> impl Iterator<Item = (u32, u32)> + '_ {
        runs.iter()
            .flat_map(|&(row, lo, hi)| (lo..hi).map(move |col| (row, col)))
    }

    fn as_set(mut cells: Vec<(u32, u32)>) -> Vec<(u32, u32)> {
        cells.sort_unstable();
        cells.dedup();
        cells
    }

    /// The set of cells `runs` name, sorted.
    fn cells_of(runs: &[(u32, u32, u32)]) -> Vec<(u32, u32)> {
        as_set(cells_of_in_order(runs).collect())
    }

    /// The `(row, col)` cells an update of each of `keys` touches.
    fn cells_touched_by(sharded: &ShardedPcm, keys: &[u64]) -> Vec<(u32, u32)> {
        let mut cells = Vec::new();
        for (row, h) in sharded.hashes().iter().enumerate() {
            for &key in keys {
                cells.push((row as u32, h.hash_reduced(PairwiseHash::reduce(key)) as u32));
            }
        }
        as_set(cells)
    }

    /// Logs one op touching `cols[row]` in each row of `shard`, as a
    /// sweep of one key with those columns would (the cells are left
    /// alone: only the log is under test).
    fn log_op(sharded: &ShardedPcm, shard: usize, cols: [u32; 4]) {
        let mut op = sharded.meta[shard].begin();
        for (row, col) in cols.into_iter().enumerate() {
            op.touch(row, &[col]);
        }
        op.publish();
    }

    fn epochs(sharded: &ShardedPcm) -> Vec<u64> {
        let mut now = Vec::new();
        sharded.shard_epochs_into(&mut now);
        now
    }

    #[test]
    fn epoch_tracks_updates_and_dirty_runs_cover_touches() {
        let mut coins = CoinFlips::from_seed(9);
        let sharded = ShardedPcm::new(wide(), 2, &mut coins);
        assert_eq!(sharded.epoch(), 0);
        let base = epochs(&sharded);
        assert_eq!(base, vec![0, 0]);
        assert_eq!(sharded.dirty_spans_since(&base), Some(vec![]), "clean base");
        {
            let mut a = sharded.lease().expect("shard free");
            a.update_by(3, 10);
            a.update_by(11, 5);
        }
        assert_eq!(sharded.epoch(), 8, "one touch logged per row per update");
        let runs = sharded
            .dirty_spans_since(&base)
            .expect("two ops fit the log");
        // Every touched cell, and nothing else.
        assert_eq!(cells_of(&runs), cells_touched_by(&sharded, &[3, 11]));
        for &(_, lo, hi) in &runs {
            assert!(lo < hi && hi <= 1024);
        }
        // The sparse range read agrees with the full snapshot.
        let full = sharded.cells_snapshot();
        let mut got = Vec::new();
        sharded.sum_runs_into(&runs, &mut got);
        let want: Vec<u64> = cells_of_in_order(&runs)
            .map(|(row, col)| full[row as usize * 1024 + col as usize])
            .collect();
        assert_eq!(got, want);
        // Diffing against the current epoch vector reports nothing.
        assert_eq!(sharded.dirty_spans_since(&epochs(&sharded)), Some(vec![]));
    }

    #[test]
    fn dirty_runs_track_the_writes_since_the_base_not_the_history() {
        // However warm the sketch (every cell touched long ago, the
        // ring wrapped many times), one more write dirties only its
        // own cells.
        let mut coins = CoinFlips::from_seed(12);
        let sharded = ShardedPcm::new(wide(), 2, &mut coins);
        let mut a = sharded.lease().expect("shard free");
        let mut b = sharded.lease().expect("shard free");
        for key in 0..2_000u64 {
            a.update_by(key, 1);
            b.update_by(key + 7, 1);
        }
        let warm = epochs(&sharded);
        a.update_by(5, 1);
        let runs = sharded.dirty_spans_since(&warm).expect("one op since");
        assert_eq!(cells_of(&runs), cells_touched_by(&sharded, &[5]));
        assert_eq!(runs.len(), 4, "one len-1 run per row");
        // Touches of adjacent columns coalesce into one run, in log
        // order and across shards; a repeated cell is kept.
        let base = epochs(&sharded);
        log_op(&sharded, a.shard(), [8, 0, 0, 0]);
        log_op(&sharded, b.shard(), [9, 0, 0, 0]);
        let runs = sharded.dirty_spans_since(&base).expect("two ops since");
        let of_a = [(0, 8, 9), (1, 0, 1), (2, 0, 1), (3, 0, 1)];
        let of_b = [(0, 9, 10), (1, 0, 1), (2, 0, 1), (3, 0, 1)];
        // Leases take the lowest free shard, so `a` holds shard 0.
        assert_eq!(runs, [of_a, of_b].concat());
        log_op(&sharded, b.shard(), [3, 4, 5, 5]);
        log_op(&sharded, b.shard(), [3, 5, 6, 7]);
        let mut only_b = epochs(&sharded);
        only_b[b.shard()] -= 8;
        assert_eq!(
            sharded.dirty_spans_since(&only_b),
            // Row 1's columns 4 then 5 are not adjacent *entries*; row
            // 0's repeated column 3 is sent twice.
            Some(vec![
                (0, 3, 4),
                (1, 4, 5),
                (2, 5, 6),
                (3, 5, 6),
                (0, 3, 4),
                (1, 5, 6),
                (2, 6, 7),
                (3, 7, 8)
            ]),
            "a shard still at its base contributes nothing"
        );
    }

    #[test]
    fn a_base_the_ring_has_lapped_answers_none() {
        let mut coins = CoinFlips::from_seed(13);
        let sharded = ShardedPcm::new(wide(), 1, &mut coins);
        let mut l = sharded.lease().expect("shard free");
        // Past the first lap, so the window is tested on a wrapped ring.
        for key in 0..100u64 {
            l.update_by(key, 1);
        }
        let base = epochs(&sharded);
        let window = LOG_CAP - LOG_OP_MAX;
        let mut keys = Vec::new();
        for key in 0..(window / 4) as u64 {
            l.update_by(1_000 + key, 1);
            keys.push(1_000 + key);
        }
        // Exactly `LOG_CAP - LOG_OP_MAX` touches behind: still exact.
        let runs = sharded.dirty_spans_since(&base).expect("inside the window");
        assert_eq!(cells_of(&runs), cells_touched_by(&sharded, &keys));
        // One more op and an in-flight successor could be overwriting
        // the base's oldest entries: lapped.
        l.update_by(7, 1);
        assert_eq!(sharded.dirty_spans_since(&base), None);
        // A base no shard ever handed out is lapped too, not a panic.
        assert_eq!(sharded.dirty_spans_since(&[u64::MAX]), None);
        assert_eq!(sharded.dirty_spans_since(&[sharded.epoch() + 1]), None);
    }

    #[test]
    fn an_oversize_op_laps_every_older_base_and_no_newer_one() {
        let mut coins = CoinFlips::from_seed(14);
        let sharded = ShardedPcm::new(wide(), 1, &mut coins);
        let mut scratch = BatchScratch::new(4);
        let mut l = sharded.lease().expect("shard free");
        l.update_by(1, 1);
        let before = epochs(&sharded);
        // More distinct cells than one op may log.
        let frame: Vec<(u64, u64)> = (0..LOG_OP_MAX as u64).map(|k| (k, 1)).collect();
        l.apply_batch(&frame, &mut scratch);
        let after = epochs(&sharded);
        assert_eq!(after[0], before[0] + LOG_CAP as u64, "head jumps a ring");
        assert_eq!(sharded.dirty_spans_since(&before), None);
        assert_eq!(sharded.dirty_spans_since(&[0]), None);
        assert_eq!(sharded.dirty_spans_since(&after), Some(vec![]));
        // The log is usable again right after the jump.
        l.update_by(2, 1);
        let runs = sharded.dirty_spans_since(&after).expect("one op since");
        assert_eq!(cells_of(&runs), cells_touched_by(&sharded, &[2]));
        // A dense absorb is over-size as well.
        let peer = vec![1u64; 1024 * 4];
        let base = epochs(&sharded);
        l.absorb_cells(&peer);
        assert_eq!(sharded.dirty_spans_since(&base), None);
    }

    #[test]
    fn batch_kernel_logs_its_cells_and_publishes_once() {
        let mut coins = CoinFlips::from_seed(10);
        let sharded = ShardedPcm::new(params(), 1, &mut coins);
        let base = epochs(&sharded);
        let mut scratch = BatchScratch::new(4);
        {
            let mut l = sharded.lease().expect("shard free");
            l.apply_batch(&[(1, 2), (2, 3), (1, 1)], &mut scratch);
        }
        assert_eq!(sharded.epoch(), 8, "two distinct keys, four rows");
        let runs = sharded.dirty_spans_since(&base).expect("a small frame");
        assert_eq!(cells_of(&runs), cells_touched_by(&sharded, &[1, 2]));
        // An empty frame changes nothing.
        {
            let mut l = sharded.lease().expect("shard free");
            l.apply_batch(&[], &mut scratch);
        }
        assert_eq!(sharded.epoch(), 8, "empty batch must not move the epoch");
    }

    #[test]
    fn a_buffered_sweep_is_one_op_exact_up_to_log_op_max_cells() {
        let mut coins = CoinFlips::from_seed(16);
        let sharded = ShardedPcm::new(wide(), 1, &mut coins);
        let mut l = sharded.lease().expect("shard free");
        let mut scratch = BatchScratch::new(4);
        let base = epochs(&sharded);
        // Four distinct keys over three frames, buffered: 16 cells,
        // exactly `LOG_OP_MAX` at this ring size.
        assert_eq!(LOG_OP_MAX, 16);
        for frame in [&[(1, 1), (2, 1)][..], &[(1, 2), (3, 1)], &[(4, 1)]] {
            scratch.buffer(sharded.hashes(), frame, 1_000, |s| {
                l.sweep(s);
            });
        }
        assert_eq!(sharded.epoch(), 0, "still buffered");
        assert_eq!(l.sweep(&mut scratch), 6);
        assert_eq!(epochs(&sharded), [16], "one op, one entry per cell");
        let runs = sharded.dirty_spans_since(&base).expect("a full-size op");
        assert_eq!(cells_of(&runs), cells_touched_by(&sharded, &[1, 2, 3, 4]));
        assert_eq!(sharded.estimate(1), 3);
        // One distinct key more than fits the log laps every older base.
        let before = epochs(&sharded);
        let frame: Vec<(u64, u64)> = (10..15).map(|k| (k, 1)).collect();
        scratch.absorb(sharded.hashes(), &frame);
        l.sweep(&mut scratch);
        assert_eq!(sharded.dirty_spans_since(&before), None);
        assert_eq!(sharded.dirty_spans_since(&base), None);
        assert_eq!(sharded.dirty_spans_since(&epochs(&sharded)), Some(vec![]));
    }

    #[test]
    fn absorb_cells_adds_a_peer_matrix_and_bumps_the_epoch_once() {
        let mut coins = CoinFlips::from_seed(11);
        let sharded = ShardedPcm::new(params(), 2, &mut coins);
        let mut peer_coins = CoinFlips::from_seed(11);
        let peer = ShardedPcm::new(params(), 2, &mut peer_coins);
        {
            let mut l = sharded.lease().expect("shard free");
            l.update_by(3, 10);
        }
        {
            let mut l = peer.lease().expect("shard free");
            l.update_by(3, 4);
            l.update_by(9, 6);
        }
        let base = epochs(&sharded);
        let peer_cells = peer.cells_snapshot();
        {
            let mut l = sharded.lease().expect("shard free");
            l.absorb_cells(&peer_cells);
        }
        // The absorbed sketch equals the cell-wise merge.
        assert_eq!(sharded.stream_len_estimate(), 20);
        assert!(sharded.estimate(3) >= 14);
        assert!(sharded.estimate(9) >= 6);
        // One publication for the whole matrix, one touch per non-zero
        // peer cell; the dirty runs are exactly the absorbed cells so
        // deltas against older bases still work.
        let now = epochs(&sharded);
        let absorbed = cells_touched_by(&sharded, &[3, 9]);
        assert_eq!(
            now.iter().sum::<u64>(),
            base.iter().sum::<u64>() + absorbed.len() as u64
        );
        let runs = sharded.dirty_spans_since(&base).expect("a sparse peer");
        assert_eq!(cells_of(&runs), absorbed);
        // An all-zero matrix is a no-op (no epoch bump).
        {
            let mut l = sharded.lease().expect("shard free");
            l.absorb_cells(&vec![0u64; 64 * 4]);
        }
        assert_eq!(epochs(&sharded), now, "zero matrix must not move the epoch");
    }

    #[test]
    fn polls_racing_a_lapping_writer_never_miss_a_cell() {
        // The ring is 64 entries here, so a free-running writer laps it
        // every 16 updates — between polls and while one is copying
        // entries. Whatever a poll answers, the cache it maintains must
        // hold, for every cell, at least the value as of the epoch
        // vector it recorded (read before the cells), and never more
        // than the final matrix.
        const OPS: u64 = 200_000;
        let mut coins = CoinFlips::from_seed(15);
        let sharded = ShardedPcm::new(params(), 1, &mut coins);
        // The four cells update `key` touches, for every key, up front:
        // the reader's bookkeeping must stay cheaper than the writes.
        let mut cols = Vec::new();
        let mut touches = Vec::with_capacity(OPS as usize * 4);
        for key in 0..OPS {
            PairwiseHash::hash_row_batch(sharded.hashes(), key, &mut cols);
            touches.extend(cols.iter().enumerate().map(|(row, &col)| row * 64 + col));
        }
        let polls = AtomicU64::new(0);
        // A touch count the writer runs to without waiting for polls,
        // raised by the reader when it wants its base lapped.
        let ahead = AtomicU64::new(0);
        let (mut deltas, mut fulls) = (0u32, 0u32);
        std::thread::scope(|s| {
            let mut l = sharded.lease().expect("shard free");
            let (polls, ahead) = (&polls, &ahead);
            let writer = s.spawn(move || {
                let mut key = 0;
                for burst in 0u64.. {
                    // Bursts of 1..=8 updates (4..=32 touches); every
                    // other one waits for a poll unless the reader asked
                    // for a lap, so a poll sees from 4 to 64 touches, or
                    // more than the window: both answers occur.
                    for _ in 0..(1 + burst * 5 % 8).min(OPS - key) {
                        l.update_by(key, 1);
                        key += 1;
                    }
                    if key == OPS {
                        return;
                    }
                    if burst % 2 == 0 {
                        let seen = polls.load(Ordering::Acquire);
                        loop {
                            match polls.load(Ordering::Acquire) {
                                u64::MAX => return, // the reader failed an assertion
                                polled if polled != seen => break,
                                _ if key * 4 <= ahead.load(Ordering::Acquire) => break,
                                _ => std::thread::yield_now(),
                            }
                        }
                    }
                }
            });
            // Releases a waiting writer if the reader unwinds.
            struct Unblock<'a>(&'a AtomicU64);
            impl Drop for Unblock<'_> {
                fn drop(&mut self) {
                    self.0.store(u64::MAX, Ordering::Release);
                }
            }
            let _unblock = Unblock(polls);
            // `as_of[cell]` after `applied` updates, advanced lazily.
            let mut as_of = vec![0u64; 64 * 4];
            let mut applied = 0;
            let mut cache = sharded.cells_snapshot();
            let mut base = vec![0u64];
            for round in 0u64.. {
                if round % 512 == 511 {
                    let lapped = base[0] + (LOG_CAP - LOG_OP_MAX) as u64 + 1;
                    ahead.store(lapped, Ordering::Release);
                    while !writer.is_finished() && sharded.epoch() < lapped {
                        std::thread::yield_now();
                    }
                }
                let done = writer.is_finished();
                let now = epochs(&sharded);
                match sharded.dirty_spans_since(&base) {
                    Some(runs) => {
                        deltas += !runs.is_empty() as u32;
                        let mut values = Vec::new();
                        sharded.sum_runs_into(&runs, &mut values);
                        for ((row, col), value) in cells_of_in_order(&runs).zip(values) {
                            cache[row as usize * 64 + col as usize] = value;
                        }
                    }
                    None => {
                        fulls += 1;
                        cache = sharded.cells_snapshot();
                    }
                }
                // Four touches per update, no over-size op: the epoch
                // counts whole updates.
                for &cell in &touches[applied * 4..now[0] as usize] {
                    as_of[cell] += 1;
                }
                applied = now[0] as usize / 4;
                for (cell, (&have, &owed)) in cache.iter().zip(&as_of).enumerate() {
                    assert!(
                        have >= owed,
                        "cell {cell}: cache {have} < {owed} at {now:?}"
                    );
                }
                base = now;
                polls.fetch_add(1, Ordering::Release);
                if done {
                    break;
                }
            }
            writer.join().unwrap();
            assert_eq!(applied as u64, OPS);
            assert_eq!(cache, as_of, "a quiescent poll converges exactly");
            assert_eq!(cache, sharded.cells_snapshot());
        });
        assert!(deltas > 0 && fulls > 0, "{deltas} deltas, {fulls} fulls");
    }

    #[test]
    fn never_underestimates_at_quiescence() {
        let mut coins = CoinFlips::from_seed(5);
        let sharded = ShardedPcm::new(params(), 3, &mut coins);
        crossbeam::scope(|s| {
            for t in 0..3u64 {
                let mut h = sharded.handle();
                s.spawn(move |_| {
                    for _ in 0..1_000 {
                        h.update(t);
                    }
                });
            }
        })
        .unwrap();
        for t in 0..3u64 {
            assert!(sharded.estimate(t) >= 1_000);
        }
    }
}
