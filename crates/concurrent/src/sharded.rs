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
use crate::batch::{BatchScratch, PREFETCH_DIST};
use crate::{ConcurrentSketch, SketchHandle};
use ivl_sketch::countmin::{CountMin, CountMinParams};
use ivl_sketch::hash::PairwiseHash;
use ivl_sketch::CoinFlips;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Dirty-tracking blocks per row, within a factor of two: a block is
/// the largest power-of-two run of columns that still leaves a row at
/// least this many. An update dirties one block per row, so a moved
/// cell re-sends under 1/128 of its row however wide the sketch, while
/// the scan, the stamp memory and the pages a fresh sketch must fault
/// in stay a few hundred stamps per row (DESIGN.md §14.2 has the
/// measurements behind 128).
const ROW_BLOCKS: usize = 128;

/// Per-shard delta-snapshot metadata, written only by the shard's
/// single writer (the same ownership discipline as the cells): a
/// shard-local update epoch, plus one stamp per block of
/// `1 << block_shift` columns of each row, holding the epoch of the op
/// that last touched the block (0 = never).
///
/// Writer order per op is cells → stamps → shard epoch (all stores
/// `Release`); a reader that loads the shard epoch with `Acquire`
/// therefore sees every stamp and cell of the ops it counted. A block
/// stamped past a reader's base epoch was touched by an op the base
/// does not cover and is re-sent; a stamp seen before its op commits
/// only re-sends early, never misses. Stamps are last-touch marks, not
/// cumulative: the dirty set stays as small as the writes since.
#[derive(Debug)]
struct ShardMeta {
    /// Shard-local op counter; bumped once per update/batch applied.
    epoch: AtomicU64,
    /// Row-major `depth × blocks_per_row` last-touch epochs.
    stamps: Vec<AtomicU64>,
    blocks_per_row: usize,
    block_shift: u32,
}

impl ShardMeta {
    fn new(depth: usize, width: usize) -> Self {
        let block_shift = (width / ROW_BLOCKS).max(1).ilog2();
        let blocks_per_row = ((width - 1) >> block_shift) + 1;
        ShardMeta {
            epoch: AtomicU64::new(0),
            stamps: (0..depth * blocks_per_row)
                .map(|_| AtomicU64::new(0))
                .collect(),
            blocks_per_row,
            block_shift,
        }
    }

    /// Single-writer: marks the blocks of `row` holding `cols` as
    /// touched at `epoch` (after the cell stores, before the commit).
    fn stamp(&self, row: usize, cols: impl Iterator<Item = usize>, epoch: u64) {
        let stamps = &self.stamps[row * self.blocks_per_row..][..self.blocks_per_row];
        for col in cols {
            stamps[col >> self.block_shift].store(epoch, Ordering::Release);
        }
    }

    /// Single-writer: the epoch the in-progress op will commit as.
    fn next_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed) + 1
    }

    /// Single-writer: publishes the op (ordered after its cell stores
    /// and block stamps).
    fn commit(&self, epoch: u64) {
        self.epoch.store(epoch, Ordering::Release);
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
    /// One [`ShardMeta`] per shard (epoch + block stamps), same
    /// single-writer ownership as the matching arena.
    meta: Vec<ShardMeta>,
    /// Single-writer ownership flags, one per shard. [`handle`]
    /// acquires a shard permanently; [`ShardedPcm::lease`] returns it
    /// on drop so serving layers can recycle shards across
    /// connections.
    ///
    /// [`handle`]: ConcurrentSketch::handle
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
        let proto = CountMin::new(params, coins);
        Self::from_prototype(&proto, shards)
    }

    /// Creates a sharded sketch sharing the hashes of an (empty)
    /// prototype — same coins, same deterministic algorithm.
    ///
    /// # Panics
    ///
    /// Panics if the prototype is non-empty or `shards` is 0.
    pub fn from_prototype(proto: &CountMin, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        assert_eq!(
            ivl_sketch::FrequencySketch::stream_len(proto),
            0,
            "prototype must be empty"
        );
        let params = proto.params();
        ShardedPcm {
            params,
            hashes: proto.hashes().to_vec(),
            shards: (0..shards)
                .map(|_| CellArena::new(params.depth, params.width))
                .collect(),
            meta: (0..shards)
                .map(|_| ShardMeta::new(params.depth, params.width))
                .collect(),
            in_use: (0..shards).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// The per-row hash functions (`c̄`), shared with the sequential
    /// prototype. Exposed so a buffered ingest layer can memoize row
    /// columns via [`PairwiseHash::hash_row_batch`] and later apply
    /// them through [`ShardLease::apply_rows`].
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
    /// returns `None` when every shard is busy. Unlike
    /// [`ConcurrentSketch::handle`] (which owns its shard forever), a
    /// lease returns the shard to the free pool on drop — the shape a
    /// serving layer needs to hand shards to connections that come and
    /// go. Leases and permanent handles draw from the same pool, so
    /// the single-writer invariant holds across both.
    pub fn lease(&self) -> Option<ShardLease<'_>> {
        self.acquire_free_shard().map(|shard| ShardLease {
            parent: self,
            shard,
            scratch: Vec::with_capacity(self.params.depth),
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
                    .sum::<u64>()
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
            .sum()
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
                    out[row * width + col] += cell.load(Ordering::Acquire);
                }
            }
        }
        out
    }

    /// The sketch's update epoch: the sum of per-shard op counters
    /// (each `Acquire`-loaded). Monotone, and bumped only by ops that
    /// may change cell values — so an unchanged epoch means an
    /// unchanged summed matrix, which is what lets a snapshot server
    /// answer "since epoch e" with a tiny `Unchanged` frame.
    pub fn epoch(&self) -> u64 {
        self.meta
            .iter()
            .map(|m| m.epoch.load(Ordering::Acquire))
            .sum()
    }

    /// Appends the per-shard epoch vector (the decomposition of
    /// [`epoch`](Self::epoch)) to `out`. A snapshot server remembers
    /// this vector per served epoch so a later
    /// [`dirty_spans_since`](Self::dirty_spans_since) can diff per
    /// shard.
    pub fn shard_epochs_into(&self, out: &mut Vec<u64>) {
        out.extend(self.meta.iter().map(|m| m.epoch.load(Ordering::Acquire)));
    }

    /// The dirty set since `base` (a per-shard epoch vector captured
    /// by [`shard_epochs_into`](Self::shard_epochs_into)) as
    /// `(row, lo, hi)` column runs in row-major order: every block
    /// some shard stamped after its base epoch, adjacent blocks
    /// coalesced. Runs are block-granular (extra columns re-sent) but
    /// never miss: a column changed after `base` was written by an op
    /// whose stamp precedes its epoch bump, which is not in `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base.len()` differs from the shard count.
    pub fn dirty_spans_since(&self, base: &[u64]) -> Vec<(u32, u32, u32)> {
        assert_eq!(base.len(), self.meta.len(), "one base epoch per shard");
        let (blocks, shift) = (self.meta[0].blocks_per_row, self.meta[0].block_shift);
        // One linear pass per shard that moved, OR-ed into a block
        // bitmap; shards still at their base epoch are never scanned.
        let mut dirty = vec![false; self.params.depth * blocks];
        for (meta, &since) in self.meta.iter().zip(base) {
            if meta.epoch.load(Ordering::Acquire) > since {
                for (flag, stamp) in dirty.iter_mut().zip(&meta.stamps) {
                    *flag |= stamp.load(Ordering::Acquire) > since;
                }
            }
        }
        // Runs from the bitmap's edges, found without a data-dependent
        // branch per block: `edges[..n]` alternates run starts and ends.
        let mut runs = Vec::new();
        let mut edges = vec![0u32; blocks + 1];
        for (row, row_dirty) in dirty.chunks_exact(blocks).enumerate() {
            let (mut n, mut prev) = (0, false);
            for (block, &flag) in row_dirty.iter().enumerate() {
                edges[n] = block as u32;
                n += (flag != prev) as usize;
                prev = flag;
            }
            edges[n] = blocks as u32;
            n += prev as usize;
            for pair in edges[..n].chunks_exact(2) {
                let hi = (pair[1] << shift).min(self.params.width as u32);
                runs.push((row as u32, pair[0] << shift, hi));
            }
        }
        runs
    }

    /// Appends the summed (across shards) cell values of `row`'s
    /// columns `[lo, hi)` to `out` — the sparse read backing a delta
    /// snapshot, same per-cell `Acquire` IVL semantics as
    /// [`cells_snapshot`](Self::cells_snapshot).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on an out-of-range row or span.
    pub fn sum_row_range_into(&self, row: usize, lo: usize, hi: usize, out: &mut Vec<u64>) {
        debug_assert!(row < self.params.depth && hi <= self.params.width && lo <= hi);
        let at = out.len();
        out.resize(at + (hi - lo), 0);
        for shard in &self.shards {
            let cells = shard.row_cells(row);
            for (slot, col) in out[at..].iter_mut().zip(lo..hi) {
                *slot += cells.cell(col).load(Ordering::Acquire);
            }
        }
    }
}

/// Single-writer add of `count` at one pre-hashed column per row:
/// plain load + `Release` store per cell — no RMW, the shard has
/// exactly one writer. The shared body of [`ShardHandle::update_by`],
/// [`ShardLease::update_by`] and [`ShardLease::apply_rows`]. Marks the
/// touched blocks in the shard's delta metadata (one stamp per row,
/// one epoch store per call — still store-only).
fn add_at_cols(parent: &ShardedPcm, shard: usize, cols: impl Iterator<Item = usize>, count: u64) {
    let arena = &parent.shards[shard];
    let meta = &parent.meta[shard];
    let epoch = meta.next_epoch();
    for (row, col) in cols.enumerate() {
        let cell = arena.cell(row, col);
        let cur = cell.load(Ordering::Relaxed);
        cell.store(cur + count, Ordering::Release);
        meta.stamp(row, std::iter::once(col), epoch);
    }
    meta.commit(epoch);
}

/// Single-writer updater over one shard.
#[derive(Debug)]
pub struct ShardHandle<'a> {
    parent: &'a ShardedPcm,
    shard: usize,
    /// Reusable row-index buffer for [`PairwiseHash::hash_row_batch`];
    /// lives on the handle so a stream of updates allocates once.
    scratch: Vec<usize>,
}

impl ShardHandle<'_> {
    /// The shard this handle owns.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Batched update: `count` occurrences at once (the paper's
    /// batched updates; one store per row regardless of `count`).
    /// Row indices come from one [`PairwiseHash::hash_row_batch`]
    /// pass into the handle's scratch buffer.
    pub fn update_by(&mut self, item: u64, count: u64) {
        PairwiseHash::hash_row_batch(&self.parent.hashes, item, &mut self.scratch);
        add_at_cols(self.parent, self.shard, self.scratch.iter().copied(), count);
    }
}

impl SketchHandle for ShardHandle<'_> {
    fn update(&mut self, item: u64) {
        self.update_by(item, 1);
    }
}

/// A single-writer shard checkout that returns its shard to the free
/// pool on drop (see [`ShardedPcm::lease`]).
#[derive(Debug)]
pub struct ShardLease<'a> {
    parent: &'a ShardedPcm,
    shard: usize,
    /// Reusable row-index buffer (see [`ShardHandle`]).
    scratch: Vec<usize>,
}

impl ShardLease<'_> {
    /// The shard this lease owns.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Batched update: `count` occurrences at once (one store per row
    /// regardless of `count`). Row indices come from one
    /// [`PairwiseHash::hash_row_batch`] pass into the lease's scratch
    /// buffer.
    pub fn update_by(&mut self, item: u64, count: u64) {
        PairwiseHash::hash_row_batch(&self.parent.hashes, item, &mut self.scratch);
        add_at_cols(self.parent, self.shard, self.scratch.iter().copied(), count);
    }

    /// Applies a whole frame of `(item, count)` pairs to the leased
    /// shard: `scratch` coalesces duplicate keys and memoizes each
    /// distinct key's columns with one
    /// [`PairwiseHash::hash_row_batch`] sweep, then the single-writer
    /// stores run **row-major** with the next
    /// [`PREFETCH_DIST`](crate::batch::PREFETCH_DIST) cells warmed
    /// ahead of the write cursor by a relaxed load. Same load +
    /// `Release` store per cell as [`add_at_cols`] — the shard still
    /// has exactly one writer — so the final state is identical to
    /// per-item [`update_by`](Self::update_by) calls.
    pub fn apply_batch(&mut self, items: &[(u64, u64)], scratch: &mut BatchScratch) {
        let n = scratch.prepare(&self.parent.hashes, items);
        let m = &self.parent.shards[self.shard];
        let meta = &self.parent.meta[self.shard];
        let epoch = meta.next_epoch();
        for row in 0..self.parent.params.depth {
            let cells = m.row_cells(row);
            let cols = scratch.row_cols(row);
            let counts = &scratch.counts()[..n];
            let warm = n.saturating_sub(PREFETCH_DIST);
            for e in 0..warm {
                let _ = cells
                    .cell(cols[e + PREFETCH_DIST] as usize)
                    .load(Ordering::Relaxed);
                let cell = cells.cell(cols[e] as usize);
                let cur = cell.load(Ordering::Relaxed);
                cell.store(cur + counts[e], Ordering::Release);
            }
            for e in warm..n {
                let cell = cells.cell(cols[e] as usize);
                let cur = cell.load(Ordering::Relaxed);
                cell.store(cur + counts[e], Ordering::Release);
            }
            // Stamps after the row's cell stores, so a reader that sees
            // a stamp sees the cells it marks.
            meta.stamp(row, cols[..n].iter().map(|&c| c as usize), epoch);
        }
        if n > 0 {
            meta.commit(epoch);
        }
    }

    /// Adds a peer's full `depth × width` cell matrix (row-major, as
    /// shipped by a snapshot) into the leased shard — the CountMin
    /// absorb path of replication catch-up. Cells are additive, so
    /// adding the peer matrix into any one shard makes the summed
    /// sketch equal the cell-wise merge of the two sketches
    /// (concatenated-stream semantics, like `CountMin::merge`). Same
    /// single-writer discipline as [`update_by`](Self::update_by):
    /// plain load + `Release` store and block stamp per touched cell,
    /// one epoch commit for the whole matrix. Zero cells are skipped
    /// (no store, no stamp), so absorbing a sparse peer keeps deltas
    /// sparse.
    ///
    /// # Panics
    ///
    /// Panics if `cells.len()` differs from `depth * width` — callers
    /// gate peer dimensions (and hash fingerprints) before absorbing.
    pub fn absorb_cells(&mut self, cells: &[u64]) {
        let (depth, width) = (self.parent.params.depth, self.parent.params.width);
        assert_eq!(cells.len(), depth * width, "one cell per (row, col)");
        let arena = &self.parent.shards[self.shard];
        let meta = &self.parent.meta[self.shard];
        let epoch = meta.next_epoch();
        let mut touched = false;
        for row in 0..depth {
            let row_cells = arena.row_cells(row);
            let src = &cells[row * width..(row + 1) * width];
            for (col, &add) in src.iter().enumerate() {
                if add == 0 {
                    continue;
                }
                let cell = row_cells.cell(col);
                let cur = cell.load(Ordering::Relaxed);
                cell.store(cur + add, Ordering::Release);
                meta.stamp(row, std::iter::once(col), epoch);
                touched = true;
            }
        }
        if touched {
            meta.commit(epoch);
        }
    }

    /// Adds `count` at pre-hashed per-row columns (`cols[row]`, one
    /// per row, as memoized by
    /// [`UpdateBuffer`](crate::buffered::UpdateBuffer)): the buffered
    /// flush path, which skips re-hashing entirely.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `cols` has the wrong length or a
    /// column is out of range — callers must memoize with the parent's
    /// [`ShardedPcm::hashes`].
    pub fn apply_rows(&mut self, cols: &[u32], count: u64) {
        debug_assert_eq!(cols.len(), self.parent.params.depth);
        add_at_cols(
            self.parent,
            self.shard,
            cols.iter().map(|&c| c as usize),
            count,
        );
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
    type Handle<'a> = ShardHandle<'a>;

    /// Hands out the lowest free shard, permanently.
    ///
    /// # Panics
    ///
    /// Panics when more handles are requested than shards exist —
    /// two handles on one shard would break the single-writer cells.
    fn handle(&self) -> ShardHandle<'_> {
        let shard = self.acquire_free_shard().unwrap_or_else(|| {
            panic!("more handles requested than shards ({})", self.shards.len())
        });
        ShardHandle {
            parent: self,
            shard,
            scratch: Vec::with_capacity(self.params.depth),
        }
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
        // The handle's shard is permanent; the lease's shard returns.
        assert_eq!(sharded.lease().expect("lease shard free").shard(), 1);
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

    /// Wide enough for multi-column blocks: `1024 / ROW_BLOCKS`.
    const BLOCK: usize = 8;

    fn wide() -> CountMinParams {
        CountMinParams {
            width: 1024,
            depth: 4,
        }
    }

    /// Whether some returned run covers (`row`, `col`).
    fn covered(runs: &[(u32, u32, u32)], row: usize, col: usize) -> bool {
        runs.iter()
            .any(|&(r, lo, hi)| r as usize == row && (lo as usize..hi as usize).contains(&col))
    }

    /// Every key's column of every row is inside a run of `runs`.
    fn assert_keys_covered(sharded: &ShardedPcm, runs: &[(u32, u32, u32)], keys: &[u64]) {
        for (row, h) in sharded.hashes().iter().enumerate() {
            for &key in keys {
                let col = h.hash_reduced(PairwiseHash::reduce(key));
                assert!(
                    covered(runs, row, col),
                    "row {row}: no run covers col {col}"
                );
            }
        }
    }

    #[test]
    fn a_row_has_between_one_and_two_times_row_blocks_blocks() {
        // (width, columns per block, blocks per row): the serving
        // default, the 1 MiB benchmark sketch, and a narrow one.
        for (width, cols, blocks) in [(544, 4, 136), (27_183, 128, 213), (64, 1, 64)] {
            let meta = ShardMeta::new(5, width);
            assert_eq!(
                (1usize << meta.block_shift, meta.blocks_per_row),
                (cols, blocks)
            );
            assert_eq!(meta.stamps.len(), 5 * blocks);
        }
    }

    #[test]
    fn epoch_tracks_updates_and_dirty_runs_cover_touches() {
        let mut coins = CoinFlips::from_seed(9);
        let sharded = ShardedPcm::new(wide(), 2, &mut coins);
        assert_eq!(sharded.epoch(), 0);
        let mut base = Vec::new();
        sharded.shard_epochs_into(&mut base);
        assert_eq!(base, vec![0, 0]);
        assert!(sharded.dirty_spans_since(&base).is_empty(), "clean sketch");
        {
            let mut a = sharded.lease().expect("shard free");
            a.update_by(3, 10);
            a.update_by(11, 5);
        }
        assert_eq!(sharded.epoch(), 2, "one epoch bump per update");
        let runs = sharded.dirty_spans_since(&base);
        assert_keys_covered(&sharded, &runs, &[3, 11]);
        // Two keys dirty at most two blocks per row, and runs are
        // block-aligned, in range and non-empty.
        let dirty_cols: u32 = runs.iter().map(|&(_, lo, hi)| hi - lo).sum();
        assert!(dirty_cols as usize <= 2 * BLOCK * 4);
        for &(_, lo, hi) in &runs {
            assert!(lo < hi && hi <= 1024 && (lo as usize).is_multiple_of(BLOCK));
        }
        // The sparse range read agrees with the full snapshot.
        let full = sharded.cells_snapshot();
        for &(row, lo, hi) in &runs {
            let (row, lo, hi) = (row as usize, lo as usize, hi as usize);
            let mut got = Vec::new();
            sharded.sum_row_range_into(row, lo, hi, &mut got);
            assert_eq!(got, full[row * 1024 + lo..row * 1024 + hi]);
        }
        // Diffing against the current epoch vector reports nothing.
        let mut now = Vec::new();
        sharded.shard_epochs_into(&mut now);
        assert!(sharded.dirty_spans_since(&now).is_empty());
    }

    #[test]
    fn dirty_runs_track_the_writes_since_the_base_not_the_history() {
        // However warm the sketch (every block touched long ago), one
        // more write must dirty only its own blocks.
        let mut coins = CoinFlips::from_seed(12);
        let sharded = ShardedPcm::new(wide(), 2, &mut coins);
        let mut a = sharded.lease().expect("shard free");
        let mut b = sharded.lease().expect("shard free");
        for key in 0..2_000u64 {
            a.update_by(key, 1);
            b.update_by(key + 7, 1);
        }
        let mut warm = Vec::new();
        sharded.shard_epochs_into(&mut warm);
        a.update_by(5, 1);
        let runs = sharded.dirty_spans_since(&warm);
        assert_keys_covered(&sharded, &runs, &[5]);
        // One block per row, and a far-away block stays clean.
        for (row, h) in sharded.hashes().iter().enumerate() {
            let col = h.hash_reduced(PairwiseHash::reduce(5));
            let row_runs: Vec<_> = runs.iter().filter(|r| r.0 as usize == row).collect();
            assert_eq!(row_runs.len(), 1, "row {row}: one dirty block");
            assert_eq!((row_runs[0].2 - row_runs[0].1) as usize, BLOCK);
            assert!(!covered(&runs, row, (col + 2 * BLOCK) % 1024));
        }
        // Adjacent dirty blocks coalesce into one run, across shards.
        let mut base = Vec::new();
        sharded.shard_epochs_into(&mut base);
        let (one, two) = (BLOCK as u32, 2 * BLOCK as u32);
        a.apply_rows(&[one, 0, 0, 0], 1);
        b.apply_rows(&[two, 0, 0, 0], 1);
        let runs = sharded.dirty_spans_since(&base);
        assert_eq!(runs[0], (0, one, two + one));
        // A shard still at its base epoch contributes nothing: with
        // shard a's base caught up, only b's block remains.
        base[a.shard()] += 1;
        let runs = sharded.dirty_spans_since(&base);
        assert_eq!(runs[0], (0, two, two + one));
    }

    #[test]
    fn batch_kernel_stamps_blocks_and_bumps_epoch_once() {
        let mut coins = CoinFlips::from_seed(10);
        let sharded = ShardedPcm::new(params(), 1, &mut coins);
        let mut base = Vec::new();
        sharded.shard_epochs_into(&mut base);
        let mut scratch = BatchScratch::new(4);
        {
            let mut l = sharded.lease().expect("shard free");
            l.apply_batch(&[(1, 2), (2, 3), (1, 1)], &mut scratch);
        }
        assert_eq!(sharded.epoch(), 1, "one epoch bump per batch frame");
        assert_keys_covered(&sharded, &sharded.dirty_spans_since(&base), &[1, 2]);
        // An empty frame changes nothing.
        {
            let mut l = sharded.lease().expect("shard free");
            l.apply_batch(&[], &mut scratch);
        }
        assert_eq!(sharded.epoch(), 1, "empty batch must not bump the epoch");
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
        let mut base = Vec::new();
        sharded.shard_epochs_into(&mut base);
        let peer_cells = peer.cells_snapshot();
        {
            let mut l = sharded.lease().expect("shard free");
            l.absorb_cells(&peer_cells);
        }
        // The absorbed sketch equals the cell-wise merge.
        assert_eq!(sharded.stream_len_estimate(), 20);
        assert!(sharded.estimate(3) >= 14);
        assert!(sharded.estimate(9) >= 6);
        // One epoch bump for the whole matrix; the dirty runs cover the
        // absorbed columns so deltas against older bases still work.
        let mut now = Vec::new();
        sharded.shard_epochs_into(&mut now);
        assert_eq!(now.iter().sum::<u64>(), base.iter().sum::<u64>() + 1);
        assert_keys_covered(&sharded, &sharded.dirty_spans_since(&base), &[3, 9]);
        // An all-zero matrix is a no-op (no epoch bump).
        {
            let mut l = sharded.lease().expect("shard free");
            l.absorb_cells(&vec![0u64; 64 * 4]);
        }
        let mut after = Vec::new();
        sharded.shard_epochs_into(&mut after);
        assert_eq!(after, now, "zero matrix must not bump the epoch");
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
