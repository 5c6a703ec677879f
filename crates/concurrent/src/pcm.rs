//! `PCM(c̄)`: the paper's concurrent CountMin sketch (§5).
//!
//! The straightforward parallelization of Algorithm 1: the counter
//! matrix becomes a matrix of atomics; `update(a)` atomically
//! increments `c[i][h_i(a)]` for each row, `query(a)` reads
//! `c[i][h_i(a)]` for each row and returns the minimum. No locks, no
//! snapshots, no per-thread replicas.
//!
//! **Lemma 7**: `PCM` is an IVL implementation of `CM(c̄)` — each cell
//! read returns a value the cell held inside the query's interval, and
//! cells only grow, so the returned minimum is bounded by the query's
//! value in the "all concurrent updates excluded" and "all concurrent
//! updates included" linearizations. Because the same hash functions
//! (the same `c̄`) drive both `PCM` and the sequential replay, the
//! recorded histories are checked against `CM(c̄)` exactly
//! (`ivl_sketch::cm_spec::CountMinSpec` + the monotone interval
//! checker).
//!
//! **Example 9**: `PCM` is *not* linearizable — reproduced
//! deterministically in the integration tests.
//!
//! **Corollary 8**: `f_a^start ≤ f̂_a ≤ f_a^end + ε` with probability
//! `1 − δ` — validated empirically by the Theorem-6 harness in
//! `ivl-core`.

use crate::arena::CellArena;
use crate::batch::BatchScratch;
use crate::{ConcurrentSketch, SketchHandle};
use ivl_sketch::countmin::{CountMin, CountMinParams};
use ivl_sketch::hash::PairwiseHash;
use ivl_sketch::CoinFlips;
use std::sync::atomic::{AtomicU64, Ordering};

/// The concurrent CountMin sketch `PCM(c̄)`.
///
/// # Examples
///
/// ```
/// use ivl_concurrent::Pcm;
/// use ivl_sketch::CoinFlips;
///
/// let mut coins = CoinFlips::from_seed(1);
/// let pcm = Pcm::for_bounds(0.01, 0.01, &mut coins);
/// crossbeam::scope(|s| {
///     for _ in 0..4 {
///         s.spawn(|_| {
///             for _ in 0..1_000 {
///                 pcm.update(7);
///             }
///         });
///     }
///     // Queries run concurrently with ingestion and return
///     // intermediate values (IVL).
///     assert!(pcm.estimate(7) <= 4_000);
/// })
/// .unwrap();
/// assert_eq!(pcm.estimate(7), 4_000);
/// ```
#[derive(Debug)]
pub struct Pcm {
    params: CountMinParams,
    hashes: Vec<PairwiseHash>,
    cells: CellArena,
}

impl Pcm {
    /// Creates a `PCM(c̄)` with the given dimensions, drawing hashes
    /// from `coins`. Constructing with equal coins yields the same
    /// deterministic algorithm as [`CountMin::new`] — the pair
    /// (`PCM(c̄)`, `CM(c̄)`) of the paper.
    pub fn new(params: CountMinParams, coins: &mut CoinFlips) -> Self {
        let proto = CountMin::new(params, coins);
        Self::from_prototype(&proto)
    }

    /// Creates a `PCM` sharing the hash functions of an existing
    /// (empty) sequential sketch, so both are `·(c̄)` for the same
    /// `c̄`.
    ///
    /// # Panics
    ///
    /// Panics if the prototype has already ingested updates.
    pub fn from_prototype(proto: &CountMin) -> Self {
        assert_eq!(
            ivl_sketch::FrequencySketch::stream_len(proto),
            0,
            "prototype must be empty"
        );
        let params = proto.params();
        Pcm {
            params,
            hashes: proto.hashes().to_vec(),
            cells: CellArena::new(params.depth, params.width),
        }
    }

    /// Creates a `PCM` sized for relative error `alpha` and failure
    /// probability `delta`.
    pub fn for_bounds(alpha: f64, delta: f64, coins: &mut CoinFlips) -> Self {
        Self::new(CountMinParams::for_bounds(alpha, delta), coins)
    }

    /// The sketch dimensions.
    pub fn params(&self) -> CountMinParams {
        self.params
    }

    /// The per-row hash functions (`c̄`) a writer absorbs into its
    /// scratch with before [`sweep`](Self::sweep).
    pub(crate) fn hashes(&self) -> &[PairwiseHash] {
        &self.hashes
    }

    /// Atomically increments `item`'s cell in every row (Algorithm 1
    /// line 5, concurrent version).
    pub fn update(&self, item: u64) {
        self.update_by(item, 1);
    }

    /// Batched update: adds `count` occurrences of `item` with one
    /// atomic add per row (the paper's batched updates — exactly the
    /// case where intermediate values appear: a concurrent query may
    /// observe some rows bumped and others not).
    ///
    /// The `mod p` reduction of `item` happens once, not per row
    /// (see [`PairwiseHash::reduce`]).
    pub fn update_by(&self, item: u64, count: u64) {
        let xr = PairwiseHash::reduce(item);
        for (row, h) in self.hashes.iter().enumerate() {
            self.cells
                .cell(row, h.hash_reduced(xr))
                .fetch_add(count, Ordering::Relaxed);
        }
    }

    /// Applies a whole frame of `(item, count)` pairs:
    /// [`BatchScratch::prepare`], then the row-major sweep of `fetch_add`s.
    /// Cell adds commute, so the final state is identical to per-item
    /// [`update_by`](Self::update_by) calls; a concurrent query sees
    /// some prefix of the sweep, the same intermediate-value freedom
    /// Lemma 7 already covers.
    pub fn update_batch(&self, items: &[(u64, u64)], scratch: &mut BatchScratch) {
        scratch.prepare(&self.hashes, items);
        self.sweep(scratch);
    }

    /// Adds `scratch`'s live entries into the cells — one `fetch_add`
    /// per entry per row, row-major — and clears it; returns the
    /// pending weight swept. The flush of [`BufferedPcm`](crate::BufferedPcm).
    pub(crate) fn sweep(&self, scratch: &mut BatchScratch) -> u64 {
        let add = |cell: &AtomicU64, add| {
            cell.fetch_add(add, Ordering::Relaxed);
        };
        scratch.sweep(&self.cells, add, |_, _| ());
        scratch.clear()
    }

    /// Reads `item`'s cell in every row and returns the minimum
    /// (Algorithm 1 lines 6–11, concurrent version).
    pub fn estimate(&self, item: u64) -> u64 {
        let xr = PairwiseHash::reduce(item);
        self.hashes
            .iter()
            .enumerate()
            .map(|(row, h)| {
                self.cells
                    .cell(row, h.hash_reduced(xr))
                    .load(Ordering::Relaxed)
            })
            .min()
            .expect("depth >= 1")
    }

    /// A monotone estimate of the stream length: every update
    /// increments exactly one cell of row 0, so row 0's sum equals the
    /// number of (visible) updates. O(width), no extra update cost.
    pub fn stream_len_estimate(&self) -> u64 {
        self.cells.row(0).map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Copies the matrix into a sequential [`CountMin`]-shaped vector
    /// (row-major), for diagnostics.
    pub fn cells_snapshot(&self) -> Vec<u64> {
        self.cells
            .cells()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

/// Updater handle for [`Pcm`] (stateless; updates go straight to the
/// shared atomics).
#[derive(Debug)]
pub struct PcmHandle<'a> {
    pcm: &'a Pcm,
}

impl SketchHandle for PcmHandle<'_> {
    fn update(&mut self, item: u64) {
        self.pcm.update(item);
    }
}

impl ConcurrentSketch for Pcm {
    type Handle<'a> = PcmHandle<'a>;

    fn handle(&self) -> PcmHandle<'_> {
        PcmHandle { pcm: self }
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
    fn matches_sequential_sketch_when_single_threaded() {
        let mut coins = CoinFlips::from_seed(1);
        let mut cm = CountMin::new(params(), &mut coins);
        let pcm = Pcm::from_prototype(&cm);
        for x in 0..5_000u64 {
            let item = x % 97;
            cm.update(item);
            pcm.update(item);
        }
        for item in 0..97u64 {
            assert_eq!(pcm.estimate(item), cm.estimate(item), "item {item}");
        }
        assert_eq!(pcm.stream_len_estimate(), cm.stream_len());
    }

    #[test]
    fn concurrent_quiescent_state_equals_sequential() {
        // After all threads quiesce, the matrix equals the sequential
        // sketch fed the concatenated streams (cell increments
        // commute).
        let mut coins = CoinFlips::from_seed(2);
        let mut cm = CountMin::new(params(), &mut coins);
        let pcm = Pcm::from_prototype(&cm);
        let n_threads = 4;
        let per_thread = 10_000u64;
        crossbeam::scope(|s| {
            for t in 0..n_threads {
                let pcm = &pcm;
                s.spawn(move |_| {
                    for k in 0..per_thread {
                        pcm.update((t * per_thread + k) % 61);
                    }
                });
            }
        })
        .unwrap();
        for t in 0..n_threads {
            for k in 0..per_thread {
                cm.update((t * per_thread + k) % 61);
            }
        }
        for item in 0..61u64 {
            assert_eq!(pcm.estimate(item), cm.estimate(item), "item {item}");
        }
    }

    #[test]
    fn never_underestimates_under_concurrent_queries() {
        // The one-sided CountMin guarantee that survives concurrency
        // unconditionally: an estimate is at least the number of
        // *completed* updates of the item at query start.
        let pcm = Pcm::new(params(), &mut CoinFlips::from_seed(3));
        let hot = 7u64;
        let rounds = 20_000u64;
        crossbeam::scope(|s| {
            let pcm = &pcm;
            let writer = s.spawn(move |_| {
                for _ in 0..rounds {
                    pcm.update(hot);
                }
            });
            s.spawn(move |_| {
                let mut last = 0;
                loop {
                    let est = pcm.estimate(hot);
                    assert!(est >= last, "estimate regressed {est} < {last}");
                    last = est;
                    if est >= rounds {
                        break;
                    }
                }
            });
            writer.join().unwrap();
        })
        .unwrap();
        assert!(pcm.estimate(hot) >= rounds);
    }

    #[test]
    fn stream_len_estimate_tracks_updates() {
        let pcm = Pcm::new(params(), &mut CoinFlips::from_seed(4));
        for x in 0..1234u64 {
            pcm.update(x);
        }
        assert_eq!(pcm.stream_len_estimate(), 1234);
    }

    #[test]
    fn handle_updates_are_visible() {
        use crate::{ConcurrentSketch, SketchHandle};
        let pcm = Pcm::new(params(), &mut CoinFlips::from_seed(5));
        let mut h = pcm.handle();
        h.update(9);
        h.update(9);
        assert_eq!(pcm.query(9), 2);
    }
}
