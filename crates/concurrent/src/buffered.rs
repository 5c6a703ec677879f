//! A buffered IVL CountMin: thread-local write buffers propagated to
//! the shared matrix every `b` updates — the sketch analogue of the
//! paper's *batched counter* (Algorithm 2, Lemma 10).
//!
//! Each writer's buffer is a [`BatchScratch`] kept across updates: the
//! first occurrence of an item memoizes its per-row columns, repeat
//! occurrences coalesce into the existing entry without re-hashing or
//! touching shared memory. Once the buffered weight reaches the batch
//! bound `b`, the buffer *propagates* through [`Pcm`]'s sweep: each
//! entry's count is added to the shared cells with one `fetch_add` per
//! row (the `PCM` write path — commutative, so flush order across
//! threads is irrelevant). Queries read the shared matrix directly,
//! exactly like [`Pcm`]. The served CountMin runs the same buffer over a
//! shard lease (`ShardLease::sweep`).
//!
//! **Correctness (Lemma 10 analogue).** After any prefix of a run, a
//! handle holds strictly less than `b` buffered weight (reaching `b`
//! triggers a flush before `update` returns). A query's cell read
//! therefore sees every update except at most `n·b` weight of
//! *completed-but-buffered* updates across the `n` live handles, and
//! never sees weight that was not added. Per cell, the value read lies
//! in `[v_applied, v_applied + in-flight]` where `v_applied ≥ v_all −
//! n·b`, so the returned minimum `f̂_a` satisfies `f_a^start − n·b ≤
//! f̂_a ≤ f_a^end + ε·len` — the `PCM` IVL envelope of Corollary 8
//! widened on the low side by `n·b`, mirroring Lemma 10's
//! `x − n·b ≤ read ≤ X`. The deferred-visibility history itself is
//! *not* IVL (a completed update may be invisible, like
//! [`delegation`](crate::delegation)); the point of the batched
//! construction is that the *quantitative relaxation* stays tight and
//! explicit: widen the envelope by `n·b` and every answer is covered.
//! The service layer does exactly that (`Envelope::lag`).
//!
//! The proptest in `crates/concurrent/tests/buffered_props.rs` checks
//! the bound per key over arbitrary interleavings; DESIGN.md §9 gives
//! the argument in full.

use crate::batch::BatchScratch;
use crate::pcm::Pcm;
use crate::{ConcurrentSketch, SketchHandle};
use ivl_sketch::countmin::{CountMin, CountMinParams};
use ivl_sketch::CoinFlips;

/// Cap on distinct buffered items per handle. Past this the buffer
/// flushes early (always safe — the `n·b` bound only shrinks), keeping
/// memory and flush latency bounded for huge `b`.
const MAX_ENTRIES: u64 = 1024;

/// The buffered concurrent CountMin (batched-counter construction).
///
/// # Examples
///
/// ```
/// use ivl_concurrent::{BufferedPcm, ConcurrentSketch, SketchHandle};
/// use ivl_sketch::countmin::CountMinParams;
/// use ivl_sketch::CoinFlips;
///
/// let mut coins = CoinFlips::from_seed(3);
/// let sketch = BufferedPcm::new(CountMinParams { width: 64, depth: 4 }, 8, &mut coins);
/// let mut h = sketch.handle();
/// for _ in 0..20 {
///     h.update(5);
/// }
/// // Up to b−1 = 7 updates may still be buffered…
/// assert!(sketch.estimate(5) >= 20 - 7);
/// h.flush();
/// // …and flush publishes the rest.
/// assert_eq!(sketch.estimate(5), 20);
/// ```
#[derive(Debug)]
pub struct BufferedPcm {
    pcm: Pcm,
    batch: u64,
}

impl BufferedPcm {
    /// Creates a buffered CountMin with batch bound `batch`, drawing
    /// hashes from `coins` (same coins ⇒ same `c̄` as
    /// [`CountMin::new`]).
    pub fn new(params: CountMinParams, batch: u64, coins: &mut CoinFlips) -> Self {
        let proto = CountMin::new(params, coins);
        Self::from_prototype(&proto, batch)
    }

    /// Creates a buffered CountMin sharing the hashes of an (empty)
    /// prototype.
    ///
    /// # Panics
    ///
    /// Panics if the prototype has already ingested updates.
    pub fn from_prototype(proto: &CountMin, batch: u64) -> Self {
        BufferedPcm {
            pcm: Pcm::from_prototype(proto),
            batch: batch.max(1),
        }
    }

    /// The sketch dimensions.
    pub fn params(&self) -> CountMinParams {
        self.pcm.params()
    }

    /// The batch bound `b`: a handle holds strictly less than `b`
    /// buffered weight between updates.
    pub fn batch(&self) -> u64 {
        self.batch
    }

    /// Estimates `item`'s frequency from the shared matrix (the `PCM`
    /// read path — buffered weight is invisible until propagated).
    pub fn estimate(&self, item: u64) -> u64 {
        self.pcm.estimate(item)
    }
}

/// A writer handle owning one write buffer; drops flush, so a finished
/// writer never strands weight.
#[derive(Debug)]
pub struct BufferedHandle<'a> {
    parent: &'a BufferedPcm,
    buf: BatchScratch,
    flushes: u64,
}

impl BufferedHandle<'_> {
    /// Buffers `count` occurrences of `item`, propagating the whole
    /// buffer when its weight reaches the batch bound. Weight-0 updates
    /// still count 1 toward the bound.
    pub fn update_by(&mut self, item: u64, count: u64) {
        let (pcm, flushes) = (&self.parent.pcm, &mut self.flushes);
        self.buf
            .buffer(pcm.hashes(), &[(item, count)], self.parent.batch, |buf| {
                pcm.sweep(buf);
                *flushes += 1;
            });
    }

    /// Weight buffered but not yet visible to queries.
    pub fn pending(&self) -> u64 {
        self.buf.pending()
    }

    /// Number of propagations performed so far.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    fn propagate(&mut self) {
        if !self.buf.is_empty() {
            self.parent.pcm.sweep(&mut self.buf);
            self.flushes += 1;
        }
    }
}

impl SketchHandle for BufferedHandle<'_> {
    fn update(&mut self, item: u64) {
        self.update_by(item, 1);
    }

    fn flush(&mut self) {
        self.propagate();
    }
}

impl Drop for BufferedHandle<'_> {
    fn drop(&mut self) {
        self.propagate();
    }
}

impl ConcurrentSketch for BufferedPcm {
    type Handle<'a> = BufferedHandle<'a>;

    fn handle(&self) -> BufferedHandle<'_> {
        let entries = self.batch.min(MAX_ENTRIES) as usize;
        BufferedHandle {
            parent: self,
            buf: BatchScratch::with_capacity(self.params().depth, entries),
            flushes: 0,
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
    fn flushed_state_equals_sequential_sketch() {
        let mut coins = CoinFlips::from_seed(1);
        let mut cm = CountMin::new(params(), &mut coins);
        let buffered = BufferedPcm::from_prototype(&cm, 64);
        {
            let mut h = buffered.handle();
            for x in 0..5_000u64 {
                cm.update(x % 97);
                h.update(x % 97);
            }
        } // drop flushes
        for item in 0..97u64 {
            assert_eq!(buffered.estimate(item), cm.estimate(item), "item {item}");
        }
    }

    #[test]
    fn estimate_lags_by_less_than_b_per_handle() {
        let buffered = BufferedPcm::new(params(), 16, &mut CoinFlips::from_seed(2));
        let mut h = buffered.handle();
        for i in 0..100u64 {
            h.update(7);
            let est = buffered.estimate(7);
            assert!(est <= i + 1, "overcounts: {est} > {}", i + 1);
            assert!(est + 16 > i + 1, "lags by >= b: {est} after {}", i + 1);
        }
    }

    #[test]
    fn weighted_updates_trigger_flush_at_weight_bound() {
        let buffered = BufferedPcm::new(params(), 10, &mut CoinFlips::from_seed(3));
        let mut h = buffered.handle();
        h.update_by(4, 9);
        assert_eq!(buffered.estimate(4), 0, "under the bound: still buffered");
        assert_eq!(h.pending(), 9);
        h.update_by(4, 1);
        assert_eq!(buffered.estimate(4), 10, "bound reached: propagated");
        assert_eq!(h.pending(), 0);
        assert_eq!(h.flushes(), 1);
    }

    #[test]
    fn coalescing_keeps_one_entry_per_item() {
        let buffered = BufferedPcm::new(params(), 1_000, &mut CoinFlips::from_seed(4));
        let mut h = buffered.handle();
        for _ in 0..50 {
            for item in [1u64, 2, 3] {
                h.update(item);
            }
        }
        assert_eq!(h.buf.len(), 3, "one buffered entry per distinct item");
        assert_eq!(h.pending(), 150);
        h.flush();
        assert_eq!((h.pending(), h.flushes()), (0, 1));
        for item in [1u64, 2, 3] {
            assert!(buffered.estimate(item) >= 50);
        }
    }

    #[test]
    fn entry_table_overflow_forces_early_drain() {
        // b far above MAX_ENTRIES: distinct items must still flush
        // once the table fills, long before the weight bound.
        let buffered = BufferedPcm::new(params(), u64::MAX / 2, &mut CoinFlips::from_seed(6));
        let mut h = buffered.handle();
        for item in 0..10_000u64 {
            h.update(item);
        }
        assert!(h.flushes() >= 1, "table never flushed");
    }

    #[test]
    fn many_handles_propagate_commutatively() {
        let mut coins = CoinFlips::from_seed(7);
        let mut cm = CountMin::new(params(), &mut coins);
        let buffered = BufferedPcm::from_prototype(&cm, 8);
        crossbeam::scope(|s| {
            for t in 0..4u64 {
                let mut h = buffered.handle();
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
            assert_eq!(buffered.estimate(item), cm.estimate(item), "item {item}");
        }
    }
}
