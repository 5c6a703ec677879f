//! Property tests for the CountMin write path: every sweep must leave
//! the cells the sequential `CountMin` (or, for `Pcm`, the per-item
//! loop) holds (cell adds commute, so coalescing a frame changes nothing
//! at quiescence), and buffering must never widen a served envelope
//! past its advertised bound — the strict path publishes everything
//! before returning, and a write buffer keeps the strictly-under-`b`
//! pending bound the `lag = shards·b` envelope accounting is built on.

use ivl_concurrent::{BatchScratch, BufferedPcm, ConcurrentSketch, Pcm, ShardedPcm, SketchHandle};
use ivl_sketch::countmin::{CountMin, CountMinParams};
use ivl_sketch::{CoinFlips, FrequencySketch};
use proptest::prelude::*;

const WIDTH: usize = 32;
const DEPTH: usize = 4;

fn proto(seed: u64) -> CountMin {
    CountMin::new(
        CountMinParams {
            width: WIDTH,
            depth: DEPTH,
        },
        &mut CoinFlips::from_seed(seed),
    )
}

/// Frames of (key, weight) pairs over a tiny key space, so duplicate
/// keys within a frame are the common case, not the exception.
fn frames() -> impl Strategy<Value = Vec<Vec<(u64, u64)>>> {
    proptest::collection::vec(proptest::collection::vec((0u64..24, 0u64..6), 0..48), 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Pcm::update_batch` leaves the exact cell matrix of the
    /// per-item `update_by` loop, for any frame sequence.
    #[test]
    fn pcm_update_batch_is_cell_identical(frames in frames(), seed in 0u64..1_000) {
        let proto = proto(seed);
        let batched = Pcm::from_prototype(&proto);
        let per_item = Pcm::from_prototype(&proto);
        let mut scratch = BatchScratch::new(DEPTH);
        for frame in &frames {
            batched.update_batch(frame, &mut scratch);
            for &(key, weight) in frame {
                per_item.update_by(key, weight);
            }
            // Strict kernel: everything published at return — a query
            // between frames sees identical state, so the per-frame
            // coalescing widened no envelope.
            prop_assert_eq!(batched.cells_snapshot(), per_item.cells_snapshot());
        }
    }

    /// `ShardLease::apply_batch` leaves the sequential `CountMin`'s
    /// exact cell matrix, frame by frame (per-item `update_by` is the
    /// kernel itself, so the reference is the oracle).
    #[test]
    fn lease_apply_batch_is_cell_identical(frames in frames(), seed in 0u64..1_000) {
        let mut cm = proto(seed);
        let batched = ShardedPcm::from_prototype(&cm, 2);
        let mut scratch = BatchScratch::new(DEPTH);
        let mut bl = batched.lease().expect("free shard");
        for frame in &frames {
            bl.apply_batch(frame, &mut scratch);
            for &(key, weight) in frame {
                cm.update_by(key, weight);
            }
            prop_assert_eq!(batched.cells_snapshot(), cm.cells());
        }
    }

    /// The write buffer, over any frames and b ∈ {0, 1, 7, 64, 2^40}:
    /// after every frame a lease + scratch writer and a `BufferedPcm`
    /// handle each hold less than `max(b, 1)` unflushed weight (Lemma
    /// 10; `b = 0` is the strict path, holding nothing), every key's
    /// lease estimate lies in `[strict − pending, strict]`, and after a
    /// final sweep both equal the sequential `CountMin`.
    #[test]
    fn buffered_writers_hold_under_b_and_flush_to_the_sequential_sketch(
        frames in frames(),
        b in (0usize..5).prop_map(|i| [0u64, 1, 7, 64, 1 << 40][i]),
        seed in 0u64..1_000,
    ) {
        let mut cm = proto(seed);
        let sharded = ShardedPcm::from_prototype(&cm, 2);
        let buffered = BufferedPcm::from_prototype(&cm, b);
        let mut lease = sharded.lease().expect("free shard");
        let mut scratch = BatchScratch::new(DEPTH);
        let mut bh = buffered.handle();
        let bound = b.max(1);
        for frame in &frames {
            scratch.buffer(sharded.hashes(), frame, b, |s| {
                lease.sweep(s);
            });
            for &(key, weight) in frame {
                bh.update_by(key, weight);
                cm.update_by(key, weight);
            }
            prop_assert!(scratch.pending() < bound, "lease writer holds {} >= {}", scratch.pending(), bound);
            prop_assert!(bh.pending() < bound, "handle holds {} >= {}", bh.pending(), bound);
            for key in 0u64..24 {
                let (got, strict) = (sharded.estimate(key), cm.estimate(key));
                prop_assert!(got <= strict && strict <= got + scratch.pending(), "key {}", key);
            }
        }
        lease.sweep(&mut scratch);
        bh.flush();
        prop_assert_eq!(sharded.cells_snapshot(), cm.cells());
        for key in 0u64..24 {
            prop_assert_eq!(buffered.estimate(key), cm.estimate(key), "key {}", key);
        }
    }

    /// At quiescence every kernel agrees with the sequential
    /// `CountMin` fed the concatenated frames — the same `CM(c̄)` the
    /// replay checker replays against, so Theorem 1 locality and the
    /// per-object verdicts are untouched by how frames were applied.
    #[test]
    fn all_kernels_agree_with_sequential_sketch(frames in frames(), seed in 0u64..1_000) {
        let mut cm = proto(seed);
        let pcm = Pcm::from_prototype(&cm);
        let sharded = ShardedPcm::from_prototype(&cm, 2);
        let buffered = BufferedPcm::from_prototype(&cm, 7);
        let mut scratch = BatchScratch::new(DEPTH);
        {
            let mut lease = sharded.lease().expect("free shard");
            let mut bh = buffered.handle();
            for frame in &frames {
                pcm.update_batch(frame, &mut scratch);
                lease.apply_batch(frame, &mut scratch);
                for &(key, weight) in frame {
                    bh.update_by(key, weight);
                    cm.update_by(key, weight);
                }
            }
        } // the handle's drop flushes
        for key in 0u64..24 {
            let expect = cm.estimate(key);
            prop_assert_eq!(pcm.estimate(key), expect, "pcm key {}", key);
            prop_assert_eq!(sharded.estimate(key), expect, "sharded key {}", key);
            prop_assert_eq!(buffered.estimate(key), expect, "buffered key {}", key);
        }
    }
}
