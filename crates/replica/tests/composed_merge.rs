//! Property tests of the composed-merge algebra the replication layer
//! rests on: partitioning a stream across replicas and merging their
//! mergeable states reproduces the single-stream sketch *exactly*, and
//! the composed [`ErrorEnvelope`] still covers the union stream's true
//! frequencies. Mismatched coins or parameters are refused with typed
//! errors — never a panic, never a silently wrong merge.

use ivl_service::{
    cm_hash_fingerprint, hll_hash_fingerprint, slot_coins, CellRun, ComposeError, DeltaChange,
    Envelope, ErrorEnvelope, MergePolicy, Metrics, ObjectConfig, ObjectKind, ObjectRegistry,
    SnapshotDelta, SnapshotState,
};
use ivl_sketch::countmin::{CountMin, CountMinParams};
use ivl_sketch::{FrequencySketch, HyperLogLog};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

const CM_OBJECT: u32 = 0;
const HLL_OBJECT: u32 = 1;

/// The group's prototype build: dimensions fixed, coins from the
/// shared `(seed, object)` slot — what makes replica states mergeable.
fn fresh_cm(seed: u64) -> CountMin {
    CountMin::new(
        CountMinParams {
            width: 128,
            depth: 6,
        },
        &mut slot_coins(seed, CM_OBJECT),
    )
}

fn fresh_hll(seed: u64) -> HyperLogLog {
    HyperLogLog::new(8, &mut slot_coins(seed, HLL_OBJECT))
}

fn truth_of(stream: &[(u64, u64)]) -> HashMap<u64, u64> {
    let mut t = HashMap::new();
    for &(k, w) in stream {
        *t.entry(k).or_default() += w;
    }
    t
}

/// A served registry as a delta-capable replica runs it: a CountMin
/// and an HLL sharing the group seed, zero write buffer so every
/// update is snapshot-visible immediately.
fn delta_registry(seed: u64) -> ObjectRegistry {
    ObjectRegistry::build(
        &[
            ObjectConfig::new("cm", ObjectKind::CountMin),
            ObjectConfig::new("hll", ObjectKind::Hll),
        ],
        0.005,
        0.01,
        2,
        0,
        seed,
    )
}

/// Applies `batch` to object `id` through its ordinary write path.
fn feed(r: &ObjectRegistry, metrics: &Metrics, id: u32, batch: &[(u64, u64)]) {
    let obj = r.get(id).expect("registered object");
    let mut w = obj.writer(metrics);
    w.ensure_ready().expect("zero-buffer writer acquires");
    for item in batch {
        w.apply_batch(std::slice::from_ref(item));
    }
    w.release();
}

/// Applies a `SNAPSHOT_SINCE` reply into a client-side `(epoch, state)`
/// cache exactly as `ReplicaGroup` does: `Unchanged` keeps the cells,
/// CountMin runs overwrite in place (runs carry summed values, so
/// patching is idempotent), `Full` replaces — refusing any delta whose
/// base epoch does not match the cache.
fn apply_delta(
    cache: &mut Option<(u64, SnapshotState)>,
    delta: SnapshotDelta,
) -> Result<(), String> {
    match delta.change {
        DeltaChange::Unchanged => {
            let Some((epoch, _)) = cache else {
                return Err("`unchanged` reply with no cache to keep".into());
            };
            *epoch = delta.epoch;
        }
        DeltaChange::CmRuns {
            base_epoch,
            runs,
            values,
        } => {
            let Some((
                epoch,
                SnapshotState::CountMin {
                    width,
                    depth,
                    cells,
                    ..
                },
            )) = cache
            else {
                return Err("cell runs against a missing or non-CountMin cache".into());
            };
            if *epoch != base_epoch {
                return Err(format!(
                    "delta diffed from base {base_epoch}, cache holds epoch {epoch}"
                ));
            }
            let (w, d) = (*width as usize, *depth as usize);
            for (run, new) in CellRun::zip_values(&runs, &values) {
                let (row, lo) = (run.row as usize, run.lo as usize);
                if row >= d || lo + new.len() > w {
                    return Err("delta run out of bounds".into());
                }
                cells[row * w + lo..row * w + lo + new.len()].copy_from_slice(new);
            }
            *epoch = delta.epoch;
        }
        DeltaChange::Full(state) => *cache = Some((delta.epoch, state)),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Partitioned CountMin: cell-wise merging the parts reproduces
    /// the single-stream sketch exactly, and the merged estimate sits
    /// inside the envelope composed from the parts' own envelopes —
    /// the replication layer's served bound is the sequential merge
    /// theorem read through Theorem 6, not an invention.
    #[test]
    fn partitioned_countmin_merge_is_exact_and_covered(
        stream in proptest::collection::vec((0u64..40, 1u64..4), 1..200),
        parts in 1usize..5,
        seed in 0u64..1000,
    ) {
        let mut full = fresh_cm(seed);
        let mut shards: Vec<CountMin> = (0..parts).map(|_| fresh_cm(seed)).collect();
        for (i, &(k, w)) in stream.iter().enumerate() {
            full.update_by(k, w);
            shards[i % parts].update_by(k, w);
        }

        let mut merged = fresh_cm(seed);
        for s in &shards {
            merged.merge(s);
        }
        prop_assert_eq!(merged.cells(), full.cells());

        let alpha = merged.params().alpha();
        let delta = merged.params().delta();
        for (&k, &f) in &truth_of(&stream) {
            // Each part's envelope bounds its own substream; compose
            // them as the group does, then install the merged-cells
            // estimate in place of the (over-counting) estimate sum.
            let part_envs: Vec<ErrorEnvelope> = shards
                .iter()
                .map(|s| {
                    ErrorEnvelope::Frequency(Envelope::new(
                        k,
                        s.estimate(k),
                        s.stream_len(),
                        alpha,
                        delta,
                        0,
                    ))
                })
                .collect();
            let composed = match ErrorEnvelope::compose(&part_envs, MergePolicy::Add) {
                Ok(env) => env,
                Err(e) => return Err(proptest::test_runner::TestCaseError::fail(
                    format!("same-coin parts must compose: {e}"),
                )),
            };
            let Some(env) = composed.frequency() else {
                return Err(proptest::test_runner::TestCaseError::fail(
                    "composed frequency envelope changed kind",
                ));
            };
            prop_assert_eq!(env.stream_len, full.stream_len());
            let est = merged.estimate(k);
            prop_assert!(
                est <= env.estimate,
                "merged estimate above the sum of part estimates"
            );
            let mut installed = *env;
            installed.estimate = est;
            prop_assert!(
                installed.covers(f, f),
                "merged estimate outside the composed envelope"
            );
        }
    }

    /// Partitioned HLL: register-wise max merging the parts reproduces
    /// the single-stream registers exactly (the merge is idempotent
    /// and commutative), so the merged estimate equals the full
    /// stream's and dominates every part's.
    #[test]
    fn partitioned_hll_merge_equals_single_stream(
        stream in proptest::collection::vec(0u64..10_000, 1..300),
        parts in 1usize..5,
        seed in 0u64..1000,
    ) {
        let mut full = fresh_hll(seed);
        let mut shards: Vec<HyperLogLog> = (0..parts).map(|_| fresh_hll(seed)).collect();
        for (i, &k) in stream.iter().enumerate() {
            full.update(k);
            shards[i % parts].update(k);
        }
        let mut merged = fresh_hll(seed);
        for s in &shards {
            merged.merge(s);
        }
        prop_assert_eq!(merged.registers(), full.registers());
        for s in &shards {
            prop_assert!(merged.estimate() >= s.estimate());
        }
        // Mirroring (merging the same part twice) changes nothing.
        let before = merged.registers().to_vec();
        merged.merge(&shards[0]);
        prop_assert_eq!(merged.registers(), &before[..]);
    }

    /// The probe fingerprints carried in snapshots: equal for replicas
    /// sharing a seed slot, different across seeds — the mechanism
    /// that turns a mis-seeded merge into a typed refusal.
    #[test]
    fn coin_fingerprints_detect_seed_mismatch(
        seed in 0u64..5000,
        skew in 1u64..5000,
    ) {
        let a = fresh_cm(seed);
        let b = fresh_cm(seed);
        let c = fresh_cm(seed + skew);
        prop_assert_eq!(cm_hash_fingerprint(a.hashes()), cm_hash_fingerprint(b.hashes()));
        prop_assert_ne!(cm_hash_fingerprint(a.hashes()), cm_hash_fingerprint(c.hashes()));

        let ha = fresh_hll(seed);
        let hb = fresh_hll(seed);
        let hc = fresh_hll(seed + skew);
        prop_assert_eq!(hll_hash_fingerprint(&ha), hll_hash_fingerprint(&hb));
        prop_assert_ne!(hll_hash_fingerprint(&ha), hll_hash_fingerprint(&hc));
    }

    /// Composition refuses parts that cannot soundly merge — different
    /// kinds, or shared parameters that disagree — with typed errors.
    #[test]
    fn compose_refuses_mismatched_parts_with_typed_errors(
        key in 0u64..100,
        n in 1u64..1000,
        est in 0u64..50,
    ) {
        let freq = ErrorEnvelope::Frequency(Envelope::new(key, est, n, 0.01, 0.01, 0));
        let other_alpha = ErrorEnvelope::Frequency(Envelope::new(key, est, n, 0.02, 0.01, 0));
        prop_assert!(matches!(
            ErrorEnvelope::compose(&[freq.clone(), other_alpha], MergePolicy::Add),
            Err(ComposeError::ParamMismatch("alpha"))
        ));
        let other_key = ErrorEnvelope::Frequency(Envelope::new(key + 1, est, n, 0.01, 0.01, 0));
        prop_assert!(matches!(
            ErrorEnvelope::compose(&[freq.clone(), other_key], MergePolicy::Add),
            Err(ComposeError::ParamMismatch("key"))
        ));
        let minimum = ErrorEnvelope::Minimum {
            minimum: key,
            observed: n,
        };
        prop_assert!(matches!(
            ErrorEnvelope::compose(&[freq, minimum], MergePolicy::Add),
            Err(ComposeError::KindMismatch)
        ));
        prop_assert!(matches!(
            ErrorEnvelope::compose(&[], MergePolicy::Add),
            Err(ComposeError::Empty)
        ));
    }

    /// Random update/delta interleavings against a served registry: a
    /// client cache maintained purely by applying `SNAPSHOT_SINCE`
    /// replies (unchanged / sparse runs / full fallback) stays cell-identical to a fresh full snapshot at
    /// every sync point, for both the CountMin and the HLL — the
    /// equivalence the replicated delta read path rests on. Rounds
    /// that drop the cache (a reconnect) must be answered with a full
    /// state, never a diff against the forgotten base.
    #[test]
    fn delta_applied_cache_is_cell_identical_to_full_snapshot(
        rounds in proptest::collection::vec(
            (proptest::collection::vec((0u64..64, 1u64..4), 0..20), any::<bool>()),
            1..12,
        ),
        seed in 0u64..1000,
    ) {
        let metrics = Metrics::new();
        let r = delta_registry(seed);
        let mut caches: Vec<Option<(u64, SnapshotState)>> = vec![None, None];
        for (batch, drop_cache) in rounds {
            for id in 0..2u32 {
                feed(&r, &metrics, id, &batch);
            }
            for id in 0..2u32 {
                let cache = &mut caches[id as usize];
                if drop_cache {
                    *cache = None;
                }
                let base = cache.as_ref().map_or(u64::MAX, |&(e, _)| e);
                let delta = r.snapshot_since(id, base).expect("registered object");
                if base == u64::MAX {
                    prop_assert!(
                        matches!(delta.change, DeltaChange::Full(_)),
                        "an unknown base must be answered with a full state"
                    );
                }
                if let Err(why) = apply_delta(cache, delta) {
                    return Err(proptest::test_runner::TestCaseError::fail(why));
                }
                let fresh = r.snapshot(id).expect("registered object");
                let (epoch, state) = cache.as_ref().expect("cache filled by reply");
                prop_assert_eq!(
                    state,
                    &fresh.state,
                    "delta-applied cache drifted from the full snapshot"
                );
                prop_assert_eq!(*epoch, r.get(id).expect("registered object").epoch());
            }
            // A quiet re-poll must answer `Unchanged` without touching
            // the (already current) cached cells.
            let delta = r.snapshot_since(0, caches[0].as_ref().expect("cached").0)
                .expect("registered object");
            prop_assert!(matches!(delta.change, DeltaChange::Unchanged));
        }
    }

    /// A warm sketch polled *while* two writers keep applying frames:
    /// the ordering argument behind the touch log (cells, then log
    /// entries, then the `Release` store of `head`; the poller loads
    /// heads before entries before cells, and re-checks `head` after
    /// copying) promises that a reply computed mid-write only ever
    /// re-sends, never misses — and that a base the ring has lapped,
    /// between polls or while its entries were being copied, is
    /// answered in full rather than from overwritten entries. So every
    /// intermediate cache is a cell-wise intermediate value — at least
    /// the previous cache, at most the final state — and once the
    /// writers stop, one more poll makes the cache cell-identical to a
    /// full snapshot. The writers keep cycling their frames until the
    /// poller has polled `rolls.len()` times. A roll of 0 forgets the
    /// cache first (a reconnect); on a roll of 1–3 each writer applies
    /// one frame and waits for the poll, so consecutive such polls are
    /// answered from the log; on 4–6 the writers run free, a frame of
    /// up to 160 touches after another around a 1024-entry ring, so
    /// they lap the poller's base again and again as it polls.
    #[test]
    fn deltas_polled_under_concurrent_writers_are_monotone_and_converge(
        warm in proptest::collection::vec((0u64..4096, 1u64..4), 200..400),
        frames in proptest::collection::vec(
            proptest::collection::vec((0u64..4096, 1u64..4), 1..33),
            2..8,
        ),
        rolls in proptest::collection::vec(0u8..7, 16..40),
        seed in 0u64..1000,
    ) {
        let metrics = Metrics::new();
        let r = delta_registry(seed);
        feed(&r, &metrics, CM_OBJECT, &warm);
        let polls = AtomicUsize::new(0);
        let start = Barrier::new(3);
        let mut cache: Option<(u64, SnapshotState)> = None;
        let mut seen: Vec<Vec<u64>> = Vec::new();
        std::thread::scope(|scope| -> Result<(), TestCaseError> {
            for half in 0..2 {
                let (r, metrics, frames, polls, start) = (&r, &metrics, &frames, &polls, &start);
                let rolls = &rolls;
                scope.spawn(move || {
                    let obj = r.get(CM_OBJECT).expect("registered object");
                    let mut w = obj.writer(metrics);
                    w.ensure_ready().expect("one shard per writer");
                    start.wait();
                    let mut mine = frames.iter().skip(half).step_by(2).cycle();
                    loop {
                        let polled = polls.load(Ordering::Acquire);
                        let Some(&roll) = rolls.get(polled) else { break };
                        w.apply_batch(mine.next().expect("at least one frame per writer"));
                        while (1..=3).contains(&roll) && polls.load(Ordering::Acquire) == polled {
                            std::thread::yield_now();
                        }
                    }
                    w.release();
                });
            }
            start.wait();
            let polled = rolls.iter().try_for_each(|&roll| {
                if roll == 0 {
                    cache = None;
                }
                let base = cache.as_ref().map_or(u64::MAX, |&(e, _)| e);
                let delta = r.snapshot_since(CM_OBJECT, base).expect("registered object");
                polls.fetch_add(1, Ordering::Release);
                apply_delta(&mut cache, delta).map_err(TestCaseError::fail)?;
                let Some((_, SnapshotState::CountMin { cells, .. })) = &cache else {
                    return Err(TestCaseError::fail("cache is not a CountMin"));
                };
                seen.push(cells.clone());
                Ok(())
            });
            // Whatever happened, let the writers run out of rolls.
            polls.store(rolls.len(), Ordering::Release);
            polled
        })?;
        // Quiescent: one more poll converges on the full snapshot.
        let base = cache.as_ref().expect("polled at least once").0;
        let delta = r.snapshot_since(CM_OBJECT, base).expect("registered object");
        apply_delta(&mut cache, delta).map_err(TestCaseError::fail)?;
        let fresh = r.snapshot(CM_OBJECT).expect("registered object");
        let (epoch, state) = cache.as_ref().expect("cache filled");
        prop_assert_eq!(state, &fresh.state, "quiescent poll left the cache behind");
        prop_assert_eq!(*epoch, r.get(CM_OBJECT).expect("registered object").epoch());
        let SnapshotState::CountMin { cells: last, .. } = state else {
            return Err(TestCaseError::fail("cache is not a CountMin"));
        };
        for (poll, cells) in seen.iter().enumerate() {
            prop_assert!(
                cells.iter().zip(last).all(|(had, fin)| had <= fin),
                "the reply to poll {} left a cell above the final snapshot", poll
            );
        }
        seen.push(last.clone());
        for pair in seen.windows(2) {
            prop_assert!(
                pair[0].iter().zip(&pair[1]).all(|(old, new)| old <= new),
                "an intermediate cache held a cell above a later one"
            );
        }
    }

    /// Partitioned replicas read only through delta caches: summing
    /// the caches' cells reproduces the single-stream CountMin exactly,
    /// and the envelope composed from the parts' cached estimates —
    /// with the merged-cells estimate installed, as the group serves
    /// it — still covers the union stream's true frequencies.
    #[test]
    fn partitioned_delta_caches_merge_covers_union_truth(
        stream in proptest::collection::vec((0u64..40, 1u64..4), 1..160),
        parts in 1usize..4,
        syncs in 1usize..5,
        seed in 0u64..1000,
    ) {
        let metrics = Metrics::new();
        let replicas: Vec<ObjectRegistry> = (0..parts).map(|_| delta_registry(seed)).collect();
        let full = delta_registry(seed);
        let mut caches: Vec<Option<(u64, SnapshotState)>> = vec![None; parts];
        let mut part_len = vec![0u64; parts];
        // Feed the stream in `syncs` slices, refreshing every replica's
        // delta cache after each slice — the interleaving a querying
        // group actually sees.
        let chunk = stream.len().div_ceil(syncs).max(1);
        for (slice_at, slice) in stream.chunks(chunk).enumerate() {
            for (j, &(k, w)) in slice.iter().enumerate() {
                let i = (slice_at * chunk + j) % parts;
                feed(&replicas[i], &metrics, CM_OBJECT, &[(k, w)]);
                feed(&full, &metrics, CM_OBJECT, &[(k, w)]);
                part_len[i] += w;
            }
            for (i, r) in replicas.iter().enumerate() {
                let base = caches[i].as_ref().map_or(u64::MAX, |&(e, _)| e);
                let delta = r.snapshot_since(CM_OBJECT, base).expect("registered object");
                if let Err(why) = apply_delta(&mut caches[i], delta) {
                    return Err(proptest::test_runner::TestCaseError::fail(why));
                }
            }
        }
        // Merge the caches cell-wise, as the group's accumulator does.
        let mut dims = None;
        let mut merged: Vec<u64> = Vec::new();
        for cache in &caches {
            let Some((_, SnapshotState::CountMin { width, depth, hash_fp, cells })) =
                cache.as_ref()
            else {
                return Err(proptest::test_runner::TestCaseError::fail(
                    "every replica cache holds a CountMin after syncing",
                ));
            };
            match dims {
                None => {
                    dims = Some((*width, *depth, *hash_fp));
                    merged = cells.clone();
                }
                Some(d) => {
                    prop_assert_eq!(d, (*width, *depth, *hash_fp));
                    for (m, c) in merged.iter_mut().zip(cells) {
                        *m += c;
                    }
                }
            }
        }
        let (width, depth, hash_fp) = dims.expect("at least one part");
        let proto = CountMin::new(
            CountMinParams {
                width: width as usize,
                depth: depth as usize,
            },
            &mut slot_coins(seed, CM_OBJECT),
        );
        prop_assert_eq!(cm_hash_fingerprint(proto.hashes()), hash_fp);
        // Exactness: delta-applied part caches sum to the single-stream
        // cells (CountMin updates are linear, so partitioning is
        // lossless).
        let full_snap = full.snapshot(CM_OBJECT).expect("registered object");
        let SnapshotState::CountMin { cells: full_cells, .. } = &full_snap.state else {
            return Err(proptest::test_runner::TestCaseError::fail(
                "object 0 snapshots as a CountMin",
            ));
        };
        prop_assert_eq!(&merged, full_cells);
        // Coverage: compose the parts' cached-estimate envelopes and
        // install the merged-cells estimate, as the group serves it.
        let estimate = |cells: &[u64], k: u64| {
            (0..depth as usize)
                .map(|row| cells[proto.cell_index(row, k)])
                .min()
                .unwrap_or(0)
        };
        let alpha = proto.params().alpha();
        let delta_p = proto.params().delta();
        for (&k, &f) in &truth_of(&stream) {
            let part_envs: Vec<ErrorEnvelope> = caches
                .iter()
                .enumerate()
                .map(|(i, cache)| {
                    let Some((_, SnapshotState::CountMin { cells, .. })) = cache.as_ref() else {
                        unreachable!("checked above");
                    };
                    ErrorEnvelope::Frequency(Envelope::new(
                        k,
                        estimate(cells, k),
                        part_len[i],
                        alpha,
                        delta_p,
                        0,
                    ))
                })
                .collect();
            let composed = match ErrorEnvelope::compose(&part_envs, MergePolicy::Add) {
                Ok(env) => env,
                Err(e) => return Err(proptest::test_runner::TestCaseError::fail(
                    format!("same-coin parts must compose: {e}"),
                )),
            };
            let Some(env) = composed.frequency() else {
                return Err(proptest::test_runner::TestCaseError::fail(
                    "composed frequency envelope changed kind",
                ));
            };
            prop_assert_eq!(env.stream_len, stream.iter().map(|&(_, w)| w).sum::<u64>());
            let mut installed = *env;
            installed.estimate = estimate(&merged, k);
            prop_assert!(
                installed.covers(f, f),
                "merged delta-cache estimate outside the composed envelope"
            );
        }
    }
}
