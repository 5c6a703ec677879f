//! The offline layer replay: after the traced pass, each layer's public
//! functions are called on the workload's own inputs at the workload's
//! own dimensions, one span per call (or per batch of calls, for
//! functions too short to time singly). Replayed spans name the span of
//! the layer above as parent, so self time falls out of the trace.
//!
//! With `sut.rs`, this is the only file that names an `ivl_*` crate.
//! Public surface used here:
//! `ivl_sketch::{CountMin::{new, update_by, hashes}, CountMinParams::for_bounds, hash::PairwiseHash::hash_row_batch}`,
//! `ivl_concurrent::{ShardedPcm::{from_prototype, lease, estimate, shard_epochs_into, dirty_spans_since, cells_snapshot}, ShardLease::apply_batch, BatchScratch::{with_capacity, prepare}}`,
//! `ivl_service::protocol::{Request::encode, Response::{encode, decode}, FrameDecoder::{new, feed, next_frame}, decode_batch_into, DEFAULT_MAX_FRAME_LEN}`,
//! `ivl_service::{Metrics::new, ObjectRegistry::{build, get, cm, snapshot, snapshot_since}, ServedCountMin::sketch, ServedObject::{writer, query}, ObjectWriter::{ensure_ready, apply_batch}}`,
//! `ivl_merge::{SnapshotState, MergeableState::{encode_into, decode_from, apply_change}, merge_states, MergePolicy, slot_coins}`,
//! `ivl_replica::ReplicaGroup::{new, route}`.

use crate::gen::{Frame, Inputs, Op};
use crate::sut::{ServerSpec, COIN_SEED};
use crate::trace::SpanLog;
use ivl_concurrent::{BatchScratch, ShardedPcm};
use ivl_merge::{
    merge_states, slot_coins, DeltaChange, MergePolicy, MergeableState, SnapshotState,
};
use ivl_replica::{ReplicaGroup, ReplicaMode};
use ivl_service::objects::ObjectRegistry;
use ivl_service::protocol::{
    decode_batch_into, FrameDecoder, Request, Response, DEFAULT_MAX_FRAME_LEN,
};
use ivl_service::Metrics;
use ivl_sketch::hash::PairwiseHash;
use ivl_sketch::{CountMin, CountMinParams};
use std::hint::black_box;

/// Counts the replay takes alongside its spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayFacts {
    /// Items per replayed update frame (the workload's frame size).
    pub frame_items: u64,
    /// Distinct keys over items, summed over the replayed frames.
    pub coalesce_ratio: f64,
    /// Encoded request bytes per item.
    pub bytes_per_item: f64,
}

/// At most this many frames (and this many items) are replayed.
const MAX_REPLAY_FRAMES: usize = 256;
const MAX_REPLAY_ITEMS: usize = 1 << 18;
/// Calls per span for functions in the tens of nanoseconds.
const TIGHT_LOOP: u64 = 1000;
/// Keys per query-replay span.
const QUERY_GROUP: usize = 256;

/// Replays every layer below the socket on the CountMin frames and
/// query keys of `inputs`, at the dimensions of `spec`, with a group of
/// `replicas` for the routing cost. Spans go to `log`.
pub fn replay(
    spec: &ServerSpec,
    replicas: usize,
    inputs: &Inputs,
    log: &mut SpanLog,
) -> ReplayFacts {
    let mut budget = MAX_REPLAY_ITEMS;
    let frames: Vec<&Frame> = inputs
        .frames
        .iter()
        .filter(|f| f.object == 0)
        .take(MAX_REPLAY_FRAMES)
        .take_while(|f| {
            let fits = budget > 0;
            budget = budget.saturating_sub(f.items.len());
            fits
        })
        .collect();
    let keys: Vec<u64> = inputs
        .plans
        .iter()
        .flat_map(|p| &p.ops)
        .filter_map(|op| match *op {
            Op::Read { object: 0, key } => Some(key),
            _ => None,
        })
        .chain(inputs.gate_keys.iter().copied())
        .take(4 * QUERY_GROUP)
        .collect();
    assert!(
        !frames.is_empty() && !keys.is_empty(),
        "every workload writes and reads object 0"
    );

    let params = CountMinParams::for_bounds(spec.alpha, spec.delta);
    let proto = CountMin::new(params, &mut slot_coins(COIN_SEED, 0));
    let hashes = proto.hashes().to_vec();
    let mut sequential = proto.clone();
    let pcm = ShardedPcm::from_prototype(&proto, spec.shards);
    let registry = ObjectRegistry::build(
        &spec.object_configs(),
        spec.alpha,
        spec.delta,
        spec.shards,
        0,
        COIN_SEED,
    );
    let metrics = Metrics::new();
    let served = registry.get(0).expect("object 0 is the CountMin");
    let mut writer = served.writer(&metrics);
    let mut scratch = BatchScratch::with_capacity(params.depth, frames[0].items.len());
    let mut prepare_scratch = BatchScratch::with_capacity(params.depth, frames[0].items.len());
    let group = ReplicaGroup::new(
        vec!["127.0.0.1:1".to_string(); replicas],
        ReplicaMode::Partition,
        COIN_SEED,
    )
    .expect("a non-empty group");

    let mut cols = Vec::with_capacity(params.depth);
    let mut wire = Vec::new();
    let mut decoder = FrameDecoder::new(DEFAULT_MAX_FRAME_LEN);
    let mut decoded = Vec::new();
    let mut base_epochs = Vec::new();
    let mut cache: Option<(u64, SnapshotState)> = None;
    let (mut distinct, mut total, mut bytes) = (0u64, 0u64, 0u64);

    {
        let mut lease = pcm.lease().expect("a fresh sketch has free shards");
        for (i, f) in frames.iter().enumerate() {
            let op = i as u64;
            let n = f.items.len() as u64;
            total += n;

            // service.protocol: the request as the client encodes it,
            // then as the server decodes it.
            let request = Request::Batch {
                object: f.object,
                items: f.items.clone(),
            };
            wire.clear();
            log.time("service.protocol.request_encode", op, 0, n, || {
                request.encode(&mut wire)
            });
            bytes += wire.len() as u64;
            log.time("service.protocol.batch_decode", op, 0, n, || {
                decoder.feed(&wire);
                let payload = decoder
                    .next_frame()
                    .expect("well-formed frame")
                    .expect("complete frame");
                decode_batch_into(payload, &mut decoded).expect("batch frame");
            });
            black_box(&decoded);

            // service.objects over concurrent: route, lease check, the
            // batch kernel; then the kernel alone, then its first half.
            let start = log.now_ns();
            let routed = registry.get(f.object).expect("object 0");
            black_box(routed.kind());
            writer
                .ensure_ready()
                .expect("the replay holds the only writer");
            writer.apply_batch(&f.items);
            let end = log.now_ns();
            let objects_span = log.record("service.objects.apply_batch", op, 0, start, end, n);

            base_epochs.clear();
            pcm.shard_epochs_into(&mut base_epochs);
            let start = log.now_ns();
            lease.apply_batch(&f.items, &mut scratch);
            let end = log.now_ns();
            let kernel_span = log.record("concurrent.apply_batch", op, objects_span, start, end, n);
            distinct += log.time("concurrent.prepare", op, kernel_span, n, || {
                prepare_scratch.prepare(&hashes, &f.items)
            }) as u64;

            // sketch: the hashing sweep and the sequential baseline.
            log.time("sketch.hash_row_batch", op, 0, n, || {
                for &(key, _) in &f.items {
                    PairwiseHash::hash_row_batch(&hashes, key, &mut cols);
                    black_box(&cols);
                }
            });
            log.time("sketch.cm_update_by", op, 0, n, || {
                for &(key, weight) in &f.items {
                    sequential.update_by(key, weight);
                }
            });

            // concurrent: what a delta read asks of the sketch after
            // this frame.
            log.time("concurrent.dirty_spans_since", op, 0, 100, || {
                for _ in 0..100 {
                    black_box(pcm.dirty_spans_since(&base_epochs));
                }
            });

            // service.objects / merge: the delta this frame causes, and
            // a cached state absorbing it.
            let base = cache.as_ref().map_or(u64::MAX, |(epoch, _)| *epoch);
            let delta = log
                .time("service.objects.snapshot_since", op, 0, 1, || {
                    registry.snapshot_since(0, base)
                })
                .expect("object 0");
            match (cache.as_mut(), delta.change) {
                (Some((epoch, state)), change) => {
                    *epoch = delta.epoch;
                    log.time("merge.apply_change", op, 0, 1, || {
                        state
                            .apply_change(change)
                            .expect("a delta against its own base")
                    });
                }
                // The no-cache base is always answered in full.
                (None, DeltaChange::Full(state)) => cache = Some((delta.epoch, state)),
                (None, other) => unreachable!("first reply was not full: {other:?}"),
            }

            // replica: the partition route of every item.
            log.time("replica.route", op, 0, n, || {
                for &(key, _) in &f.items {
                    black_box(group.route(key));
                }
            });
        }
    }

    // concurrent: lease turnover, on a sketch nobody else holds.
    let idle = ShardedPcm::from_prototype(&proto, spec.shards);
    for rep in 0..16 {
        log.time("concurrent.lease", rep, 0, TIGHT_LOOP, || {
            for _ in 0..TIGHT_LOOP {
                black_box(idle.lease());
            }
        });
    }

    // Queries: the served object's answer over its own sketch's
    // estimate, same keys, same memory, after one untimed pass so that
    // neither side pays the other's cache misses.
    let served_sketch = registry.cm(0).expect("object 0 is the CountMin").sketch();
    for &key in &keys {
        black_box(served_sketch.estimate(key));
    }
    for (g, group_keys) in keys.chunks(QUERY_GROUP).enumerate() {
        let n = group_keys.len() as u64;
        let start = log.now_ns();
        for &key in group_keys {
            black_box(served.query(key));
        }
        let end = log.now_ns();
        let query_span = log.record("service.objects.query", g as u64, 0, start, end, n);
        log.time("concurrent.estimate", g as u64, query_span, n, || {
            for &key in group_keys {
                black_box(served_sketch.estimate(key));
            }
        });
    }

    // Replies: the acknowledgement every update gets.
    for rep in 0..16 {
        log.time(
            "service.protocol.response_encode",
            rep,
            0,
            TIGHT_LOOP,
            || {
                for applied in 0..TIGHT_LOOP {
                    wire.clear();
                    Response::Ack { applied }.encode(&mut wire);
                    black_box(&wire);
                }
            },
        );
        log.time(
            "service.protocol.response_decode",
            rep,
            0,
            TIGHT_LOOP,
            || {
                for _ in 0..TIGHT_LOOP {
                    decoder.feed(&wire);
                    let payload = decoder
                        .next_frame()
                        .expect("well-formed frame")
                        .expect("complete frame");
                    black_box(Response::decode(payload).expect("an ACK"));
                }
            },
        );
    }

    // Whole-state operations at the workload's dimensions.
    let snapshot = registry.snapshot(0).expect("object 0");
    let kind = snapshot.kind;
    let state = snapshot.state;
    let mut body = Vec::new();
    for rep in 0..8 {
        log.time("concurrent.cells_snapshot", rep, 0, 1, || {
            black_box(pcm.cells_snapshot());
        });
        // Units are bytes, so per-unit times scale to "per KiB".
        body.clear();
        let start = log.now_ns();
        state.encode_into(&mut body);
        let end = log.now_ns();
        let units = body.len() as u64;
        log.record("merge.encode", rep, 0, start, end, units);
        let start = log.now_ns();
        let back = SnapshotState::decode_from(kind, &mut &body[..]).expect("its own encoding");
        let end = log.now_ns();
        log.record("merge.decode", rep, 0, start, end, units);
        log.time("merge.merge_states", rep, 0, 1, || {
            black_box(
                merge_states(MergePolicy::Add, &[&state, &back, &state]).expect("equal dimensions"),
            );
        });
    }

    ReplayFacts {
        frame_items: frames[0].items.len() as u64,
        coalesce_ratio: distinct as f64 / total as f64,
        bytes_per_item: bytes as f64 / total as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::BackendChoice;
    use crate::trace::per_unit_ns;
    use crate::workloads::build;
    use std::time::Instant;

    #[test]
    fn replay_covers_every_layer_on_a_small_workload() {
        let w = build("churn-merged", 5, BackendChoice::EventLoop, 2).unwrap();
        let mut log = SpanLog::new(Instant::now(), 9);
        let facts = replay(&w.servers[0], w.servers.len(), &w.inputs, &mut log);
        assert_eq!(facts.frame_items, 32);
        assert!(facts.coalesce_ratio > 0.3 && facts.coalesce_ratio <= 1.0);
        // 8-byte length+opcode+object+count header, 16 bytes per item.
        assert!(facts.bytes_per_item > 16.0 && facts.bytes_per_item < 17.0);
        for name in [
            "sketch.hash_row_batch",
            "sketch.cm_update_by",
            "concurrent.lease",
            "concurrent.prepare",
            "concurrent.apply_batch",
            "concurrent.estimate",
            "concurrent.dirty_spans_since",
            "concurrent.cells_snapshot",
            "service.protocol.request_encode",
            "service.protocol.batch_decode",
            "service.protocol.response_encode",
            "service.protocol.response_decode",
            "service.objects.apply_batch",
            "service.objects.query",
            "service.objects.snapshot_since",
            "merge.encode",
            "merge.decode",
            "merge.apply_change",
            "merge.merge_states",
            "replica.route",
        ] {
            assert!(!per_unit_ns(&log.spans, name).is_empty(), "no {name} span");
        }
        // The kernel span hangs under the objects span of its frame.
        let kernel = log
            .spans
            .iter()
            .find(|s| s.name == "concurrent.apply_batch")
            .unwrap();
        let parent = log.spans.iter().find(|s| s.id == kernel.parent).unwrap();
        assert_eq!(parent.name, "service.objects.apply_batch");
        assert_eq!(parent.op_id, kernel.op_id);
    }
}
