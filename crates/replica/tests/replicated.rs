//! End-to-end replicated serving: 3 real `ivl_serve` backends, a
//! [`ReplicaGroup`] merging their snapshots, and the ISSUE's
//! acceptance scenario — killing one replica mid-run *degrades* the
//! merged answer (served from its cached state, widened only by what
//! might have landed since, no wrong values) instead of erroring.
//! Exercised on both serving backends.

use ivl_replica::{ReplicaError, ReplicaGroup, ReplicaMode};
use ivl_service::{
    merge_states,
    objects::{ObjectConfig, ObjectKind},
    Backend, Client, ClientError, ErrorEnvelope, MergePolicy, ObjectSnapshot, ServerConfig,
    ServerHandle, SnapshotState, WireError,
};
use ivl_sketch::hll::RegisterSummary;
use ivl_sketch::stream::ZipfStream;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 11;

fn replica_config(backend: Backend, seed: u64) -> ServerConfig {
    ServerConfig {
        backend,
        shards: 2,
        seed,
        objects: vec![
            ObjectConfig::new("cm", ObjectKind::CountMin),
            ObjectConfig::new("hll", ObjectKind::Hll),
            ObjectConfig::new("morris", ObjectKind::Morris),
            ObjectConfig::new("low", ObjectKind::MinRegister),
        ],
        ..ServerConfig::default()
    }
}

fn spawn_replica(backend: Backend, seed: u64) -> ServerHandle {
    ivl_service::serve("127.0.0.1:0", replica_config(backend, seed)).expect("bind a replica")
}

/// Rebinds the address a just-joined server listened on (the old
/// listener needs a moment to release it).
fn respawn_at(addr: &str, seed: u64) -> ServerHandle {
    for _ in 0..50 {
        match ivl_service::serve(addr, replica_config(Backend::Threaded, seed)) {
            Ok(h) => return h,
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    panic!("could not rebind {addr}");
}

fn group_over(replicas: &[ServerHandle], mode: ReplicaMode) -> ReplicaGroup {
    let addrs = replicas.iter().map(|r| r.addr().to_string()).collect();
    let mut group = ReplicaGroup::new(addrs, mode, SEED).expect("non-empty group");
    // Keep degradation prompt in tests: one reconnect attempt, tiny
    // backoff.
    group.set_retry_limit(1);
    group.set_backoff(Duration::from_millis(1));
    group
}

/// The true (exact) frequency of `key` must be consistent with the
/// merged frequency envelope: estimate never under the true count by
/// more than `lag`, never over it by more than `epsilon`.
fn assert_freq_within(env: &ErrorEnvelope, truth: u64) {
    let env = env.frequency().expect("frequency envelope");
    assert!(
        env.covers(truth, truth),
        "merged estimate {} (eps {}, lag {}) does not cover true frequency {}",
        env.estimate,
        env.epsilon,
        env.lag,
        truth
    );
}

/// The most connect attempts a dead replica may cost over `elapsed`:
/// the probe that finds it down, the one right after, then one per
/// `backoff` window at most (the windows only grow from there).
fn probe_bound(elapsed: Duration, backoff: Duration) -> u64 {
    2 + (elapsed.as_nanos() / backoff.as_nanos()) as u64
}

fn partitioned_run(backend: Backend) {
    let mut replicas: Vec<ServerHandle> = (0..3).map(|_| spawn_replica(backend, SEED)).collect();
    let mut group = group_over(&replicas, ReplicaMode::Partition);

    // A skewed stream: key k appears k+1 times, fanned across the
    // replicas by the group's key route.
    let mut truth = [0u64; 16];
    for k in 0..16u64 {
        group.update(0, k, k + 1).expect("partitioned update");
        group.update(1, k, 1).expect("hll update");
        group.update(3, k + 100, 1).expect("min update");
        truth[k as usize] += k + 1;
    }

    // Every replica took a share of the substream.
    let read = group.query(0, 7).expect("merged query");
    assert_eq!((read.reached, read.total), (3, 3));
    assert_eq!(read.missing_observed, 0);
    let total: u64 = read.parts.iter().flatten().sum();
    assert_eq!(total, truth.iter().sum::<u64>(), "parts cover the stream");
    assert!(read.parts.iter().all(|p| p.unwrap() > 0));
    for k in [0u64, 7, 15] {
        let read = group.query(0, k).expect("merged query");
        assert_freq_within(&read.envelope, truth[k as usize]);
    }

    // Merged HLL: 16 distinct keys, estimate in the right ballpark
    // and the merged register sum at least every part's.
    let read = group.query(1, 0).expect("merged hll query");
    match &read.envelope {
        ErrorEnvelope::Cardinality {
            estimate, observed, ..
        } => {
            assert_eq!(*observed, 16);
            assert!(
                (1.0..64.0).contains(estimate),
                "16 distinct keys estimated as {estimate}"
            );
        }
        other => panic!("wanted cardinality envelope, got {other:?}"),
    }

    // Merged min register: the union minimum.
    let read = group.query(3, 0).expect("merged min query");
    assert_eq!(
        read.envelope,
        ErrorEnvelope::Minimum {
            minimum: 100,
            observed: 16,
        }
    );

    // A quiescent group answers repeat queries off the epoch fast
    // path: every replica replies `Unchanged`, no state moves.
    let stats0 = group.delta_stats();
    let read = group.query(0, 7).expect("repeat merged query");
    assert_freq_within(&read.envelope, truth[7]);
    let stats1 = group.delta_stats();
    assert_eq!(
        stats1.unchanged - stats0.unchanged,
        3,
        "all three replicas were quiescent"
    );
    assert!(
        stats1.bytes_in - stats0.bytes_in < 3 * 128,
        "unchanged replies must stay tiny, got {} bytes",
        stats1.bytes_in - stats0.bytes_in
    );
    // One `SNAPSHOT_SINCE` frame per replica: a 4-byte length prefix,
    // the opcode, the object id and the base epoch, 17 bytes.
    assert_eq!(stats1.bytes_out - stats0.bytes_out, 3 * 17);

    // A cold connection is read in the same pass as the warm ones: the
    // reconnected replica answers in full (its cache belongs to the old
    // connection), the other two `Unchanged`, one frame each.
    group.disconnect(1);
    let read = group.query(0, 7).expect("read over a cold connection");
    assert_eq!(read.reached, 3);
    assert_freq_within(&read.envelope, truth[7]);
    let stats2 = group.delta_stats();
    assert_eq!(
        (
            stats2.unchanged - stats1.unchanged,
            stats2.fulls - stats1.fulls,
            stats2.deltas - stats1.deltas,
        ),
        (2, 1, 0)
    );
    assert_eq!(stats2.bytes_out - stats1.bytes_out, 3 * 17);

    // Kill one replica mid-run: merged reads degrade, but the dead
    // replica's *cached* cells keep contributing — its substream stays
    // in the estimate instead of being refused, and only the weight
    // that might have landed there since the cache was taken (none
    // here) widens the envelope.
    let victim = replicas.remove(0);
    // Close our side first: the threaded backend's connection threads
    // only exit at client EOF, so joining while we hold a live socket
    // to the victim would wait on us.
    group.disconnect(0);
    drop(victim.join());

    let (stats3, failures3) = (group.delta_stats(), group.health()[0].failures);
    let down = Instant::now();
    let read = group.query(0, 7).expect("degraded query still answers");
    assert_eq!((read.reached, read.total), (2, 3));
    // Only the two survivors answered; the victim's one probe failed.
    assert_eq!(group.delta_stats().reads - stats3.reads, 2);
    assert_eq!(group.health()[0].failures, failures3 + 1);
    assert!(
        read.parts.iter().all(|p| p.is_some()),
        "the dead replica still contributes its cached state"
    );
    assert_eq!(
        read.missing_observed, 0,
        "nothing was acknowledged at the victim after its cache"
    );
    // The dead replica's substream is served from cache, so the merged
    // estimate covers the full truth without lag standing in for it.
    assert_freq_within(&read.envelope, truth[7]);

    // Updates keep flowing: the dead replica's share fails over.
    for k in 0..16u64 {
        group.update(0, k, 1).expect("failover update");
        truth[k as usize] += 1;
    }
    let read = group.query(0, 7).expect("post-failover query");
    assert_eq!((read.reached, read.total), (2, 3));
    assert_freq_within(&read.envelope, truth[7]);
    // Reads and failovers alike probe the victim once per down window.
    let probes = group.health()[0].failures - failures3;
    assert!(probes <= probe_bound(down.elapsed(), Duration::from_millis(1)));

    // Release our connections before joining the survivors.
    drop(group);
    for r in replicas {
        drop(r.join());
    }
}

#[test]
fn partitioned_three_replicas_threaded() {
    partitioned_run(Backend::Threaded);
}

#[test]
fn partitioned_three_replicas_event_loop() {
    partitioned_run(Backend::EventLoop);
}

fn mirrored_run(backend: Backend) {
    let mut replicas: Vec<ServerHandle> = (0..3).map(|_| spawn_replica(backend, SEED)).collect();
    let mut group = group_over(&replicas, ReplicaMode::Mirror);

    for k in 0..8u64 {
        let applied = group.update(0, k, 2).expect("mirrored update");
        assert_eq!(applied.len(), 3, "mirror fans to every replica");
        group.update(1, k, 1).expect("mirrored hll update");
    }

    // Every replica saw the whole stream; the merged (max) estimate
    // equals the per-replica one and observes the single stream once.
    let read = group.query(0, 3).expect("merged mirror query");
    assert_eq!((read.reached, read.total), (3, 3));
    assert!(read.parts.iter().all(|p| *p == Some(16)));
    let env = read.envelope.frequency().expect("frequency envelope");
    assert_eq!(
        env.stream_len, 16,
        "mirror does not double-count the stream"
    );
    assert_freq_within(&read.envelope, 2);

    let read = group.query(1, 0).expect("merged mirror hll query");
    match &read.envelope {
        ErrorEnvelope::Cardinality { observed, .. } => assert_eq!(*observed, 8),
        other => panic!("wanted cardinality envelope, got {other:?}"),
    }

    // Morris and the min register compose under the same `Join` law:
    // every copy saw every update, so the acknowledged weight is the
    // max over the parts, not their sum, and the minimum is the
    // minimum over the parts.
    for k in 0..8u64 {
        group.update(2, k, 1).expect("mirrored morris update");
        group.update(3, k + 100, 1).expect("mirrored min update");
    }
    let read = group.query(2, 0).expect("merged mirror morris query");
    assert!(read.parts.iter().all(|p| *p == Some(8)));
    match &read.envelope {
        ErrorEnvelope::ApproxCount {
            estimate, observed, ..
        } => {
            assert_eq!(*observed, 8, "mirror does not sum the copies' weight");
            assert!(*estimate > 0.0);
        }
        other => panic!("wanted approx-count envelope, got {other:?}"),
    }
    let read = group.query(3, 0).expect("merged mirror min query");
    assert_eq!(
        read.envelope,
        ErrorEnvelope::Minimum {
            minimum: 100,
            observed: 8,
        }
    );

    // Kill a replica: mirrored reads keep the full stream (the
    // survivors each hold a complete copy) with no widening needed.
    let victim = replicas.remove(0);
    group.disconnect(0);
    drop(victim.join());
    let read = group.query(0, 3).expect("degraded mirror query");
    assert_eq!((read.reached, read.total), (2, 3));
    let env = read.envelope.frequency().expect("frequency envelope");
    assert_eq!(env.stream_len, 16);
    assert_freq_within(&read.envelope, 2);

    // Updates missed by the dead replica while it is down are debited:
    // if it never returns, survivors still hold everything, so the
    // merged envelope stays tight (min missed over included = 0).
    for k in 0..8u64 {
        group.update(0, k, 1).expect("mirror update after death");
    }
    let read = group.query(0, 3).expect("mirror query after death");
    let env = read.envelope.frequency().expect("frequency envelope");
    assert_eq!(env.lag, 0, "survivors saw every update; no widening");
    assert_freq_within(&read.envelope, 3);

    drop(group);
    for r in replicas {
        drop(r.join());
    }
}

#[test]
fn a_dead_replica_costs_one_probe_per_backoff_window() {
    // At the default policy (20 ms backoff), a dead replica is probed
    // once per down window, however many reads fall inside it, while its
    // cache keeps serving them.
    let mut replicas: Vec<ServerHandle> = (0..3)
        .map(|_| spawn_replica(Backend::Threaded, SEED))
        .collect();
    let addrs = replicas.iter().map(|r| r.addr().to_string()).collect();
    let mut group = ReplicaGroup::new(addrs, ReplicaMode::Partition, SEED).expect("group");
    let mut truth = [0u64; 16];
    for k in 0..16u64 {
        group.update(0, k, k + 1).expect("partitioned update");
        truth[k as usize] += k + 1;
    }
    group.query(0, 0).expect("the first read fills the caches");

    let victim = replicas.remove(0);
    group.disconnect(0);
    drop(victim.join());
    let (failures0, down) = (group.health()[0].failures, Instant::now());
    for read in 0..50u64 {
        let key = read % 16;
        let merged = group.query(0, key).expect("degraded query");
        assert_eq!((merged.reached, merged.total), (2, 3));
        assert_freq_within(&merged.envelope, truth[key as usize]);
    }
    let elapsed = down.elapsed();
    let probes = group.health()[0].failures - failures0;
    assert!(probes >= 1, "the dead replica was never probed");
    assert!(
        probes <= probe_bound(elapsed, Duration::from_millis(20)),
        "{probes} connects to a dead replica over 50 reads in {elapsed:?}"
    );
    drop(group);
    for r in replicas {
        drop(r.join());
    }
}

#[test]
fn shutdown_reaches_a_replica_back_up_inside_its_down_window() {
    let mut replicas: Vec<ServerHandle> = (0..2)
        .map(|_| spawn_replica(Backend::Threaded, SEED))
        .collect();
    let mut group = group_over(&replicas, ReplicaMode::Partition);
    // A window far longer than the test: only SHUTDOWN may dial inside it.
    group.set_backoff(Duration::from_secs(30));
    group.update(0, 1, 1).expect("update");
    group.query(0, 1).expect("the first read fills the caches");

    let victim = replicas.remove(0);
    let addr = victim.addr().to_string();
    group.disconnect(0);
    drop(victim.join());
    let failures0 = group.health()[0].failures;
    // The first refused connect opens an empty window, the second a
    // 30 s one; a third read inside it makes no connect.
    for _ in 0..3 {
        group.query(0, 1).expect("degraded query");
    }
    assert_eq!(group.health()[0].failures, failures0 + 2);

    let reborn = respawn_at(&addr, SEED);
    assert_eq!(group.shutdown(), 2, "both replicas acknowledge SHUTDOWN");
    drop(reborn.join());
    for r in replicas {
        drop(r.join());
    }
}

#[test]
fn mirrored_three_replicas_threaded() {
    mirrored_run(Backend::Threaded);
}

#[test]
fn mirrored_three_replicas_event_loop() {
    mirrored_run(Backend::EventLoop);
}

/// A merged snapshot (`snapshot_since` from no base, so `Full`) is the
/// query path with the state attached: its state is the mode's merge of
/// fresh per-replica snapshots, and its envelope is the composed query
/// envelope bar the frequency key/estimate sentinels.
fn snapshot_merged_run(mode: ReplicaMode) {
    let replicas: Vec<ServerHandle> = (0..3)
        .map(|_| spawn_replica(Backend::EventLoop, SEED))
        .collect();
    let mut group = group_over(&replicas, mode);
    for k in 0..16u64 {
        group.update(0, k, k + 1).expect("cm update");
        group.update(1, k, 1).expect("hll update");
        group.update(2, k, 1).expect("morris update");
        group.update(3, k + 100, 1).expect("min update");
    }
    let policy = match mode {
        ReplicaMode::Partition => MergePolicy::Add,
        ReplicaMode::Mirror => MergePolicy::Join,
    };
    let mut direct: Vec<Client> = replicas
        .iter()
        .map(|r| Client::connect(r.addr()).expect("direct client"))
        .collect();
    for object in 0..4u32 {
        let merged = group
            .snapshot_since(object, u64::MAX)
            .expect("merged snapshot")
            .into_snapshot()
            .expect("no base reads in full");
        let fresh: Vec<ObjectSnapshot> = direct
            .iter_mut()
            .map(|c| c.object_id(object).snapshot().expect("fresh snapshot"))
            .collect();
        let states: Vec<&SnapshotState> = fresh.iter().map(|s| &s.state).collect();
        assert_eq!(merged.object, object);
        assert_eq!(merged.kind, fresh[0].kind);
        assert_eq!(
            merged.state,
            merge_states(policy, &states).expect("same coins")
        );
        let observed: Vec<Option<u64>> =
            fresh.iter().map(|s| Some(s.envelope.observed())).collect();
        let read = group.query(object, 7).expect("merged query");
        assert_eq!(read.parts, observed);
        assert_eq!(read.missing_observed, 0);

        let mut want = read.envelope;
        if let ErrorEnvelope::Frequency(env) = &mut want {
            (env.key, env.estimate) = (0, 0);
        }
        assert_eq!(merged.envelope, want, "object {object} in {mode} mode");
    }
    drop(direct);
    drop(group);
    for r in replicas {
        drop(r.join());
    }
}

#[test]
fn snapshot_merged_matches_fresh_snapshots_partitioned() {
    snapshot_merged_run(ReplicaMode::Partition);
}

#[test]
fn snapshot_merged_matches_fresh_snapshots_mirrored() {
    snapshot_merged_run(ReplicaMode::Mirror);
}

#[test]
fn mismatched_seeds_are_a_typed_merge_error() {
    // Two replicas with different seeds sampled different hash
    // functions; merging their snapshots must be refused with the
    // typed MergeMismatch, not a panic or a silent wrong answer.
    let a = spawn_replica(Backend::Threaded, SEED);
    let b = spawn_replica(Backend::Threaded, SEED + 1);
    let addrs = vec![a.addr().to_string(), b.addr().to_string()];
    let mut group = ReplicaGroup::new(addrs, ReplicaMode::Partition, SEED).expect("group");
    group
        .update(0, 1, 1)
        .expect("updates do not merge, they route");
    match group.query(0, 1) {
        Err(ReplicaError::MergeMismatch { why }) => {
            assert!(why.contains("coins") || why.contains("disagree"), "{why}");
        }
        other => panic!("wanted MergeMismatch, got {other:?}"),
    }
    drop(group);
    drop(a.join());
    drop(b.join());
}

#[test]
fn group_seed_must_match_the_replicas() {
    // Replicas agree with each other but not with the group's seed:
    // the rebuilt prototype's fingerprint exposes it.
    let a = spawn_replica(Backend::Threaded, SEED);
    let b = spawn_replica(Backend::Threaded, SEED);
    let addrs = vec![a.addr().to_string(), b.addr().to_string()];
    let mut group = ReplicaGroup::new(addrs, ReplicaMode::Partition, SEED + 7).expect("group");
    match group.query(0, 1) {
        Err(ReplicaError::MergeMismatch { why }) => {
            assert!(why.contains("seed"), "{why}");
        }
        other => panic!("wanted MergeMismatch, got {other:?}"),
    }
    drop(group);
    drop(a.join());
    drop(b.join());
}

#[test]
fn restarted_replica_never_gets_a_stale_epoch_delta() {
    // The sharpest reconnect hazard: a replica dies and a *different*
    // server comes up on the same address whose epoch numerically
    // matches the cached one. A group that reused the cached base
    // across the reconnect would be answered `Unchanged` and serve the
    // dead server's counts as current. The connection generation makes
    // that impossible: the cache is invalidated before a base is
    // chosen, so the read after the restart is a full snapshot.
    let a = spawn_replica(Backend::Threaded, SEED);
    let addr = a.addr().to_string();
    let mut group =
        ReplicaGroup::new(vec![addr.clone()], ReplicaMode::Partition, SEED).expect("group");
    group.set_retry_limit(3);
    group.set_backoff(Duration::from_millis(5));
    group.update(0, 3, 5).expect("update the first server");
    let read = group.query(0, 3).expect("first query fills the cache");
    assert_eq!(read.envelope.frequency().expect("frequency").estimate, 5);

    group.disconnect(0);
    drop(a.join());
    let b = respawn_at(&addr, SEED);
    // One update to the fresh server moves its epoch exactly as far as
    // the dead server's had moved at cache time — the numeric
    // coincidence a stale base would be fooled by.
    let mut direct = ivl_service::Client::connect(addr.as_str()).expect("direct client");
    direct
        .object_id(0)
        .update(9, 1)
        .expect("update the fresh server");

    let before = group.delta_stats();
    let read = group.query(0, 3).expect("query after restart");
    let after = group.delta_stats();
    assert_eq!(
        after.fulls,
        before.fulls + 1,
        "the reconnected read must refetch full state"
    );
    assert_eq!(
        after.unchanged, before.unchanged,
        "no stale-epoch `Unchanged` may be accepted across a restart"
    );
    assert_eq!(after.deltas, before.deltas, "nor a sparse delta");
    assert_eq!(
        read.envelope.frequency().expect("frequency").estimate,
        0,
        "key 3 lived only on the dead server; its cache must be gone"
    );
    drop(direct);
    drop(group);
    drop(b.join());
}

#[test]
fn warm_group_reads_changed_replicas_through_deltas() {
    // Write-then-read over warm sketches: every read finds moved
    // epochs, and a changed replica must answer with a sparse delta,
    // never with full state, however much of each row was touched
    // before the base.
    let replicas: Vec<ServerHandle> = (0..3)
        .map(|_| spawn_replica(Backend::EventLoop, SEED))
        .collect();
    let mut group = group_over(&replicas, ReplicaMode::Partition);
    let mut keys = ZipfStream::new(1 << 16, 1.1, 5);
    let mut truth: HashMap<u64, u64> = HashMap::new();
    let mut frame = |n: usize| -> Vec<(u64, u64)> {
        let items: Vec<(u64, u64)> = (0..n).map(|_| (keys.next_item(), 1)).collect();
        for &(k, w) in &items {
            *truth.entry(k).or_default() += w;
        }
        items
    };
    for _ in 0..10 {
        group.batch(0, &frame(1024)).expect("warm-up frame");
    }
    group.query(0, 0).expect("first read fills the caches");
    let warm = group.delta_stats();
    let mut last = Vec::new();
    for _ in 0..50 {
        last = frame(32);
        group.batch(0, &last).expect("update frame");
        group.query(0, last[0].0).expect("merged read");
    }
    let stats = group.delta_stats();
    assert!(
        stats.deltas > warm.deltas,
        "no sparse delta among {} changed reads",
        stats.reads - warm.reads - (stats.unchanged - warm.unchanged)
    );
    assert_eq!(stats.fulls, warm.fulls, "a warm changed read went full");
    assert!(stats.delta_rate() > 0.0 && stats.full_rate() < stats.delta_rate());
    // The delta-maintained merge still answers for the union stream.
    for &(key, _) in &last {
        let read = group.query(0, key).expect("merged read");
        assert_freq_within(&read.envelope, truth[&key]);
    }
    drop(group);
    for r in replicas {
        drop(r.join());
    }
}

#[test]
fn oversized_full_state_is_a_typed_error_not_a_hang() {
    // A CountMin at alpha = 1e-4 snapshots to 27 183 x 5 cells =
    // 1.09 MB, past the 1 MiB `DEFAULT_MAX_FRAME_LEN` every client
    // enforces: the group cannot read it. That must surface as a typed
    // error, promptly and on every attempt, with the group still
    // usable for objects that do fit.
    let config = ServerConfig {
        alpha: 1e-4,
        ..replica_config(Backend::EventLoop, SEED)
    };
    let server = ivl_service::serve("127.0.0.1:0", config).expect("bind a replica");
    let addr = server.addr().to_string();
    let (done, outcome) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut group = ReplicaGroup::new(vec![addr], ReplicaMode::Partition, SEED).expect("group");
        group.update(0, 7, 1).expect("updates are small frames");
        let first = group.query(0, 7);
        let second = group.query(0, 7);
        // Object 3 (the min register) fits in a frame: still served.
        group.update(3, 41, 1).expect("update the min register");
        let small = group.query(3, 0);
        done.send((first, second, small)).expect("report");
    });
    let (first, second, small) = outcome
        .recv_timeout(Duration::from_secs(20))
        .expect("an oversized snapshot must not hang the merged read");
    reader.join().expect("reader thread");
    for read in [first, second] {
        match read {
            Err(ReplicaError::Client(ClientError::Wire(WireError::Oversized { len, max }))) => {
                assert!(len > max && max == ivl_service::protocol::DEFAULT_MAX_FRAME_LEN);
            }
            other => panic!("wanted a typed oversized-frame error, got {other:?}"),
        }
    }
    match small.expect("small objects stay readable").envelope {
        ErrorEnvelope::Minimum { minimum, .. } => assert_eq!(minimum, 41),
        other => panic!("wanted a minimum envelope, got {other:?}"),
    }
    drop(server.join());
}

#[test]
fn rejoined_replica_converges_after_catchup_push() {
    // The anti-entropy acceptance scenario: kill a replica, restart it
    // empty at the same address, and watch the group (a) detect the
    // rejoin and widen `lag` by exactly the forgotten weight, then
    // (b) push the retained state back, after which the merged
    // envelope narrows to its pre-kill width and the parts cover the
    // whole stream again.
    let mut replicas: Vec<ServerHandle> = (0..3)
        .map(|_| spawn_replica(Backend::Threaded, SEED))
        .collect();
    let mut group = group_over(&replicas, ReplicaMode::Partition);
    group.set_retry_limit(3);
    group.set_backoff(Duration::from_millis(5));

    let mut truth = [0u64; 16];
    for k in 0..16u64 {
        group.update(0, k, k + 1).expect("partitioned update");
        truth[k as usize] += k + 1;
    }
    let read0 = group.query(0, 7).expect("pre-kill query");
    let pre_lag = read0.envelope.frequency().expect("frequency").lag;
    let victim_weight = read0.parts[0].expect("replica 0 answered");
    assert!(victim_weight > 0, "16 keys must touch replica 0");

    let victim = replicas.remove(0);
    let addr = victim.addr().to_string();
    group.disconnect(0);
    drop(victim.join());
    let reborn = respawn_at(&addr, SEED);

    // First read after the restart: the fresh full state observes less
    // than the cache — rejoin detected, forgotten weight widens lag,
    // the displaced cache is retained for the push.
    let read1 = group.query(0, 7).expect("rejoin-detection query");
    let env1 = read1.envelope.frequency().expect("frequency");
    assert_eq!(
        env1.lag,
        pre_lag + victim_weight,
        "lag must widen by exactly the weight the replica forgot"
    );
    assert_freq_within(&read1.envelope, truth[7]);
    assert_eq!(group.catchup_stats().detected, 1);
    assert_eq!(group.catchup_pending(), 1);

    // Second read flushes the push first: the replica absorbs its own
    // retained state and this very read observes the converged group.
    let read2 = group.query(0, 7).expect("post-catchup query");
    let env2 = read2.envelope.frequency().expect("frequency");
    let stats = group.catchup_stats();
    assert_eq!(
        (stats.pushed, stats.acked, stats.failed),
        (1, 1, 0),
        "one push, acknowledged"
    );
    assert_eq!(stats.settled_weight, victim_weight);
    assert_eq!(group.catchup_pending(), 0);
    assert_eq!(
        env2.lag, pre_lag,
        "the envelope narrows back to its pre-kill width after catch-up"
    );
    assert_eq!(
        read2.parts.iter().flatten().sum::<u64>(),
        truth.iter().sum::<u64>(),
        "the rejoined replica holds its substream again"
    );
    assert_freq_within(&read2.envelope, truth[7]);

    drop(group);
    drop(reborn.join());
    for r in replicas {
        drop(r.join());
    }
}

/// The group keeps the merged HLL summary next to its accumulator, so a
/// summary kept past a change to the merged state would serve a stale
/// estimate. After every kind of round — quiet, raising, a reconnect, a
/// rejoin and its acknowledged catch-up push — the envelope must be the
/// envelope of the merged state the group holds, and a query that
/// follows it while nothing moves must serve it again from the kept
/// summary.
#[test]
fn merged_hll_envelope_is_the_envelope_of_the_merged_state() {
    let mut replicas: Vec<ServerHandle> = (0..3)
        .map(|_| spawn_replica(Backend::Threaded, SEED))
        .collect();
    let mut group = group_over(&replicas, ReplicaMode::Partition);
    group.set_retry_limit(3);
    group.set_backoff(Duration::from_millis(5));
    // The envelope of a merged snapshot must be that of its own state;
    // returns the merged register sum.
    let checked = |merged: &ObjectSnapshot, what: &str| -> u64 {
        let SnapshotState::Hll { registers, .. } = &merged.state else {
            panic!("{what}: object 1 merges as an HLL");
        };
        let summary = RegisterSummary::from_ranks(registers.iter().copied());
        let want = ErrorEnvelope::cardinality(&summary, merged.envelope.observed());
        assert_eq!(merged.envelope, want, "{what}: snapshot");
        summary.register_sum()
    };
    // One merged snapshot, then a query that must serve the same
    // envelope from the kept summary.
    let snapshot = |group: &mut ReplicaGroup, what: &str| -> ObjectSnapshot {
        group
            .snapshot_since(1, u64::MAX)
            .expect(what)
            .into_snapshot()
            .expect("no base reads in full")
    };
    let round = |group: &mut ReplicaGroup, what: &str| -> u64 {
        let merged = snapshot(group, what);
        let read = group.query(1, 0).expect("merged hll query");
        assert_eq!(read.envelope, merged.envelope, "{what}: query");
        checked(&merged, what)
    };
    for k in 0..64u64 {
        group.update(1, k, 1).expect("hll update");
    }
    let first = round(&mut group, "first read");

    let before = group.delta_stats();
    assert_eq!(round(&mut group, "quiet round"), first);
    let quiet = group.delta_stats();
    assert_eq!(
        quiet.unchanged - before.unchanged,
        6,
        "two reads of 3 replicas"
    );

    for k in 64..4096u64 {
        group.update(1, k, 1).expect("hll update");
    }
    let raised = round(&mut group, "raising round");
    assert!(raised > first);

    group.disconnect(1);
    assert_eq!(round(&mut group, "reconnect"), raised);
    assert!(group.delta_stats().fulls > quiet.fulls);

    let victim = replicas.remove(0);
    let addr = victim.addr().to_string();
    group.disconnect(0);
    drop(victim.join());
    let reborn = respawn_at(&addr, SEED);
    // The snapshot detects the rejoin (the reborn replica is empty);
    // the query after it flushes the catch-up push and re-reads.
    let merged = snapshot(&mut group, "rejoin-detection read");
    assert!(checked(&merged, "rejoin") < raised);
    assert_eq!(group.catchup_stats().detected, 1);
    assert_eq!(round(&mut group, "catch-up push"), raised);
    assert_eq!(group.catchup_stats().acked, 1);

    drop(group);
    drop(reborn.join());
    for r in replicas {
        drop(r.join());
    }
}

#[test]
fn catchup_push_to_a_skewed_server_is_refused_typed() {
    // A rejoined address answering with the wrong seed must never
    // absorb the retained state: the push is refused with the typed
    // merge-mismatch, surfaced through the group, payload dropped.
    let a = spawn_replica(Backend::Threaded, SEED);
    let addr = a.addr().to_string();
    let mut group =
        ReplicaGroup::new(vec![addr.clone()], ReplicaMode::Partition, SEED).expect("group");
    group.set_retry_limit(3);
    group.set_backoff(Duration::from_millis(5));
    group.update(0, 3, 5).expect("update");
    group.query(0, 3).expect("prime the cache");

    group.disconnect(0);
    drop(a.join());
    let b = respawn_at(&addr, SEED + 1);

    // Detection read: the wrong-seed state cannot even compose.
    match group.query(0, 3) {
        Err(ReplicaError::MergeMismatch { why }) => assert!(why.contains("seed"), "{why}"),
        other => panic!("wanted MergeMismatch, got {other:?}"),
    }
    assert_eq!(group.catchup_pending(), 1);
    // The flush on the next read pushes the retained state; the
    // skewed server refuses the absorb with its own typed mismatch.
    match group.query(0, 3) {
        Err(ReplicaError::MergeMismatch { why }) => {
            assert!(why.contains("do not match"), "{why}");
        }
        other => panic!("wanted MergeMismatch, got {other:?}"),
    }
    let stats = group.catchup_stats();
    assert_eq!((stats.pushed, stats.acked, stats.failed), (1, 0, 1));
    assert_eq!(
        group.catchup_pending(),
        0,
        "a refused payload is dropped, not retried forever"
    );
    drop(group);
    drop(b.join());
}

#[test]
fn morris_merges_at_the_envelope_level() {
    let replicas: Vec<ServerHandle> = (0..2)
        .map(|_| spawn_replica(Backend::Threaded, SEED))
        .collect();
    let mut group = group_over(&replicas, ReplicaMode::Partition);
    for k in 0..32u64 {
        group.update(2, k, 1).expect("morris update");
    }
    let read = group.query(2, 0).expect("merged morris query");
    match &read.envelope {
        ErrorEnvelope::ApproxCount {
            estimate, observed, ..
        } => {
            assert_eq!(*observed, 32, "acknowledged weight sums over substreams");
            assert!(*estimate > 0.0);
        }
        other => panic!("wanted approx-count envelope, got {other:?}"),
    }
    drop(group);
    for r in replicas {
        drop(r.join());
    }
}

/// A TCP proxy in front of `upstream` that forwards both ways while
/// `open` holds; once cleared, it takes every byte (and every new
/// connection) and forwards nothing, and never closes — a replica that
/// stopped answering without a reset.
fn stalling_proxy(upstream: std::net::SocketAddr, open: Arc<AtomicBool>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind the proxy");
    let addr = listener.local_addr().expect("proxy address").to_string();
    std::thread::spawn(move || {
        for client in listener.incoming().flatten() {
            let server = TcpStream::connect(upstream).expect("reach the replica");
            let halves = [
                (
                    client.try_clone().expect("clone"),
                    server.try_clone().expect("clone"),
                ),
                (server, client),
            ];
            for (mut from, mut to) in halves {
                let open = Arc::clone(&open);
                std::thread::spawn(move || {
                    let mut buf = [0u8; 4096];
                    while let Ok(n @ 1..) = from.read(&mut buf) {
                        if !open.load(Ordering::SeqCst) {
                            // Hold both sockets open for good.
                            std::mem::forget((from, to));
                            return;
                        }
                        if to.write_all(&buf[..n]).is_err() {
                            return;
                        }
                    }
                });
            }
        }
    });
    addr
}

#[test]
fn a_silent_replica_degrades_the_read_within_the_deadline() {
    // Replica 1 sits behind a proxy that stops answering mid-run. Every
    // round trip is bounded by 50 backoffs: the merged read serves
    // replica 1 from its cache as stale, and a write whose reply never
    // comes is in doubt and fails over, instead of the group waiting
    // forever.
    let backoff = Duration::from_millis(10);
    let deadline = backoff * 50;
    let open = Arc::new(AtomicBool::new(true));
    let (r0, r1) = (
        spawn_replica(Backend::EventLoop, SEED),
        spawn_replica(Backend::EventLoop, SEED),
    );
    let addrs = vec![
        r0.addr().to_string(),
        stalling_proxy(r1.addr(), Arc::clone(&open)),
    ];
    let mut group = ReplicaGroup::new(addrs, ReplicaMode::Partition, SEED).expect("group");
    group.set_backoff(backoff);
    let mut truth = [0u64; 16];
    for k in 0..16u64 {
        group.update(0, k, k + 1).expect("partitioned update");
        truth[k as usize] += k + 1;
    }
    let before = group.query(0, 0).expect("the first read fills both caches");
    assert_eq!(before.reached, 2);

    open.store(false, Ordering::SeqCst);
    let started = Instant::now();
    let merged = group.query(0, 3).expect("degraded query");
    assert!(
        started.elapsed() < deadline * 2,
        "a read past a silent replica took {:?}",
        started.elapsed()
    );
    assert_eq!((merged.reached, merged.total), (1, 2));
    assert_eq!(
        merged.parts[1], before.parts[1],
        "the silent replica's part is its cache"
    );
    assert_freq_within(&merged.envelope, truth[3]);

    // Inside the down window the write fails over without dialling.
    let silent_key = (0..)
        .find(|&k| group.route(k) == 1)
        .expect("a key on replica 1");
    let started = Instant::now();
    assert_eq!(group.update(0, silent_key, 5).expect("failover"), vec![0]);
    assert!(started.elapsed() < deadline);
    truth[silent_key as usize] += 5;
    // Past the window, the write is sent, its ack never comes: it is in
    // doubt, and applied on replica 0 by the failover.
    std::thread::sleep(backoff * 70);
    let started = Instant::now();
    assert_eq!(group.update(0, silent_key, 7).expect("failover"), vec![0]);
    assert!(started.elapsed() < deadline * 2);
    truth[silent_key as usize] += 7;
    for (key, &t) in truth.iter().enumerate() {
        let merged = group.query(0, key as u64).expect("degraded query");
        assert_freq_within(&merged.envelope, t);
    }
    let env = group.query(0, silent_key).expect("degraded query").envelope;
    assert!(
        env.frequency().expect("frequency").epsilon >= 7,
        "in-doubt weight widens ε"
    );
    drop(group);
    drop(r0.join());
    // Replica 1 keeps the proxy's held connection, so it is not joined.
    drop(r1);
}

/// A TCP proxy in front of `upstream` that forwards both ways; once
/// `trickle` is set, it forwards the replica's bytes one at a time,
/// `gap` apart — a peer whose every socket read returns in time while
/// its replies take many deadlines to arrive.
fn trickling_proxy(
    upstream: std::net::SocketAddr,
    gap: Duration,
    trickle: Arc<AtomicBool>,
) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind the proxy");
    let addr = listener.local_addr().expect("proxy address").to_string();
    std::thread::spawn(move || {
        for client in listener.incoming().flatten() {
            client.set_nodelay(true).expect("nodelay");
            let server = TcpStream::connect(upstream).expect("reach the replica");
            let halves = [
                (
                    client.try_clone().expect("clone"),
                    server.try_clone().expect("clone"),
                    None,
                ),
                (server, client, Some(Arc::clone(&trickle))),
            ];
            for (mut from, mut to, trickle) in halves {
                std::thread::spawn(move || {
                    let mut buf = [0u8; 4096];
                    while let Ok(n @ 1..) = from.read(&mut buf) {
                        let slow = trickle.as_ref().is_some_and(|t| t.load(Ordering::SeqCst));
                        let sent = if slow {
                            buf[..n].iter().try_for_each(|b| {
                                std::thread::sleep(gap);
                                to.write_all(std::slice::from_ref(b))
                            })
                        } else {
                            to.write_all(&buf[..n])
                        };
                        if sent.is_err() {
                            break;
                        }
                    }
                    // Either side gone: close both, so the other half ends too.
                    let _ = from.shutdown(std::net::Shutdown::Both);
                    let _ = to.shutdown(std::net::Shutdown::Both);
                });
            }
        }
    });
    addr
}

#[test]
fn a_trickling_replica_degrades_the_read_within_the_deadline() {
    // Replica 1 sits behind a proxy that starts forwarding its replies
    // one byte per fifth of a deadline. No socket read ever waits a
    // whole deadline, but the deadline bounds each reply as a whole:
    // the merged read serves replica 1 from its cache as stale instead
    // of waiting out the trickle.
    let backoff = Duration::from_millis(10);
    let deadline = backoff * 50;
    let trickle = Arc::new(AtomicBool::new(false));
    let (r0, r1) = (
        spawn_replica(Backend::EventLoop, SEED),
        spawn_replica(Backend::EventLoop, SEED),
    );
    let addrs = vec![
        r0.addr().to_string(),
        trickling_proxy(r1.addr(), deadline / 5, Arc::clone(&trickle)),
    ];
    let mut group = ReplicaGroup::new(addrs, ReplicaMode::Partition, SEED).expect("group");
    group.set_backoff(backoff);
    let mut truth = [0u64; 16];
    for k in 0..16u64 {
        group.update(0, k, k + 1).expect("partitioned update");
        truth[k as usize] += k + 1;
    }
    let before = group.query(0, 0).expect("the first read fills both caches");
    assert_eq!(before.reached, 2);

    trickle.store(true, Ordering::SeqCst);
    let started = Instant::now();
    let merged = group.query(0, 3).expect("degraded query");
    assert!(
        started.elapsed() < deadline * 2,
        "a read past a trickling replica took {:?}",
        started.elapsed()
    );
    assert_eq!((merged.reached, merged.total), (1, 2));
    assert_eq!(
        merged.parts[1], before.parts[1],
        "the trickling replica's part is its cache"
    );
    assert_freq_within(&merged.envelope, truth[3]);
    drop(group);
    drop(r0.join());
    drop(r1.join());
}
