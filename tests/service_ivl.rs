//! End-to-end check of the serving subsystem against the paper.
//!
//! An in-process `ivl-service` server is hammered over real TCP by
//! four ingest connections while a fifth queries live. Every check
//! runs twice — once against each serving backend (thread-per-
//! connection and epoll event loop) — asserting the exact same IVL
//! and envelope verdicts: the backend is an implementation choice,
//! not a semantic one, because both funnel every frame through the
//! same request executor over the same sharded sketch. Two properties
//! are asserted:
//!
//! 1. **Envelopes cover ground truth** (Theorem 6 instantiated at the
//!    service boundary). For every live query the test brackets the
//!    key's true frequency from the client side: `lo` = weight acked
//!    before the query was sent (≤ `f_start`), `hi` = weight invoked
//!    by the time the answer arrived (≥ `f_end`). CountMin never
//!    underestimates, so `estimate ≥ lo` must hold *deterministically*;
//!    `estimate ≤ hi + ε` holds per query with probability `1 − δ`,
//!    so upper-side misses are counted against a δ budget.
//! 2. **The recorded history is IVL**: the server's full operation
//!    history (every `(key, weight)` update and every answered query)
//!    replays clean through the monotone interval checker, and a
//!    small second run through the exact (exponential) checker.

use ivl_core::prelude::*;
use ivl_core::service::server::{serve, Backend, ServerConfig};
use std::sync::atomic::{AtomicU64, Ordering};

const KEYS: usize = 64;
const WORKERS: usize = 4;
const UPDATES_PER_WORKER: usize = 500;
const LIVE_QUERIES: usize = 300;

fn key_weight(worker: usize, i: usize) -> (u64, u64) {
    (((worker * 31 + i * 7) % KEYS) as u64, 1 + (i % 3) as u64)
}

/// Queries `key` on object 0, the default roster's CountMin.
fn frequency(client: &mut Client, key: u64) -> Envelope {
    *client
        .object_id(0)
        .query(key)
        .expect("query answered")
        .frequency()
        .expect("a CountMin answers a frequency envelope")
}

fn concurrent_serving_run_is_ivl_and_envelopes_cover_truth(backend: Backend) {
    let cfg = ServerConfig {
        backend,
        shards: WORKERS,
        record: true,
        ..ServerConfig::default()
    };
    // The sketch's effective δ = e^-depth, not the requested bound.
    let delta = CountMinParams::for_bounds(cfg.alpha, cfg.delta).delta();
    let handle = serve("127.0.0.1:0", cfg).expect("bind");
    let addr = handle.addr();

    // Client-side ground truth per key, in total weight.
    let invoked: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
    let completed: Vec<AtomicU64> = (0..KEYS).map(|_| AtomicU64::new(0)).collect();
    let upper_misses = AtomicU64::new(0);

    crossbeam::scope(|s| {
        for w in 0..WORKERS {
            let (invoked, completed) = (&invoked, &completed);
            s.spawn(move |_| {
                let mut client = Client::connect(addr).expect("connect ingest");
                for i in 0..UPDATES_PER_WORKER {
                    let (key, weight) = key_weight(w, i);
                    invoked[key as usize].fetch_add(weight, Ordering::SeqCst);
                    client
                        .object_id(0)
                        .update(key, weight)
                        .expect("update acked");
                    completed[key as usize].fetch_add(weight, Ordering::SeqCst);
                }
            });
        }
        let (invoked, completed, upper_misses) = (&invoked, &completed, &upper_misses);
        s.spawn(move |_| {
            let mut client = Client::connect(addr).expect("connect querier");
            for q in 0..LIVE_QUERIES {
                let key = (q % KEYS) as u64;
                let lo = completed[key as usize].load(Ordering::SeqCst);
                let env = frequency(&mut client, key);
                let hi = invoked[key as usize].load(Ordering::SeqCst);
                // Deterministic side: the estimate dominates every
                // update completed before the query began.
                assert!(
                    env.estimate >= lo,
                    "query {q} key {key}: estimate {} below completed weight {lo}",
                    env.estimate
                );
                // Probabilistic side: within epsilon of everything
                // invoked by the end, up to delta misses.
                if !env.covers(lo, hi) {
                    upper_misses.fetch_add(1, Ordering::SeqCst);
                }
            }
        });
    })
    .unwrap();

    // Quiescent recheck: every key's envelope brackets its exact
    // final frequency.
    {
        let mut client = Client::connect(addr).expect("connect recheck");
        for key in 0..KEYS as u64 {
            let truth = completed[key as usize].load(Ordering::SeqCst);
            assert_eq!(truth, invoked[key as usize].load(Ordering::SeqCst));
            let env = frequency(&mut client, key);
            assert!(env.estimate >= truth, "quiescent underestimate of {key}");
            if !env.covers(truth, truth) {
                upper_misses.fetch_add(1, Ordering::SeqCst);
            }
        }
    }
    let total_queries = (LIVE_QUERIES + KEYS) as f64;
    let allowed = (3.0 * delta * total_queries).ceil().max(3.0) as u64;
    let misses = upper_misses.load(Ordering::SeqCst);
    assert!(
        misses <= allowed,
        "{misses} envelopes exceeded epsilon (delta {delta} allows ~{allowed} of {total_queries})"
    );

    // The server's own accounting matches the load it was given.
    let total_updates = (WORKERS * UPDATES_PER_WORKER) as u64;
    let total_weight: u64 = (0..WORKERS)
        .flat_map(|w| (0..UPDATES_PER_WORKER).map(move |i| key_weight(w, i).1))
        .sum();
    let stats = handle.stats();
    assert_eq!(stats.updates, total_updates);
    assert_eq!(stats.stream_len, total_weight);
    assert_eq!(stats.queries, (LIVE_QUERIES + KEYS) as u64);
    assert_eq!(stats.accepted, (WORKERS + 2) as u64);
    assert!(stats.update_p50_ns > 0 && stats.update_p50_ns <= stats.update_p99_ns);
    assert!(stats.query_p50_ns > 0 && stats.query_p50_ns <= stats.query_p99_ns);

    // The recorded history replays clean through the IVL checker.
    let joined = handle.join();
    let spec = joined.registry.cm(0).expect("the default CountMin").spec();
    let history = joined.history.expect("recording was on");
    let ops = history.operations();
    assert_eq!(
        ops.iter().filter(|o| o.op.is_update()).count() as u64,
        total_updates
    );
    assert!(
        check_ivl_monotone(&spec, &history).is_ivl(),
        "recorded serving history is not IVL"
    );
}

fn small_serving_run_passes_the_exact_checker(backend: Backend) {
    let cfg = ServerConfig {
        backend,
        shards: 2,
        record: true,
        ..ServerConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg).expect("bind");
    let addr = handle.addr();
    crossbeam::scope(|s| {
        for t in 0..2u64 {
            s.spawn(move |_| {
                let mut client = Client::connect(addr).expect("connect");
                for i in 0..6u64 {
                    client
                        .object_id(0)
                        .update(i % 3, t + 1)
                        .expect("update acked");
                }
                frequency(&mut client, t % 3);
                frequency(&mut client, (t + 1) % 3);
            });
        }
    })
    .unwrap();
    let joined = handle.join();
    let spec = joined.registry.cm(0).expect("the default CountMin").spec();
    let history = joined.history.expect("recording was on");
    let ops = history.operations().len();
    assert!(
        ops <= ivl_core::spec::linearize::MAX_EXACT_OPS,
        "history too large for the exact checker: {ops} ops"
    );
    assert!(
        check_ivl_exact(std::slice::from_ref(&spec), &history).is_ivl(),
        "small serving history fails the exact IVL check"
    );
}

/// What one multi-object run produced, for cross-backend comparison:
/// the per-object verdict table plus each object's quiescent envelope.
#[derive(Debug, PartialEq)]
struct MultiObjectOutcome {
    verdicts: Vec<(u32, String, String, usize, Option<bool>)>,
    envelopes: Vec<(String, ivl_core::service::ErrorEnvelope)>,
}

/// Serves a CountMin, an HLL, a Morris counter, and a min register
/// through the registry on the given backend: one ingest connection
/// per object (updates within an object stay sequential, so the
/// drained state is a deterministic function of the update multiset
/// and the server seed), live cross-object concurrency on the wire,
/// and a per-object IVL verdict on drain — Theorem 1's locality,
/// operationally.
fn multi_object_run(backend: Backend) -> MultiObjectOutcome {
    use ivl_core::service::objects::{ObjectConfig, ObjectKind};

    const NAMES: [(&str, ObjectKind); 4] = [
        ("cm", ObjectKind::CountMin),
        ("hits", ObjectKind::Hll),
        ("approx", ObjectKind::Morris),
        ("low", ObjectKind::MinRegister),
    ];
    let cfg = ServerConfig {
        backend,
        shards: 4,
        record: true,
        objects: NAMES
            .iter()
            .map(|&(name, kind)| ObjectConfig::new(name, kind))
            .collect(),
        ..ServerConfig::default()
    };
    let handle = serve("127.0.0.1:0", cfg).expect("bind");
    let addr = handle.addr();
    crossbeam::scope(|s| {
        for (w, &(name, _)) in NAMES.iter().enumerate() {
            s.spawn(move |_| {
                let mut client = Client::connect(addr).expect("connect");
                let mut handle = client.object(name).expect("resolve object");
                for i in 0..120u64 {
                    let key = (w as u64 * 17 + i * 13) % 97 + 1;
                    handle.update(key, 1 + i % 3).expect("update acked");
                    if i % 10 == 9 {
                        let env = handle.query(key).expect("query answered");
                        assert!(env.observed() > 0, "{name}: no weight acknowledged");
                    }
                }
            });
        }
    })
    .unwrap();

    // Quiescent envelopes, one per object, before drain.
    let mut client = Client::connect(addr).expect("connect recheck");
    let infos = client.objects().expect("objects listed");
    assert_eq!(infos.len(), NAMES.len());
    let mut envelopes = Vec::new();
    for info in &infos {
        let env = client.object_id(info.id).query(18).expect("query answered");
        assert_eq!(env.observed(), 240, "{}: acknowledged weight", info.name);
        envelopes.push((info.name.clone(), env));
    }
    // Addressing past the roster answers a typed UNKNOWN_OBJECT error
    // and leaves the connection serviceable.
    match client.object_id(99).query(1) {
        Err(ivl_core::service::client::ClientError::Server { code, .. }) => {
            assert_eq!(code, ivl_core::service::protocol::ErrorCode::UnknownObject);
        }
        other => panic!("expected unknown-object error, got {other:?}"),
    }
    let stats = client.stats().expect("stats answered");
    assert_eq!(stats.objects.len(), NAMES.len());
    for row in &stats.objects {
        assert_eq!(row.updates, 120, "object {} update count", row.id);
        assert_eq!(row.observed, 240, "object {} observed weight", row.id);
    }
    drop(client);

    handle.shutdown();
    let joined = handle.join();
    let verdicts = joined.verdicts().expect("recording was on");
    assert_eq!(verdicts.len(), NAMES.len());
    for v in &verdicts {
        assert_ne!(
            v.ivl,
            Some(false),
            "object {} ({}) projection is not IVL on {backend}",
            v.id,
            v.name
        );
        assert!(v.ops > 0, "object {} projection is empty", v.id);
    }
    MultiObjectOutcome {
        verdicts: verdicts
            .into_iter()
            .map(|v| (v.id, v.name, v.kind.to_string(), v.ops, v.ivl))
            .collect(),
        envelopes,
    }
}

#[test]
fn multi_object_verdicts_are_identical_across_backends() {
    let threaded = multi_object_run(Backend::Threaded);
    let event_loop = multi_object_run(Backend::EventLoop);
    assert_eq!(
        threaded, event_loop,
        "per-object verdicts and quiescent envelopes must not depend on the backend"
    );
}

#[test]
fn threaded_serving_run_is_ivl_and_envelopes_cover_truth() {
    concurrent_serving_run_is_ivl_and_envelopes_cover_truth(Backend::Threaded);
}

#[test]
fn event_loop_serving_run_is_ivl_and_envelopes_cover_truth() {
    concurrent_serving_run_is_ivl_and_envelopes_cover_truth(Backend::EventLoop);
}

#[test]
fn threaded_small_run_passes_the_exact_checker() {
    small_serving_run_passes_the_exact_checker(Backend::Threaded);
}

#[test]
fn event_loop_small_run_passes_the_exact_checker() {
    small_serving_run_passes_the_exact_checker(Backend::EventLoop);
}
