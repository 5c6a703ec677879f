//! One deadline per round: a merged read that finds several replicas
//! silent waits out the round's deadline once, not once per silent
//! replica.

use ivl_replica::{ReplicaGroup, ReplicaMode};
use ivl_service::{Backend, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 5;

fn spawn_replica() -> ServerHandle {
    let cfg = ServerConfig {
        backend: Backend::EventLoop,
        shards: 2,
        seed: SEED,
        ..ServerConfig::default()
    };
    ivl_service::serve("127.0.0.1:0", cfg).expect("bind a replica")
}

/// A proxy to `upstream` that forwards both ways while `open` holds,
/// and once it is cleared holds its sockets open and forwards nothing:
/// a replica that accepts requests and never answers them.
fn stalling_proxy(upstream: SocketAddr, open: Arc<AtomicBool>) -> String {
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
fn two_silent_replicas_cost_one_deadline() {
    let backoff = Duration::from_millis(10);
    let deadline = backoff * 50;
    let open = Arc::new(AtomicBool::new(true));
    let replicas = [spawn_replica(), spawn_replica(), spawn_replica()];
    let addrs = vec![
        replicas[0].addr().to_string(),
        stalling_proxy(replicas[1].addr(), Arc::clone(&open)),
        stalling_proxy(replicas[2].addr(), Arc::clone(&open)),
    ];
    let mut group = ReplicaGroup::new(addrs, ReplicaMode::Partition, SEED).expect("group");
    group.set_backoff(backoff);
    for k in 0..32u64 {
        group.update(0, k, 1).expect("partitioned update");
    }
    let before = group.query(0, 3).expect("the first read fills every cache");
    assert_eq!(before.reached, 3);

    open.store(false, Ordering::SeqCst);
    let started = Instant::now();
    let merged = group.query(0, 3).expect("degraded query");
    let took = started.elapsed();
    assert!(
        took < deadline + deadline * 3 / 10,
        "a read past two silent replicas took {took:?} at a {deadline:?} deadline"
    );
    assert_eq!((merged.reached, merged.total), (1, 3));
    assert_eq!(
        merged.parts[1..],
        before.parts[1..],
        "the silent parts are their caches"
    );
    let env = merged.envelope.frequency().expect("frequency envelope");
    assert!(
        env.covers(1, 1),
        "merged envelope {env:?} misses key 3's one update"
    );
}
