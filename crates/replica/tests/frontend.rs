//! The replication frontend. The `ivl_replicate` binary over an
//! in-process replica: a malformed but length-delimited frame is
//! answered with a typed `Protocol` error and the connection keeps
//! being served, and an oversized length prefix is answered and closed,
//! exactly as `ivl_serve` does. In process, through [`serve_group`]: a
//! group stacks on frontends, and every frontend client shares one
//! backend connection per replica.

use ivl_replica::{serve_group, ReplicaGroup, ReplicaMode, SharedGroup};
use ivl_service::objects::{ObjectConfig, ObjectKind};
use ivl_service::protocol::{read_frame, DEFAULT_MAX_FRAME_LEN};
use ivl_service::{Client, ErrorCode, Request, Response, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

/// Kills the frontend if the test fails before it drains.
struct Frontend(Child);

impl Drop for Frontend {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn roundtrip(s: &mut TcpStream, frame: &[u8]) -> Response {
    s.write_all(frame).expect("send");
    let payload = read_frame(s, DEFAULT_MAX_FRAME_LEN)
        .expect("a reply frame")
        .expect("not eof");
    Response::decode(&payload).expect("a well-formed reply")
}

#[test]
fn frontend_answers_a_protocol_error_and_keeps_the_connection() {
    let replica = ivl_service::serve(
        "127.0.0.1:0",
        ServerConfig {
            objects: vec![ObjectConfig::new("hits", ObjectKind::Hll)],
            ..ServerConfig::default()
        },
    )
    .expect("bind a replica");
    let mut frontend = Frontend(
        Command::new(env!("CARGO_BIN_EXE_ivl_replicate"))
            .args(["127.0.0.1:0", "--replica", &replica.addr().to_string()])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn ivl_replicate"),
    );
    // "ivl_replicate listening on ADDR [...]"
    let mut banner = String::new();
    BufReader::new(frontend.0.stdout.take().expect("piped stdout"))
        .read_line(&mut banner)
        .expect("banner line");
    let addr = banner
        .split_whitespace()
        .nth(3)
        .unwrap_or_else(|| panic!("no address in {banner:?}"));
    let mut s = TcpStream::connect(addr).expect("connect to the frontend");

    // Retired request bytes, each with its old body: the object-id-less
    // UPDATE (0x01, key, weight), UPDATE2 (0x11, object, key, weight)
    // and SNAPSHOT (0x14, object).
    let key_weight = [7u64.to_le_bytes(), 3u64.to_le_bytes()].concat();
    let object = 0u32.to_le_bytes();
    for (op, body) in [
        (0x01u8, key_weight.clone()),
        (0x11, [&object[..], &key_weight].concat()),
        (0x14, object.to_vec()),
    ] {
        let mut frame = (1 + body.len() as u32).to_le_bytes().to_vec();
        frame.push(op);
        frame.extend_from_slice(&body);
        match roundtrip(&mut s, &frame) {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
            other => panic!("byte {op:#04x}: expected a protocol error, got {other:?}"),
        }
    }
    // The same connection still answers.
    let mut buf = Vec::new();
    Request::Objects.encode(&mut buf);
    match roundtrip(&mut s, &buf) {
        Response::Objects(infos) => {
            assert_eq!(infos.len(), 1);
            assert_eq!(
                (infos[0].name.as_str(), infos[0].kind),
                ("hits", ObjectKind::Hll)
            );
        }
        other => panic!("expected the roster, got {other:?}"),
    }
    // A length prefix over the frame bound cannot be resynchronized: a
    // second connection is answered with a typed protocol error, then
    // closed.
    let mut oversized = TcpStream::connect(addr).expect("a second connection");
    oversized
        .write_all(&(DEFAULT_MAX_FRAME_LEN + 1).to_le_bytes())
        .expect("send an oversized prefix");
    match read_frame(&mut oversized, DEFAULT_MAX_FRAME_LEN)
        .expect("a reply frame")
        .map(|payload| Response::decode(&payload))
    {
        Some(Ok(Response::Error { code, .. })) => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected a protocol error, got {other:?}"),
    }
    assert_eq!(
        read_frame(&mut oversized, DEFAULT_MAX_FRAME_LEN).expect("a clean close"),
        None,
        "the frontend closes after the protocol error"
    );
    drop(oversized);
    buf.clear();
    Request::Shutdown.encode(&mut buf);
    assert_eq!(roundtrip(&mut s, &buf), Response::Goodbye);
    drop(s);
    let status = frontend.0.wait().expect("frontend exits");
    assert!(status.success(), "ivl_replicate exited {status}");
    replica.join();
}

const SEED: u64 = 5;

fn spawn_replica() -> ServerHandle {
    ivl_service::serve(
        "127.0.0.1:0",
        ServerConfig {
            seed: SEED,
            objects: vec![
                ObjectConfig::new("cm", ObjectKind::CountMin),
                ObjectConfig::new("hits", ObjectKind::Hll),
            ],
            ..ServerConfig::default()
        },
    )
    .expect("bind a replica")
}

/// A partition-mode group over `addrs`.
fn group(addrs: impl IntoIterator<Item = String>) -> ReplicaGroup {
    ReplicaGroup::new(addrs.into_iter().collect(), ReplicaMode::Partition, SEED)
        .expect("non-empty group")
}

/// A frontend serving one partition-mode group over `replicas`.
fn spawn_frontend(replicas: &[ServerHandle]) -> ServerHandle<SharedGroup> {
    let addrs = replicas.iter().map(|r| r.addr().to_string());
    serve_group("127.0.0.1:0", group(addrs)).expect("bind a frontend")
}

#[test]
fn a_group_stacks_on_two_frontends() {
    // A over replicas 0 and 1, B over replica 2: disjoint replica sets,
    // so the top group's `Add` merge counts every update once.
    let replicas: Vec<ServerHandle> = (0..3).map(|_| spawn_replica()).collect();
    let frontends = [
        spawn_frontend(&replicas[..2]),
        spawn_frontend(&replicas[2..]),
    ];
    let mut top = group(frontends.iter().map(|f| f.addr().to_string()));
    let mut truth = [0u64; 32];
    let covered = |top: &mut ReplicaGroup, truth: &[u64; 32]| {
        for (key, &t) in truth.iter().enumerate() {
            let read = top
                .query(0, key as u64)
                .expect("merged read over frontends");
            let env = read.envelope.frequency().expect("frequency envelope");
            assert!(
                env.covers(t, t),
                "key {key}: estimate {} (eps {}, lag {}) does not cover {t}",
                env.estimate,
                env.epsilon,
                env.lag
            );
        }
    };
    for key in 0..32u64 {
        top.update(0, key, key + 1)
            .expect("update through a frontend");
        truth[key as usize] += key + 1;
    }
    covered(&mut top, &truth);

    // Nothing moved below either frontend, so neither merge moved: each
    // answers `Unchanged` across the hop.
    let quiet = top.delta_stats();
    top.query(0, 7).expect("quiet read");
    let after = top.delta_stats();
    assert_eq!(
        (after.unchanged - quiet.unchanged, after.fulls - quiet.fulls),
        (2, 0),
        "a quiet stacked read is Unchanged from both frontends"
    );

    for key in 0..32u64 {
        top.update(0, key, 3).expect("update through a frontend");
        truth[key as usize] += 3;
    }
    covered(&mut top, &truth);
    assert!(
        top.delta_stats().fulls > after.fulls,
        "moved merges answer in full"
    );

    drop(top);
    for f in frontends {
        drop(f.join());
    }
    for r in replicas {
        drop(r.join());
    }
}

#[test]
fn frontend_clients_share_one_backend_connection_per_replica() {
    let replicas: Vec<ServerHandle> = (0..3).map(|_| spawn_replica()).collect();
    let frontend = spawn_frontend(&replicas);
    let accepted = || -> Vec<u64> { replicas.iter().map(|r| r.stats().accepted).collect() };
    let mut clients: Vec<Client> = (0..8)
        .map(|_| Client::connect(frontend.addr()).expect("connect to the frontend"))
        .collect();
    clients[0]
        .object_id(0)
        .query(7)
        .expect("query through the frontend");
    let one = accepted();
    for c in &mut clients[1..] {
        c.object_id(0).query(7).expect("query through the frontend");
    }
    assert_eq!(one, vec![1; 3], "one client: one connection per replica");
    assert_eq!(accepted(), one, "eight clients: still one per replica");
    drop(clients);
    drop(frontend.join());
    for r in replicas {
        drop(r.join());
    }
}

#[test]
fn stats_answer_within_the_deadline_while_a_backend_is_silent() {
    // Backend 1 accepts connections and never reads them. A query that
    // reaches it holds the frontend's one reactor thread for at most one
    // round-trip deadline (50 backoffs), so a second connection's STATS
    // is answered within two, and SHUTDOWN still reaches backend 0.
    let backoff = std::time::Duration::from_millis(10);
    let deadline = backoff * 50;
    let silent = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a silent backend");
    let silent_addr = silent.local_addr().expect("silent address").to_string();
    std::thread::spawn(move || {
        let held: Vec<TcpStream> = silent.incoming().flatten().collect();
        drop(held);
    });
    let replica = spawn_replica();
    let mut g = group([replica.addr().to_string(), silent_addr]);
    g.set_backoff(backoff);
    let frontend = serve_group("127.0.0.1:0", g).expect("bind a frontend");

    let mut querying = TcpStream::connect(frontend.addr()).expect("connect");
    let mut buf = Vec::new();
    Request::Query { object: 0, key: 7 }.encode(&mut buf);
    querying.write_all(&buf).expect("send a query");
    std::thread::sleep(backoff * 5);
    let started = std::time::Instant::now();
    let mut admin = Client::connect(frontend.addr()).expect("a second connection");
    admin.stats().expect("stats through the frontend");
    assert!(
        started.elapsed() < deadline * 2,
        "STATS waited {:?} behind a silent backend",
        started.elapsed()
    );
    match read_frame(&mut querying, DEFAULT_MAX_FRAME_LEN)
        .expect("a reply frame")
        .map(|payload| Response::decode(&payload))
    {
        Some(Ok(Response::Envelope(env))) => assert_eq!(env.frequency().map(|e| e.key), Some(7)),
        other => panic!("expected the degraded envelope, got {other:?}"),
    }
    admin.shutdown().expect("shutdown through the frontend");
    drop((querying, admin));
    drop(frontend.join());
    // Returns only if SHUTDOWN reached backend 0.
    drop(replica.join());
}
