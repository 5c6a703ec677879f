//! The `ivl_replicate` frontend binary over an in-process replica:
//! a malformed but length-delimited frame is answered with a typed
//! `Protocol` error and the connection keeps being served, exactly as
//! `ivl_serve` does.

use ivl_service::objects::{ObjectConfig, ObjectKind};
use ivl_service::protocol::{read_frame, DEFAULT_MAX_FRAME_LEN};
use ivl_service::{ErrorCode, Request, Response, ServerConfig};
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

    // A retired object-id-less UPDATE (opcode 0x01, key, weight).
    let mut v1 = 17u32.to_le_bytes().to_vec();
    v1.push(0x01);
    v1.extend_from_slice(&7u64.to_le_bytes());
    v1.extend_from_slice(&3u64.to_le_bytes());
    match roundtrip(&mut s, &v1) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
        other => panic!("expected a protocol error, got {other:?}"),
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
    buf.clear();
    Request::Shutdown.encode(&mut buf);
    assert_eq!(roundtrip(&mut s, &buf), Response::Goodbye);
    drop(s);
    let status = frontend.0.wait().expect("frontend exits");
    assert!(status.success(), "ivl_replicate exited {status}");
    replica.join();
}
