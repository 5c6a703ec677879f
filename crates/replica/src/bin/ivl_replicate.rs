//! `ivl_replicate`: a replication frontend speaking the ordinary
//! `ivl-service` wire protocol, backed by N `ivl_serve` replicas.
//!
//! ```text
//! usage: ivl_replicate [addr] --replica ADDR [--replica ADDR]...
//!                      [--mode partition|mirror] [--seed N]
//!                      [--retries N] [--backoff-ms MS]
//!   addr          listen address (default 127.0.0.1:7272; port 0 picks one)
//!   --replica     a backend ivl_serve address (repeatable, >= 1)
//!   --mode        partition (default): each update routed to one
//!                 replica by key hash; mirror: fanned to all
//!   --seed        the replicas' --seed (1): rebuilds the hash
//!                 prototypes used to merge their snapshots
//!   --retries     reconnect attempts per replica per operation (2)
//!   --backoff-ms  pause between reconnect attempts (20)
//! ```
//!
//! Clients connect as if to a single `ivl_serve`: updates and batches
//! are acknowledged after the group placed them, queries and
//! snapshots return merged state with the composed IVL envelope, and
//! replicas that die degrade the answer (widened envelope) instead of
//! failing it. Merging replicas with mismatched coins or dimensions
//! answers a typed `merge-mismatch` wire error, never a panic.
//! `SHUTDOWN` propagates to every reachable replica, then drains the
//! frontend itself.

use ivl_replica::{ReplicaError, ReplicaGroup, ReplicaMode};
use ivl_service::protocol::{self, read_frame};
use ivl_service::{ClientError, DeltaChange, ErrorCode, Metrics, Request, Response, SnapshotDelta};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn usage() -> ExitCode {
    eprintln!(
        "usage: ivl_replicate [addr] --replica ADDR [--replica ADDR]... \
         [--mode partition|mirror] [--seed N] [--retries N] [--backoff-ms MS]"
    );
    ExitCode::from(1)
}

/// Frontend-wide shared state: the stats surface and the drain flag.
struct Shared {
    metrics: Metrics,
    /// Total acknowledged update weight through this frontend (the
    /// stats `stream_len`).
    observed: AtomicU64,
    shutdown: AtomicBool,
    /// The bound listen address, for the self-connect that wakes the
    /// accept loop out of `accept(2)` when a client requests shutdown.
    listen: std::sync::OnceLock<std::net::SocketAddr>,
    replicas: Vec<String>,
    mode: ReplicaMode,
    seed: u64,
    retries: u32,
    backoff: Duration,
}

impl Shared {
    fn group(&self) -> Result<ReplicaGroup, ReplicaError> {
        let mut group = ReplicaGroup::new(self.replicas.clone(), self.mode, self.seed)?;
        group.set_retry_limit(self.retries);
        group.set_backoff(self.backoff);
        Ok(group)
    }
}

/// Maps a group error to the wire error the client sees. Mismatched
/// replica states get the typed `merge-mismatch` code; a fully
/// unreachable group reads as `busy` (retryable — the replicas may be
/// restarting); a replica's own refusal is forwarded verbatim.
fn wire_error(e: ReplicaError) -> Response {
    let (code, message) = match e {
        ReplicaError::MergeMismatch { why } => (ErrorCode::MergeMismatch, why),
        ReplicaError::Compose(e) => (ErrorCode::MergeMismatch, e.to_string()),
        ReplicaError::Client(ClientError::Server { code, message }) => (code, message),
        ReplicaError::AllUnreachable { what } => {
            (ErrorCode::Busy, format!("no replica reachable for {what}"))
        }
        other => (ErrorCode::Busy, other.to_string()),
    };
    Response::Error { code, message }
}

/// Serves one frontend connection with its own replica group (its own
/// backend connections, so frontend connections scale like clients).
fn serve_conn(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let mut group = match shared.group() {
        Ok(g) => g,
        Err(_) => return,
    };
    // Per-connection cumulative applied-update count, mirroring the
    // backend servers' ACK semantics.
    let mut applied = 0u64;
    let mut buf = Vec::new();
    while let Ok(Some(payload)) = read_frame(&mut stream, protocol::DEFAULT_MAX_FRAME_LEN) {
        shared.metrics.record_frame();
        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                // The frame was length-delimited, so the stream is
                // still in sync: answer and read on at the next frame.
                shared.metrics.record_protocol_error();
                let rsp = Response::Error {
                    code: ErrorCode::Protocol,
                    message: e.to_string(),
                };
                buf.clear();
                rsp.encode(&mut buf);
                if stream.write_all(&buf).is_err() {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::Acquire) {
            let rsp = Response::Error {
                code: ErrorCode::ShuttingDown,
                message: "frontend is draining".into(),
            };
            buf.clear();
            rsp.encode(&mut buf);
            let _ = stream.write_all(&buf);
            return;
        }
        let rsp = match request {
            Request::Batch { object, items } => {
                let start = Instant::now();
                // Saturating, like every add a client-chosen weight reaches.
                let weight = items.iter().fold(0u64, |t, &(_, w)| t.saturating_add(w));
                match group.batch(object, &items) {
                    Ok(_) => {
                        shared.metrics.record_batch();
                        shared
                            .metrics
                            .record_updates(items.len() as u64, start.elapsed().as_nanos());
                        shared.observed.fetch_add(weight, Ordering::Relaxed);
                        applied += items.len() as u64;
                        Response::Ack { applied }
                    }
                    Err(e) => wire_error(e),
                }
            }
            Request::Query { object, key } => {
                let start = Instant::now();
                match group.query(object, key) {
                    Ok(read) => {
                        shared.metrics.record_query(start.elapsed().as_nanos());
                        Response::Envelope(read.envelope)
                    }
                    Err(e) => wire_error(e),
                }
            }
            Request::SnapshotSince { object, .. } => {
                // The frontend keeps no composite epoch bookkeeping,
                // so it never answers `Unchanged` or a sparse delta:
                // every SNAPSHOT_SINCE gets the full merged state —
                // a legal reply at any base (a group stacked on this
                // frontend just sees no delta savings across the hop).
                let start = Instant::now();
                match group.snapshot_merged(object) {
                    Ok(merged) => {
                        shared.metrics.record_query(start.elapsed().as_nanos());
                        let epoch = merged.envelope.observed();
                        Response::SnapshotDelta(SnapshotDelta {
                            object: merged.object,
                            kind: merged.kind,
                            epoch,
                            change: DeltaChange::Full(merged.state),
                            envelope: merged.envelope,
                        })
                    }
                    Err(e) => wire_error(e),
                }
            }
            Request::PushState { object, .. } => {
                // Catch-up pushes belong between a group and its own
                // backends: the frontend holds no mergeable state of
                // its own to absorb into, and relaying a peer's state
                // into *every* replica would double-count it under
                // partition placement. Refused typed, never absorbed.
                Response::Error {
                    code: ErrorCode::MergeMismatch,
                    message: format!(
                        "object {object}: the replication frontend serves merged state but \
                         absorbs none; push to a backend replica instead"
                    ),
                }
            }
            Request::Objects => match group.objects() {
                Ok(infos) => Response::Objects(infos),
                Err(e) => wire_error(e),
            },
            Request::Stats => Response::Stats(
                shared
                    .metrics
                    .report(shared.observed.load(Ordering::Relaxed), Vec::new()),
            ),
            Request::Shutdown => {
                let acked = group.shutdown();
                shared.shutdown.store(true, Ordering::Release);
                eprintln!("ivl_replicate: shutdown propagated to {acked} replicas, draining");
                buf.clear();
                Response::Goodbye.encode(&mut buf);
                let _ = stream.write_all(&buf);
                // Wake the accept loop so the process exits promptly.
                if let Some(addr) = shared.listen.get() {
                    let _ = TcpStream::connect(addr);
                }
                return;
            }
        };
        buf.clear();
        rsp.encode(&mut buf);
        if stream.write_all(&buf).is_err() {
            return;
        }
    }
}

fn main() -> ExitCode {
    let mut addr = "127.0.0.1:7272".to_owned();
    let mut replicas: Vec<String> = Vec::new();
    let mut mode = ReplicaMode::Partition;
    let mut seed = 1u64;
    let mut retries = 2u32;
    let mut backoff_ms = 20u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| -> Option<String> {
            let v = args.next();
            if v.is_none() {
                eprintln!("{what} needs a value");
            }
            v
        };
        match arg.as_str() {
            "--replica" => match take("--replica") {
                Some(v) => replicas.push(v),
                None => return usage(),
            },
            "--mode" => match take("--mode").map(|v| v.parse()) {
                Some(Ok(v)) => mode = v,
                Some(Err(e)) => {
                    eprintln!("--mode: {e}");
                    return usage();
                }
                None => return usage(),
            },
            "--seed" => match take("--seed").and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--retries" => match take("--retries").and_then(|v| v.parse().ok()) {
                Some(v) => retries = v,
                None => return usage(),
            },
            "--backoff-ms" => match take("--backoff-ms").and_then(|v| v.parse().ok()) {
                Some(v) => backoff_ms = v,
                None => return usage(),
            },
            "--help" | "-h" => return usage(),
            other if !other.starts_with('-') => addr = other.to_owned(),
            _ => return usage(),
        }
    }
    if replicas.is_empty() {
        eprintln!("need at least one --replica");
        return usage();
    }
    let shared = Arc::new(Shared {
        metrics: Metrics::new(),
        observed: AtomicU64::new(0),
        shutdown: AtomicBool::new(false),
        listen: std::sync::OnceLock::new(),
        replicas,
        mode,
        seed,
        retries,
        backoff: Duration::from_millis(backoff_ms),
    });
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            return ExitCode::from(1);
        }
    };
    let local = listener.local_addr().expect("bound address");
    let _ = shared.listen.set(local);
    println!(
        "ivl_replicate listening on {local} [{mode} mode] over {} replicas [{}] (seed {seed})",
        shared.replicas.len(),
        shared.replicas.join(", ")
    );
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        shared.metrics.connection_accepted();
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            serve_conn(&shared, stream);
            shared.metrics.connection_closed();
        });
    }
    ExitCode::SUCCESS
}
