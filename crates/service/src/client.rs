//! Blocking client for the sketch service.
//!
//! One request in flight at a time (lockstep request/response); use
//! [`ObjectHandle::batch`] to amortize round trips, or several clients
//! for concurrency — the server shards per connection.
//!
//! Updates, queries and snapshots address one registered object:
//! resolve a handle by name with [`Client::object`] (or by id with
//! [`Client::object_id`]) and issue requests through it; handles
//! share the connection, so only one may be in flight at a time.

use crate::metrics::StatsReport;
use crate::objects::{ObjectInfo, ObjectSnapshot, SnapshotDelta, SnapshotState};
use crate::protocol::{self, ErrorCode, FrameDecoder, Request, Response, WireError};
use crate::ErrorEnvelope;
use std::fmt;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Process-wide generation counter: every connection a [`Client`]
/// holds — initial or reconnected — gets a number no other connection
/// in this process ever had, so generation equality implies "same
/// uninterrupted connection" even across client instances.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(0);

/// Errors a client call can produce.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting or writing failed.
    Io(io::Error),
    /// The response stream did not parse.
    Wire(WireError),
    /// The server refused the request.
    Server {
        /// Refusal class (retry on [`ErrorCode::Busy`]).
        code: ErrorCode,
        /// Server-provided detail.
        message: String,
    },
    /// The server answered with a well-formed but unexpected frame.
    Unexpected(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Wire(e) => write!(f, "wire: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server refused ({code}): {message}")
            }
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// Whether the connection was lost (as opposed to the server
    /// answering something) — the only case a resend of an idempotent
    /// request can be correct, and the only failure a caller may retry
    /// on a fresh connection.
    pub fn connection_lost(&self) -> bool {
        matches!(
            self,
            ClientError::Io(_) | ClientError::Wire(WireError::Truncated | WireError::Io(_))
        )
    }

    /// Whether a connect, read or write ran past the client's deadline
    /// (see [`Client::connect_with_deadline`]) — a silent peer, not a
    /// dead one.
    pub fn timed_out(&self) -> bool {
        let kind = match self {
            ClientError::Io(e) => e.kind(),
            ClientError::Wire(WireError::Io(kind)) => *kind,
            _ => return false,
        };
        matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// A blocking connection to an `ivl-service` server.
///
/// Reads go through the same resumable [`FrameDecoder`] the server's
/// event-loop backend uses: response frames are parsed zero-copy from
/// a reusable buffer, so a long-lived client allocates nothing per
/// roundtrip in the steady state.
///
/// **Reconnection.** Read-only requests (query, snapshot, stats,
/// objects) are idempotent, so when the connection dies mid-roundtrip
/// the client transparently reconnects and resends, up to
/// [`reconnect_limit`](Self::set_reconnect_limit) times per call.
/// Updates, batches, and shutdown are **never** silently retried: an
/// update whose connection died may or may not have been applied, and
/// resending it could double-count — the caller gets the error and
/// owns the retry decision.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// The peer address, kept for reconnects.
    addr: SocketAddr,
    decoder: FrameDecoder,
    buf: Vec<u8>,
    /// Reconnect-and-resend attempts allowed per idempotent call.
    reconnect_limit: u32,
    /// Bound on each connect, each write and each whole reply; `None`
    /// waits forever.
    deadline: Option<Duration>,
    /// Replaced (from [`NEXT_GENERATION`]) on every reconnect.
    /// Snapshot caches keyed to this connection (the replica layer's
    /// delta bases) must be dropped when it moves: a resolved address
    /// can land on a *different* server whose epochs mean something
    /// else entirely, so no delta may ever be applied across a
    /// generation change.
    generation: u64,
    /// Cumulative request bytes written, including frame prefixes.
    bytes_out: u64,
    /// Cumulative response bytes consumed, including frame prefixes.
    bytes_in: u64,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        Self::over(TcpStream::connect(addr)?, None)
    }

    /// Connects to a server with `deadline` bounding the connect, every
    /// socket write and every reply as a whole, reconnects included. A
    /// call that runs past it fails with an error whose
    /// [`timed_out`](ClientError::timed_out) holds, and the connection
    /// must then be dropped: a late reply may still arrive on it.
    pub fn connect_with_deadline(
        addr: impl ToSocketAddrs,
        deadline: Duration,
    ) -> Result<Self, ClientError> {
        // Each resolved address in turn, as `TcpStream::connect` tries them.
        let mut last = io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing");
        for addr in addr.to_socket_addrs()? {
            match dial(addr, Some(deadline)) {
                Ok(stream) => return Self::over(stream, Some(deadline)),
                Err(e) => last = e,
            }
        }
        Err(last.into())
    }

    fn over(stream: TcpStream, deadline: Option<Duration>) -> Result<Self, ClientError> {
        stream.set_nodelay(true)?;
        let addr = stream.peer_addr()?;
        Ok(Client {
            stream,
            addr,
            decoder: FrameDecoder::new(protocol::DEFAULT_MAX_FRAME_LEN),
            buf: Vec::new(),
            reconnect_limit: 1,
            deadline,
            generation: NEXT_GENERATION.fetch_add(1, Ordering::Relaxed),
            bytes_out: 0,
            bytes_in: 0,
        })
    }

    /// The server address this client (re)connects to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sets how many reconnect-and-resend attempts an idempotent call
    /// may make after a dead connection (default 1; 0 disables).
    pub fn set_reconnect_limit(&mut self, limit: u32) {
        self.reconnect_limit = limit;
    }

    /// Replaces the dead connection with a fresh one; any buffered
    /// half-read response bytes are dropped with the old stream.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        let stream = dial(self.addr, self.deadline)?;
        stream.set_nodelay(true)?;
        self.stream = stream;
        self.decoder = FrameDecoder::new(protocol::DEFAULT_MAX_FRAME_LEN);
        self.generation = NEXT_GENERATION.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The connection generation: unique to this connection across the
    /// whole process, replaced on every reconnect. A snapshot cache
    /// recorded under one generation must not be used as a delta base
    /// under another — equality here is proof the connection never
    /// moved.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Cumulative wire traffic as `(bytes_out, bytes_in)`, frame
    /// prefixes included. Survives reconnects; sample before and after
    /// a call to cost it.
    pub fn wire_bytes(&self) -> (u64, u64) {
        (self.bytes_out, self.bytes_in)
    }

    /// Writes one request frame, as `encode` appends it, without
    /// waiting for its reply: the send half of a pipelined exchange,
    /// paired with one [`recv`](Self::recv) per successful send, in send
    /// order. `encode` is [`Request::encode`], or
    /// [`protocol::encode_batch`] for a write that borrows its items.
    /// Nothing is resent: after a failure the connection must be
    /// dropped, and a fresh one has a new [`generation`](Self::generation).
    pub fn send(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<(), ClientError> {
        self.buf.clear();
        encode(&mut self.buf);
        self.stream.write_all(&self.buf)?;
        self.bytes_out += self.buf.len() as u64;
        Ok(())
    }

    /// Reads the reply to the oldest unanswered [`send`](Self::send),
    /// turning a server `Error` reply into [`ClientError::Server`]. Under
    /// a deadline (see [`connect_with_deadline`](Self::connect_with_deadline))
    /// the whole reply must arrive within it: the clock is read before
    /// each socket read, so a peer trickling bytes cannot hold it open.
    pub fn recv(&mut self) -> Result<Response, ClientError> {
        let until = self.deadline.map(|d| Instant::now() + d);
        let rsp = loop {
            if let Some(payload) = self.decoder.next_frame()? {
                self.bytes_in += payload.len() as u64 + 4;
                break Response::decode(payload)?;
            }
            if until.is_some_and(|t| Instant::now() >= t) {
                return Err(io::Error::from(io::ErrorKind::TimedOut).into());
            }
            match self.decoder.read_from(&mut self.stream) {
                Ok(0) => return Err(ClientError::Wire(WireError::Truncated)),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        };
        if let Response::Error { code, message } = rsp {
            return Err(ClientError::Server { code, message });
        }
        Ok(rsp)
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send(|buf| req.encode(buf))?;
        self.recv()
    }

    /// [`roundtrip`](Self::roundtrip) with bounded reconnect-and-resend
    /// — only for requests that are safe to send twice.
    fn roundtrip_idempotent(&mut self, req: &Request) -> Result<Response, ClientError> {
        let mut attempts_left = self.reconnect_limit;
        loop {
            match self.roundtrip(req) {
                Err(e) if e.connection_lost() && attempts_left > 0 => {
                    attempts_left -= 1;
                    self.reconnect()?;
                }
                other => return other,
            }
        }
    }

    /// Pushes a peer's mergeable state into object `object` for the
    /// server to absorb (merge into its live structure), crediting
    /// `observed` toward the object's stream length — the anti-entropy
    /// write primitive of replica catch-up. Returns the object's epoch
    /// after the merge. **Never silently retried**: absorbing an
    /// additive state (a CountMin cell matrix) twice double-counts, so
    /// like updates, a dead connection mid-roundtrip surfaces as an
    /// error and the caller owns the retry decision.
    pub fn push_state(
        &mut self,
        object: u32,
        observed: u64,
        state: SnapshotState,
    ) -> Result<u64, ClientError> {
        match self.roundtrip(&Request::PushState {
            object,
            observed,
            state,
        })? {
            Response::Absorbed { epoch, .. } => Ok(epoch),
            _ => Err(ClientError::Unexpected("wanted ABSORBED")),
        }
    }

    /// Lists the server's registered objects.
    pub fn objects(&mut self) -> Result<Vec<ObjectInfo>, ClientError> {
        match self.roundtrip_idempotent(&Request::Objects)? {
            Response::Objects(infos) => Ok(infos),
            _ => Err(ClientError::Unexpected("wanted OBJECTS_REPLY")),
        }
    }

    /// Resolves a registered object by name into a request handle.
    pub fn object(&mut self, name: &str) -> Result<ObjectHandle<'_>, ClientError> {
        let infos = self.objects()?;
        match infos.iter().find(|info| info.name == name) {
            Some(info) => Ok(ObjectHandle {
                object: info.id,
                client: self,
            }),
            None => Err(ClientError::Server {
                code: ErrorCode::UnknownObject,
                message: format!("no object named {name:?} on this server"),
            }),
        }
    }

    /// Addresses a registered object by id without a lookup roundtrip.
    pub fn object_id(&mut self, id: u32) -> ObjectHandle<'_> {
        ObjectHandle {
            object: id,
            client: self,
        }
    }

    /// Fetches the server's metrics snapshot.
    pub fn stats(&mut self) -> Result<StatsReport, ClientError> {
        match self.roundtrip_idempotent(&Request::Stats)? {
            Response::Stats(report) => Ok(report),
            _ => Err(ClientError::Unexpected("wanted STATS")),
        }
    }

    /// Asks the server to stop accepting connections and drain.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Shutdown)? {
            Response::Goodbye => Ok(()),
            _ => Err(ClientError::Unexpected("wanted GOODBYE")),
        }
    }
}

/// Opens a stream to `addr`, bounding the connect and every read and
/// write on it by `deadline` when there is one.
fn dial(addr: SocketAddr, deadline: Option<Duration>) -> io::Result<TcpStream> {
    let Some(deadline) = deadline else {
        return TcpStream::connect(addr);
    };
    let stream = TcpStream::connect_timeout(&addr, deadline)?;
    stream.set_read_timeout(Some(deadline))?;
    stream.set_write_timeout(Some(deadline))?;
    Ok(stream)
}

/// A request handle bound to one registered object on a [`Client`].
///
/// Borrows the client, so requests remain lockstep: drop the handle
/// (or let it fall out of scope) before issuing other calls on the
/// client.
#[derive(Debug)]
pub struct ObjectHandle<'a> {
    client: &'a mut Client,
    object: u32,
}

impl ObjectHandle<'_> {
    /// The wire object id this handle addresses.
    pub fn id(&self) -> u32 {
        self.object
    }

    /// Ingests `weight` occurrences of `key` into this object — a
    /// one-item [`batch`](Self::batch); returns the connection's
    /// cumulative applied-update count.
    pub fn update(&mut self, key: u64, weight: u64) -> Result<u64, ClientError> {
        self.batch(&[(key, weight)])
    }

    /// Ingests many pairs under one frame (at most
    /// [`protocol::MAX_BATCH_ITEMS`]); returns the cumulative
    /// applied-update count.
    pub fn batch(&mut self, items: &[(u64, u64)]) -> Result<u64, ClientError> {
        let object = self.object;
        self.client
            .send(|buf| protocol::encode_batch(buf, object, items))?;
        match self.client.recv()? {
            Response::Ack { applied } => Ok(applied),
            _ => Err(ClientError::Unexpected("wanted ACK")),
        }
    }

    /// Queries `key` on this object; returns the object's own error
    /// envelope form.
    pub fn query(&mut self, key: u64) -> Result<ErrorEnvelope, ClientError> {
        match self.client.roundtrip_idempotent(&Request::Query {
            object: self.object,
            key,
        })? {
            Response::Envelope(env) => Ok(env),
            _ => Err(ClientError::Unexpected("wanted ENVELOPE")),
        }
    }

    /// Pulls a mergeable snapshot of this object's state plus its
    /// current envelope: a [`snapshot_since`](Self::snapshot_since)
    /// from the no-cache base, whose reply is always the full state.
    pub fn snapshot(&mut self) -> Result<ObjectSnapshot, ClientError> {
        self.snapshot_since(u64::MAX)?
            .into_snapshot()
            .ok_or(ClientError::Unexpected("wanted a full state"))
    }

    /// Asks this object what changed since `base_epoch` — the
    /// delta-capable snapshot read. Pass `u64::MAX` (never a real
    /// epoch) when holding no cached state; the reply is then a full
    /// state. Beware reconnects: the retry inside is fine (the request
    /// carries the base), but a cache written under an older
    /// [`generation`](Client::generation) must be invalidated *before*
    /// choosing `base_epoch`.
    pub fn snapshot_since(&mut self, base_epoch: u64) -> Result<SnapshotDelta, ClientError> {
        match self.client.roundtrip_idempotent(&Request::SnapshotSince {
            object: self.object,
            base_epoch,
        })? {
            Response::SnapshotDelta(delta) => Ok(delta),
            _ => Err(ClientError::Unexpected("wanted SNAPSHOT_DELTA_REPLY")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Envelope;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::thread;

    /// A half-close fixture: each accepted connection reads exactly
    /// one request frame (counting it), then hangs up without
    /// answering. From the `answer_after` -th connection on, requests
    /// are served properly instead.
    fn half_close_fixture(answer_after: u64) -> (SocketAddr, Arc<AtomicU64>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let frames = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&frames);
        thread::spawn(move || {
            let mut conns = 0u64;
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { continue };
                conns += 1;
                while let Ok(Some(payload)) =
                    protocol::read_frame(&mut stream, protocol::DEFAULT_MAX_FRAME_LEN)
                {
                    seen.fetch_add(1, Ordering::SeqCst);
                    if conns < answer_after {
                        // Half-close without answering: the client's
                        // pending read sees EOF mid-roundtrip.
                        let _ = stream.shutdown(std::net::Shutdown::Both);
                        break;
                    }
                    let rsp = match Request::decode(&payload).unwrap() {
                        Request::Query { key, .. } => {
                            Response::Envelope(ErrorEnvelope::Frequency(Envelope {
                                key,
                                estimate: 7,
                                epsilon: 1,
                                stream_len: 9,
                                alpha: 0.1,
                                delta: 0.1,
                                lag: 0,
                            }))
                        }
                        Request::Batch { .. } => Response::Ack { applied: 1 },
                        other => panic!("fixture got {other:?}"),
                    };
                    let mut buf = Vec::new();
                    rsp.encode(&mut buf);
                    stream.write_all(&buf).unwrap();
                }
            }
        });
        (addr, frames)
    }

    #[test]
    fn idempotent_query_survives_a_half_closed_connection() {
        let (addr, frames) = half_close_fixture(2);
        let mut c = Client::connect(addr).unwrap();
        // First attempt dies mid-roundtrip; the client reconnects and
        // resends — two frames reach the fixture, one answer returns.
        let env = c.object_id(0).query(5).unwrap();
        let env = env.frequency().unwrap();
        assert_eq!((env.key, env.estimate), (5, 7));
        assert_eq!(frames.load(Ordering::SeqCst), 2);
        // The reconnected stream keeps working without further drops.
        let env = c.object_id(0).query(6).unwrap();
        assert_eq!(env.frequency().unwrap().key, 6);
        assert_eq!(frames.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn generations_are_process_unique_and_move_on_reconnect() {
        let (addr, _) = half_close_fixture(2);
        let mut c = Client::connect(addr).unwrap();
        let g0 = c.generation();
        c.object_id(0).query(5).unwrap(); // first connection half-closes → reconnect
        let g1 = c.generation();
        assert_ne!(g0, g1, "reconnect must move the generation");
        let (out, inn) = c.wire_bytes();
        assert!(out > 0 && inn > 0, "wire accounting: out={out} in={inn}");
        // A brand-new client never reuses a generation some other
        // connection had — equality proves "same connection".
        let (addr2, _) = half_close_fixture(u64::MAX);
        let d = Client::connect(addr2).unwrap();
        assert!(d.generation() != g0 && d.generation() != g1);
    }

    #[test]
    fn updates_are_never_silently_resent() {
        let (addr, frames) = half_close_fixture(u64::MAX);
        let mut c = Client::connect(addr).unwrap();
        let err = c.object_id(0).update(5, 1).unwrap_err();
        assert!(
            err.connection_lost(),
            "wanted a dead-connection error, got {err:?}"
        );
        // Exactly one frame ever reached the wire: the failed update
        // was not resent on a fresh connection.
        assert_eq!(frames.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn reconnect_limit_zero_disables_resend() {
        let (addr, frames) = half_close_fixture(u64::MAX);
        let mut c = Client::connect(addr).unwrap();
        c.set_reconnect_limit(0);
        let err = c.object_id(0).query(5).unwrap_err();
        assert!(err.connection_lost(), "got {err:?}");
        assert_eq!(frames.load(Ordering::SeqCst), 1);
    }
}
