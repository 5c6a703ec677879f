//! The wire protocol: compact length-prefixed binary frames.
//!
//! Every frame is a `u32` little-endian payload length followed by the
//! payload; the payload's first byte is the opcode, the rest the body.
//! All integers are little-endian, floats travel as IEEE-754 bit
//! patterns. The length prefix makes the stream self-delimiting, so a
//! malformed *body* never desynchronizes the connection: the server
//! answers with an [`ErrorCode::Protocol`] response and keeps reading
//! at the next frame boundary. Only a corrupted length prefix
//! (truncated or oversized) forces the connection closed.
//!
//! Request opcodes (see README for the frame table): `STATS` 0x04,
//! `SHUTDOWN` 0x05, `OBJECTS` 0x06, and the object-addressed frames,
//! whose body leads with a `u32` object id (a registry index):
//! `QUERY2` 0x12, `BATCH2` 0x13, `SNAPSHOT_SINCE` 0x15, `PUSH_STATE`
//! 0x16. Every object id, 0 included, travels the same way. There is
//! one write frame and one state read: a single update is a `BATCH2`
//! of one item, and a client with no cached state sends
//! `SNAPSHOT_SINCE` with the no-cache base `u64::MAX` and is answered
//! `Full`. Response opcodes: `ACK` 0x81, `ENVELOPE2` 0x83 (a
//! kind-tagged envelope body), `STATS` 0x84, `GOODBYE` 0x85, `OBJECTS`
//! 0x86, `SNAPSHOT_DELTA` 0x88 (`Unchanged`, sparse CountMin runs, or
//! an object's full mergeable state — raw cells/registers — each with
//! the object's current envelope), `ABSORBED` 0x89 (a `PUSH_STATE` was
//! merged into the served object), `ERROR` 0xEE.
//!
//! Mergeable-state bodies (the kind-tagged cells/registers payloads of
//! `SNAPSHOT_DELTA`/`PUSH_STATE`) and the kind-tagged envelope bodies
//! (of `ENVELOPE2` and the snapshot replies) are
//! encoded and decoded by `ivl-merge`, next to the kinds themselves —
//! the wire layer only frames them, so each byte layout is defined
//! exactly once.

use crate::metrics::{ObjectStats, StatsReport};
use crate::objects::{DeltaChange, ObjectInfo, ObjectKind, SnapshotDelta, SnapshotState};
use crate::ErrorEnvelope;
use ivl_merge::{take_u32, take_u64, take_u8, MergeableState, SHORT_BODY};
use std::fmt;
use std::io::{self, Read};

/// Frames larger than this are rejected by default (see
/// [`read_frame`]'s `max_len` parameter).
pub const DEFAULT_MAX_FRAME_LEN: u32 = 1 << 20;

/// A `BATCH2` frame may carry at most this many `(key, weight)` pairs —
/// the protocol's bounded-queue knob: a client cannot enqueue
/// unbounded work with a single frame.
pub const MAX_BATCH_ITEMS: u32 = 4096;

/// Errors raised while framing or parsing the wire format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended in the middle of a length prefix or payload.
    Truncated,
    /// The length prefix announced more than `max` bytes.
    Oversized {
        /// Announced payload length.
        len: u32,
        /// The limit in force.
        max: u32,
    },
    /// The payload's first byte is not a known opcode.
    UnknownOpcode(u8),
    /// The body does not parse under its opcode's schema.
    Malformed(&'static str),
    /// An underlying I/O error (by kind; the connection is gone).
    Io(io::ErrorKind),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated mid-prefix or mid-payload"),
            WireError::Oversized { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            WireError::Malformed(why) => write!(f, "malformed frame body: {why}"),
            WireError::Io(kind) => write!(f, "i/o error: {kind:?}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e.kind())
        }
    }
}

/// Why the server refused a request (body of an error response).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// All sketch shards are leased to other connections; retry later.
    Busy,
    /// The request frame did not parse (see [`WireError`]).
    Protocol,
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// The frame's object id names no registered object.
    UnknownObject,
    /// Replica states cannot be merged: the peers disagree on sketch
    /// dimensions or hash coins (merging such sketches would be
    /// meaningless, so the refusal is typed instead of a panic).
    MergeMismatch,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Busy => 1,
            ErrorCode::Protocol => 2,
            ErrorCode::ShuttingDown => 3,
            ErrorCode::UnknownObject => 4,
            ErrorCode::MergeMismatch => 5,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            1 => Ok(ErrorCode::Busy),
            2 => Ok(ErrorCode::Protocol),
            3 => Ok(ErrorCode::ShuttingDown),
            4 => Ok(ErrorCode::UnknownObject),
            5 => Ok(ErrorCode::MergeMismatch),
            _ => Err(WireError::Malformed("unknown error code")),
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorCode::Busy => write!(f, "busy"),
            ErrorCode::Protocol => write!(f, "protocol"),
            ErrorCode::ShuttingDown => write!(f, "shutting-down"),
            ErrorCode::UnknownObject => write!(f, "unknown-object"),
            ErrorCode::MergeMismatch => write!(f, "merge-mismatch"),
        }
    }
}

/// A client-to-server frame. Query, batch, snapshot and push requests
/// address one registered object by id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Ask `object` for `key`'s estimate with its IVL error envelope.
    Query {
        /// Target object id (registry index).
        object: u32,
        /// Item to estimate.
        key: u64,
    },
    /// Ingest `(key, weight)` pairs into `object` under one frame (at
    /// most [`MAX_BATCH_ITEMS`]) — the one write frame; a single update
    /// is a batch of one.
    Batch {
        /// Target object id (registry index).
        object: u32,
        /// The `(key, weight)` pairs to ingest, in order.
        items: Vec<(u64, u64)>,
    },
    /// Ask `object` what changed since the client's cached epoch — the
    /// one state read, and the replication layer's read primitive —
    /// answered by a `SNAPSHOT_DELTA_REPLY` carrying `Unchanged`, a
    /// sparse delta, or a full mergeable state (raw cells/registers),
    /// with the object's current envelope. `u64::MAX` is the no-cache
    /// base (never a real epoch, always answered full).
    SnapshotSince {
        /// Target object id (registry index).
        object: u32,
        /// The epoch of the client's cached state.
        base_epoch: u64,
    },
    /// Push a peer's mergeable state into `object` — the anti-entropy
    /// write primitive of replica catch-up: the server merges the
    /// carried state into the live served structure (cells add,
    /// registers max, scalars join) and credits `observed` toward the
    /// object's observed-weight counter. Answered by `ABSORBED`, or a
    /// typed [`ErrorCode::MergeMismatch`] refusal when the peer's
    /// dimensions or hash coins disagree. Not idempotent for additive
    /// kinds: a resent `PUSH_STATE` double-counts.
    PushState {
        /// Target object id (registry index).
        object: u32,
        /// Total observed weight the pushed state summarizes.
        observed: u64,
        /// The kind-tagged mergeable state to absorb.
        state: SnapshotState,
    },
    /// Ask for the server's operation counters and latency quantiles.
    Stats,
    /// Ask for the registry listing (id, kind, name per object).
    Objects,
    /// Stop accepting connections and drain.
    Shutdown,
}

/// A server-to-client frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// A batch was applied; `applied` is the connection's cumulative
    /// number of applied update items.
    Ack {
        /// Updates applied on this connection so far.
        applied: u64,
    },
    /// Answer to a query: the estimate wrapped in the queried object's
    /// kind-tagged error envelope.
    Envelope(ErrorEnvelope),
    /// Answer to a snapshot-since request: the change against the
    /// client's base epoch plus the envelope in force.
    SnapshotDelta(SnapshotDelta),
    /// Answer to a push-state request: the pushed state was merged
    /// into the served object.
    Absorbed {
        /// The object that absorbed the state.
        object: u32,
        /// The object's epoch after the merge (a raising absorb moves
        /// it, so cached snapshots notice).
        epoch: u64,
        /// The observed weight credited by this absorb.
        observed: u64,
    },
    /// Answer to a stats request.
    Stats(StatsReport),
    /// Answer to an objects request: the registry listing.
    Objects(Vec<ObjectInfo>),
    /// Acknowledges a shutdown request; the connection closes after.
    Goodbye,
    /// The request was refused.
    Error {
        /// Machine-readable refusal class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

const OP_STATS: u8 = 0x04;
const OP_SHUTDOWN: u8 = 0x05;
const OP_OBJECTS: u8 = 0x06;
const OP_QUERY2: u8 = 0x12;
const OP_BATCH2: u8 = 0x13;
const OP_SNAPSHOT_SINCE: u8 = 0x15;
const OP_PUSH_STATE: u8 = 0x16;
const OP_ACK: u8 = 0x81;
const OP_ENVELOPE2: u8 = 0x83;
const OP_STATS_REPLY: u8 = 0x84;
const OP_GOODBYE: u8 = 0x85;
const OP_OBJECTS_REPLY: u8 = 0x86;
const OP_SNAPSHOT_DELTA_REPLY: u8 = 0x88;
const OP_ABSORBED: u8 = 0x89;
const OP_ERROR: u8 = 0xEE;

/// Sequential reader over a frame body with schema-error reporting.
struct Body<'a> {
    rest: &'a [u8],
}

impl<'a> Body<'a> {
    fn new(rest: &'a [u8]) -> Self {
        Body { rest }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        self.take(take_u8)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        self.take(take_u32)
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        self.take(take_u64)
    }

    /// Decodes the next section of the body with one of `ivl-merge`'s
    /// readers or codecs, which own the state, change and envelope byte
    /// layouts.
    fn take<T>(
        &mut self,
        decode: impl FnOnce(&mut &'a [u8]) -> Result<T, &'static str>,
    ) -> Result<T, WireError> {
        decode(&mut self.rest).map_err(WireError::Malformed)
    }

    fn finish(self) -> Result<(), WireError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after body"))
        }
    }

    /// The rest of the body, which must be exactly `len` bytes: shorter
    /// is the short-body error every field reader gives, longer the
    /// trailing-bytes error of [`finish`](Self::finish).
    fn rest_exactly(self, len: usize) -> Result<&'a [u8], WireError> {
        let rest = self.rest;
        if rest.len() < len {
            return Err(WireError::Malformed(SHORT_BODY));
        }
        Body::new(&rest[len..]).finish()?;
        Ok(rest)
    }
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends one whole frame (prefix + opcode + body) built by `body` to
/// `buf`.
fn frame(buf: &mut Vec<u8>, opcode: u8, body: impl FnOnce(&mut Vec<u8>)) {
    let prefix_at = buf.len();
    push_u32(buf, 0); // patched below
    buf.push(opcode);
    body(buf);
    let payload_len = (buf.len() - prefix_at - 4) as u32;
    buf[prefix_at..prefix_at + 4].copy_from_slice(&payload_len.to_le_bytes());
}

/// Appends a [`Request::Batch`] frame for `items` to `buf` straight
/// from the slice — what a client holding borrowed items sends without
/// first copying them into a `Request`.
pub fn encode_batch(buf: &mut Vec<u8>, object: u32, items: &[(u64, u64)]) {
    // The frame's size is known: one allocation, not a doubling chain
    // that ends with twice the frame.
    buf.reserve(4 + 1 + 4 + 4 + BATCH_RECORD * items.len());
    frame(buf, OP_BATCH2, |b| {
        push_u32(b, object);
        push_u32(b, items.len() as u32);
        // The records go into one resized region, 16 bytes each, with
        // no per-field length bookkeeping.
        let at = b.len();
        b.resize(at + BATCH_RECORD * items.len(), 0);
        for (record, (k, w)) in b[at..].chunks_exact_mut(BATCH_RECORD).zip(items) {
            record[..8].copy_from_slice(&k.to_le_bytes());
            record[8..].copy_from_slice(&w.to_le_bytes());
        }
    })
}

/// Bytes per `(key, weight)` record of a batch body.
const BATCH_RECORD: usize = 16;

impl Request {
    /// Appends this request as one frame to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Request::Query { object, key } => frame(buf, OP_QUERY2, |b| {
                push_u32(b, *object);
                push_u64(b, *key);
            }),
            Request::Batch { object, items } => encode_batch(buf, *object, items),
            Request::SnapshotSince { object, base_epoch } => frame(buf, OP_SNAPSHOT_SINCE, |b| {
                push_u32(b, *object);
                push_u64(b, *base_epoch);
            }),
            Request::PushState {
                object,
                observed,
                state,
            } => frame(buf, OP_PUSH_STATE, |b| {
                push_u32(b, *object);
                b.push(state.kind().to_u8());
                push_u64(b, *observed);
                state.encode_into(b);
            }),
            Request::Stats => frame(buf, OP_STATS, |_| {}),
            Request::Objects => frame(buf, OP_OBJECTS, |_| {}),
            Request::Shutdown => frame(buf, OP_SHUTDOWN, |_| {}),
        }
    }

    /// Parses a request from a frame payload (opcode + body).
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        // Batches have one decoder, the in-place one; its length check
        // precedes the allocation, so a hostile count sizes nothing.
        let mut items = Vec::new();
        if let Some(object) = decode_batch_into(payload, &mut items)? {
            return Ok(Request::Batch { object, items });
        }
        let mut b = Body::new(payload);
        let req = match b.u8()? {
            OP_QUERY2 => Request::Query {
                object: b.u32()?,
                key: b.u64()?,
            },
            OP_SNAPSHOT_SINCE => Request::SnapshotSince {
                object: b.u32()?,
                base_epoch: b.u64()?,
            },
            OP_PUSH_STATE => {
                let object = b.u32()?;
                let kind = ObjectKind::from_u8(b.u8()?)
                    .ok_or(WireError::Malformed("unknown object kind tag"))?;
                let observed = b.u64()?;
                let state = b.take(|rest| SnapshotState::decode_from(kind, rest))?;
                Request::PushState {
                    object,
                    observed,
                    state,
                }
            }
            OP_STATS => Request::Stats,
            OP_OBJECTS => Request::Objects,
            OP_SHUTDOWN => Request::Shutdown,
            op => return Err(WireError::UnknownOpcode(op)),
        };
        b.finish()?;
        Ok(req)
    }

    /// The object id this request addresses, when it addresses one.
    pub fn object(&self) -> Option<u32> {
        match self {
            Request::Query { object, .. }
            | Request::Batch { object, .. }
            | Request::SnapshotSince { object, .. }
            | Request::PushState { object, .. } => Some(*object),
            Request::Stats | Request::Objects | Request::Shutdown => None,
        }
    }
}

/// Batch-frame fast path: decodes a `BATCH2` payload into a
/// caller-owned items vector instead of a fresh [`Request::Batch`]
/// allocation per frame. Returns `Ok(Some(object))` on a batch frame
/// (with `items` cleared and refilled), `Ok(None)` when the payload is
/// some other opcode (untouched — route it through
/// [`Request::decode`]), and on a malformed batch the [`WireError`]
/// [`Request::decode`] gives, which decodes batches through this
/// function. The body length is checked against `count` once, before
/// `items` is touched, so an error leaves `items` as it was and a
/// hostile count never sizes an allocation the bytes do not back; the
/// records are then read as 16-byte chunks. Growth of `items` is
/// amortized: after one maximum-size frame (`MAX_BATCH_ITEMS`),
/// steady-state decoding allocates nothing.
pub fn decode_batch_into(
    payload: &[u8],
    items: &mut Vec<(u64, u64)>,
) -> Result<Option<u32>, WireError> {
    let mut b = Body::new(payload);
    if b.u8()? != OP_BATCH2 {
        return Ok(None);
    }
    let object = b.u32()?;
    let count = b.u32()?;
    if count > MAX_BATCH_ITEMS {
        return Err(WireError::Malformed("batch exceeds MAX_BATCH_ITEMS"));
    }
    let records = b.rest_exactly(BATCH_RECORD * count as usize)?;
    let le = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
    items.clear();
    items.extend(
        records
            .chunks_exact(BATCH_RECORD)
            .map(|r| (le(&r[..8]), le(&r[8..]))),
    );
    Ok(Some(object))
}

impl Response {
    /// Appends this response as one frame to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Response::Ack { applied } => frame(buf, OP_ACK, |b| push_u64(b, *applied)),
            Response::Envelope(env) => frame(buf, OP_ENVELOPE2, |b| env.encode_into(b)),
            Response::SnapshotDelta(delta) => frame(buf, OP_SNAPSHOT_DELTA_REPLY, |b| {
                push_u32(b, delta.object);
                b.push(delta.kind.to_u8());
                push_u64(b, delta.epoch);
                delta.change.encode_into(b);
                delta.envelope.encode_into(b);
            }),
            Response::Absorbed {
                object,
                epoch,
                observed,
            } => frame(buf, OP_ABSORBED, |b| {
                push_u32(b, *object);
                push_u64(b, *epoch);
                push_u64(b, *observed);
            }),
            Response::Stats(report) => frame(buf, OP_STATS_REPLY, |b| {
                for field in report.as_fields() {
                    push_u64(b, field);
                }
                push_u32(b, report.objects.len() as u32);
                for row in &report.objects {
                    push_u32(b, row.id);
                    push_u64(b, row.updates);
                    push_u64(b, row.queries);
                    push_u64(b, row.observed);
                }
            }),
            Response::Objects(infos) => frame(buf, OP_OBJECTS_REPLY, |b| {
                push_u32(b, infos.len() as u32);
                for info in infos {
                    push_u32(b, info.id);
                    b.push(info.kind.to_u8());
                    push_u32(b, info.name.len() as u32);
                    b.extend_from_slice(info.name.as_bytes());
                }
            }),
            Response::Goodbye => frame(buf, OP_GOODBYE, |_| {}),
            Response::Error { code, message } => frame(buf, OP_ERROR, |b| {
                b.push(code.to_u8());
                push_u32(b, message.len() as u32);
                b.extend_from_slice(message.as_bytes());
            }),
        }
    }

    /// Parses a response from a frame payload (opcode + body).
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut b = Body::new(payload);
        let rsp = match b.u8()? {
            OP_ACK => Response::Ack { applied: b.u64()? },
            OP_ENVELOPE2 => Response::Envelope(b.take(ErrorEnvelope::decode_from)?),
            OP_SNAPSHOT_DELTA_REPLY => {
                let object = b.u32()?;
                let kind = ObjectKind::from_u8(b.u8()?)
                    .ok_or(WireError::Malformed("unknown object kind tag"))?;
                let epoch = b.u64()?;
                let change = b.take(|rest| DeltaChange::decode_from(kind, rest))?;
                let envelope = b.take(ErrorEnvelope::decode_from)?;
                Response::SnapshotDelta(SnapshotDelta {
                    object,
                    kind,
                    epoch,
                    change,
                    envelope,
                })
            }
            OP_ABSORBED => Response::Absorbed {
                object: b.u32()?,
                epoch: b.u64()?,
                observed: b.u64()?,
            },
            OP_STATS_REPLY => {
                let mut fields = [0u64; StatsReport::NUM_FIELDS];
                for f in &mut fields {
                    *f = b.u64()?;
                }
                let mut report = StatsReport::from_fields(fields);
                let rows = b.u32()?;
                for _ in 0..rows {
                    report.objects.push(ObjectStats {
                        id: b.u32()?,
                        updates: b.u64()?,
                        queries: b.u64()?,
                        observed: b.u64()?,
                    });
                }
                Response::Stats(report)
            }
            OP_OBJECTS_REPLY => {
                let count = b.u32()?;
                let mut infos = Vec::with_capacity(count.min(1024) as usize);
                for _ in 0..count {
                    let id = b.u32()?;
                    let kind = ObjectKind::from_u8(b.u8()?)
                        .ok_or(WireError::Malformed("unknown object kind tag"))?;
                    let len = b.u32()? as usize;
                    if b.rest.len() < len {
                        return Err(WireError::Malformed(SHORT_BODY));
                    }
                    let (raw, rest) = b.rest.split_at(len);
                    b.rest = rest;
                    let name = std::str::from_utf8(raw)
                        .map_err(|_| WireError::Malformed("object name is not UTF-8"))?
                        .to_owned();
                    infos.push(ObjectInfo { id, kind, name });
                }
                Response::Objects(infos)
            }
            OP_GOODBYE => Response::Goodbye,
            OP_ERROR => {
                let code = ErrorCode::from_u8(b.u8()?)?;
                let len = b.u32()? as usize;
                if b.rest.len() < len {
                    return Err(WireError::Malformed(SHORT_BODY));
                }
                let (msg, rest) = b.rest.split_at(len);
                b.rest = rest;
                let message = std::str::from_utf8(msg)
                    .map_err(|_| WireError::Malformed("error message is not UTF-8"))?
                    .to_owned();
                Response::Error { code, message }
            }
            op => return Err(WireError::UnknownOpcode(op)),
        };
        b.finish()?;
        Ok(rsp)
    }
}

/// A resumable, incremental frame decoder over a reusable buffer.
///
/// [`read_frame`] blocks in `read_exact` until a whole frame is
/// present — fine for one thread per connection, useless for an event
/// loop where a readiness notification may deliver half a header.
/// `FrameDecoder` instead accumulates whatever bytes the socket has
/// ([`read_from`] / [`feed`]) and hands out complete payloads
/// ([`next_frame`]) as zero-copy slices into its buffer; partial
/// prefixes and partial payloads simply stay buffered until more
/// bytes arrive. Feeding a stream byte-by-byte yields exactly the
/// frames of one-shot decoding (property-tested against
/// [`read_frame`]).
///
/// The buffer is reused ring-style: consumed bytes are reclaimed by
/// sliding the live window to the front once the read cursor passes
/// half the buffer, so steady-state decoding allocates nothing — and,
/// because the storage past `tail` stays initialised between reads,
/// zero-fills nothing either.
///
/// [`read_from`]: FrameDecoder::read_from
/// [`feed`]: FrameDecoder::feed
/// [`next_frame`]: FrameDecoder::next_frame
#[derive(Debug)]
pub struct FrameDecoder {
    /// Initialised storage; the live bytes are `buf[head..tail]`.
    buf: Vec<u8>,
    /// Bytes before `head` are consumed frames awaiting reclamation.
    head: usize,
    /// Bytes from `tail` on are spare room for the next read.
    tail: usize,
    max_len: u32,
}

/// How many bytes [`FrameDecoder::read_from`] asks the socket for at
/// a time (grown to the announced frame length when one is pending). A
/// read that returns fewer found the socket's receive queue empty.
pub(crate) const READ_CHUNK: usize = 16 * 1024;

impl FrameDecoder {
    /// Creates a decoder enforcing `max_len` (see [`read_frame`]).
    pub fn new(max_len: u32) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            head: 0,
            tail: 0,
            max_len,
        }
    }

    /// Makes `buf[tail..tail + want]` addressable (zero-filling only
    /// storage never used before) and returns it.
    fn spare(&mut self, want: usize) -> &mut [u8] {
        self.reclaim();
        if self.buf.len() < self.tail + want {
            self.buf.resize(self.tail + want, 0);
        }
        &mut self.buf[self.tail..self.tail + want]
    }

    /// Appends raw stream bytes to the buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.spare(bytes.len()).copy_from_slice(bytes);
        self.tail += bytes.len();
    }

    /// Performs **one** `read` into the buffer's tail, returning how
    /// many bytes arrived (`Ok(0)` is end-of-stream). `WouldBlock`
    /// and `Interrupted` are the caller's to handle — an edge-driven
    /// caller loops until `WouldBlock`.
    pub fn read_from<R: Read>(&mut self, r: &mut R) -> io::Result<usize> {
        // If a frame header is already buffered, size the read to
        // finish that frame; otherwise read a chunk.
        let want = READ_CHUNK.max(self.pending_frame_len().saturating_sub(self.buffered()));
        let got = r.read(self.spare(want))?;
        self.tail += got;
        Ok(got)
    }

    /// Total length (prefix + payload) of the frame announced by a
    /// buffered header, or 0 when no complete header is buffered.
    fn pending_frame_len(&self) -> usize {
        match self.buf[self.head..self.tail] {
            [a, b, c, d, ..] => 4 + u32::from_le_bytes([a, b, c, d]) as usize,
            _ => 0,
        }
    }

    /// Extracts the next complete frame payload, or `None` when more
    /// bytes are needed. Errors ([`WireError::Oversized`], empty
    /// frames) are unrecoverable: the prefix cannot be trusted, so
    /// the connection must close.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        let avail = self.buffered();
        if avail < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(
            self.buf[self.head..self.head + 4]
                .try_into()
                .expect("4 bytes"),
        );
        if len == 0 {
            return Err(WireError::Malformed("empty frame"));
        }
        if len > self.max_len {
            return Err(WireError::Oversized {
                len,
                max: self.max_len,
            });
        }
        if avail < 4 + len as usize {
            return Ok(None);
        }
        let start = self.head + 4;
        self.head = start + len as usize;
        Ok(Some(&self.buf[start..self.head]))
    }

    /// Whether bytes of an incomplete frame are buffered — EOF now
    /// means [`WireError::Truncated`], not a clean close.
    pub fn mid_frame(&self) -> bool {
        self.head < self.tail
    }

    /// Number of not-yet-consumed buffered bytes.
    pub fn buffered(&self) -> usize {
        self.tail - self.head
    }

    /// Slides the live window back to the buffer's front once the
    /// consumed prefix dominates, bounding memory without reallocating.
    fn reclaim(&mut self) {
        if self.head == self.tail {
            (self.head, self.tail) = (0, 0);
        } else if self.head >= READ_CHUNK.max(self.tail / 2) {
            self.buf.copy_within(self.head..self.tail, 0);
            (self.head, self.tail) = (0, self.tail - self.head);
        }
    }
}

/// Reads one frame payload off `r`.
///
/// Returns `Ok(None)` on a clean end-of-stream (EOF exactly at a frame
/// boundary), [`WireError::Truncated`] on EOF inside a frame, and
/// [`WireError::Oversized`] when the prefix announces more than
/// `max_len` bytes (the caller must close the connection: the payload
/// has not been consumed, so the stream cannot be resynchronized).
pub fn read_frame<R: Read>(r: &mut R, max_len: u32) -> Result<Option<Vec<u8>>, WireError> {
    let mut prefix = [0u8; 4];
    // Distinguish clean EOF (zero bytes of the next frame) from a
    // truncated prefix.
    let mut got = 0;
    while got < 4 {
        match r.read(&mut prefix[got..]) {
            Ok(0) => {
                return if got == 0 {
                    Ok(None)
                } else {
                    Err(WireError::Truncated)
                };
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = u32::from_le_bytes(prefix);
    if len == 0 {
        return Err(WireError::Malformed("empty frame"));
    }
    if len > max_len {
        return Err(WireError::Oversized { len, max: max_len });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellRun, Envelope};

    /// The cell-runs change tag of a `SNAPSHOT_DELTA_REPLY` body, as the
    /// wire carries it.
    const DELTA_CM_RUNS: u8 = 1;

    /// The full-state change tag of a `SNAPSHOT_DELTA_REPLY` body.
    const DELTA_FULL: u8 = 3;

    fn roundtrip_request(req: &Request) -> Request {
        let mut buf = Vec::new();
        req.encode(&mut buf);
        let payload = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .unwrap();
        Request::decode(&payload).unwrap()
    }

    #[test]
    fn request_roundtrips() {
        for req in [
            Request::Query {
                object: 0,
                key: u64::MAX,
            },
            Request::Query {
                object: u32::MAX,
                key: 4,
            },
            Request::Batch {
                object: 0,
                items: vec![(1, 2), (3, 4)],
            },
            Request::Batch {
                object: 2,
                items: vec![],
            },
            Request::SnapshotSince {
                object: 0,
                base_epoch: 0,
            },
            Request::SnapshotSince {
                object: 3,
                base_epoch: u64::MAX,
            },
            Request::Stats,
            Request::Objects,
            Request::Shutdown,
        ] {
            assert_eq!(roundtrip_request(&req), req);
        }
    }

    #[test]
    fn push_state_requests_roundtrip_every_kind() {
        for state in [
            SnapshotState::CountMin {
                width: 3,
                depth: 2,
                hash_fp: 0xDEAD_BEEF,
                cells: vec![1, 2, 3, 4, 5, 6],
            },
            SnapshotState::Hll {
                hash_fp: 42,
                registers: vec![0, 7, 1, 0],
            },
            SnapshotState::Morris { exponent: 9 },
            SnapshotState::MinRegister { minimum: 3 },
        ] {
            let req = Request::PushState {
                object: 2,
                observed: 501,
                state,
            };
            assert_eq!(roundtrip_request(&req), req);
            assert_eq!(req.object(), Some(2));
        }
        let mut buf = Vec::new();
        Request::PushState {
            object: 0,
            observed: 1,
            state: SnapshotState::Morris { exponent: 1 },
        }
        .encode(&mut buf);
        assert_eq!(buf[4], OP_PUSH_STATE);
        assert_eq!(buf.len(), 4 + 1 + 4 + 1 + 8 + 4);

        // A lying CountMin header inside the push body is refused
        // before allocating (the shared state decoder guards it).
        let mut payload = vec![OP_PUSH_STATE];
        payload.extend_from_slice(&0u32.to_le_bytes()); // object
        payload.push(ObjectKind::CountMin.to_u8());
        payload.extend_from_slice(&9u64.to_le_bytes()); // observed
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // width
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // depth
        payload.extend_from_slice(&7u64.to_le_bytes()); // hash_fp
        assert_eq!(
            Request::decode(&payload).unwrap_err(),
            WireError::Malformed("body shorter than its schema")
        );
        // An unknown kind tag is refused.
        let payload = [OP_PUSH_STATE, 0, 0, 0, 0, 0x7f];
        assert_eq!(
            Request::decode(&payload).unwrap_err(),
            WireError::Malformed("unknown object kind tag")
        );
    }

    #[test]
    fn object_zero_requests_lead_with_their_id() {
        // Object 0 has no frame of its own: its requests wear the same
        // opcodes, and carry the same leading id, as any other object's.
        let mut buf = Vec::new();
        Request::SnapshotSince {
            object: 0,
            base_epoch: 9,
        }
        .encode(&mut buf);
        let mut expect = Vec::new();
        push_u32(&mut expect, 13);
        expect.push(OP_SNAPSHOT_SINCE);
        push_u32(&mut expect, 0);
        push_u64(&mut expect, 9);
        assert_eq!(buf, expect);

        buf.clear();
        Request::Query { object: 0, key: 9 }.encode(&mut buf);
        assert_eq!(buf[4], OP_QUERY2);
        assert_eq!(buf.len(), 4 + 1 + 4 + 8);

        buf.clear();
        Request::Batch {
            object: 0,
            items: vec![(1, 1)],
        }
        .encode(&mut buf);
        assert_eq!(buf[4], OP_BATCH2);
        assert_eq!(buf.len(), 4 + 1 + 4 + 4 + 16);
    }

    #[test]
    fn response_roundtrips() {
        let env = Envelope {
            key: 5,
            estimate: 100,
            epsilon: 3,
            stream_len: 500,
            alpha: 0.005,
            delta: 0.01,
            lag: 128,
        };
        let mut stats = StatsReport::default();
        stats.objects.push(ObjectStats {
            id: 1,
            updates: 10,
            queries: 2,
            observed: 30,
        });
        for rsp in [
            Response::Ack { applied: 9 },
            Response::Absorbed {
                object: 2,
                epoch: 17,
                observed: 501,
            },
            Response::Envelope(ErrorEnvelope::Frequency(env)),
            Response::Envelope(ErrorEnvelope::Cardinality {
                estimate: 812.5,
                rel_std_err: 0.016,
                registers: 4096,
                register_sum: 777,
                observed: 900,
            }),
            Response::Envelope(ErrorEnvelope::ApproxCount {
                estimate: 14.0,
                a: 0.5,
                exponent: 4,
                observed: 15,
            }),
            Response::Envelope(ErrorEnvelope::Minimum {
                minimum: 3,
                observed: 44,
            }),
            Response::Stats(stats),
            Response::Objects(vec![
                ObjectInfo {
                    id: 0,
                    kind: ObjectKind::CountMin,
                    name: "cm".into(),
                },
                ObjectInfo {
                    id: 1,
                    kind: ObjectKind::Hll,
                    name: "uniques".into(),
                },
            ]),
            Response::Goodbye,
            Response::Error {
                code: ErrorCode::Busy,
                message: "all shards leased".into(),
            },
            Response::Error {
                code: ErrorCode::UnknownObject,
                message: "no object 9".into(),
            },
        ] {
            let mut buf = Vec::new();
            rsp.encode(&mut buf);
            let payload = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME_LEN)
                .unwrap()
                .unwrap();
            assert_eq!(Response::decode(&payload).unwrap(), rsp);
        }
    }

    #[test]
    fn snapshot_responses_roundtrip() {
        let freq = ErrorEnvelope::Frequency(Envelope {
            key: 5,
            estimate: 100,
            epsilon: 3,
            stream_len: 500,
            alpha: 0.005,
            delta: 0.01,
            lag: 128,
        });
        // A snapshot is a `Full` reply to `SNAPSHOT_SINCE`: every kind's
        // whole mergeable state travels in one.
        let full = |object, kind, state, envelope| {
            Response::SnapshotDelta(SnapshotDelta {
                object,
                kind,
                epoch: 4,
                change: DeltaChange::Full(state),
                envelope,
            })
        };
        for rsp in [
            full(
                0,
                ObjectKind::CountMin,
                SnapshotState::CountMin {
                    width: 3,
                    depth: 2,
                    hash_fp: 0xDEAD_BEEF,
                    cells: vec![1, 2, 3, 4, 5, 6],
                },
                freq,
            ),
            full(
                1,
                ObjectKind::Hll,
                SnapshotState::Hll {
                    hash_fp: 42,
                    registers: vec![0, 7, 1, 0],
                },
                ErrorEnvelope::Cardinality {
                    estimate: 812.5,
                    rel_std_err: 0.016,
                    registers: 4,
                    register_sum: 8,
                    observed: 900,
                },
            ),
            full(
                2,
                ObjectKind::Morris,
                SnapshotState::Morris { exponent: 9 },
                ErrorEnvelope::ApproxCount {
                    estimate: 14.0,
                    a: 0.5,
                    exponent: 9,
                    observed: 15,
                },
            ),
            full(
                3,
                ObjectKind::MinRegister,
                SnapshotState::MinRegister { minimum: 3 },
                ErrorEnvelope::Minimum {
                    minimum: 3,
                    observed: 44,
                },
            ),
        ] {
            let mut buf = Vec::new();
            rsp.encode(&mut buf);
            let payload = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME_LEN)
                .unwrap()
                .unwrap();
            assert_eq!(Response::decode(&payload).unwrap(), rsp);
        }
    }

    #[test]
    fn snapshot_delta_responses_roundtrip() {
        let freq = ErrorEnvelope::Frequency(Envelope {
            key: 0,
            estimate: 0,
            epsilon: 3,
            stream_len: 500,
            alpha: 0.005,
            delta: 0.01,
            lag: 128,
        });
        for rsp in [
            // The tiny `Unchanged` frame — the fast path under test.
            Response::SnapshotDelta(SnapshotDelta {
                object: 0,
                kind: ObjectKind::CountMin,
                epoch: 17,
                change: DeltaChange::Unchanged,
                envelope: freq.clone(),
            }),
            Response::SnapshotDelta(SnapshotDelta {
                object: 0,
                kind: ObjectKind::CountMin,
                epoch: 21,
                change: DeltaChange::CmRuns {
                    base_epoch: 17,
                    runs: vec![
                        CellRun {
                            row: 0,
                            lo: 3,
                            len: 3,
                        },
                        CellRun {
                            row: 2,
                            lo: 7,
                            len: 1,
                        },
                    ],
                    values: vec![5, 0, 9, 1],
                },
                envelope: freq,
            }),
        ] {
            let mut buf = Vec::new();
            rsp.encode(&mut buf);
            let payload = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME_LEN)
                .unwrap()
                .unwrap();
            assert_eq!(Response::decode(&payload).unwrap(), rsp);
        }
    }

    #[test]
    fn unchanged_delta_frame_is_small() {
        // The whole point of the fast path: an `Unchanged` CountMin
        // reply must be a few dozen bytes, not width×depth×8.
        let mut buf = Vec::new();
        Response::SnapshotDelta(SnapshotDelta {
            object: 0,
            kind: ObjectKind::CountMin,
            epoch: u64::MAX,
            change: DeltaChange::Unchanged,
            envelope: ErrorEnvelope::Frequency(Envelope {
                key: 0,
                estimate: 0,
                epsilon: 3,
                stream_len: 500,
                alpha: 0.005,
                delta: 0.01,
                lag: 128,
            }),
        })
        .encode(&mut buf);
        assert!(buf.len() < 96, "unchanged frame is {} bytes", buf.len());
    }

    #[test]
    fn cm_runs_keep_their_wire_layout() {
        // The flat in-memory `values` is not a wire change: each run's
        // header is still followed by its own cells, byte for byte what
        // a pre-flattening peer sends and expects.
        let delta = SnapshotDelta {
            object: 0,
            kind: ObjectKind::CountMin,
            epoch: 21,
            change: DeltaChange::CmRuns {
                base_epoch: 17,
                runs: vec![
                    CellRun {
                        row: 0,
                        lo: 3,
                        len: 2,
                    },
                    CellRun {
                        row: 2,
                        lo: 7,
                        len: 1,
                    },
                ],
                values: vec![5, 9, 1],
            },
            envelope: ErrorEnvelope::Minimum {
                minimum: 4,
                observed: 6,
            },
        };
        let mut expected = vec![OP_SNAPSHOT_DELTA_REPLY];
        expected.extend_from_slice(&0u32.to_le_bytes()); // object
        expected.push(ObjectKind::CountMin.to_u8());
        expected.extend_from_slice(&21u64.to_le_bytes()); // epoch
        expected.push(DELTA_CM_RUNS);
        expected.extend_from_slice(&17u64.to_le_bytes()); // base epoch
        expected.extend_from_slice(&2u32.to_le_bytes()); // two runs
        for (header, cells) in [([0u32, 3, 2], &[5u64, 9][..]), ([2, 7, 1], &[1][..])] {
            for word in header {
                expected.extend_from_slice(&word.to_le_bytes());
            }
            for cell in cells {
                expected.extend_from_slice(&cell.to_le_bytes());
            }
        }
        delta.envelope.encode_into(&mut expected);
        let mut buf = Vec::new();
        Response::SnapshotDelta(delta).encode(&mut buf);
        assert_eq!(buf[..4], (expected.len() as u32).to_le_bytes());
        assert_eq!(buf[4..], expected[..]);
    }

    #[test]
    fn snapshot_delta_with_lying_or_mismatched_body_rejected() {
        // A run announcing more cells than the body carries must fail
        // cleanly before allocating.
        let mut payload = vec![OP_SNAPSHOT_DELTA_REPLY];
        payload.extend_from_slice(&0u32.to_le_bytes()); // object
        payload.push(ObjectKind::CountMin.to_u8());
        payload.extend_from_slice(&9u64.to_le_bytes()); // epoch
        payload.push(DELTA_CM_RUNS);
        payload.extend_from_slice(&7u64.to_le_bytes()); // base epoch
        payload.extend_from_slice(&1u32.to_le_bytes()); // one run
        payload.extend_from_slice(&0u32.to_le_bytes()); // row
        payload.extend_from_slice(&0u32.to_le_bytes()); // lo
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // len (lie)
        assert_eq!(
            Response::decode(&payload).unwrap_err(),
            WireError::Malformed("body shorter than its schema")
        );

        // Cell runs are only legal on a CountMin reply.
        let mut payload = vec![OP_SNAPSHOT_DELTA_REPLY];
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.push(ObjectKind::Hll.to_u8());
        payload.extend_from_slice(&9u64.to_le_bytes());
        payload.push(DELTA_CM_RUNS);
        assert_eq!(
            Response::decode(&payload).unwrap_err(),
            WireError::Malformed("cell runs on a non-CountMin delta reply")
        );

        // Tag 2 (a retired HLL register range) is an unknown tag.
        let mut payload = vec![OP_SNAPSHOT_DELTA_REPLY];
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.push(ObjectKind::Hll.to_u8());
        payload.extend_from_slice(&9u64.to_le_bytes());
        payload.push(2);
        assert_eq!(
            Response::decode(&payload).unwrap_err(),
            WireError::Malformed("unknown delta change tag")
        );

        // Unknown change tag.
        let mut payload = vec![OP_SNAPSHOT_DELTA_REPLY];
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.push(ObjectKind::CountMin.to_u8());
        payload.extend_from_slice(&9u64.to_le_bytes());
        payload.push(0x7f);
        assert_eq!(
            Response::decode(&payload).unwrap_err(),
            WireError::Malformed("unknown delta change tag")
        );
    }

    #[test]
    fn snapshot_reply_with_lying_dimensions_rejected() {
        // A full CountMin state announcing more cells than the body
        // carries must fail cleanly before allocating.
        let mut payload = vec![OP_SNAPSHOT_DELTA_REPLY];
        payload.extend_from_slice(&0u32.to_le_bytes()); // object
        payload.push(ObjectKind::CountMin.to_u8());
        payload.extend_from_slice(&9u64.to_le_bytes()); // epoch
        payload.push(DELTA_FULL);
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // width
        payload.extend_from_slice(&u32::MAX.to_le_bytes()); // depth
        payload.extend_from_slice(&7u64.to_le_bytes()); // hash_fp
        assert_eq!(
            Response::decode(&payload).unwrap_err(),
            WireError::Malformed("body shorter than its schema")
        );

        // Unknown kind tag in the snapshot reply.
        let payload = [OP_SNAPSHOT_DELTA_REPLY, 0, 0, 0, 0, 0x7f];
        assert_eq!(
            Response::decode(&payload).unwrap_err(),
            WireError::Malformed("unknown object kind tag")
        );
    }

    #[test]
    fn envelope2_with_unknown_kind_tag_rejected() {
        let payload = [OP_ENVELOPE2, 0x7u8];
        assert_eq!(
            Response::decode(&payload).unwrap_err(),
            WireError::Malformed("unknown envelope kind tag")
        );
    }

    #[test]
    fn clean_eof_is_none_truncated_prefix_is_error() {
        assert_eq!(read_frame(&mut [].as_slice(), 64).unwrap(), None);
        assert_eq!(
            read_frame(&mut [3u8, 0].as_slice(), 64).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn truncated_payload_is_error() {
        let mut buf = Vec::new();
        Request::Query { object: 0, key: 1 }.encode(&mut buf);
        buf.truncate(buf.len() - 2);
        assert_eq!(
            read_frame(&mut buf.as_slice(), 64).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = Vec::new();
        push_u32(&mut buf, 1 << 30);
        buf.push(OP_STATS);
        assert_eq!(
            read_frame(&mut buf.as_slice(), 64).unwrap_err(),
            WireError::Oversized {
                len: 1 << 30,
                max: 64
            }
        );
    }

    #[test]
    fn unknown_opcode_and_bad_bodies_rejected() {
        assert_eq!(
            Request::decode(&[0x7f]).unwrap_err(),
            WireError::UnknownOpcode(0x7f)
        );
        // The retired request bytes are unassigned: the object-id-less
        // frames, `UPDATE2` (now a one-item `BATCH2`) and `SNAPSHOT`
        // (now `SNAPSHOT_SINCE` from the no-cache base).
        for op in [0x01, 0x02, 0x03, 0x11, 0x14] {
            assert_eq!(
                Request::decode(&[op, 1, 2]).unwrap_err(),
                WireError::UnknownOpcode(op)
            );
        }
        // `SNAPSHOT_REPLY` likewise.
        assert_eq!(
            Response::decode(&[0x87, 1, 2]).unwrap_err(),
            WireError::UnknownOpcode(0x87)
        );
        assert_eq!(
            Request::decode(&[OP_QUERY2, 1, 2]).unwrap_err(),
            WireError::Malformed("body shorter than its schema")
        );
        // Batch announcing more items than it carries.
        let mut bad = vec![OP_BATCH2];
        bad.extend_from_slice(&0u32.to_le_bytes());
        bad.extend_from_slice(&5u32.to_le_bytes());
        assert!(matches!(
            Request::decode(&bad).unwrap_err(),
            WireError::Malformed(_)
        ));
        // Trailing garbage after a well-formed body.
        let mut buf = Vec::new();
        Request::Query { object: 0, key: 1 }.encode(&mut buf);
        let mut payload = read_frame(&mut buf.as_slice(), 64).unwrap().unwrap();
        payload.push(0xAA);
        assert_eq!(
            Request::decode(&payload).unwrap_err(),
            WireError::Malformed("trailing bytes after body")
        );
    }

    #[test]
    fn oversized_batch_count_rejected() {
        let mut payload = vec![OP_BATCH2];
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&(MAX_BATCH_ITEMS + 1).to_le_bytes());
        assert_eq!(
            Request::decode(&payload).unwrap_err(),
            WireError::Malformed("batch exceeds MAX_BATCH_ITEMS")
        );
        // …and the in-place fast path rejects it too.
        let mut items = Vec::new();
        assert_eq!(
            decode_batch_into(&payload, &mut items).unwrap_err(),
            WireError::Malformed("batch exceeds MAX_BATCH_ITEMS")
        );
    }

    #[test]
    fn decode_batch_into_agrees_with_full_decoder() {
        for object in [0u32, 9] {
            let req = Request::Batch {
                object,
                items: vec![(7, 3), (7, 1), (42, 2)],
            };
            let mut buf = Vec::new();
            req.encode(&mut buf);
            let payload = read_frame(&mut buf.as_slice(), 1 << 16).unwrap().unwrap();
            let mut items = vec![(99u64, 99u64)]; // stale residue must be cleared
            assert_eq!(
                decode_batch_into(&payload, &mut items).unwrap(),
                Some(object)
            );
            assert_eq!(items, vec![(7, 3), (7, 1), (42, 2)]);
            assert_eq!(
                Request::decode(&payload).unwrap(),
                Request::Batch { object, items }
            );
        }
        // Non-batch opcodes pass through untouched.
        let mut buf = Vec::new();
        Request::Query { object: 0, key: 5 }.encode(&mut buf);
        let payload = read_frame(&mut buf.as_slice(), 64).unwrap().unwrap();
        let mut items = vec![(1u64, 1u64)];
        assert_eq!(decode_batch_into(&payload, &mut items).unwrap(), None);
        assert_eq!(
            items,
            vec![(1, 1)],
            "non-batch payload must not clobber items"
        );
        // Malformed batches: the in-place decoder gives the full
        // decoder's error and leaves `items` untouched.
        let batch = |count: u32, body_bytes: usize| {
            let mut payload = vec![OP_BATCH2];
            payload.extend_from_slice(&9u32.to_le_bytes());
            payload.extend_from_slice(&count.to_le_bytes());
            payload.extend((0..body_bytes).map(|i| i as u8));
            payload
        };
        let short = WireError::Malformed(SHORT_BODY);
        let trailing = WireError::Malformed("trailing bytes after body");
        let oversized = WireError::Malformed("batch exceeds MAX_BATCH_ITEMS");
        for (payload, want) in [
            (batch(2, 8), short.clone()),
            (batch(2, 31), short.clone()),
            (batch(2, 33), trailing.clone()),
            (batch(0, 1), trailing.clone()),
            (batch(MAX_BATCH_ITEMS + 1, 0), oversized.clone()),
            (batch(u32::MAX, 16), oversized.clone()),
            (batch(3, 0)[..4].to_vec(), short.clone()),
            (batch(3, 0)[..8].to_vec(), short.clone()),
        ] {
            assert_eq!(Request::decode(&payload).unwrap_err(), want);
            assert_eq!(
                decode_batch_into(&payload, &mut items).unwrap_err(),
                want,
                "{payload:?}"
            );
            assert_eq!(items, vec![(1, 1)], "an error clobbered items");
        }
        // An empty batch is well formed.
        let empty = batch(0, 0);
        assert_eq!(decode_batch_into(&empty, &mut items).unwrap(), Some(9));
        assert!(items.is_empty());
        assert_eq!(
            Request::decode(&empty).unwrap(),
            Request::Batch {
                object: 9,
                items: vec![]
            }
        );
    }

    /// A count the body does not back sizes no allocation: the length
    /// check runs before `items` is touched.
    #[test]
    fn a_hostile_batch_count_over_a_short_body_allocates_nothing() {
        let mut payload = vec![OP_BATCH2];
        payload.extend_from_slice(&0u32.to_le_bytes());
        payload.extend_from_slice(&MAX_BATCH_ITEMS.to_le_bytes());
        payload.extend_from_slice(&[0; 16]);
        let mut items: Vec<(u64, u64)> = Vec::new();
        assert_eq!(
            decode_batch_into(&payload, &mut items).unwrap_err(),
            WireError::Malformed(SHORT_BODY)
        );
        assert_eq!(items.capacity(), 0);
        let mut items = vec![(5, 5)];
        let capacity = items.capacity();
        assert!(decode_batch_into(&payload, &mut items).is_err());
        assert_eq!(items.capacity(), capacity);
        assert_eq!(items, [(5, 5)]);
    }

    /// Every wire opcode, exercised end-to-end: encode a
    /// representative frame, pin its opcode byte to the named
    /// constant, and decode it back to the original value. This is
    /// the conformance floor the analyzer's frame-docs lint enforces —
    /// an opcode constant that appears in no round-trip test here is
    /// a lint failure, so a new frame cannot ship untested.
    #[test]
    fn every_opcode_byte_matches_its_constant_and_roundtrips() {
        let freq = Envelope {
            key: 5,
            estimate: 100,
            epsilon: 3,
            stream_len: 500,
            alpha: 0.005,
            delta: 0.01,
            lag: 128,
        };
        let requests: Vec<(u8, Request)> = vec![
            (OP_QUERY2, Request::Query { object: 1, key: 9 }),
            (
                OP_BATCH2,
                Request::Batch {
                    object: 1,
                    items: vec![(1, 1)],
                },
            ),
            (OP_STATS, Request::Stats),
            (OP_OBJECTS, Request::Objects),
            (OP_SHUTDOWN, Request::Shutdown),
            (
                OP_SNAPSHOT_SINCE,
                Request::SnapshotSince {
                    object: 1,
                    base_epoch: 4,
                },
            ),
            (
                OP_PUSH_STATE,
                Request::PushState {
                    object: 1,
                    observed: 8,
                    state: SnapshotState::Morris { exponent: 2 },
                },
            ),
        ];
        for (opcode, req) in requests {
            let mut buf = Vec::new();
            req.encode(&mut buf);
            assert_eq!(buf[4], opcode, "request {req:?} wears the wrong opcode");
            assert_eq!(roundtrip_request(&req), req);
        }
        let responses: Vec<(u8, Response)> = vec![
            (OP_ACK, Response::Ack { applied: 9 }),
            (
                OP_ENVELOPE2,
                Response::Envelope(ErrorEnvelope::Frequency(freq)),
            ),
            (
                OP_ENVELOPE2,
                Response::Envelope(ErrorEnvelope::Minimum {
                    minimum: 3,
                    observed: 44,
                }),
            ),
            (OP_STATS_REPLY, Response::Stats(StatsReport::default())),
            (OP_GOODBYE, Response::Goodbye),
            (
                OP_OBJECTS_REPLY,
                Response::Objects(vec![ObjectInfo {
                    id: 0,
                    kind: ObjectKind::CountMin,
                    name: "cm".into(),
                }]),
            ),
            (
                OP_SNAPSHOT_DELTA_REPLY,
                Response::SnapshotDelta(SnapshotDelta {
                    object: 0,
                    kind: ObjectKind::CountMin,
                    epoch: 17,
                    change: DeltaChange::Unchanged,
                    envelope: ErrorEnvelope::Frequency(freq),
                }),
            ),
            (
                OP_ABSORBED,
                Response::Absorbed {
                    object: 1,
                    epoch: 4,
                    observed: 8,
                },
            ),
            (
                OP_ERROR,
                Response::Error {
                    code: ErrorCode::MergeMismatch,
                    message: "coins disagree".into(),
                },
            ),
        ];
        for (opcode, rsp) in responses {
            let mut buf = Vec::new();
            rsp.encode(&mut buf);
            assert_eq!(buf[4], opcode, "response {rsp:?} wears the wrong opcode");
            let payload = read_frame(&mut buf.as_slice(), DEFAULT_MAX_FRAME_LEN)
                .unwrap()
                .unwrap();
            assert_eq!(Response::decode(&payload).unwrap(), rsp);
        }
    }

    /// Wire identity, pinned byte for byte. Every frame below is spelled
    /// out literally, field by field, so a change to the encoder and the
    /// decoder together — which every round-trip test above would pass —
    /// still fails here.
    mod golden_frames {
        use crate::protocol::{
            decode_batch_into, encode_batch, read_frame, Request, Response, DEFAULT_MAX_FRAME_LEN,
        };
        use crate::{
            CellRun, DeltaChange, Envelope, ErrorEnvelope, ObjectKind, SnapshotDelta, SnapshotState,
        };

        fn unhex(hex: &str) -> Vec<u8> {
            (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digits"))
                .collect()
        }

        fn hex(bytes: &[u8]) -> String {
            bytes.iter().map(|b| format!("{b:02x}")).collect()
        }

        fn payload(golden: &str) -> Vec<u8> {
            read_frame(&mut unhex(golden).as_slice(), DEFAULT_MAX_FRAME_LEN)
                .unwrap()
                .unwrap()
        }

        fn pin_response(rsp: Response, golden: &str) {
            let mut buf = Vec::new();
            rsp.encode(&mut buf);
            assert_eq!(hex(&buf), golden, "encoding of {rsp:?}");
            assert_eq!(Response::decode(&payload(golden)).unwrap(), rsp);
        }

        fn freq() -> ErrorEnvelope {
            ErrorEnvelope::Frequency(Envelope {
                key: 5,
                estimate: 100,
                epsilon: 3,
                stream_len: 500,
                alpha: 0.005,
                delta: 0.01,
                lag: 128,
            })
        }

        fn card() -> ErrorEnvelope {
            ErrorEnvelope::Cardinality {
                estimate: 812.5,
                rel_std_err: 0.016,
                registers: 4,
                register_sum: 8,
                observed: 900,
            }
        }

        fn approx() -> ErrorEnvelope {
            ErrorEnvelope::ApproxCount {
                estimate: 14.0,
                a: 0.5,
                exponent: 9,
                observed: 15,
            }
        }

        fn minimum() -> ErrorEnvelope {
            ErrorEnvelope::Minimum {
                minimum: 3,
                observed: 44,
            }
        }

        const FREQUENCY_FIELDS: &str = concat!(
            "0500000000000000", // key
            "6400000000000000", // estimate
            "0300000000000000", // epsilon
            "f401000000000000", // stream_len
            "7b14ae47e17a743f", // alpha 0.005
            "7b14ae47e17a843f", // delta 0.01
            "8000000000000000", // lag
        );

        const CARDINALITY_BODY: &str = concat!(
            "01",               // cardinality tag
            "0000000000648940", // estimate 812.5
            "fca9f1d24d62903f", // rel_std_err 0.016
            "0400000000000000", // registers
            "0800000000000000", // register_sum
            "8403000000000000", // observed
        );

        const APPROX_COUNT_BODY: &str = concat!(
            "02",               // approx-count tag
            "0000000000002c40", // estimate 14.0
            "000000000000e03f", // a 0.5
            "09000000",         // exponent
            "0f00000000000000", // observed
        );

        const MINIMUM_BODY: &str = concat!(
            "03",               // minimum tag
            "0300000000000000", // minimum
            "2c00000000000000", // observed
        );

        #[test]
        fn envelope_frames_are_byte_identical() {
            pin_response(
                Response::Envelope(freq()),
                &["3a000000", "83", "00", FREQUENCY_FIELDS].concat(),
            );
            pin_response(
                Response::Envelope(card()),
                &["2a000000", "83", CARDINALITY_BODY].concat(),
            );
            pin_response(
                Response::Envelope(approx()),
                &["1e000000", "83", APPROX_COUNT_BODY].concat(),
            );
            pin_response(
                Response::Envelope(minimum()),
                &["12000000", "83", MINIMUM_BODY].concat(),
            );
        }

        /// A snapshot is the `Full` reply to `SNAPSHOT_SINCE`: every
        /// kind's whole state, pinned under the delta reply's header.
        #[test]
        fn snapshot_replies_are_byte_identical() {
            let full = |object, kind, epoch, state, envelope| {
                Response::SnapshotDelta(SnapshotDelta {
                    object,
                    kind,
                    epoch,
                    change: DeltaChange::Full(state),
                    envelope,
                })
            };
            pin_response(
                full(
                    0,
                    ObjectKind::CountMin,
                    17,
                    SnapshotState::CountMin {
                        width: 3,
                        depth: 2,
                        hash_fp: 0xDEAD_BEEF,
                        cells: vec![1, 2, 3, 4, 5, 6],
                    },
                    freq(),
                ),
                &[
                    "88000000",         // payload length
                    "88",               // SNAPSHOT_DELTA_REPLY
                    "00000000",         // object
                    "00",               // kind: CountMin
                    "1100000000000000", // epoch
                    "03",               // change: full
                    "03000000",         // width
                    "02000000",         // depth
                    "efbeadde00000000", // hash_fp
                    "0100000000000000", // cells
                    "0200000000000000",
                    "0300000000000000",
                    "0400000000000000",
                    "0500000000000000",
                    "0600000000000000",
                    "00", // frequency tag
                    FREQUENCY_FIELDS,
                ]
                .concat(),
            );
            pin_response(
                full(
                    1,
                    ObjectKind::Hll,
                    8,
                    SnapshotState::Hll {
                        hash_fp: 42,
                        registers: vec![0, 7, 1, 0],
                    },
                    card(),
                ),
                &[
                    "48000000",         // payload length
                    "88",               // SNAPSHOT_DELTA_REPLY
                    "01000000",         // object
                    "01",               // kind: HLL
                    "0800000000000000", // epoch: the register sum
                    "03",               // change: full
                    "2a00000000000000", // hash_fp
                    "04000000",         // register count
                    "00070100",         // registers
                    CARDINALITY_BODY,
                ]
                .concat(),
            );
            pin_response(
                full(
                    2,
                    ObjectKind::Morris,
                    9,
                    SnapshotState::Morris { exponent: 9 },
                    approx(),
                ),
                &[
                    "30000000",         // payload length
                    "88",               // SNAPSHOT_DELTA_REPLY
                    "02000000",         // object
                    "02",               // kind: Morris
                    "0900000000000000", // epoch: the exponent
                    "03",               // change: full
                    "09000000",         // exponent
                    APPROX_COUNT_BODY,
                ]
                .concat(),
            );
            pin_response(
                full(
                    3,
                    ObjectKind::MinRegister,
                    3,
                    SnapshotState::MinRegister { minimum: 3 },
                    minimum(),
                ),
                &[
                    "28000000",         // payload length
                    "88",               // SNAPSHOT_DELTA_REPLY
                    "03000000",         // object
                    "03",               // kind: min register
                    "0300000000000000", // epoch
                    "03",               // change: full
                    "0300000000000000", // minimum
                    MINIMUM_BODY,
                ]
                .concat(),
            );
        }

        #[test]
        fn snapshot_delta_replies_are_byte_identical() {
            pin_response(
                Response::SnapshotDelta(SnapshotDelta {
                    object: 0,
                    kind: ObjectKind::CountMin,
                    epoch: 17,
                    change: DeltaChange::Unchanged,
                    envelope: freq(),
                }),
                &[
                    "48000000",         // payload length
                    "88",               // SNAPSHOT_DELTA_REPLY
                    "00000000",         // object
                    "00",               // kind: CountMin
                    "1100000000000000", // epoch
                    "00",               // change: unchanged
                    "00",               // frequency tag
                    FREQUENCY_FIELDS,
                ]
                .concat(),
            );
            pin_response(
                Response::SnapshotDelta(SnapshotDelta {
                    object: 0,
                    kind: ObjectKind::CountMin,
                    epoch: 21,
                    change: DeltaChange::CmRuns {
                        base_epoch: 17,
                        runs: vec![
                            CellRun {
                                row: 0,
                                lo: 3,
                                len: 2,
                            },
                            CellRun {
                                row: 2,
                                lo: 7,
                                len: 1,
                            },
                        ],
                        values: vec![5, 9, 1],
                    },
                    envelope: freq(),
                }),
                &[
                    "84000000",         // payload length
                    "88",               // SNAPSHOT_DELTA_REPLY
                    "00000000",         // object
                    "00",               // kind: CountMin
                    "1500000000000000", // epoch
                    "01",               // change: cell runs
                    "1100000000000000", // base epoch
                    "02000000",         // run count
                    "00000000",         // row
                    "03000000",         // lo
                    "02000000",         // len
                    "0500000000000000", // cells
                    "0900000000000000",
                    "02000000",         // row
                    "07000000",         // lo
                    "01000000",         // len
                    "0100000000000000", // cell
                    "00",               // frequency tag
                    FREQUENCY_FIELDS,
                ]
                .concat(),
            );
        }

        #[test]
        fn batch_requests_are_byte_identical() {
            let pin = |req: Request, golden: &str| {
                let mut buf = Vec::new();
                req.encode(&mut buf);
                assert_eq!(hex(&buf), golden, "encoding of {req:?}");
                assert_eq!(Request::decode(&payload(golden)).unwrap(), req);
                let Request::Batch { object, items } = req else {
                    unreachable!("a batch request")
                };
                let mut direct = Vec::new();
                encode_batch(&mut direct, object, &items);
                assert_eq!(hex(&direct), golden, "encode_batch of {items:?}");
                let mut decoded = Vec::new();
                assert_eq!(
                    decode_batch_into(&payload(golden), &mut decoded).unwrap(),
                    Some(object)
                );
                assert_eq!(decoded, items);
            };
            pin(
                Request::Batch {
                    object: 0,
                    items: vec![(7, 3), (0x0102_0304_0506_0708, u64::MAX)],
                },
                concat!(
                    "29000000",         // payload length
                    "13",               // BATCH2
                    "00000000",         // object
                    "02000000",         // count
                    "0700000000000000", // key
                    "0300000000000000", // weight
                    "0807060504030201", // key
                    "ffffffffffffffff", // weight
                ),
            );
            pin(
                Request::Batch {
                    object: 9,
                    items: vec![(42, 1)],
                },
                concat!(
                    "19000000",         // payload length
                    "13",               // BATCH2
                    "09000000",         // object
                    "01000000",         // count
                    "2a00000000000000", // key
                    "0100000000000000", // weight
                ),
            );
        }

        #[test]
        fn push_state_request_is_byte_identical() {
            let req = Request::PushState {
                object: 2,
                observed: 501,
                state: SnapshotState::CountMin {
                    width: 2,
                    depth: 1,
                    hash_fp: 0xDEAD_BEEF,
                    cells: vec![4, 5],
                },
            };
            let golden = concat!(
                "2e000000",         // payload length
                "16",               // PUSH_STATE
                "02000000",         // object
                "00",               // kind: CountMin
                "f501000000000000", // observed
                "02000000",         // width
                "01000000",         // depth
                "efbeadde00000000", // hash_fp
                "0400000000000000", // cells
                "0500000000000000",
            );
            let mut buf = Vec::new();
            req.encode(&mut buf);
            assert_eq!(hex(&buf), golden);
            assert_eq!(Request::decode(&payload(golden)).unwrap(), req);
        }
    }
}
