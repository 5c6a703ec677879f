//! The sketch server, with two interchangeable backends: blocking
//! thread-per-connection over `std::net` ([`Backend::Threaded`]) and
//! a hand-rolled epoll reactor ([`Backend::EventLoop`], see the
//! `reactor` submodule). Both speak the same wire protocol and funnel
//! every frame through the same step (decode → route → apply) against
//! one [`ObjectSource`], so IVL verdicts and envelopes cannot depend on
//! the backend. The source is the [`ObjectRegistry`] [`serve`] builds,
//! or, through [`serve_source`], anything else that answers per object:
//! `ivl-replica` serves one shared replica group that way.
//!
//! Every frame names one registered object by id and routes through
//! its [`ServedObject`] interface. For the
//! CountMin that keeps the single-writer discipline: a threaded
//! connection checks out a per-(object, shard) lease on its first
//! update and keeps it until it closes; a reactor thread leases once
//! for all its connections. The ingest hot path stays plain stores with
//! no RMW instruction and no lock, and the lease pool is the
//! backpressure bound: when every shard is leased, further *updating*
//! connections get `busy` (queries always proceed). The lock-free
//! objects (HLL, Morris, min register) never refuse. Each object tracks
//! its own acknowledged stream weight, read IVL-style to size its
//! envelope.
//!
//! Shutdown is graceful: a `SHUTDOWN` frame (or
//! [`ServerHandle::shutdown`]) stops the accept loop; connections
//! already open keep being served until their clients hang up, and
//! [`ServerHandle::join`] waits for the drain before returning final
//! stats and (optionally) the recorded history of every operation the
//! server performed — replayable per object projection through the
//! workspace's IVL checkers ([`JoinedServer::verdicts`], Theorem 1's
//! locality made operational).

use crate::metrics::{Metrics, ObjectStats, StatsReport};
use crate::objects::{
    ObjectConfig, ObjectInfo, ObjectKind, ObjectRegistry, ObjectVerdict, ObjectWriter, Refusal,
    ServedObject, SnapshotDelta, SnapshotState,
};
use crate::protocol::{self, ErrorCode, FrameDecoder, Request, Response, WireError};
use ivl_merge::ErrorEnvelope;
use ivl_spec::history::{History, ObjectId, ProcessId};
use ivl_spec::record::Recorder;
use polling::Poller;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

mod reactor;

/// Which serving backend executes connections. Both speak the same
/// wire protocol against the same sketch state; the choice is purely a
/// scheduling/perf decision, so IVL verdicts and envelopes are
/// identical across backends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// One OS thread per connection, blocking I/O (the original
    /// backend; robust, but threads cap concurrent connections).
    #[default]
    Threaded,
    /// `shards` reactor threads over a hand-rolled epoll event loop:
    /// nonblocking sockets, edge-triggered readiness, resumable frame
    /// decoding, vectored writes. Each reactor owns one shard lease
    /// for all its connections.
    EventLoop,
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "threaded" => Ok(Backend::Threaded),
            "event-loop" | "event_loop" | "eventloop" => Ok(Backend::EventLoop),
            other => Err(format!(
                "unknown backend {other:?} (want \"threaded\" or \"event-loop\")"
            )),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::Threaded => "threaded",
            Backend::EventLoop => "event-loop",
        })
    }
}

/// Configuration of one server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Serving backend (see [`Backend`]).
    pub backend: Backend,
    /// Number of sketch shards == maximum concurrent *updating*
    /// connections (threaded backend) or reactor threads (event-loop
    /// backend).
    pub shards: usize,
    /// CountMin relative error (ε = α·n).
    pub alpha: f64,
    /// CountMin failure probability.
    pub delta: f64,
    /// Maximum concurrent connections; beyond it the accept gate
    /// answers `busy` and closes.
    pub max_connections: usize,
    /// Largest accepted frame payload in bytes.
    pub max_frame_len: u32,
    /// Record every operation into an [`ivl_spec::History`] for
    /// offline IVL checking (adds one short mutex hold per op).
    pub record: bool,
    /// Seed for the objects' coin flips (hash functions).
    pub seed: u64,
    /// The objects to register, in id order, of any kinds. CountMin
    /// entries take their `(alpha, delta)`, `shards`, and
    /// `write_buffer` from this config.
    pub objects: Vec<ObjectConfig>,
    /// Write-buffer batch size `b` (0 disables buffering). When set,
    /// each writer (connection thread / reactor) keeps its frame
    /// scratch ([`BatchScratch`](ivl_concurrent::BatchScratch)) across
    /// frames as a coalescing buffer and sweeps it into its shard lease
    /// every `b` acknowledged weight — the paper's batched-counter
    /// construction (Lemma 10, DESIGN §9). Queries stay direct reads;
    /// the served envelope carries `lag = shards·b` so clients see the
    /// widened bound. Buffers flush when a writer's lease returns
    /// (connection close / reactor drain), so a graceful shutdown
    /// loses nothing. Note: with buffering on, a *recorded* history is
    /// generally **not** IVL — an update is acknowledged before it is
    /// visible — which is exactly the `n·b` relaxation the envelope
    /// advertises; strict history checks only apply at `b = 0`.
    pub write_buffer: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            backend: Backend::Threaded,
            shards: 8,
            alpha: 0.005,
            delta: 0.01,
            max_connections: 64,
            max_frame_len: protocol::DEFAULT_MAX_FRAME_LEN,
            record: false,
            seed: 1,
            write_buffer: 0,
            objects: vec![ObjectConfig::new("cm", ObjectKind::CountMin)],
        }
    }
}

/// A recording server's recorder, with the connection (the recorded
/// process) a request came in on.
pub type Recording<'a> = Option<(&'a Recorder<(u64, u64), u64, u64>, ProcessId)>;

/// What the frame step executes requests against: the registry
/// [`serve`] builds, or a source given to [`serve_source`] (a shared
/// replica group in `ivl-replica`: by Theorem 1, one more object
/// projection). `execute_request` stays the one request dispatch,
/// calling one method per request kind.
pub trait ObjectSource: Send + Sync + 'static {
    /// One serving thread's write state (a connection thread's, or a
    /// reactor's for all its connections), held until it drains: for the
    /// registry, per-object writers with their shard leases and buffers.
    type Writers<'a>;
    /// Fresh write state for one serving thread.
    fn writers<'a>(&'a self, metrics: &'a Metrics) -> Self::Writers<'a>;
    /// Flushes and gives back a thread's write state; returns whether a
    /// shard lease went back to its pool.
    fn release(writers: &mut Self::Writers<'_>) -> bool;
    /// Applies one write frame to `object`.
    fn batch(
        &self,
        writers: &mut Self::Writers<'_>,
        rec: Recording<'_>,
        object: u32,
        items: &[(u64, u64)],
    ) -> Result<(), Refusal>;
    /// Answers a point query with `object`'s error envelope.
    fn query(&self, rec: Recording<'_>, object: u32, key: u64) -> Result<ErrorEnvelope, Refusal>;
    /// Answers `SNAPSHOT_SINCE` (`u64::MAX`, no cache, in full).
    fn state_since(&self, object: u32, base_epoch: u64) -> Result<SnapshotDelta, Refusal>;
    /// Absorbs a pushed state (`PUSH_STATE`); returns the new epoch.
    fn push_state(
        &self,
        writers: &mut Self::Writers<'_>,
        object: u32,
        observed: u64,
        state: &SnapshotState,
    ) -> Result<u64, Refusal>;
    /// The roster `OBJECTS` lists.
    fn objects(&self) -> Result<Vec<ObjectInfo>, Refusal>;
    /// The acknowledged weight served and the per-object `STATS` rows.
    fn stats(&self) -> (u64, Vec<ObjectStats>);
    /// Runs on a client's `SHUTDOWN`, before the server drains.
    fn shutdown(&self) {}
}

/// The registry serves itself: each request routes by object id to
/// the object's [`ServedObject`] interface.
impl ObjectSource for ObjectRegistry {
    type Writers<'a> = WriterSet<'a>;

    fn writers<'a>(&'a self, metrics: &'a Metrics) -> WriterSet<'a> {
        WriterSet {
            registry: self,
            metrics,
            writers: (0..self.len()).map(|_| None).collect(),
        }
    }

    /// Flushes every writer, then returns its lease: once a lease is
    /// back in the pool, none of its acknowledged updates are still
    /// invisible (the flush-on-drain guarantee).
    fn release(writers: &mut WriterSet<'_>) -> bool {
        let mut returned = false;
        for mut w in writers.writers.iter_mut().filter_map(Option::take) {
            returned |= w.release();
        }
        returned
    }

    /// With write buffering on, a CountMin acknowledges (and records)
    /// an update while it may still be invisible: the deferred
    /// visibility the envelope's `lag` advertises. Each object's ingest
    /// counter counts acknowledged weight either way, keeping error
    /// bounds conservative.
    fn batch(
        &self,
        writers: &mut WriterSet<'_>,
        rec: Recording<'_>,
        object: u32,
        items: &[(u64, u64)],
    ) -> Result<(), Refusal> {
        let writer = writers.ready(object)?;
        if let Some((recorder, process)) = rec {
            // Recorded runs stay per-item: each update is its own history
            // operation, so `ivl_check` replays the exact stream the
            // client sent — batching is a transport detail the history
            // never sees.
            for item in items {
                let op = recorder.invoke_update(process, ObjectId(object), *item);
                writer.apply_batch(std::slice::from_ref(item));
                recorder.respond_update(op);
            }
        } else {
            // Batch kernel: coalesced, one hashing sweep, row-major cell
            // touches.
            writer.apply_batch(items);
        }
        Ok(())
    }

    fn query(&self, rec: Recording<'_>, object: u32, key: u64) -> Result<ErrorEnvelope, Refusal> {
        let served = lookup(self, object)?;
        let op = rec.map(|(r, process)| (r, r.invoke_query(process, ObjectId(object), key)));
        let envelope = served.query(key);
        if let Some((r, op)) = op {
            r.respond_query(op, envelope.value());
        }
        Ok(envelope)
    }

    fn state_since(&self, object: u32, base_epoch: u64) -> Result<SnapshotDelta, Refusal> {
        self.snapshot_since(object, base_epoch)
            .ok_or_else(|| unknown_object(self, object))
    }

    /// The anti-entropy write, under the same single-writer discipline
    /// as updates (a CountMin absorb holds a shard lease).
    fn push_state(
        &self,
        writers: &mut WriterSet<'_>,
        object: u32,
        observed: u64,
        state: &SnapshotState,
    ) -> Result<u64, Refusal> {
        writers
            .ready(object)?
            .absorb(state, observed)
            .map_err(|e| Refusal {
                code: ErrorCode::MergeMismatch,
                message: format!("object {object}: {e}"),
            })?;
        Ok(lookup(self, object)?.epoch())
    }

    fn objects(&self) -> Result<Vec<ObjectInfo>, Refusal> {
        Ok(self.infos())
    }

    fn stats(&self) -> (u64, Vec<ObjectStats>) {
        (self.total_observed(), self.stats_rows())
    }
}

/// The object `object` names, or the refusal for a frame naming none.
fn lookup(registry: &ObjectRegistry, object: u32) -> Result<&dyn ServedObject, Refusal> {
    registry
        .get(object)
        .ok_or_else(|| unknown_object(registry, object))
}

/// The refusal for a frame naming an object the registry lacks.
fn unknown_object(registry: &ObjectRegistry, object: u32) -> Refusal {
    Refusal {
        code: ErrorCode::UnknownObject,
        message: format!("no object {object} (registry has {})", registry.len()),
    }
}

/// State shared by the accept loop and every connection thread.
struct Shared<S> {
    cfg: ServerConfig,
    /// The served objects, routed by the object id in each frame.
    source: S,
    metrics: Metrics,
    recorder: Option<Recorder<(u64, u64), u64, u64>>,
    shutdown: AtomicBool,
    /// Condvar pair signalled by [`begin_shutdown`](Self::begin_shutdown)
    /// so [`ServerHandle::wait_for_shutdown`] can block without polling.
    shutdown_signal: (Mutex<bool>, Condvar),
    /// Pollers to wake on shutdown (event-loop backend; empty when
    /// threaded).
    wakers: Mutex<Vec<Arc<Poller>>>,
    /// Generation counter bumped whenever a shard lease returns to the
    /// pool, so [`ServerHandle::wait_for_free_shard`] can block on a
    /// condvar instead of sleep-polling the pool.
    lease_returned: (Mutex<u64>, Condvar),
    addr: SocketAddr,
}

impl<S> Shared<S> {
    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::AcqRel) {
            let wakers = self.wakers.lock().expect("wakers lock");
            if wakers.is_empty() {
                // Threaded backend: unblock the blocking accept loop
                // with a throwaway connection; it re-checks the flag
                // before serving anything.
                let _ = TcpStream::connect(self.addr);
            } else {
                // Event-loop backend: wake every poller; accept loop
                // and reactors re-check the flag and drain.
                for poller in wakers.iter() {
                    let _ = poller.notify();
                }
            }
            drop(wakers);
            let (lock, cv) = &self.shutdown_signal;
            *lock.lock().expect("shutdown signal lock") = true;
            cv.notify_all();
        }
    }

    fn wait_for_shutdown(&self) {
        let (lock, cv) = &self.shutdown_signal;
        let mut requested = lock.lock().expect("shutdown signal lock");
        while !*requested {
            requested = cv.wait(requested).expect("shutdown signal wait");
        }
    }

    /// Registers a poller to be notified by [`begin_shutdown`]
    /// (event-loop backend startup).
    ///
    /// [`begin_shutdown`]: Self::begin_shutdown
    fn register_waker(&self, poller: Arc<Poller>) {
        self.wakers.lock().expect("wakers lock").push(poller);
    }

    /// The recorder, when recording, tagged with `process`.
    fn recording(&self, process: ProcessId) -> Recording<'_> {
        self.recorder.as_ref().map(|r| (r, process))
    }
}

impl<S: ObjectSource> Shared<S> {
    /// Flushes and releases one serving thread's write state, waking
    /// lease waiters when a shard lease went back to its pool.
    fn release(&self, writers: &mut S::Writers<'_>) {
        if S::release(writers) {
            let (lock, cv) = &self.lease_returned;
            *lock.lock().expect("lease signal lock") += 1;
            cv.notify_all();
        }
    }

    /// The `STATS` reply.
    fn report(&self) -> StatsReport {
        let (observed, rows) = self.source.stats();
        self.metrics.report(observed, rows)
    }
}

/// One writer thread's update state across every registered object:
/// per-object [`ObjectWriter`]s created lazily on the object's first
/// update. A connection thread is one writer in the threaded backend;
/// a reactor thread is one writer for all its connections in the
/// event-loop backend — either way at most `shards` concurrent writers
/// exist per CountMin (the lease pool gates them), which is what makes
/// the advertised `shards·b` lag a sound Lemma 10 bound.
#[derive(Debug)]
pub struct WriterSet<'a> {
    registry: &'a ObjectRegistry,
    metrics: &'a Metrics,
    writers: Vec<Option<Box<dyn ObjectWriter + 'a>>>,
}

impl<'a> WriterSet<'a> {
    /// This thread's writer for `object`, created on first use and
    /// readied (for a CountMin: its shard lease acquired) — or the
    /// refusal: no such object, or its writer pool is exhausted.
    fn ready(&mut self, object: u32) -> Result<&mut (dyn ObjectWriter + 'a), Refusal> {
        let (obj, metrics) = (lookup(self.registry, object)?, self.metrics);
        let writer = self.writers[object as usize]
            .get_or_insert_with(|| obj.writer(metrics))
            .as_mut();
        writer.ensure_ready()?;
        Ok(writer)
    }
}

/// A running server; dropping it initiates shutdown without draining.
#[derive(Debug)]
pub struct ServerHandle<S = ObjectRegistry> {
    addr: SocketAddr,
    /// `Some` until [`join`](Self::join) consumes it (the handle has a
    /// `Drop` impl, so fields move out via `Option::take`).
    shared: Option<Arc<Shared<S>>>,
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl<S> std::fmt::Debug for Shared<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("cfg", &self.cfg)
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

/// Everything a drained server leaves behind.
#[derive(Debug)]
pub struct JoinedServer<S = ObjectRegistry> {
    /// Final metrics snapshot (including per-object rows).
    pub stats: StatsReport,
    /// The recorded history (when `record` was set): every update as
    /// `(key, weight)`, every query with its served envelope's
    /// checkable value, tagged with the object id it addressed —
    /// window supersets of the true operation intervals.
    pub history: Option<History<(u64, u64), u64, u64>>,
    /// The drained object source: for [`serve`], the registry with
    /// every served object's final state (every writer flushed before
    /// its lease returned — the flush-on-drain guarantee).
    pub registry: S,
}

impl JoinedServer {
    /// Per-object verdicts for the recorded history (Theorem 1's
    /// locality as a table); `None` when recording was off.
    pub fn verdicts(&self) -> Option<Vec<ObjectVerdict>> {
        self.history.as_ref().map(|h| self.registry.verdicts(h))
    }
}

/// Binds `addr` and starts serving the registry `cfg` describes in
/// background threads.
pub fn serve(addr: impl ToSocketAddrs, cfg: ServerConfig) -> io::Result<ServerHandle> {
    assert!(cfg.shards > 0, "need at least one shard");
    let registry = ObjectRegistry::build(
        &cfg.objects,
        cfg.alpha,
        cfg.delta,
        cfg.shards,
        cfg.write_buffer,
        cfg.seed,
    );
    serve_source(addr, cfg, registry)
}

/// Binds `addr` and starts serving `source` in background threads.
/// `cfg`'s backend, shards, connection gate, frame bound and record
/// flag apply; its object fields only shape the registry [`serve`]
/// builds.
pub fn serve_source<S: ObjectSource>(
    addr: impl ToSocketAddrs,
    cfg: ServerConfig,
    source: S,
) -> io::Result<ServerHandle<S>> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let shared = Arc::new(Shared {
        source,
        metrics: Metrics::new(),
        recorder: cfg.record.then(Recorder::new),
        shutdown: AtomicBool::new(false),
        shutdown_signal: (Mutex::new(false), Condvar::new()),
        wakers: Mutex::new(Vec::new()),
        lease_returned: (Mutex::new(0), Condvar::new()),
        addr: local,
        cfg,
    });
    let accept_shared = Arc::clone(&shared);
    let accept = match shared.cfg.backend {
        Backend::Threaded => thread::Builder::new()
            .name("ivl-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?,
        Backend::EventLoop => reactor::spawn(listener, accept_shared)?,
    };
    Ok(ServerHandle {
        addr: local,
        shared: Some(shared),
        accept: Some(accept),
    })
}

impl<S: ObjectSource> ServerHandle<S> {
    fn shared(&self) -> &Shared<S> {
        self.shared.as_ref().expect("present until join")
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A live metrics snapshot (same data `STATS` serves).
    pub fn stats(&self) -> StatsReport {
        self.shared().report()
    }

    /// Stops accepting new connections; existing ones keep draining.
    pub fn shutdown(&self) {
        self.shared().begin_shutdown();
    }

    /// Blocks until shutdown is requested — by a client's `SHUTDOWN`
    /// frame or [`shutdown`](Self::shutdown). [`join`](Self::join)
    /// initiates shutdown itself; a standalone server that should run
    /// until told to stop waits here first.
    pub fn wait_for_shutdown(&self) {
        self.shared().wait_for_shutdown();
    }

    /// Initiates shutdown, waits for every connection to drain, and
    /// returns final stats plus the recorded history.
    pub fn join(mut self) -> JoinedServer<S> {
        self.shared().begin_shutdown();
        let conns = self
            .accept
            .take()
            .expect("join called once")
            .join()
            .expect("accept thread never panics");
        for c in conns {
            let _ = c.join();
        }
        let stats = self.stats();
        let shared = Arc::try_unwrap(self.shared.take().expect("present until join"))
            .unwrap_or_else(|_| panic!("all connection threads joined"));
        JoinedServer {
            stats,
            history: shared.recorder.map(Recorder::finish),
            registry: shared.source,
        }
    }
}

impl ServerHandle {
    /// Blocks (condvar wakeup, no polling) until at least one shard is
    /// free to lease or `timeout` elapses; returns whether a shard was
    /// free when it woke. The answer is advisory — another client may
    /// win the shard first — so callers retry their update on `busy`.
    pub fn wait_for_free_shard(&self, timeout: Duration) -> bool {
        let shared = self.shared();
        let deadline = Instant::now() + timeout;
        let (lock, cv) = &shared.lease_returned;
        let mut generation = lock.lock().expect("lease signal lock");
        loop {
            if shared.source.free_shards() > 0 {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, _timed_out) = cv
                .wait_timeout(generation, deadline - now)
                .expect("lease signal wait");
            generation = next;
        }
    }
}

impl<S> Drop for ServerHandle<S> {
    fn drop(&mut self) {
        if let (Some(shared), Some(_)) = (&self.shared, &self.accept) {
            shared.begin_shutdown();
        }
    }
}

fn accept_loop<S: ObjectSource>(
    listener: TcpListener,
    shared: Arc<Shared<S>>,
) -> Vec<JoinHandle<()>> {
    let mut conns = Vec::new();
    let mut next_conn: u32 = 0;
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        if shared.metrics.active() >= shared.cfg.max_connections {
            reject(stream, &shared);
            continue;
        }
        shared.metrics.connection_accepted();
        let conn = next_conn;
        next_conn = next_conn.wrapping_add(1);
        let conn_shared = Arc::clone(&shared);
        let handle = thread::Builder::new()
            .name(format!("ivl-conn-{conn}"))
            .spawn(move || {
                serve_connection(&conn_shared, stream, conn);
                conn_shared.metrics.connection_closed();
            })
            .expect("spawn connection thread");
        conns.push(handle);
    }
    conns
}

/// Turns a connection away at the accept gate (both backends; accepted
/// sockets do not inherit the listener's nonblocking mode, so this
/// small write is a plain blocking send).
fn reject<S>(mut stream: TcpStream, shared: &Shared<S>) {
    shared.metrics.connection_rejected();
    let mut buf = Vec::new();
    Response::Error {
        code: ErrorCode::Busy,
        message: "connection limit reached".into(),
    }
    .encode(&mut buf);
    let _ = stream.write_all(&buf);
}

fn serve_connection<S: ObjectSource>(shared: &Shared<S>, stream: TcpStream, conn: u32) {
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut reader = stream;
    let process = ProcessId(conn);
    // The connection's writer state, per object: for a CountMin, a
    // shard lease acquired lazily on first update and held (single
    // writer) until the connection ends, plus the frame scratch that
    // is also its write buffer.
    let mut updater = shared.source.writers(&shared.metrics);
    let mut applied: u64 = 0;
    // Resumable decoder + reusable buffers: the steady-state frame
    // loop below performs no heap allocation — bytes land in the
    // decoder's ring, batch items in `items`, responses encode into
    // `out`.
    let mut decoder = FrameDecoder::new(shared.cfg.max_frame_len);
    let mut items = Vec::new();
    let mut out = Vec::new();
    'serve: loop {
        // Drain every complete frame already buffered before reading
        // more bytes from the socket.
        loop {
            let (response, close) = match decoder.next_frame() {
                Ok(Some(payload)) => serve_frame(
                    shared,
                    &mut updater,
                    &mut items,
                    &mut applied,
                    process,
                    payload,
                ),
                Ok(None) => break,
                // The stream cannot be resynchronized (oversized or
                // zero-length prefix). Report and close.
                Err(e) => (protocol_error(shared, e), true),
            };
            out.clear();
            response.encode(&mut out);
            if writer.write_all(&out).is_err() || close {
                break 'serve;
            }
        }
        match decoder.read_from(&mut reader) {
            Ok(0) => break, // clean EOF
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break, // connection gone
        }
    }
    // Flush any buffered updates, then return leases to their pools.
    shared.release(&mut updater);
    // Half-close, then briefly drain the peer's in-flight bytes so the
    // final response frame is not clobbered by a reset. The timeout
    // bounds the wait when it is the server hanging up first — an
    // unbounded read here would hold the socket open until the peer
    // acted.
    let _ = writer.shutdown(std::net::Shutdown::Write);
    let _ = reader.set_read_timeout(Some(std::time::Duration::from_millis(50)));
    let _ = reader.read(&mut [0u8; 64]);
}

/// The one frame step both backends run on each length-delimited
/// payload: decode → route → apply, returning `(response,
/// close_after_send)`. A batch frame decodes straight into the
/// caller's reusable `items` vector and applies through the batch
/// kernel, with no `Request` materialized; every other frame takes the
/// full decoder. A body that does not parse is answered with a typed
/// `Protocol` error and the connection stays open: the frame was
/// length-delimited, so the stream is still in sync.
fn serve_frame<'a, S: ObjectSource>(
    shared: &'a Shared<S>,
    writers: &mut S::Writers<'a>,
    items: &mut Vec<(u64, u64)>,
    applied: &mut u64,
    process: ProcessId,
    payload: &[u8],
) -> (Response, bool) {
    shared.metrics.record_frame();
    let decoded = match protocol::decode_batch_into(payload, items) {
        Ok(Some(object)) => {
            shared.metrics.record_batch();
            let response = apply_updates(shared, writers, applied, process, object, items)
                .unwrap_or_else(|r| refuse(shared, r));
            return (response, false);
        }
        Ok(None) => Request::decode(payload),
        Err(e) => Err(e),
    };
    match decoded {
        Ok(request) => execute_request(shared, writers, applied, process, request),
        Err(e) => (protocol_error(shared, e), false),
    }
}

/// The refusal for a frame that does not parse.
fn protocol_error<S>(shared: &Shared<S>, e: WireError) -> Response {
    shared.metrics.record_protocol_error();
    Response::Error {
        code: ErrorCode::Protocol,
        message: e.to_string(),
    }
}

/// Frames a source's refusal as its wire error, counting a busy writer
/// pool as a busy rejection and an unknown object as a protocol error.
fn refuse<S>(shared: &Shared<S>, refusal: Refusal) -> Response {
    match refusal.code {
        ErrorCode::Busy => shared.metrics.record_busy_rejection(),
        ErrorCode::UnknownObject => shared.metrics.record_protocol_error(),
        _ => {}
    }
    Response::Error {
        code: refusal.code,
        message: refusal.message,
    }
}

/// Executes one decoded request against the object source and returns
/// `(response, close_after_send)`. Both backends funnel every request
/// through here (via [`serve_frame`]), which is what makes IVL
/// semantics backend-invariant: the recorder calls, the per-object
/// writer discipline, and the envelope construction are literally the
/// same code.
fn execute_request<'a, S: ObjectSource>(
    shared: &'a Shared<S>,
    writers: &mut S::Writers<'a>,
    applied: &mut u64,
    process: ProcessId,
    request: Request,
) -> (Response, bool) {
    let source = &shared.source;
    let response = match request {
        Request::Batch { object, items } => {
            shared.metrics.record_batch();
            apply_updates(shared, writers, applied, process, object, &items)
        }
        Request::Query { object, key } => {
            let start = Instant::now();
            source
                .query(shared.recording(process), object, key)
                .map(|envelope| {
                    shared.metrics.record_query(start.elapsed().as_nanos());
                    Response::Envelope(envelope)
                })
        }
        Request::SnapshotSince { object, base_epoch } => {
            // The one state read, a read like a query (metrics count it
            // as one). It is not recorded into the history: the state
            // it returns is matrix-valued, and the replicated checker
            // works from per-replica histories plus merged projections
            // instead.
            let start = Instant::now();
            source.state_since(object, base_epoch).map(|delta| {
                shared.metrics.record_query(start.elapsed().as_nanos());
                Response::SnapshotDelta(delta)
            })
        }
        Request::PushState {
            object,
            observed,
            state,
        } => {
            // Not recorded into the history — the pushed weight
            // summarizes updates already recorded against the peer, so
            // recording the absorb would double-count them; `ivl_check`
            // sees the weight exactly once.
            source
                .push_state(writers, object, observed, &state)
                .map(|epoch| {
                    shared.metrics.record_absorb();
                    Response::Absorbed {
                        object,
                        epoch,
                        observed,
                    }
                })
        }
        Request::Stats => Ok(Response::Stats(shared.report())),
        Request::Objects => source.objects().map(Response::Objects),
        Request::Shutdown => {
            source.shutdown();
            shared.begin_shutdown();
            return (Response::Goodbye, true);
        }
    };
    (response.unwrap_or_else(|r| refuse(shared, r)), false)
}

/// Applies one write frame through this thread's write state for the
/// target object and acknowledges the connection's cumulative applied
/// count; the source's refusal (`busy` when the object's writer pool is
/// exhausted, `unknown-object` when the id names nothing) otherwise.
fn apply_updates<'a, S: ObjectSource>(
    shared: &'a Shared<S>,
    writers: &mut S::Writers<'a>,
    applied: &mut u64,
    process: ProcessId,
    object: u32,
    items: &[(u64, u64)],
) -> Result<Response, Refusal> {
    let start = Instant::now();
    shared
        .source
        .batch(writers, shared.recording(process), object, items)?;
    shared
        .metrics
        .record_updates(items.len() as u64, start.elapsed().as_nanos());
    *applied += items.len() as u64;
    Ok(Response::Ack { applied: *applied })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    /// Queries `key` on object 0, the default roster's CountMin.
    fn freq(c: &mut Client, key: u64) -> crate::Envelope {
        *c.object_id(0)
            .query(key)
            .unwrap()
            .frequency()
            .expect("a frequency envelope")
    }

    fn config(shards: usize, record: bool) -> ServerConfig {
        config_with(Backend::Threaded, shards, record)
    }

    fn config_with(backend: Backend, shards: usize, record: bool) -> ServerConfig {
        ServerConfig {
            backend,
            shards,
            record,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn updates_queries_and_stats_over_the_wire() {
        let h = serve("127.0.0.1:0", config(2, false)).unwrap();
        let mut c = Client::connect(h.addr()).unwrap();
        assert_eq!(c.object_id(0).update(7, 3).unwrap(), 1);
        assert_eq!(c.object_id(0).batch(&[(7, 2), (9, 5)]).unwrap(), 3);
        let env = freq(&mut c, 7);
        assert!(env.estimate >= 5, "estimate {} < true 5", env.estimate);
        assert_eq!(env.stream_len, 10);
        assert!(env.alpha > 0.0 && env.delta > 0.0);
        let stats = c.stats().unwrap();
        assert_eq!(stats.updates, 3);
        assert_eq!(stats.queries, 1);
        // Every write frame is a batch: the single update counts too.
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.stream_len, 10);
        // At b = 0 every frame is swept before its ack: nothing buffers.
        assert_eq!((stats.buffered_pending, stats.flushes), (0, 0));
        drop(c);
        let joined = h.join();
        assert_eq!(joined.stats.updates, 3);
        assert!(joined.history.is_none());
    }

    #[test]
    fn busy_when_all_shards_leased() {
        let h = serve("127.0.0.1:0", config(1, false)).unwrap();
        let mut a = Client::connect(h.addr()).unwrap();
        let mut b = Client::connect(h.addr()).unwrap();
        a.object_id(0).update(1, 1).unwrap();
        let err = b.object_id(0).update(2, 1).unwrap_err();
        assert!(
            matches!(
                &err,
                crate::client::ClientError::Server {
                    code: ErrorCode::Busy,
                    ..
                }
            ),
            "expected busy, got {err:?}"
        );
        // Queries are reads and never need a lease.
        assert!(freq(&mut b, 1).estimate >= 1);
        // Dropping the leasing connection frees the shard for b; the
        // condvar wakes us without polling.
        drop(a);
        assert!(
            h.wait_for_free_shard(Duration::from_secs(5)),
            "shard never freed"
        );
        b.object_id(0).update(2, 1).unwrap();
        assert_eq!(h.stats().busy_rejections, 1);
    }

    #[test]
    fn wait_for_free_shard_times_out_while_leased() {
        let h = serve("127.0.0.1:0", config(1, false)).unwrap();
        let mut a = Client::connect(h.addr()).unwrap();
        a.object_id(0).update(1, 1).unwrap();
        assert!(!h.wait_for_free_shard(Duration::from_millis(50)));
        drop(a);
        assert!(h.wait_for_free_shard(Duration::from_secs(5)));
    }

    #[test]
    fn malformed_frames_get_protocol_errors_not_closure() {
        let h = serve("127.0.0.1:0", config(1, false)).unwrap();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        // Unknown opcode in a well-delimited frame.
        s.write_all(&2u32.to_le_bytes()).unwrap();
        s.write_all(&[0x7f, 0x00]).unwrap();
        let payload = protocol::read_frame(&mut s, protocol::DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .unwrap();
        match Response::decode(&payload).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
            other => panic!("expected error, got {other:?}"),
        }
        // The connection survives: a valid request still works.
        let mut buf = Vec::new();
        Request::Query { object: 0, key: 1 }.encode(&mut buf);
        s.write_all(&buf).unwrap();
        let payload = protocol::read_frame(&mut s, protocol::DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .unwrap();
        assert!(matches!(
            Response::decode(&payload).unwrap(),
            Response::Envelope(_)
        ));
        assert_eq!(h.stats().protocol_errors, 1);
        drop(s); // join drains: the client must hang up first
        h.join();
    }

    fn snapshots_serve_mergeable_state(backend: Backend) {
        use crate::objects::SnapshotState;
        let cfg = ServerConfig {
            objects: vec![
                ObjectConfig::new("cm", ObjectKind::CountMin),
                ObjectConfig::new("hll", ObjectKind::Hll),
            ],
            ..config_with(backend, 2, false)
        };
        let h = serve("127.0.0.1:0", cfg).unwrap();
        let mut c = Client::connect(h.addr()).unwrap();
        c.object_id(0).batch(&[(7, 2), (9, 5)]).unwrap();
        let snap = c.object_id(0).snapshot().unwrap();
        assert_eq!((snap.object, snap.kind), (0, ObjectKind::CountMin));
        match &snap.state {
            SnapshotState::CountMin { width, cells, .. } => {
                let row0: u64 = cells[..*width as usize].iter().sum();
                assert_eq!(row0, 7, "row 0 holds the whole stream weight");
            }
            other => panic!("wanted CountMin state, got {other:?}"),
        }
        match snap.envelope {
            crate::ErrorEnvelope::Frequency(env) => assert_eq!(env.stream_len, 7),
            other => panic!("wanted frequency envelope, got {other:?}"),
        }
        let snap = c.object_id(1).snapshot().unwrap();
        assert!(matches!(snap.state, SnapshotState::Hll { .. }));
        let err = c.object_id(9).snapshot().unwrap_err();
        assert!(
            matches!(
                &err,
                crate::client::ClientError::Server {
                    code: ErrorCode::UnknownObject,
                    ..
                }
            ),
            "expected unknown-object, got {err:?}"
        );
        drop(c);
        h.join();
    }

    #[test]
    fn snapshots_serve_mergeable_state_threaded() {
        snapshots_serve_mergeable_state(Backend::Threaded);
    }

    #[test]
    fn snapshots_serve_mergeable_state_event_loop() {
        snapshots_serve_mergeable_state(Backend::EventLoop);
    }

    fn push_state_absorbs_a_peer_snapshot(backend: Backend) {
        use crate::objects::SnapshotState;
        let objects = || {
            vec![
                ObjectConfig::new("cm", ObjectKind::CountMin),
                ObjectConfig::new("hits", ObjectKind::Hll),
                ObjectConfig::new("events", ObjectKind::Morris),
                ObjectConfig::new("low", ObjectKind::MinRegister),
            ]
        };
        let cfg = |seed| ServerConfig {
            objects: objects(),
            seed,
            ..config_with(backend, 2, false)
        };
        let ha = serve("127.0.0.1:0", cfg(1)).unwrap();
        let hb = serve("127.0.0.1:0", cfg(1)).unwrap();
        let mut a = Client::connect(ha.addr()).unwrap();
        let mut b = Client::connect(hb.addr()).unwrap();
        // Grow the two servers on disjoint streams.
        a.object_id(0).batch(&[(7, 2), (9, 5)]).unwrap();
        b.object_id(0).batch(&[(7, 3)]).unwrap();
        for x in 0..200u64 {
            a.object_id(1).update(x, 1).unwrap();
        }
        for x in 150..300u64 {
            b.object_id(1).update(x, 1).unwrap();
        }
        a.object_id(3).update(17, 1).unwrap();
        b.object_id(3).update(40, 1).unwrap();
        // Absorb every one of A's objects into B: afterward B answers
        // for the union of the two streams.
        for id in 0..4u32 {
            let snap = a.object_id(id).snapshot().unwrap();
            let observed = match id {
                0 => 7,
                1 => 200,
                2 => 0,
                _ => 1,
            };
            b.push_state(id, observed, snap.state).unwrap();
        }
        let env = freq(&mut b, 7);
        assert!(
            env.estimate >= 5,
            "union estimate {} < true 5",
            env.estimate
        );
        assert_eq!(env.stream_len, 10, "absorb credits the pushed weight");
        match b.object_id(1).query(0).unwrap() {
            crate::ErrorEnvelope::Cardinality {
                estimate, observed, ..
            } => {
                assert!(
                    (estimate - 300.0).abs() / 300.0 < 0.15,
                    "union cardinality {estimate} far from 300"
                );
                assert_eq!(observed, 350, "150 own updates plus 200 pushed");
            }
            other => panic!("wanted cardinality envelope, got {other:?}"),
        }
        match b.object_id(3).query(0).unwrap() {
            crate::ErrorEnvelope::Minimum { minimum, .. } => {
                assert_eq!(minimum, 17, "absorb joins the peer's minimum");
            }
            other => panic!("wanted minimum envelope, got {other:?}"),
        }
        let stats = b.stats().unwrap();
        assert_eq!(stats.absorbs, 4);
        assert_eq!(stats.updates, 152, "absorbs must not count as updates");

        // A peer grown from different coins is refused with a typed
        // merge-mismatch, not merged into nonsense.
        let hc = serve("127.0.0.1:0", cfg(2)).unwrap();
        let mut c = Client::connect(hc.addr()).unwrap();
        c.object_id(0).update(7, 1).unwrap();
        let alien = c.object_id(0).snapshot().unwrap();
        let err = b.push_state(0, 1, alien.state).unwrap_err();
        assert!(
            matches!(
                &err,
                crate::client::ClientError::Server {
                    code: ErrorCode::MergeMismatch,
                    ..
                }
            ),
            "expected merge-mismatch, got {err:?}"
        );
        // So is a state of the wrong kind entirely.
        let err = b
            .push_state(1, 0, SnapshotState::Morris { exponent: 3 })
            .unwrap_err();
        assert!(
            matches!(
                &err,
                crate::client::ClientError::Server {
                    code: ErrorCode::MergeMismatch,
                    ..
                }
            ),
            "expected kind mismatch, got {err:?}"
        );
        // And an unknown object id stays unknown-object.
        let err = b
            .push_state(9, 0, SnapshotState::Morris { exponent: 3 })
            .unwrap_err();
        assert!(matches!(
            &err,
            crate::client::ClientError::Server {
                code: ErrorCode::UnknownObject,
                ..
            }
        ));
        let stats = b.stats().unwrap();
        assert_eq!(stats.absorbs, 4, "refused pushes are not absorbed");
        drop((a, b, c));
        ha.join();
        hb.join();
        hc.join();
    }

    #[test]
    fn push_state_absorbs_a_peer_snapshot_threaded() {
        push_state_absorbs_a_peer_snapshot(Backend::Threaded);
    }

    #[test]
    fn push_state_absorbs_a_peer_snapshot_event_loop() {
        push_state_absorbs_a_peer_snapshot(Backend::EventLoop);
    }

    /// A peer that writes its last request and closes its write side
    /// at once. On an established, idle connection the request and the
    /// EOF can reach the event loop in one wakeup, and an EOF queued
    /// behind data raises no edge of its own: the request must still be
    /// answered and the connection reaped (the server closes in turn),
    /// not left open forever.
    fn write_then_close_peer_is_answered_and_reaped(backend: Backend) {
        let h = serve("127.0.0.1:0", config_with(backend, 1, false)).unwrap();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let next_reply = |s: &mut TcpStream| {
            protocol::read_frame(s, protocol::DEFAULT_MAX_FRAME_LEN)
                .expect("a reply or a close, not a timeout")
                .map(|payload| Response::decode(&payload).unwrap())
        };
        // A full round trip first, so the server has registered the
        // socket and drained it before the last request arrives.
        let mut buf = Vec::new();
        Request::Query { object: 0, key: 1 }.encode(&mut buf);
        s.write_all(&buf).unwrap();
        assert!(matches!(next_reply(&mut s), Some(Response::Envelope(_))));
        // Keep the (single) serving thread busy on another connection
        // while the request and the EOF arrive, so that one wakeup
        // finds both.
        let mut busy = TcpStream::connect(h.addr()).unwrap();
        let mut burst = Vec::new();
        let items: Vec<(u64, u64)> = (0..protocol::MAX_BATCH_ITEMS as u64)
            .map(|k| (k, 1))
            .collect();
        for _ in 0..32 {
            protocol::encode_batch(&mut burst, 0, &items);
        }
        busy.write_all(&burst).unwrap();
        s.write_all(&buf).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        assert!(matches!(next_reply(&mut s), Some(Response::Envelope(_))));
        assert_eq!(next_reply(&mut s), None, "the server hangs up in turn");
        drop((s, busy));
        let joined = h.join();
        assert_eq!((joined.stats.queries, joined.stats.active), (2, 0));
    }

    #[test]
    fn write_then_close_peer_is_answered_and_reaped_threaded() {
        write_then_close_peer_is_answered_and_reaped(Backend::Threaded);
    }

    #[test]
    fn write_then_close_peer_is_answered_and_reaped_event_loop() {
        write_then_close_peer_is_answered_and_reaped(Backend::EventLoop);
    }

    #[test]
    fn backend_parses_and_displays() {
        assert_eq!("threaded".parse::<Backend>().unwrap(), Backend::Threaded);
        assert_eq!("event-loop".parse::<Backend>().unwrap(), Backend::EventLoop);
        assert_eq!("event_loop".parse::<Backend>().unwrap(), Backend::EventLoop);
        assert!("fibers".parse::<Backend>().is_err());
        assert_eq!(Backend::EventLoop.to_string(), "event-loop");
        assert_eq!(Backend::default(), Backend::Threaded);
    }

    #[test]
    fn event_loop_updates_queries_and_stats_over_the_wire() {
        let h = serve("127.0.0.1:0", config_with(Backend::EventLoop, 2, false)).unwrap();
        let mut c = Client::connect(h.addr()).unwrap();
        assert_eq!(c.object_id(0).update(7, 3).unwrap(), 1);
        assert_eq!(c.object_id(0).batch(&[(7, 2), (9, 5)]).unwrap(), 3);
        let env = freq(&mut c, 7);
        assert!(env.estimate >= 5, "estimate {} < true 5", env.estimate);
        assert_eq!(env.stream_len, 10);
        let stats = c.stats().unwrap();
        assert_eq!(stats.updates, 3);
        assert_eq!(stats.queries, 1);
        // Every write frame is a batch: the single update counts too.
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.stream_len, 10);
        assert!(stats.wakeups > 0, "reactor served without waking?");
        assert!(stats.frames >= 4);
        drop(c);
        let joined = h.join();
        assert_eq!(joined.stats.updates, 3);
    }

    #[test]
    fn event_loop_multiplexes_more_connections_than_reactors() {
        // 2 reactors, 12 concurrent updating clients: every client
        // gets served (no busy — reactors share their lease across
        // connections), and the quiescent totals add up.
        let h = serve("127.0.0.1:0", config_with(Backend::EventLoop, 2, false)).unwrap();
        let addr = h.addr();
        let clients = 12u64;
        let per_client = 50u64;
        let threads: Vec<_> = (0..clients)
            .map(|t| {
                thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    for k in 0..per_client {
                        c.object_id(0).update(t, 1).unwrap();
                        if k % 10 == 0 {
                            let env = freq(&mut c, t);
                            assert!(env.estimate <= env.stream_len);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = h.stats();
        assert_eq!(stats.updates, clients * per_client);
        assert_eq!(stats.stream_len, clients * per_client);
        assert_eq!(stats.accepted, clients);
        assert_eq!(stats.busy_rejections, 0);
        for t in 0..clients {
            let mut c = Client::connect(addr).unwrap();
            assert!(freq(&mut c, t).estimate >= per_client, "key {t}");
        }
        h.join();
    }

    #[test]
    fn event_loop_pipelined_burst_exercises_write_backpressure() {
        // One client pipelines far more queries than the reactor's
        // write watermark holds, reading concurrently: the reactor
        // must pause decoding, flush, resume, and answer every frame
        // in order.
        let h = serve("127.0.0.1:0", config_with(Backend::EventLoop, 1, false)).unwrap();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        let mut reader = s.try_clone().unwrap();
        const BURST: usize = 10_000;
        let writer = thread::spawn(move || {
            let mut buf = Vec::new();
            for key in 0..BURST as u64 {
                buf.clear();
                Request::Query { object: 0, key }.encode(&mut buf);
                s.write_all(&buf).unwrap();
            }
            s // keep the socket open until responses are drained
        });
        for key in 0..BURST as u64 {
            let payload = protocol::read_frame(&mut reader, protocol::DEFAULT_MAX_FRAME_LEN)
                .unwrap()
                .expect("response per request");
            match Response::decode(&payload).unwrap() {
                Response::Envelope(env) => {
                    assert_eq!(env.frequency().unwrap().key, key, "responses in order")
                }
                other => panic!("expected envelope, got {other:?}"),
            }
        }
        drop(writer.join().unwrap());
        drop(reader);
        assert_eq!(h.stats().queries, BURST as u64);
        h.join();
    }

    #[test]
    fn event_loop_malformed_frames_get_protocol_errors_not_closure() {
        let h = serve("127.0.0.1:0", config_with(Backend::EventLoop, 1, false)).unwrap();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        // Unknown opcode in a well-delimited frame.
        s.write_all(&2u32.to_le_bytes()).unwrap();
        s.write_all(&[0x7f, 0x00]).unwrap();
        let payload = protocol::read_frame(&mut s, protocol::DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .unwrap();
        match Response::decode(&payload).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
            other => panic!("expected error, got {other:?}"),
        }
        // The connection survives: a valid request still works.
        let mut buf = Vec::new();
        Request::Query { object: 0, key: 1 }.encode(&mut buf);
        s.write_all(&buf).unwrap();
        let payload = protocol::read_frame(&mut s, protocol::DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .unwrap();
        assert!(matches!(
            Response::decode(&payload).unwrap(),
            Response::Envelope(_)
        ));
        assert_eq!(h.stats().protocol_errors, 1);
        drop(s);
        h.join();
    }

    /// The retired request frames — the object-id-less `UPDATE` 0x01,
    /// `QUERY` 0x02 and `BATCH` 0x03, then `UPDATE2` 0x11 and `SNAPSHOT`
    /// 0x14, each sent with its old body — are unassigned bytes now:
    /// each is answered with a typed `Protocol` error, applies nothing,
    /// and leaves the connection serviceable.
    fn retired_request_bytes_get_protocol_errors(backend: Backend) {
        let h = serve("127.0.0.1:0", config_with(backend, 1, false)).unwrap();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        let read_response = |s: &mut TcpStream| {
            let payload = protocol::read_frame(s, protocol::DEFAULT_MAX_FRAME_LEN)
                .unwrap()
                .unwrap();
            Response::decode(&payload).unwrap()
        };
        let key_weight = [7u64.to_le_bytes(), 3u64.to_le_bytes()].concat();
        let batch = [&1u32.to_le_bytes()[..], &key_weight].concat();
        let object = 0u32.to_le_bytes();
        let update2 = [&object[..], &key_weight].concat();
        for (op, body) in [
            (0x01, &key_weight[..]),
            (0x02, &key_weight[..8]),
            (0x03, &batch),
            (0x11, &update2),
            (0x14, &object[..]),
        ] {
            s.write_all(&(1 + body.len() as u32).to_le_bytes()).unwrap();
            s.write_all(&[op]).unwrap();
            s.write_all(body).unwrap();
            match read_response(&mut s) {
                Response::Error { code, message } => {
                    assert_eq!(code, ErrorCode::Protocol);
                    assert!(message.contains(&format!("0x{op:02x}")), "{message}");
                }
                other => panic!("{backend}: byte {op:#04x} answered {other:?}"),
            }
        }
        let mut buf = Vec::new();
        Request::Query { object: 0, key: 7 }.encode(&mut buf);
        s.write_all(&buf).unwrap();
        match read_response(&mut s) {
            Response::Envelope(env) => assert_eq!(env.observed(), 0, "nothing was applied"),
            other => panic!("{backend}: QUERY2 answered {other:?}"),
        }
        let stats = h.stats();
        assert_eq!((stats.protocol_errors, stats.updates), (5, 0));
        drop(s);
        h.join();
    }

    #[test]
    fn retired_request_bytes_get_protocol_errors_threaded() {
        retired_request_bytes_get_protocol_errors(Backend::Threaded);
    }

    #[test]
    fn retired_request_bytes_get_protocol_errors_event_loop() {
        retired_request_bytes_get_protocol_errors(Backend::EventLoop);
    }

    /// Client-chosen weights reach every add on the served CountMin
    /// path, so a hostile frame must saturate at `u64::MAX` rather than
    /// overflow: the serving thread survives, every frame is acked on
    /// one open connection, and the pinned count reads as the largest
    /// representable one.
    fn hostile_weights_saturate(backend: Backend) {
        let probes: [&[&[(u64, u64)]]; 2] = [
            &[&[(1, u64::MAX), (2, 1)]],
            &[&[(1, 1 << 63)], &[(1, 1 << 63)]],
        ];
        for frames in probes {
            let h = serve("127.0.0.1:0", config_with(backend, 2, false)).unwrap();
            let mut c = Client::connect(h.addr()).unwrap();
            for items in frames {
                c.object_id(0)
                    .batch(items)
                    .unwrap_or_else(|e| panic!("{backend}: {items:?} answered {e}"));
            }
            let env = freq(&mut c, 1);
            assert_eq!(env.estimate, u64::MAX, "{backend}: {frames:?}");
            assert!(env.covers(u64::MAX, u64::MAX), "{backend}: {env:?}");
            drop(c);
            h.join();
        }
        // The server-wide stream length sums every object's observed
        // weight, so one saturated CountMin beside an HLL saturates it
        // too. Read in-process first: an overflow there fails this
        // thread instead of a serving one.
        let config = ServerConfig {
            objects: vec![
                ObjectConfig::new("cm", ObjectKind::CountMin),
                ObjectConfig::new("hll", ObjectKind::Hll),
            ],
            ..config_with(backend, 1, false)
        };
        let h = serve("127.0.0.1:0", config).unwrap();
        let mut c = Client::connect(h.addr()).unwrap();
        c.object_id(0).batch(&[(1, u64::MAX)]).unwrap();
        c.object_id(1).batch(&[(7, 1)]).unwrap();
        assert_eq!(h.stats().stream_len, u64::MAX, "{backend}");
        assert_eq!(c.stats().unwrap().stream_len, u64::MAX, "{backend}");
        for _ in 0..2 {
            c.object_id(1).batch(&[(7, 1 << 63)]).unwrap();
        }
        let observed = c.object_id(1).query(7).unwrap().observed();
        assert_eq!(observed, u64::MAX, "{backend}: HLL observed");
        drop(c);
        h.join();
    }

    #[test]
    fn hostile_weights_saturate_threaded() {
        hostile_weights_saturate(Backend::Threaded);
    }

    #[test]
    fn hostile_weights_saturate_event_loop() {
        hostile_weights_saturate(Backend::EventLoop);
    }

    #[test]
    fn event_loop_oversized_frame_answers_then_closes() {
        let cfg = ServerConfig {
            max_frame_len: 64,
            ..config_with(Backend::EventLoop, 1, false)
        };
        let h = serve("127.0.0.1:0", cfg).unwrap();
        let mut s = TcpStream::connect(h.addr()).unwrap();
        s.write_all(&1_000u32.to_le_bytes()).unwrap();
        let payload = protocol::read_frame(&mut s, protocol::DEFAULT_MAX_FRAME_LEN)
            .unwrap()
            .unwrap();
        match Response::decode(&payload).unwrap() {
            Response::Error { code, .. } => assert_eq!(code, ErrorCode::Protocol),
            other => panic!("expected error, got {other:?}"),
        }
        // The server half-closed after the error: reads hit EOF.
        assert_eq!(
            protocol::read_frame(&mut s, protocol::DEFAULT_MAX_FRAME_LEN).unwrap(),
            None
        );
        drop(s);
        h.join();
    }

    #[test]
    fn event_loop_shutdown_frame_drains_and_join_returns_history() {
        let h = serve("127.0.0.1:0", config_with(Backend::EventLoop, 2, true)).unwrap();
        let mut c = Client::connect(h.addr()).unwrap();
        c.object_id(0).update(3, 4).unwrap();
        freq(&mut c, 3);
        c.shutdown().unwrap();
        drop(c);
        let joined = h.join();
        let spec = joined.registry.cm(0).unwrap().spec();
        let history = joined.history.expect("recording was on");
        let ops = history.operations();
        assert_eq!(ops.iter().filter(|o| o.op.is_update()).count(), 1);
        assert_eq!(ops.iter().filter(|o| !o.op.is_update()).count(), 1);
        assert!(ivl_spec::ivl::check_ivl_monotone(&spec, &history).is_ivl());
    }

    #[test]
    fn event_loop_join_without_connections_returns() {
        let h = serve("127.0.0.1:0", config_with(Backend::EventLoop, 4, false)).unwrap();
        let joined = h.join();
        assert_eq!(joined.stats.accepted, 0);
    }

    #[test]
    fn shutdown_frame_drains_and_join_returns_history() {
        let h = serve("127.0.0.1:0", config(2, true)).unwrap();
        let mut c = Client::connect(h.addr()).unwrap();
        c.object_id(0).update(3, 4).unwrap();
        freq(&mut c, 3);
        c.shutdown().unwrap();
        drop(c);
        let joined = h.join();
        let spec = joined.registry.cm(0).unwrap().spec();
        let history = joined.history.expect("recording was on");
        let ops = history.operations();
        assert_eq!(ops.iter().filter(|o| o.op.is_update()).count(), 1);
        assert_eq!(ops.iter().filter(|o| !o.op.is_update()).count(), 1);
        assert!(ivl_spec::ivl::check_ivl_monotone(&spec, &history).is_ivl());
    }

    #[test]
    fn buffered_envelope_carries_lag_and_auto_flushes() {
        let cfg = ServerConfig {
            write_buffer: 4,
            ..config(2, false)
        };
        let h = serve("127.0.0.1:0", cfg).unwrap();
        let mut c = Client::connect(h.addr()).unwrap();
        for _ in 0..20 {
            c.object_id(0).update(9, 1).unwrap();
        }
        let env = freq(&mut c, 9);
        // lag = shards * b, independent of what is actually pending.
        assert_eq!(env.lag, 8);
        assert_eq!(env.upper_bound(), env.estimate + 8);
        // One writer holds < 4 weight, so at least 17 of 20 are visible.
        assert!(env.estimate >= 17, "estimate {} too stale", env.estimate);
        assert_eq!(env.stream_len, 20, "stream counts acknowledged weight");
        let stats = c.stats().unwrap();
        assert!(
            stats.flushes >= 5,
            "20 updates at b=4: {} flushes",
            stats.flushes
        );
        assert!(stats.buffered_pending < 4);
        drop(c);
        let joined = h.join();
        // Connection close flushed the remainder.
        assert_eq!(joined.stats.buffered_pending, 0);
        assert_eq!(joined.registry.cm(0).unwrap().sketch().estimate(9), 20);
    }

    /// The flush-on-drain guarantee, end to end: a write buffer so
    /// large no auto-flush ever fires, concurrent clients, a graceful
    /// SHUTDOWN — and every acknowledged update is visible in the
    /// drained sketch.
    fn flush_on_drain_loses_nothing(backend: Backend) {
        let cfg = ServerConfig {
            write_buffer: 1 << 40,
            ..config_with(backend, 4, false)
        };
        let h = serve("127.0.0.1:0", cfg).unwrap();
        let addr = h.addr();
        let clients = 4u64;
        let per_client = 25u64;
        let threads: Vec<_> = (0..clients)
            .map(|t| {
                thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    for _ in 0..per_client {
                        c.object_id(0).update(t, 1).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut c = Client::connect(addr).unwrap();
        c.shutdown().unwrap();
        drop(c);
        let joined = h.join();
        assert_eq!(
            joined.stats.buffered_pending, 0,
            "drain must flush every writer buffer"
        );
        assert!(joined.stats.flushes >= 1);
        assert_eq!(
            joined
                .registry
                .cm(0)
                .unwrap()
                .sketch()
                .stream_len_estimate(),
            clients * per_client,
            "acknowledged weight lost through shutdown"
        );
        for t in 0..clients {
            assert!(
                joined.registry.cm(0).unwrap().sketch().estimate(t) >= per_client,
                "key {t}: updates lost through shutdown"
            );
        }
    }

    #[test]
    fn flush_on_drain_loses_nothing_threaded() {
        flush_on_drain_loses_nothing(Backend::Threaded);
    }

    #[test]
    fn flush_on_drain_loses_nothing_event_loop() {
        flush_on_drain_loses_nothing(Backend::EventLoop);
    }
}
