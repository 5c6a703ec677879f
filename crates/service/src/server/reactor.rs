//! The event-loop serving backend: a hand-rolled epoll reactor.
//!
//! Layout: `shards` reactor threads and no other, all driven by the
//! vendored [`polling`] shim (edge-triggered epoll + an eventfd waker).
//! Reactor 0 also owns the listener: on each listener edge it accepts
//! until `WouldBlock`, applies the connection-limit gate, and places
//! admitted connection *k* on reactor *k* mod `shards` — its own share
//! it adopts in the same wakeup, the rest it posts to the other
//! reactors' mailboxes. Each reactor owns a slice of connections as
//! explicit state machines: reads go through the resumable
//! [`FrameDecoder`] (so frames split across arbitrary packet
//! boundaries decode incrementally, zero-copy from a reusable ring
//! buffer), writes drain a backpressure-aware queue with vectored
//! writes. On shutdown reactor 0 drops the listener and closes the
//! mailboxes; every reactor then drains its connections and exits.
//!
//! IVL semantics are backend-invariant by construction: every frame
//! goes through [`super::serve_frame`] — the same decode → route →
//! apply step the threaded backend runs — against the same object
//! source. The single-writer shard invariant holds because a reactor
//! thread is the sole owner of its (lazily acquired) per-object
//! writers: where the threaded backend has one CountMin lease per
//! updating connection, the reactor multiplexes all its connections
//! over one lease per CountMin, which is sound for exactly the reason
//! Lemma 7 allows batching — shard cells only ever see single-threaded
//! read-modify-write-back. With write buffering on, the reactor
//! thread is likewise one *writer*: its local update buffer serves
//! all its connections and is flushed before the lease returns at
//! drain, so graceful shutdown loses no acknowledged update.

use super::{protocol_error, reject, serve_frame, ObjectSource, Shared};
use crate::protocol::{self, FrameDecoder, Response};
use ivl_spec::history::ProcessId;
use polling::{Event, PollMode, Poller};
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};

/// Stop decoding a connection's requests once this many response
/// bytes are queued; the flush path resumes it as the queue drains.
/// Reads stop too, so the kernel receive window — not server memory —
/// absorbs a peer that outpaces its reads.
const HIGH_WATERMARK: usize = 256 * 1024;

/// Buffers per vectored write.
const MAX_IOVS: usize = 16;

/// Retired response buffers kept per connection for reuse; beyond
/// this they drop. Matches `MAX_IOVS`, the most buffers one flush can
/// retire at once.
const SPARE_RESPONSES: usize = 16;

/// The listener's key in reactor 0's poller; connection keys start
/// above it.
const LISTENER_KEY: usize = 0;

/// How reactor 0 reaches another reactor.
struct Mailbox {
    poller: Arc<Poller>,
    inbox: Mutex<Inbox>,
}

/// What reactor 0 hands one other reactor.
#[derive(Default)]
struct Inbox {
    /// Admitted sockets with their global connection ids (= recording
    /// `ProcessId`s), not yet adopted.
    streams: Vec<(TcpStream, u32)>,
    /// The listener is gone: no more sockets will arrive.
    closed: bool,
}

/// Reactor 0's accept state, held until shutdown.
struct Acceptor {
    listener: TcpListener,
    /// The other reactors' mailboxes: reactor `k`'s at `k - 1`.
    mailboxes: Vec<Arc<Mailbox>>,
    next_conn: u32,
}

/// What a reactor does besides serving its connections.
enum Role<'m> {
    /// Reactor 0: accepts for everyone until shutdown takes the
    /// acceptor.
    Accept(Option<Acceptor>),
    /// Every other reactor: adopts what reactor 0 posts here.
    Adopt(&'m Mailbox),
}

/// Starts the event-loop backend: reactors 1.. first, then reactor 0
/// with the listener, whose join handle yields the other reactors'
/// handles (the same shape the threaded backend's accept loop returns
/// for its connection threads, so `ServerHandle::join` is
/// backend-agnostic).
pub(super) fn spawn<S: ObjectSource>(
    listener: TcpListener,
    shared: Arc<Shared<S>>,
) -> io::Result<JoinHandle<Vec<JoinHandle<()>>>> {
    listener.set_nonblocking(true)?;
    let poller = Arc::new(Poller::new()?);
    poller.add(&listener, Event::readable(LISTENER_KEY), PollMode::Edge)?;
    shared.register_waker(Arc::clone(&poller));
    let reactors = shared.cfg.shards.max(1);
    let mut mailboxes = Vec::with_capacity(reactors - 1);
    let mut threads = Vec::with_capacity(reactors - 1);
    for id in 1..reactors {
        let mailbox = Arc::new(Mailbox {
            poller: Arc::new(Poller::new()?),
            inbox: Mutex::default(),
        });
        shared.register_waker(Arc::clone(&mailbox.poller));
        let thread_shared = Arc::clone(&shared);
        let thread_mailbox = Arc::clone(&mailbox);
        threads.push(
            thread::Builder::new()
                .name(format!("ivl-reactor-{id}"))
                .spawn(move || {
                    let mailbox = &*thread_mailbox;
                    reactor_loop(&thread_shared, &mailbox.poller, Role::Adopt(mailbox));
                })?,
        );
        mailboxes.push(mailbox);
    }
    let acceptor = Acceptor {
        listener,
        mailboxes,
        next_conn: 0,
    };
    thread::Builder::new()
        .name("ivl-reactor-0".into())
        .spawn(move || {
            reactor_loop(&shared, &poller, Role::Accept(Some(acceptor)));
            threads
        })
}

impl Acceptor {
    /// Accepts until `WouldBlock` (the listener is edge-triggered),
    /// turning connections past the gate away, and places admitted
    /// connection *k* on reactor *k* mod `shards`: reactor 0's own into
    /// `own`, to adopt in this wakeup, the rest into their mailboxes.
    fn accept<S>(&mut self, shared: &Shared<S>, own: &mut Vec<(TcpStream, u32)>) {
        let reactors = self.mailboxes.len() + 1;
        while !shared.shutdown.load(Ordering::Acquire) {
            let stream = match self.listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                    ) =>
                {
                    continue
                }
                // Out of descriptors or memory: retrying now would spin
                // this reactor. The next connection's edge retries.
                Err(_) => return,
            };
            if shared.metrics.active() >= shared.cfg.max_connections {
                reject(stream, shared);
                continue;
            }
            shared.metrics.connection_accepted();
            let conn = self.next_conn;
            self.next_conn = conn.wrapping_add(1);
            match (conn as usize % reactors).checked_sub(1) {
                None => own.push((stream, conn)),
                Some(k) => {
                    let mailbox = &self.mailboxes[k];
                    let mut inbox = mailbox.inbox.lock().expect("reactor inbox");
                    inbox.streams.push((stream, conn));
                    drop(inbox);
                    let _ = mailbox.poller.notify();
                }
            }
        }
    }

    /// Stops accepting: the listener leaves the poller and closes, and
    /// every other reactor learns that its inbox has seen its last
    /// socket.
    fn close(self, poller: &Poller) {
        let _ = poller.delete(&self.listener);
        drop(self.listener);
        for mailbox in &self.mailboxes {
            mailbox.inbox.lock().expect("reactor inbox").closed = true;
            let _ = mailbox.poller.notify();
        }
    }
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Encoded responses awaiting the socket, oldest first.
    outbox: VecDeque<Vec<u8>>,
    /// Bytes of `outbox.front()` already written.
    cursor: usize,
    /// Total queued bytes (the backpressure watermark input).
    queued: usize,
    /// Cumulative applied updates (the `ACK` payload).
    applied: u64,
    process: ProcessId,
    /// Edge-triggered read readiness: set by an event, cleared when a
    /// read comes back short or `WouldBlock`.
    read_ready: bool,
    /// Some wakeup carried a hang-up or error: an EOF (or the error) is
    /// queued behind the data and will raise no further edge, so reads
    /// go on until they return it.
    hangup: bool,
    /// Edge-triggered write readiness, same discipline.
    write_ready: bool,
    /// Whether the poller registration currently includes writable
    /// interest. Kept readable-only while the outbox is empty: a
    /// request/response server's sockets are writable almost always,
    /// so standing writable interest turns every peer ACK into a
    /// spurious edge wakeup; interest is added only after a write
    /// actually blocks with bytes still queued.
    write_interest: bool,
    /// The peer's write side reached EOF.
    peer_closed: bool,
    /// Stop decoding requests; close once the outbox flushes.
    closing: bool,
    /// Our write side is shut down; discarding peer bytes until EOF
    /// so the final frames are not clobbered by a reset.
    draining: bool,
    /// Retired response buffers (cleared, capacity kept): a
    /// steady-state request/response exchange reuses these instead of
    /// allocating a fresh outbox buffer per response.
    spare: Vec<Vec<u8>>,
}

impl Conn {
    fn new(stream: TcpStream, conn: u32, max_frame_len: u32) -> Self {
        Conn {
            stream,
            decoder: FrameDecoder::new(max_frame_len),
            outbox: VecDeque::new(),
            cursor: 0,
            queued: 0,
            applied: 0,
            process: ProcessId(conn),
            // Bytes (or EOF) may predate registration; the first pump
            // probes both directions and lets `WouldBlock` say no.
            read_ready: true,
            hangup: false,
            write_ready: true,
            write_interest: false,
            peer_closed: false,
            closing: false,
            draining: false,
            spare: Vec::new(),
        }
    }

    fn enqueue(&mut self, rsp: &Response) {
        let mut buf = self.spare.pop().unwrap_or_default();
        rsp.encode(&mut buf);
        self.queued += buf.len();
        self.outbox.push_back(buf);
    }

    /// Vectored write until the outbox empties or the socket blocks;
    /// returns whether any bytes moved. The iovec array lives on the
    /// stack ([`IoSlice`] is `Copy`), so flushing allocates nothing.
    fn flush(&mut self) -> io::Result<bool> {
        const EMPTY: &[u8] = &[];
        let mut wrote = false;
        while !self.outbox.is_empty() && self.write_ready {
            let mut iovs = [IoSlice::new(EMPTY); MAX_IOVS];
            let mut n_iovs = 0;
            for (i, buf) in self.outbox.iter().take(MAX_IOVS).enumerate() {
                let skip = if i == 0 { self.cursor } else { 0 };
                iovs[i] = IoSlice::new(&buf[skip..]);
                n_iovs = i + 1;
            }
            match self.stream.write_vectored(&iovs[..n_iovs]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.consume(n);
                    wrote = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => self.write_ready = false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(wrote)
    }

    /// Advances the outbox cursor past `n` written bytes, retiring
    /// fully written buffers into the spare pool for reuse.
    fn consume(&mut self, mut n: usize) {
        self.queued -= n;
        while n > 0 {
            let front_left = self
                .outbox
                .front()
                .expect("written bytes were queued")
                .len()
                - self.cursor;
            if n >= front_left {
                n -= front_left;
                self.cursor = 0;
                let mut buf = self.outbox.pop_front().expect("front exists");
                if self.spare.len() < SPARE_RESPONSES {
                    buf.clear();
                    self.spare.push(buf);
                }
            } else {
                self.cursor += n;
                n = 0;
            }
        }
    }
}

/// One reactor: takes in new connections (reactor 0 from the listener,
/// the others from their mailboxes), then runs each ready connection's
/// state machine until it makes no further progress.
fn reactor_loop<S: ObjectSource>(shared: &Shared<S>, poller: &Poller, mut role: Role<'_>) {
    // The reactor's writer state: one lazily created writer per
    // registered object (for the CountMin, a shard lease plus the
    // local update buffer when write buffering is on) — held until
    // the reactor drains.
    let mut writer = shared.source.writers(&shared.metrics);
    // Shared across this reactor's connections: the batch-frame fast
    // path decodes into it, one frame at a time.
    let mut items = Vec::new();
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_key = LISTENER_KEY + 1;
    let mut events: Vec<Event> = Vec::new();
    let mut run: Vec<usize> = Vec::new();
    let mut adopted: Vec<(TcpStream, u32)> = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            // Reactor 0 stops accepting first; any other reactor waits
            // until it has, so no socket is posted to a reactor gone.
            let accepting = match &mut role {
                Role::Accept(acceptor) => {
                    if let Some(acceptor) = acceptor.take() {
                        acceptor.close(poller);
                    }
                    false
                }
                Role::Adopt(mailbox) => {
                    let inbox = mailbox.inbox.lock().expect("reactor inbox");
                    !inbox.closed || !inbox.streams.is_empty()
                }
            };
            if !accepting && conns.is_empty() {
                break;
            }
        }
        events.clear();
        let ready = match poller.wait(&mut events, None) {
            Ok(n) => n,
            Err(_) => break,
        };
        shared.metrics.record_wakeup(ready as u64);
        run.clear();
        let mut listener_ready = false;
        for ev in &events {
            if let Some(conn) = conns.get_mut(&ev.key) {
                if ev.readable {
                    conn.read_ready = true;
                }
                conn.hangup |= ev.hangup;
                if ev.writable {
                    conn.write_ready = true;
                }
                run.push(ev.key);
            } else if ev.key == LISTENER_KEY {
                listener_ready = true;
            }
        }
        match &mut role {
            Role::Accept(Some(acceptor)) if listener_ready => acceptor.accept(shared, &mut adopted),
            Role::Accept(_) => {}
            Role::Adopt(mailbox) => {
                adopted.append(&mut mailbox.inbox.lock().expect("reactor inbox").streams);
            }
        }
        for (stream, conn) in adopted.drain(..) {
            let key = next_key;
            next_key += 1;
            if stream.set_nonblocking(true).is_err()
                || poller
                    .add(&stream, Event::readable(key), PollMode::Edge)
                    .is_err()
            {
                shared.metrics.connection_closed();
                continue;
            }
            let _ = stream.set_nodelay(true);
            conns.insert(key, Conn::new(stream, conn, shared.cfg.max_frame_len));
            run.push(key);
        }
        for &key in &run {
            let alive = match conns.get_mut(&key) {
                Some(conn) => pump(shared, &mut writer, &mut items, conn),
                None => continue,
            };
            if !alive {
                let conn = conns.remove(&key).expect("pumped above");
                let _ = poller.delete(&conn.stream);
                shared.metrics.connection_closed();
                continue;
            }
            // Writable interest tracks the outbox: subscribe when a
            // blocked write left bytes queued (an edge will resume
            // the flush), drop back to readable-only once drained.
            // `EPOLL_CTL_MOD` re-arms, so readiness gained between
            // the failed write and this modify is still delivered.
            let conn = conns.get_mut(&key).expect("alive above");
            let want = !conn.outbox.is_empty() && !conn.write_ready;
            if want != conn.write_interest {
                conn.write_interest = want;
                let interest = if want {
                    Event::all(key)
                } else {
                    Event::readable(key)
                };
                let _ = poller.modify(&conn.stream, interest, PollMode::Edge);
            }
        }
    }
    // Left by a failed wait with the listener open: the other reactors
    // must still learn that nothing more will arrive.
    if let Role::Accept(Some(acceptor)) = role {
        acceptor.close(poller);
    }
    // Flush any buffered updates, then return the leases to their
    // pools — the event-loop half of the flush-on-drain guarantee.
    shared.release(&mut writer);
}

/// Drives one connection until it makes no further progress; returns
/// whether it stays alive. The cycle is flush → decode/execute →
/// read, repeated, so a response generated this pass still reaches
/// the wire this pass when the socket allows.
fn pump<'a, S: ObjectSource>(
    shared: &'a Shared<S>,
    writer: &mut S::Writers<'a>,
    items: &mut Vec<(u64, u64)>,
    conn: &mut Conn,
) -> bool {
    loop {
        let mut progressed = match conn.flush() {
            Ok(wrote) => wrote,
            Err(_) => return false,
        };
        // Decode and execute buffered frames while under the write
        // watermark.
        while !conn.closing && conn.queued < HIGH_WATERMARK {
            let (response, close) = match conn.decoder.next_frame() {
                Ok(Some(payload)) => serve_frame(
                    shared,
                    writer,
                    items,
                    &mut conn.applied,
                    conn.process,
                    payload,
                ),
                Ok(None) => break,
                // Oversized or empty prefix: the stream cannot be
                // resynchronized. Report and close, exactly like the
                // threaded backend.
                Err(e) => (protocol_error(shared, e), true),
            };
            conn.enqueue(&response);
            conn.closing = close;
            progressed = true;
        }
        // Pull more bytes when the watermark allows.
        if !conn.closing && !conn.peer_closed && conn.read_ready && conn.queued < HIGH_WATERMARK {
            match conn.decoder.read_from(&mut conn.stream) {
                Ok(0) => {
                    conn.peer_closed = true;
                    conn.read_ready = false;
                    progressed = true;
                }
                Ok(n) => {
                    progressed = true;
                    // A short read emptied the receive queue (epoll(7)),
                    // and later bytes raise a new edge: skip the read
                    // that could only return `WouldBlock`.
                    conn.read_ready = conn.hangup || n >= protocol::READ_CHUNK;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => conn.read_ready = false,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => progressed = true,
                Err(_) => return false,
            }
        }
        // After a server-initiated half-close, discard peer bytes
        // until its EOF confirms the final frames were received.
        if conn.draining && conn.read_ready && !conn.peer_closed {
            let mut sink = [0u8; 4096];
            loop {
                match conn.stream.read(&mut sink) {
                    Ok(0) => {
                        conn.peer_closed = true;
                        break;
                    }
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        conn.read_ready = false;
                        break;
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return false,
                }
            }
        }
        if !progressed {
            break;
        }
    }
    if conn.closing && conn.outbox.is_empty() && !conn.draining {
        // Everything (including the final GOODBYE or protocol error)
        // is on the wire: half-close and wait for the peer's EOF.
        let _ = conn.stream.shutdown(Shutdown::Write);
        conn.draining = true;
    }
    !(conn.peer_closed && conn.outbox.is_empty())
}
