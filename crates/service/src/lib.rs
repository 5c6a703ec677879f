//! `ivl-service`: serving the paper's sketches over a socket, with the
//! paper's guarantee attached to every answer.
//!
//! This crate turns the workspace's concurrent IVL machinery into a
//! small sharded subsystem:
//!
//! * [`objects`] — the served-object layer: an [`ObjectRegistry`] of
//!   named quantitative objects (CountMin, HyperLogLog, Morris,
//!   min-register), each implementing the [`ServedObject`] trait —
//!   its own write path, its own error-envelope form, its own
//!   per-projection IVL verdict.
//! * [`server`] — a TCP server routing requests through the registry,
//!   with two interchangeable backends ([`server::Backend`]):
//!   thread-per-connection blocking I/O, or a hand-rolled epoll event
//!   loop (`shards` reactor threads, edge-triggered nonblocking
//!   sockets, resumable frame decoding, vectored backpressure-aware
//!   writes). Either way each single-writer CountMin shard has
//!   exactly one writing thread, so ingest is plain atomic stores —
//!   no RMW, no lock — and the lease pool doubles as backpressure.
//! * [`protocol`] — a compact length-prefixed binary wire format with
//!   one generation: every object-addressed frame (`QUERY2`/`BATCH2`/
//!   `SNAPSHOT_SINCE`/...) carries an explicit object id, and no
//!   object, id 0 included, is special. `BATCH2` is the one write frame
//!   (an update is a batch of one), and `SNAPSHOT_SINCE` the one state
//!   read: it serializes an object's mergeable state, or its change
//!   since a cached epoch, for the replication layer (`ivl-replica`), and
//!   `PUSH_STATE` carries a peer's state the other way — the absorb
//!   half of replica catch-up (anti-entropy). The protocol only frames
//!   state and envelope bodies: their byte layouts live in `ivl-merge`,
//!   next to the kinds they encode.
//! * Every query answer carries an **IVL error envelope**
//!   ([`ErrorEnvelope`], defined in `ivl-merge` and re-exported here):
//!   for the CountMin, `(estimate, ε, δ, n, lag)` with `ε = α·n`, the
//!   Theorem 6 transfer of the sequential (ε,δ) bound to the
//!   concurrent serving setting; the other kinds carry the bound
//!   shapes their estimators admit.
//! * [`metrics`] — wait-free op counters and `log₂` latency
//!   histograms, themselves read IVL-style by `STATS`, now with
//!   per-object operation rows.
//! * [`wspec`] — the sequential specification of the default served
//!   object (weighted CountMin), so a recorded serving run can be
//!   replayed through [`ivl_spec`]'s IVL checkers.
//! * [`client`] — a blocking client library used by the `ivl_client`
//!   binary and the load generator in `ivl-bench`;
//!   [`Client::object`] resolves a name into an [`ObjectHandle`],
//!   through which every per-object request goes.
//!
//! The point of the subsystem is the paper's thesis made operational:
//! because the backing sketches are IVL (not linearizable — no
//! synchronization on the update path), the server can promise clients
//! a *quantitative* bound instead of an ordering guarantee, and that
//! promise is mechanically checkable: run with
//! [`ServerConfig::record`], then project the returned history per
//! [`ivl_spec::history::ObjectId`] and check each projection against
//! its own spec ([`JoinedServer::verdicts`]) — Theorem 1's locality,
//! operationally.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
mod kinds;
pub mod metrics;
pub mod objects;
pub mod protocol;
pub mod server;
pub mod wspec;

pub use client::{Client, ClientError, ObjectHandle};
// The kind algebra (`ivl-merge`) this service serves over the wire:
// re-exported whole so servers, replicas, and tools name one
// vocabulary for kind-tagged state, envelopes, merging and composing.
pub use ivl_merge::{
    merge_states, ComposeError, Envelope, ErrorEnvelope, MergeError, MergePolicy, MergeableState,
    StatePatch, StateShape,
};
pub use metrics::{Metrics, ObjectStats, StatsReport};
pub use objects::{
    cm_hash_fingerprint, hll_hash_fingerprint, slot_coins, CellRun, DeltaChange, ObjectConfig,
    ObjectInfo, ObjectKind, ObjectRegistry, ObjectSnapshot, ObjectVerdict, Refusal, ServedObject,
    SnapshotDelta, SnapshotState,
};
pub use protocol::{ErrorCode, Request, Response, WireError};
pub use server::{
    serve, serve_source, Backend, JoinedServer, ObjectSource, Recording, ServerConfig, ServerHandle,
};
pub use wspec::WeightedCmSpec;
