//! The system under test, as the workloads see it.
//!
//! Everything the load generator needs from the repo goes through this
//! file: boot a server from a config, open a client, open a replica
//! group, read stats, judge a history. The offline layer replay in
//! `layers.rs` is the only other file that names an `ivl_*` crate (a
//! self-test pins that), so a PR that changes a public API has these
//! two files' worth of calls to keep stable and nothing else.
//!
//! Public surface used here:
//! `ivl_service::{serve, ServerConfig, Backend, ServerHandle::{addr, stats, join}}`,
//! `ivl_service::objects::{ObjectConfig, ObjectKind}`,
//! `ivl_service::{Client::{connect, objects, object_id, wire_bytes}, ObjectHandle::{batch, query, snapshot_since}}`,
//! `ivl_service::{ClientError, ErrorCode, ErrorEnvelope, Envelope::covers}`,
//! `ivl_replica::{ReplicaGroup::{new, len, objects, route, batch, query, delta_stats, catchup_stats}, ReplicaMode, ReplicaError}`,
//! `ivl_spec::{HistoryBuilder, ObjectId, ProcessId, specs::BatchedCounterSpec, check_ivl_monotone}`.

use ivl_replica::{ReplicaError, ReplicaGroup, ReplicaMode};
use ivl_service::objects::{ObjectConfig, ObjectKind};
use ivl_service::{
    serve, Backend, Client, ClientError, ErrorCode, ErrorEnvelope, ServerConfig, ServerHandle,
};
use ivl_spec::history::{HistoryBuilder, ObjectId, ProcessId};
use ivl_spec::ivl::check_ivl_monotone;
use ivl_spec::specs::BatchedCounterSpec;
use std::fmt;

/// The largest update frame the wire accepts.
pub const MAX_FRAME_ITEMS: usize = ivl_service::protocol::MAX_BATCH_ITEMS as usize;

/// The coin seed every server and replica group of the benchmark
/// shares. It fixes the sketches' hash functions; the benchmark's
/// `--seed` varies the traffic, not the system.
pub const COIN_SEED: u64 = 1;

/// The served object kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    CountMin,
    Hll,
    Morris,
    Min,
}

/// Which serving backend runs the connections.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendChoice {
    EventLoop,
    Threaded,
}

impl BackendChoice {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "event-loop" => Some(BackendChoice::EventLoop),
            "threaded" => Some(BackendChoice::Threaded),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::EventLoop => "event-loop",
            BackendChoice::Threaded => "threaded",
        }
    }
}

/// One server's configuration: the part of `ServerConfig` a workload
/// chooses. Object 0 is always the CountMin.
#[derive(Clone, Debug)]
pub struct ServerSpec {
    pub backend: BackendChoice,
    pub shards: usize,
    pub alpha: f64,
    pub delta: f64,
    pub objects: Vec<(&'static str, Kind)>,
}

impl ServerSpec {
    /// The roster as the repo's registry takes it.
    pub fn object_configs(&self) -> Vec<ObjectConfig> {
        self.objects
            .iter()
            .map(|&(name, kind)| {
                let kind = match kind {
                    Kind::CountMin => ObjectKind::CountMin,
                    Kind::Hll => ObjectKind::Hll,
                    Kind::Morris => ObjectKind::Morris,
                    Kind::Min => ObjectKind::MinRegister,
                };
                ObjectConfig::new(name, kind)
            })
            .collect()
    }
}

/// The counters of `ServerHandle::stats()` the ledger reads.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    pub frames: u64,
    pub wakeups: u64,
    pub ready_peak: u64,
    pub busy_rejections: u64,
    pub stream_len: u64,
    /// Log2-bucketed, so a power of two.
    pub update_p50_ns: u64,
    /// Log2-bucketed, so a power of two.
    pub query_p50_ns: u64,
}

/// A running in-process server on an ephemeral loopback port. Dropping
/// it shuts the server down and joins its threads, on failure paths
/// too; every client must be closed first, because the drain waits for
/// their EOF.
pub struct Server(Option<ServerHandle>);

impl Server {
    pub fn boot(spec: &ServerSpec) -> Result<Server, String> {
        let cfg = ServerConfig {
            backend: match spec.backend {
                BackendChoice::EventLoop => Backend::EventLoop,
                BackendChoice::Threaded => Backend::Threaded,
            },
            shards: spec.shards,
            alpha: spec.alpha,
            delta: spec.delta,
            seed: COIN_SEED,
            write_buffer: 0,
            objects: spec.object_configs(),
            ..ServerConfig::default()
        };
        serve("127.0.0.1:0", cfg)
            .map(|handle| Server(Some(handle)))
            .map_err(|e| format!("cannot boot server: {e}"))
    }

    fn handle(&self) -> &ServerHandle {
        self.0.as_ref().expect("present until drop")
    }

    pub fn addr(&self) -> String {
        self.handle().addr().to_string()
    }

    pub fn stats(&self) -> ServerStats {
        let s = self.handle().stats();
        ServerStats {
            frames: s.frames,
            wakeups: s.wakeups,
            ready_peak: s.ready_peak,
            busy_rejections: s.busy_rejections,
            stream_len: s.stream_len,
            update_p50_ns: s.update_p50_ns,
            query_p50_ns: s.query_p50_ns,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(handle) = self.0.take() {
            handle.join();
        }
    }
}

/// Why a call did not return an answer.
#[derive(Debug)]
pub enum CallError {
    /// The server refused with `busy` (shard budget); safe to retry.
    Busy,
    /// Anything else: an I/O error, a protocol error, an unreachable
    /// replica.
    Other(String),
}

impl fmt::Display for CallError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CallError::Busy => f.write_str("busy"),
            CallError::Other(e) => f.write_str(e),
        }
    }
}

impl From<ClientError> for CallError {
    fn from(e: ClientError) -> Self {
        match e {
            ClientError::Server {
                code: ErrorCode::Busy,
                ..
            } => CallError::Busy,
            other => CallError::Other(other.to_string()),
        }
    }
}

impl From<ReplicaError> for CallError {
    fn from(e: ReplicaError) -> Self {
        match e {
            ReplicaError::Client(c) => c.into(),
            other => CallError::Other(other.to_string()),
        }
    }
}

/// The frequency part of an answer: the Theorem 6 envelope.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Freq {
    pub estimate: u64,
    pub epsilon: u64,
    pub lag: u64,
    pub stream_len: u64,
    pub delta: f64,
}

impl Freq {
    /// `Envelope::covers(f, f)` split into its two sides: the estimate
    /// never undercounts beyond `lag` (deterministic), and overcounts
    /// by at most `epsilon` (with probability `1 - delta`).
    pub fn sides(&self, f: u64) -> (bool, bool) {
        (
            f <= self.estimate + self.lag,
            self.estimate <= f + self.epsilon,
        )
    }

    /// `(epsilon + lag) / stream_len`, the relative envelope width.
    pub fn width_rel(&self) -> Option<f64> {
        (self.stream_len > 0).then(|| (self.epsilon + self.lag) as f64 / self.stream_len as f64)
    }
}

/// What a query returned, reduced to what the benchmark checks.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    /// Acknowledged update weight the object reports.
    pub observed: u64,
    /// The frequency envelope, for CountMin answers.
    pub freq: Option<Freq>,
    /// Merged reads only: the acknowledged weight each replica
    /// contributed (`None` = that replica had nothing to give).
    pub parts: Vec<Option<u64>>,
}

fn answer(env: &ErrorEnvelope, parts: Vec<Option<u64>>) -> Answer {
    Answer {
        observed: env.observed(),
        freq: env.frequency().map(|e| Freq {
            estimate: e.estimate,
            epsilon: e.epsilon,
            lag: e.lag,
            stream_len: e.stream_len,
            delta: e.delta,
        }),
        parts,
    }
}

/// Something updates and queries can be sent to: one server through a
/// [`Direct`] connection, or a replica group through a [`Group`].
pub trait Target {
    /// Span name of an update call, after the public function it wraps.
    const WRITE_SPAN: &'static str;
    /// Span name of a query call.
    const READ_SPAN: &'static str;

    /// Opens a target over the servers at `addrs`.
    fn open(addrs: &[String]) -> Result<Self, CallError>
    where
        Self: Sized;
    /// The object roster's length (one round trip).
    fn roster(&mut self) -> Result<usize, CallError>;
    /// How the weight of `items` spreads over the servers behind this
    /// target: one entry per server, in address order.
    fn split(&self, items: &[(u64, u64)]) -> Vec<u64>;
    /// Cumulative wire and merged-read counters.
    fn counters(&self) -> Counters;
    fn write(&mut self, object: u32, items: &[(u64, u64)]) -> Result<(), CallError>;
    fn read(&mut self, object: u32, key: u64) -> Result<Answer, CallError>;
}

/// What a target has moved so far: `Client::wire_bytes` for a direct
/// connection, merged-read accounting (`delta_stats`, `catchup_stats`)
/// for a group, zero for the fields of the other kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub bytes_out: u64,
    pub bytes_in: u64,
    /// Snapshot round trips a group made, and how they were answered.
    pub snapshot_reads: u64,
    pub unchanged: u64,
    pub deltas: u64,
    pub fulls: u64,
    pub snapshot_bytes_out: u64,
    pub snapshot_bytes_in: u64,
    pub catchup_pushed: u64,
}

impl Counters {
    fn zip(self, o: Counters, f: impl Fn(u64, u64) -> u64) -> Counters {
        Counters {
            bytes_out: f(self.bytes_out, o.bytes_out),
            bytes_in: f(self.bytes_in, o.bytes_in),
            snapshot_reads: f(self.snapshot_reads, o.snapshot_reads),
            unchanged: f(self.unchanged, o.unchanged),
            deltas: f(self.deltas, o.deltas),
            fulls: f(self.fulls, o.fulls),
            snapshot_bytes_out: f(self.snapshot_bytes_out, o.snapshot_bytes_out),
            snapshot_bytes_in: f(self.snapshot_bytes_in, o.snapshot_bytes_in),
            catchup_pushed: f(self.catchup_pushed, o.catchup_pushed),
        }
    }

    /// Field-wise sum.
    pub fn plus(self, o: Counters) -> Counters {
        self.zip(o, |a, b| a + b)
    }

    /// What moved since `before` was read.
    pub fn since(self, before: Counters) -> Counters {
        self.zip(before, |a, b| a - b)
    }
}

/// One client connection to one server (the first address).
pub struct Direct(Client);

impl Direct {
    /// One `SNAPSHOT_SINCE` round trip; returns the epoch to use as the
    /// next base.
    pub fn snapshot_since(&mut self, object: u32, base_epoch: u64) -> Result<u64, CallError> {
        Ok(self.0.object_id(object).snapshot_since(base_epoch)?.epoch)
    }
}

impl Target for Direct {
    const WRITE_SPAN: &'static str = "service.client.batch";
    const READ_SPAN: &'static str = "service.client.query";

    fn open(addrs: &[String]) -> Result<Direct, CallError> {
        Ok(Direct(Client::connect(addrs[0].as_str())?))
    }

    fn split(&self, items: &[(u64, u64)]) -> Vec<u64> {
        vec![items.iter().map(|&(_, w)| w).sum()]
    }

    fn counters(&self) -> Counters {
        let (bytes_out, bytes_in) = self.0.wire_bytes();
        Counters {
            bytes_out,
            bytes_in,
            ..Counters::default()
        }
    }

    fn roster(&mut self) -> Result<usize, CallError> {
        Ok(self.0.objects()?.len())
    }

    fn write(&mut self, object: u32, items: &[(u64, u64)]) -> Result<(), CallError> {
        self.0.object_id(object).batch(items)?;
        Ok(())
    }

    fn read(&mut self, object: u32, key: u64) -> Result<Answer, CallError> {
        let env = self.0.object_id(object).query(key)?;
        Ok(answer(&env, Vec::new()))
    }
}

/// A partition-mode replica group over the given servers.
pub struct Group(ReplicaGroup);

impl Target for Group {
    const WRITE_SPAN: &'static str = "replica.batch";
    const READ_SPAN: &'static str = "replica.query";

    fn open(addrs: &[String]) -> Result<Group, CallError> {
        ReplicaGroup::new(addrs.to_vec(), ReplicaMode::Partition, COIN_SEED)
            .map(Group)
            .map_err(Into::into)
    }

    fn split(&self, items: &[(u64, u64)]) -> Vec<u64> {
        let mut out = vec![0; self.0.len()];
        for &(key, weight) in items {
            out[self.0.route(key)] += weight;
        }
        out
    }

    fn counters(&self) -> Counters {
        let d = self.0.delta_stats();
        Counters {
            snapshot_reads: d.reads,
            unchanged: d.unchanged,
            deltas: d.deltas,
            fulls: d.fulls,
            snapshot_bytes_out: d.bytes_out,
            snapshot_bytes_in: d.bytes_in,
            catchup_pushed: self.0.catchup_stats().pushed,
            ..Counters::default()
        }
    }

    fn roster(&mut self) -> Result<usize, CallError> {
        Ok(self.0.objects()?.len())
    }

    fn write(&mut self, object: u32, items: &[(u64, u64)]) -> Result<(), CallError> {
        self.0.batch(object, items)?;
        Ok(())
    }

    fn read(&mut self, object: u32, key: u64) -> Result<Answer, CallError> {
        let read = self.0.query(object, key)?;
        if read.reached != read.total {
            return Err(CallError::Other(format!(
                "merged read reached {} of {} replicas",
                read.reached, read.total
            )));
        }
        Ok(answer(&read.envelope, read.parts))
    }
}

/// One completed operation of a client-side counter history: an update
/// adds `value` weight, a query returned `value` observed weight.
#[derive(Clone, Copy, Debug)]
pub struct HistoryOp {
    pub process: u32,
    pub is_update: bool,
    pub start_ns: u64,
    pub end_ns: u64,
    pub value: u64,
}

/// Whether a single-object counter history is IVL by the monotone
/// interval checker (`ivl_spec::ivl::check_ivl_monotone` against the
/// batched-counter spec). Operations of one process must not overlap.
/// Events are ordered by timestamp with invocations before responses on
/// a tie, which can only widen an operation's window — the direction
/// that keeps the verdict sound.
pub fn counter_history_is_ivl(ops: &[HistoryOp]) -> bool {
    // (time, is_response, op index)
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(ops.len() * 2);
    for (i, op) in ops.iter().enumerate() {
        events.push((op.start_ns, false, i));
        events.push((op.end_ns.max(op.start_ns), true, i));
    }
    events.sort_unstable();
    let mut builder = HistoryBuilder::<u64, (), u64>::new();
    let mut ids = vec![None; ops.len()];
    for (_, is_response, i) in events {
        let op = &ops[i];
        if !is_response {
            let process = ProcessId(op.process);
            ids[i] = Some(if op.is_update {
                builder.invoke_update(process, ObjectId(0), op.value)
            } else {
                builder.invoke_query(process, ObjectId(0), ())
            });
        } else {
            let id = ids[i].expect("invocation sorts before its response");
            if op.is_update {
                builder.respond_update(id);
            } else {
                builder.respond_query(id, op.value);
            }
        }
    }
    check_ivl_monotone(&BatchedCounterSpec, &builder.finish()).is_ivl()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(process: u32, is_update: bool, start_ns: u64, end_ns: u64, value: u64) -> HistoryOp {
        HistoryOp {
            process,
            is_update,
            start_ns,
            end_ns,
            value,
        }
    }

    #[test]
    fn history_verdicts_follow_the_interval_rule() {
        // A read overlapping an update of 3 may return 0 or 3 ...
        let overlapping =
            |seen| counter_history_is_ivl(&[op(0, true, 10, 30, 3), op(1, false, 20, 40, seen)]);
        assert!(overlapping(0) && overlapping(3));
        // ... but a read that starts after the update completed must
        // see it, and no read may see weight nobody sent.
        assert!(!counter_history_is_ivl(&[
            op(0, true, 10, 20, 3),
            op(1, false, 30, 40, 0)
        ]));
        assert!(!overlapping(4));
    }

    #[test]
    fn freq_sides_split_covers() {
        let f = Freq {
            estimate: 10,
            epsilon: 5,
            lag: 0,
            stream_len: 1000,
            delta: 0.01,
        };
        assert_eq!(f.sides(10), (true, true));
        assert_eq!(f.sides(11), (false, true));
        assert_eq!(f.sides(4), (true, false));
        assert_eq!(f.width_rel(), Some(0.005));
    }
}
