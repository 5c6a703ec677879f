//! `ivl-replica`: N-replica serving with merge-on-query and composed
//! IVL error envelopes.
//!
//! The paper's objects are *mergeable summaries*: CountMin cells add
//! cell-wise, HLL registers max register-wise, Morris exponents and
//! min registers are scalars with obvious joins. This crate is the
//! distributed layer that cashes that property in: a [`ReplicaGroup`]
//! fans updates out to N independent `ivl_serve` backends and answers
//! reads by keeping each replica's mergeable state (plus the
//! [`ErrorEnvelope`] in force) cached, merging the states, and
//! shipping one composed envelope ([`ErrorEnvelope::compose`]) instead
//! of inventing a bound. Every merged read — [`ReplicaGroup::query`]
//! and [`ReplicaGroup::snapshot_since`] alike — takes that one path:
//! refresh the caches, fold them into one merged state, compose the
//! parts' envelopes under the placement mode's merge law, re-derive
//! what the merged state knows better (the CountMin point estimate,
//! the HLL estimate), and widen for what the ledger says the merge
//! cannot see.
//!
//! Two placement modes ([`ReplicaMode`]), one [`MergePolicy`] each:
//!
//! * **partition** (`Add`) — each update goes to exactly one replica
//!   (routed by key hash, with failover); replicas hold disjoint
//!   substreams and merged state is the *sum* (CountMin cells add,
//!   estimates add). The composed envelope sums `ε`, `lag`,
//!   `stream_len` and union-bounds `δ` — exactly the sequential merge
//!   theorem, read through Theorem 6.
//! * **mirror** (`Join`) — each update goes to every reachable
//!   replica; replicas hold the same stream and merged state is the
//!   cell-wise *max* (sound because cells are monotone counters of one
//!   stream; HLL/min merges are idempotent, so mirror and partition
//!   coincide for them). The composed envelope takes the max of every
//!   term.
//!
//! **Health and degradation.** Each replica has a ledger. A failed
//! connect opens a down window, growing with each failure in a row,
//! inside which the replica is not dialled: reads serve it from its
//! cache (see below) or, with none, drop it from the merge, and writes
//! fail over, so the group degrades to the reachable quorum rather than
//! erroring or stalling. Every round trip has a deadline of 50
//! backoffs (its connect, and each socket read and write): a replica
//! that accepts bytes and never answers costs one deadline, then sits
//! out the widest down window like a dead one. The merged frequency
//! envelope *widens* to account for what the merge can no longer see:
//! in partition mode the missing replica's recorded update weight
//! (its last observed count) is added to `lag` — acknowledged weight
//! that may be invisible to this read is precisely what `lag` bounds
//! (Lemma 10's shape, at replica granularity). Partition-mode updates
//! whose connection died mid-roundtrip are *never silently resent* to
//! the same replica (they could double-apply); they fail over to the
//! next replica and their weight is recorded as in-doubt, widening
//! both envelope sides (`ε` for a possible double count, `lag` for a
//! possible miss).
//!
//! **Delta reads** (DESIGN §14). The group keeps one cached snapshot
//! per replica per object, keyed to the connection generation
//! ([`Client::generation`]; another connection's cache is never a delta
//! base), and asks every replica `SNAPSHOT_SINCE` its cached epoch in
//! one pipelined pass. A quiescent replica answers a tiny `Unchanged`,
//! an active one a sparse delta that patches the cache in place, and a
//! merged accumulator per object folds the patches in, so a quiet read
//! re-merges nothing. A replica that stops answering keeps contributing
//! its cached cells, with `lag` widened by what may have landed there
//! since. A frontend ([`serve_group`]) answers `SNAPSHOT_SINCE` from its
//! accumulator under its own epoch, so groups stack.
//!
//! **Catch-up** (DESIGN §15). A restarted replica comes back empty. A
//! fresh full snapshot observing *less* than the cache reveals it; the
//! displaced cache is retained and pushed back over `PUSH_STATE` on the
//! next refresh. It is the replica's own summary, so absorbing it is the
//! exact union of its two uptime windows in both modes. Until the push
//! is acknowledged the forgotten weight sits in a `lost` ledger bucket
//! that widens `lag`; the acknowledgement settles it (and the replica's
//! in-doubt weight) and the next refresh re-pulls the absorbed state.
//! `PUSH_STATE` is not idempotent, so a push whose connection dies is
//! never resent and its weight stays `lost` (conservative).
//! [`ReplicaGroup::catchup_stats`] counts all of it.
//!
//! **Merge safety.** Replicas may only be merged if they sampled the
//! same hash functions — the same `--seed` and object roster. Every
//! state's [`StateShape`](ivl_service::StateShape) carries a probe
//! fingerprint of its hashes; states merge only at equal shapes, and
//! the merged one must have the shape its [`Kind`](ivl_merge::Kind)
//! seeds from [`slot_coins`]`(seed, object)`. A mismatch is a
//! typed [`ReplicaError::MergeMismatch`] (the wire's `MergeMismatch`
//! through a frontend), never a panic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use ivl_merge::kinds::{self, Seeded};
use ivl_service::{
    merge_states, slot_coins, Client, ClientError, ComposeError, DeltaChange, ErrorCode,
    ErrorEnvelope, MergeError, MergePolicy, MergeableState, ObjectInfo, SnapshotDelta,
    SnapshotState, StatePatch,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::time::{Duration, Instant};

mod frontend;
pub use frontend::{serve_group, SharedGroup};

/// How a [`ReplicaGroup`] places updates across its replicas.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicaMode {
    /// Each update goes to one replica (routed by key hash, failover
    /// to the next reachable); merged state is the cell-wise sum over
    /// disjoint substreams.
    Partition,
    /// Each update goes to every reachable replica; merged state is
    /// the cell-wise max over copies of the same stream.
    Mirror,
}

impl fmt::Display for ReplicaMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReplicaMode::Partition => "partition",
            ReplicaMode::Mirror => "mirror",
        })
    }
}

impl std::str::FromStr for ReplicaMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "partition" | "part" => Ok(ReplicaMode::Partition),
            "mirror" | "mirrored" => Ok(ReplicaMode::Mirror),
            other => Err(format!(
                "unknown replica mode {other:?} (want partition|mirror)"
            )),
        }
    }
}

/// Errors a replica-group operation can produce.
#[derive(Debug)]
pub enum ReplicaError {
    /// The group was built with no replica addresses.
    NoReplicas,
    /// No replica could be reached (after bounded retries) for the
    /// named operation — nothing to degrade to.
    AllUnreachable {
        /// What was being attempted.
        what: &'static str,
    },
    /// Replica states cannot be merged: kinds, dimensions, or hash
    /// coins disagree (different `--seed` or roster). Typed, not a
    /// panic — the frontend maps it to `ErrorCode::MergeMismatch`.
    MergeMismatch {
        /// Human-readable mismatch description.
        why: String,
    },
    /// Envelope composition refused the parts.
    Compose(ComposeError),
    /// A replica answered with a non-transient error (server refusal,
    /// protocol violation).
    Client(ClientError),
}

impl fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplicaError::NoReplicas => write!(f, "replica group has no replicas"),
            ReplicaError::AllUnreachable { what } => {
                write!(f, "no replica reachable for {what}")
            }
            ReplicaError::MergeMismatch { why } => write!(f, "merge mismatch: {why}"),
            ReplicaError::Compose(e) => write!(f, "compose: {e}"),
            ReplicaError::Client(e) => write!(f, "replica: {e}"),
        }
    }
}

impl std::error::Error for ReplicaError {}

impl From<ComposeError> for ReplicaError {
    fn from(e: ComposeError) -> Self {
        ReplicaError::Compose(e)
    }
}

impl From<ClientError> for ReplicaError {
    fn from(e: ClientError) -> Self {
        ReplicaError::Client(e)
    }
}

/// One replica's health row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplicaHealth {
    /// The replica's address as configured.
    pub addr: String,
    /// Whether a connection is currently held.
    pub connected: bool,
    /// Connection failures seen so far (connects and mid-roundtrip
    /// deaths, across all objects).
    pub failures: u64,
}

/// A merged read: one composed envelope over the reachable replicas,
/// plus per-replica accounting for degradation-aware callers.
#[derive(Clone, Debug, PartialEq)]
pub struct MergedRead {
    /// The composed envelope (estimate re-derived from merged state
    /// for CountMin and HLL).
    pub envelope: ErrorEnvelope,
    /// Per-replica acknowledged update weight at the state that merged
    /// (`None` = nothing to contribute: unreachable with no cached
    /// state).
    pub parts: Vec<Option<u64>>,
    /// Replicas that answered this round (a cached replica can still
    /// contribute without being reached — its staleness widens `lag`).
    pub reached: usize,
    /// Replicas configured.
    pub total: usize,
    /// Acknowledged weight possibly invisible to this read — missing
    /// replicas' recorded counts, cached-but-silent replicas' overhang,
    /// and weight a rejoined replica lost and has not yet been caught
    /// up on. Partition-mode frequency `lag` widens by all of it (plus
    /// in-doubt weight); mirror mode widens by the overhang and lost
    /// weight plus the smallest miss among the merged copies.
    pub missing_observed: u64,
}

/// Per-replica ledger: health plus the degradation accounting.
#[derive(Debug, Default)]
struct Ledger {
    /// Connection failures (connects and mid-roundtrip deaths).
    failures: u64,
    /// Connects failed (or round trips timed out) in a row, and until
    /// when no connect is tried (see [`ReplicaGroup::connect_failed`]).
    down: Option<(u32, Instant)>,
    /// Update weight this group routed here and saw acknowledged,
    /// per object.
    acked: HashMap<u32, u64>,
    /// Observed weight from the replica's last successful snapshot,
    /// per object (covers writes by other clients).
    last_seen: HashMap<u32, u64>,
    /// Partition mode: weight of updates whose connection died
    /// mid-roundtrip here — possibly applied, possibly not — before
    /// failing over. Widens both envelope sides.
    in_doubt: HashMap<u32, u64>,
    /// Mirror mode: weight acknowledged by the group that this
    /// replica did not receive (it was unreachable).
    missed: HashMap<u32, u64>,
    /// Weight this replica demonstrably forgot (it rejoined observing
    /// less than its cached state) that has not yet been pushed back —
    /// widens merged `lag` until the catch-up push is acknowledged.
    lost: HashMap<u32, u64>,
}

impl Ledger {
    fn bump(map: &mut HashMap<u32, u64>, object: u32, weight: u64) {
        let total = map.entry(object).or_insert(0);
        *total = total.saturating_add(weight);
    }

    fn get(map: &HashMap<u32, u64>, object: u32) -> u64 {
        map.get(&object).copied().unwrap_or(0)
    }
}

/// Cumulative accounting for the merged reads' `SNAPSHOT_SINCE`
/// roundtrips.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Snapshot roundtrips that returned (unchanged, delta or full).
    pub reads: u64,
    /// Replies that were `Unchanged` — the epoch fast path.
    pub unchanged: u64,
    /// Replies that were a sparse delta (CountMin runs).
    pub deltas: u64,
    /// Replies that carried full state (no cache, a reconnect, an
    /// evicted base, or a delta not worth it).
    pub fulls: u64,
    /// Request bytes those roundtrips wrote, frame prefixes included.
    pub bytes_out: u64,
    /// Response bytes they read, frame prefixes included.
    pub bytes_in: u64,
}

impl DeltaStats {
    fn share(&self, count: u64) -> f64 {
        if self.reads == 0 {
            0.0
        } else {
            count as f64 / self.reads as f64
        }
    }

    /// Fraction of snapshot roundtrips answered `Unchanged` (0 when
    /// none happened).
    pub fn unchanged_rate(&self) -> f64 {
        self.share(self.unchanged)
    }

    /// Fraction of snapshot roundtrips answered with a sparse delta —
    /// with [`full_rate`](Self::full_rate), how the *changed* reads
    /// split; a delta path that never fires shows here as 0.
    pub fn delta_rate(&self) -> f64 {
        self.share(self.deltas)
    }

    /// Fraction of snapshot roundtrips that carried full state.
    pub fn full_rate(&self) -> f64 {
        self.share(self.fulls)
    }
}

/// Cumulative catch-up (anti-entropy) accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CatchupStats {
    /// Rejoins detected: a replica answered a fresh full state whose
    /// `observed` was below its cached one (it restarted and lost
    /// history).
    pub detected: u64,
    /// `PUSH_STATE` frames sent.
    pub pushed: u64,
    /// Pushes the replica acknowledged absorbing.
    pub acked: u64,
    /// Pushes that failed: the connection died (never resent — absorb
    /// is not idempotent) or the replica refused.
    pub failed: u64,
    /// Ledger weight settled by acknowledged pushes: recovered `lost`
    /// weight plus resolved `in_doubt` weight.
    pub settled_weight: u64,
}

/// A retained catch-up payload: the cache a rejoin displaced, held
/// until it can be pushed back to the replica that forgot it.
#[derive(Debug)]
struct PendingPush {
    replica: usize,
    object: u32,
    /// Acknowledged weight the retained state covers — the `observed`
    /// the push reports so the replica can credit it.
    observed: u64,
    state: SnapshotState,
}

/// One replica's cached snapshot of one object — the delta base.
#[derive(Debug)]
struct CachedSnapshot {
    /// [`Client::generation`] of the connection the cache was read
    /// over. A cache from another generation is never used as a base.
    generation: u64,
    /// The replica's update epoch at cache time — the base the next
    /// `SNAPSHOT_SINCE` over the same connection generation names.
    epoch: u64,
    /// The cached mergeable state.
    state: SnapshotState,
    /// The envelope in force when the state was read (refreshed by
    /// every reply, `Unchanged` included).
    envelope: ErrorEnvelope,
}

/// One object's merged state: the merge of every replica's cache under
/// the mode's policy.
#[derive(Debug)]
struct Accum {
    state: SnapshotState,
    /// Whether `state` moved since the last read answered from it, so
    /// what a read derives from the state alone (the merged HLL
    /// registers' summary) is rebuilt only after it does.
    moved: bool,
}

/// Why a single-replica write did not succeed.
enum SendFailure {
    /// No connection could be established, or the frame never fully
    /// left (nothing was applied — safe to route the update elsewhere).
    Unreached,
    /// The frame was sent and its reply was lost or late (the update
    /// may or may not have applied — ambiguous, never resent to the
    /// same replica).
    Ambiguous,
    /// The replica answered with a refusal; surfaced to the caller.
    Fatal(ClientError),
}

/// A client-side replica group: N backends speaking the ordinary
/// `ivl-service` protocol, one merged answer.
#[derive(Debug)]
pub struct ReplicaGroup {
    addrs: Vec<String>,
    mode: ReplicaMode,
    seed: u64,
    retry_limit: u32,
    backoff: Duration,
    clients: Vec<Option<Client>>,
    ledgers: Vec<Ledger>,
    /// Per object, the shape [`check_seed`] expects of its states, with
    /// the prototype that re-derives answers from the merged state.
    seeded: HashMap<u32, Box<dyn Seeded>>,
    /// Per-replica, per-object cached snapshots — the delta bases.
    caches: Vec<HashMap<u32, CachedSnapshot>>,
    /// Per-object merge of the caches under the mode's policy.
    accums: HashMap<u32, Accum>,
    /// Bumped whenever an accumulator is folded with a change, rebuilt
    /// or dropped: the epoch [`Self::snapshot_since`] answers with.
    epoch: u64,
    delta_stats: DeltaStats,
    /// Retained states awaiting a catch-up push to a rejoined replica.
    pending_pushes: Vec<PendingPush>,
    catchup: CatchupStats,
}

/// The round-trip deadline in units of `backoff` (see
/// [`ReplicaGroup::deadline`]).
const DEADLINE_BACKOFFS: u32 = 50;

/// The merge policy a placement mode implies: partitioned replicas
/// hold disjoint substreams (cells add), mirrored replicas hold copies
/// of one stream (cells join by max).
fn policy_for(mode: ReplicaMode) -> MergePolicy {
    match mode {
        ReplicaMode::Partition => MergePolicy::Add,
        ReplicaMode::Mirror => MergePolicy::Join,
    }
}

/// splitmix64 finalizer — scrambles keys before the `% n` partition
/// route so consecutive keys spread across replicas.
fn mix64(v: u64) -> u64 {
    let mut x = v.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The total weight of a write, saturating at `u64::MAX` like every add
/// a client-chosen weight reaches.
fn weight_of(items: &[(u64, u64)]) -> u64 {
    items.iter().fold(0, |t, &(_, w)| t.saturating_add(w))
}

/// Whether a client error left the connection's framing untrustworthy
/// — an oversized or malformed reply is never consumed, so the next
/// read on that socket would parse payload bytes as a frame. Such a
/// connection is dropped even though the error itself is surfaced.
fn desynced(e: &ClientError) -> bool {
    matches!(e, ClientError::Wire(_))
}

impl ReplicaGroup {
    /// Builds a group over `addrs` (each `host:port`). Connections are
    /// opened lazily per replica; an unreachable replica is probed again
    /// once its down window has passed, so a replica that comes up after
    /// the group does is picked up automatically.
    ///
    /// `seed` must equal the replicas' `--seed`: it rebuilds the hash
    /// prototypes used to re-derive estimates from merged state, and
    /// snapshots whose fingerprints disagree with it are refused.
    pub fn new(addrs: Vec<String>, mode: ReplicaMode, seed: u64) -> Result<Self, ReplicaError> {
        if addrs.is_empty() {
            return Err(ReplicaError::NoReplicas);
        }
        let n = addrs.len();
        Ok(ReplicaGroup {
            addrs,
            mode,
            seed,
            retry_limit: 2,
            backoff: Duration::from_millis(20),
            clients: (0..n).map(|_| None).collect(),
            ledgers: (0..n).map(|_| Ledger::default()).collect(),
            seeded: HashMap::new(),
            caches: (0..n).map(|_| HashMap::new()).collect(),
            accums: HashMap::new(),
            epoch: 0,
            delta_stats: DeltaStats::default(),
            pending_pushes: Vec::new(),
            catchup: CatchupStats::default(),
        })
    }

    /// The placement mode.
    pub fn mode(&self) -> ReplicaMode {
        self.mode
    }

    /// Number of configured replicas.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the group has no replicas (never true once built).
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Sets how many more rounds (with backoff between them) a read may
    /// spend on a replica whose connection was lost mid-roundtrip before
    /// degrading (default 2).
    pub fn set_retry_limit(&mut self, limit: u32) {
        self.retry_limit = limit;
    }

    /// Sets the pause between read rounds and the unit of a down
    /// replica's probe window (default 20ms).
    pub fn set_backoff(&mut self, backoff: Duration) {
        self.backoff = backoff;
    }

    /// Cumulative snapshot-read accounting (deltas and fulls alike).
    pub fn delta_stats(&self) -> DeltaStats {
        self.delta_stats
    }

    /// Cumulative catch-up (anti-entropy) accounting.
    pub fn catchup_stats(&self) -> CatchupStats {
        self.catchup
    }

    /// Retained states still waiting to be pushed back to a rejoined
    /// replica (0 once the group has converged).
    pub fn catchup_pending(&self) -> usize {
        self.pending_pushes.len()
    }

    /// Drops the held connection to replica `i` (if any). The next
    /// operation reconnects; useful for operators cycling a replica
    /// and for tests simulating one dying mid-run.
    pub fn disconnect(&mut self, i: usize) {
        self.clients[i] = None;
    }

    /// Per-replica health rows.
    pub fn health(&self) -> Vec<ReplicaHealth> {
        self.addrs
            .iter()
            .zip(&self.clients)
            .zip(&self.ledgers)
            .map(|((addr, client), ledger)| ReplicaHealth {
                addr: addr.clone(),
                connected: client.is_some(),
                failures: ledger.failures,
            })
            .collect()
    }

    /// The partition route of `key`: which replica its substream
    /// lives on (before failover).
    pub fn route(&self, key: u64) -> usize {
        (mix64(key) % self.addrs.len() as u64) as usize
    }

    /// Ensures a connection to replica `i` with one connect attempt;
    /// `None` when that fails or replica `i` is inside its down window,
    /// where no connect is tried at all.
    fn ensure_client(&mut self, i: usize) -> Option<&mut Client> {
        if self.clients[i].is_none() {
            if self.ledgers[i]
                .down
                .is_some_and(|(_, t)| Instant::now() < t)
            {
                return None;
            }
            let mut c = match Client::connect_with_deadline(self.addrs[i].as_str(), self.deadline())
            {
                Ok(c) => c,
                Err(e) if e.timed_out() => {
                    self.timed_out(i);
                    return None;
                }
                Err(_) => {
                    self.connect_failed(i);
                    return None;
                }
            };
            // The group does its own retrying, by refresh round (with a
            // *new* client, hence a new generation). The client's
            // internal reconnect-and-resend must stay off: it would
            // resend a delta base chosen under the old generation over a
            // connection whose epochs may mean something else.
            c.set_reconnect_limit(0);
            self.ledgers[i].down = None;
            self.clients[i] = Some(c);
        }
        self.clients[i].as_mut()
    }

    /// Drops replica `i`'s connection after it was lost and counts the
    /// failure.
    fn lose_connection(&mut self, i: usize) {
        self.clients[i] = None;
        self.ledgers[i].failures += 1;
    }

    /// The bound on every round trip to a replica — its connect, and
    /// each socket read and write — derived from `backoff` so that no
    /// option is added: a replica silent for this long is treated as
    /// down. It is shorter than the widest down window.
    fn deadline(&self) -> Duration {
        self.backoff * DEADLINE_BACKOFFS
    }

    /// Drops replica `i`'s connection after a round trip ran past the
    /// [`deadline`](Self::deadline) — never read again, since a late
    /// reply could answer a later request — and opens its down window
    /// at its widest: a silent replica is no restart in progress, and
    /// each probe of it costs a whole deadline.
    fn timed_out(&mut self, i: usize) {
        self.clients[i] = None;
        // A streak one short of the cap: `connect_failed` makes it 8.
        self.ledgers[i].down = Some((7, Instant::now()));
        self.connect_failed(i);
    }

    /// Drops replica `i`'s connection after `e` lost it: a timeout opens
    /// its down window, any other loss is only counted. Returns whether
    /// it timed out, so a caller retries only the other losses.
    fn connection_lost(&mut self, i: usize, e: &ClientError) -> bool {
        if e.timed_out() {
            self.timed_out(i);
            return true;
        }
        self.lose_connection(i);
        false
    }

    /// Counts a failed connect to replica `i` and opens its down window,
    /// inside which [`ensure_client`](Self::ensure_client) tries no
    /// connect: reads serve its cache as stale lag and writes fail over
    /// at once, so a dead replica costs one probe per window. The window
    /// is empty after the first failure (a refused connect may be a
    /// restart in progress), then `backoff`, doubling with each further
    /// failure in a row up to 64 × `backoff`.
    fn connect_failed(&mut self, i: usize) {
        let ledger = &mut self.ledgers[i];
        ledger.failures += 1;
        let streak = ledger.down.map_or(1, |(n, _)| n.saturating_add(1));
        // backoff × 2^(streak − 2), capped at 2^6; 0 for the first.
        let window = self.backoff * ((1 << streak.min(8)) / 4);
        ledger.down = Some((streak, Instant::now() + window));
    }

    /// Sends one write frame of `items`, whose total weight is `weight`,
    /// to replica `i`, exactly once. A frame that never fully left (its
    /// write failed or timed out) cannot have applied and is
    /// [`SendFailure::Unreached`]; a sent one whose reply is lost or
    /// late is [`SendFailure::Ambiguous`], never resent here.
    fn send_write(
        &mut self,
        i: usize,
        object: u32,
        items: &[(u64, u64)],
        weight: u64,
    ) -> Result<(), SendFailure> {
        let Some(client) = self.ensure_client(i) else {
            return Err(SendFailure::Unreached);
        };
        let (sent, acked) = match client.send_batch(object, items) {
            Ok(()) => (true, client.recv_ack()),
            Err(e) => (false, Err(e)),
        };
        match acked {
            Ok(_) => {
                Ledger::bump(&mut self.ledgers[i].acked, object, weight);
                Ok(())
            }
            Err(e) if e.connection_lost() => {
                self.connection_lost(i, &e);
                Err(if sent {
                    SendFailure::Ambiguous
                } else {
                    SendFailure::Unreached
                })
            }
            Err(e) => Err(SendFailure::Fatal(e)),
        }
    }

    /// Partition-mode write of a sub-batch whose primary is
    /// `route(items[0].0)`: tries the primary, then fails over to the
    /// next replicas in ring order. Returns the replica that applied.
    fn write_partitioned(
        &mut self,
        object: u32,
        items: &[(u64, u64)],
    ) -> Result<usize, ReplicaError> {
        let n = self.addrs.len();
        let primary = self.route(items[0].0);
        let weight = weight_of(items);
        for off in 0..n {
            let i = (primary + off) % n;
            match self.send_write(i, object, items, weight) {
                Ok(()) => return Ok(i),
                Err(SendFailure::Unreached) => {}
                Err(SendFailure::Ambiguous) => {
                    // Possibly applied at i; the failover may double
                    // it, or it may be lost — both sides of the merged
                    // envelope widen by this weight.
                    Ledger::bump(&mut self.ledgers[i].in_doubt, object, weight);
                }
                Err(SendFailure::Fatal(e)) => return Err(e.into()),
            }
        }
        Err(ReplicaError::AllUnreachable { what: "update" })
    }

    /// Mirror-mode write: fans `items` to every replica; succeeds if
    /// at least one acknowledged. Replicas that missed it are debited
    /// in their ledger so merged reads widen accordingly.
    fn write_mirrored(
        &mut self,
        object: u32,
        items: &[(u64, u64)],
    ) -> Result<Vec<usize>, ReplicaError> {
        let weight = weight_of(items);
        let mut applied = Vec::new();
        for i in 0..self.addrs.len() {
            match self.send_write(i, object, items, weight) {
                Ok(()) => applied.push(i),
                Err(SendFailure::Unreached) | Err(SendFailure::Ambiguous) => {
                    // Max-merge cannot double-count, so ambiguity just
                    // means "treat as missed" (conservative).
                    Ledger::bump(&mut self.ledgers[i].missed, object, weight);
                }
                Err(SendFailure::Fatal(e)) => return Err(e.into()),
            }
        }
        if applied.is_empty() {
            return Err(ReplicaError::AllUnreachable { what: "update" });
        }
        Ok(applied)
    }

    /// Ingests `weight` occurrences of `key` into object `object`.
    /// Returns the replica indices that acknowledged (one in partition
    /// mode, every reachable replica in mirror mode).
    pub fn update(
        &mut self,
        object: u32,
        key: u64,
        weight: u64,
    ) -> Result<Vec<usize>, ReplicaError> {
        self.batch(object, &[(key, weight)])
    }

    /// Ingests many `(key, weight)` pairs. Partition mode splits the
    /// batch by key route and sends one sub-batch per replica; mirror
    /// mode fans the whole batch to every reachable replica.
    pub fn batch(&mut self, object: u32, items: &[(u64, u64)]) -> Result<Vec<usize>, ReplicaError> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        match self.mode {
            ReplicaMode::Mirror => self.write_mirrored(object, items),
            ReplicaMode::Partition => {
                let n = self.addrs.len();
                let mut routed: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
                for &(key, weight) in items {
                    routed[self.route(key)].push((key, weight));
                }
                let mut applied = Vec::new();
                for sub in routed.iter().filter(|sub| !sub.is_empty()) {
                    let i = self.write_partitioned(object, sub)?;
                    if !applied.contains(&i) {
                        applied.push(i);
                    }
                }
                Ok(applied)
            }
        }
    }

    /// Refreshes every replica's cached snapshot of `object` over
    /// `SNAPSHOT_SINCE` and folds the changes into the merged
    /// accumulator. Returns which replicas answered this round.
    fn refresh(&mut self, object: u32) -> Result<Vec<bool>, ReplicaError> {
        // Catch-up pushes detected by the previous refresh go out
        // first: a replica caught up here re-reads as fully converged
        // in this very round.
        self.flush_pending_pushes()?;
        let r = self.refresh_inner(object);
        if r.is_err() {
            // An abandoned refresh may have patched caches without
            // folding the accumulator; drop it so the next read
            // rebuilds from the caches instead of silently drifting.
            self.accums.remove(&object);
            self.epoch += 1;
        }
        r
    }

    /// Records a rejoin of replica `i`: its fresh state observes less
    /// than what this group had cached from it, so it restarted and
    /// lost history. The displaced cache is retained as the catch-up
    /// payload and the forgotten weight moves to the `lost` ledger
    /// bucket, widening merged envelopes until the push lands.
    fn note_rejoin(&mut self, i: usize, object: u32, old: CachedSnapshot, lost: u64) {
        self.catchup.detected += 1;
        Ledger::bump(&mut self.ledgers[i].lost, object, lost);
        let observed = old.envelope.observed();
        if let Some(p) = self
            .pending_pushes
            .iter_mut()
            .find(|p| p.replica == i && p.object == object)
        {
            // The replica flapped again before the first push went
            // out. The two retained copies cover disjoint uptime
            // windows of the same replica, so cell-wise addition is
            // their exact union.
            if old.state.merge_into(&mut p.state, MergePolicy::Add).is_ok() {
                p.observed = p.observed.saturating_add(observed);
            }
            return;
        }
        self.pending_pushes.push(PendingPush {
            replica: i,
            object,
            observed,
            state: old.state,
        });
    }

    /// Sends every retained catch-up payload back over `PUSH_STATE`.
    /// An acknowledged push settles the ledger (`lost` recovered,
    /// `in_doubt` resolved, both counted in
    /// [`CatchupStats::settled_weight`]) and invalidates
    /// that replica's cache so the next refresh re-pulls the absorbed
    /// state. An unreachable replica keeps its payload for the next
    /// round; a connection dying mid-roundtrip drops it (absorb is not
    /// idempotent — a resend could double-count) and leaves the `lost`
    /// weight widening, which is conservative. A typed refusal (seed
    /// or fingerprint skew) is surfaced as a [`ReplicaError`].
    fn flush_pending_pushes(&mut self) -> Result<(), ReplicaError> {
        if self.pending_pushes.is_empty() {
            return Ok(());
        }
        let pending = std::mem::take(&mut self.pending_pushes);
        let mut fatal = None;
        for push in pending {
            if fatal.is_some() {
                self.pending_pushes.push(push);
                continue;
            }
            let i = push.replica;
            let object = push.object;
            let sent = match self.ensure_client(i) {
                None => {
                    // Still down: retry on a later refresh (nothing
                    // was sent, so resending later is safe).
                    self.pending_pushes.push(push);
                    continue;
                }
                Some(client) => client.push_state(object, push.observed, push.state),
            };
            self.catchup.pushed += 1;
            match sent {
                Ok(_epoch) => {
                    self.catchup.acked += 1;
                    let ledger = &mut self.ledgers[i];
                    let lost = ledger.lost.remove(&object).unwrap_or(0);
                    let doubt = ledger.in_doubt.remove(&object).unwrap_or(0);
                    let settled = &mut self.catchup.settled_weight;
                    *settled = settled.saturating_add(lost.saturating_add(doubt));
                    // The replica's state just jumped by the absorbed
                    // weight: drop the cache and the accumulator so
                    // the next refresh re-pulls instead of diffing a
                    // pre-absorb base.
                    self.caches[i].remove(&object);
                    self.accums.remove(&object);
                    self.epoch += 1;
                }
                Err(e) if e.connection_lost() => {
                    self.connection_lost(i, &e);
                    self.catchup.failed += 1;
                }
                Err(ClientError::Server {
                    code: ErrorCode::MergeMismatch,
                    message,
                }) => {
                    // The replica refused the absorb (seed or
                    // fingerprint skew): surface it in the group's own
                    // typed shape, payload dropped (it can never land).
                    self.catchup.failed += 1;
                    fatal = Some(ReplicaError::MergeMismatch { why: message });
                }
                Err(e) => {
                    self.catchup.failed += 1;
                    fatal = Some(ReplicaError::from(e));
                }
            }
        }
        match fatal {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Reads every replica's `SNAPSHOT_SINCE` reply in pipelined rounds,
    /// so a read costs one roundtrip total rather than one per replica.
    /// A round sends to every replica still unread, connecting cold ones,
    /// then reads the replies in send order. A replica whose connection
    /// is lost is left to the next round, after `backoff`, for at most
    /// `retry_limit` extra rounds; one that cannot be connected stays
    /// unread and is served from its cache.
    fn refresh_inner(&mut self, object: u32) -> Result<Vec<bool>, ReplicaError> {
        let n = self.addrs.len();
        let mut reached = vec![false; n];
        // `Unchanged` folds to nothing, so a quiet read collects none.
        let mut patches = Vec::new();
        let mut unread: Vec<usize> = (0..n).collect();
        for round in 0..=self.retry_limit {
            let mut sent = Vec::with_capacity(unread.len());
            for i in std::mem::take(&mut unread) {
                let cached = self.caches[i].get(&object).map(|c| (c.epoch, c.generation));
                let Some(c) = self.ensure_client(i) else {
                    continue;
                };
                // Only a cache read over this very connection is a delta
                // base: another generation's epoch belongs to whatever
                // server that connection reached. `u64::MAX` (never a
                // real epoch) asks for full state.
                let base = match cached {
                    Some((epoch, generation)) if generation == c.generation() => epoch,
                    _ => u64::MAX,
                };
                let out0 = c.wire_bytes().0;
                match c.send_snapshot_since(object, base) {
                    Ok(()) => {
                        self.delta_stats.bytes_out += c.wire_bytes().0 - out0;
                        sent.push(i);
                    }
                    // A failed write is a lost connection; a timed-out
                    // one is left to its cache.
                    Err(e) => {
                        if !self.connection_lost(i, &e) {
                            unread.push(i);
                        }
                    }
                }
            }
            for (k, &i) in sent.iter().enumerate() {
                let c = self.clients[i].as_mut().expect("sent on a live client");
                let (generation, in0) = (c.generation(), c.wire_bytes().1);
                let patch = match c.recv_snapshot_delta() {
                    Ok(delta) => {
                        self.delta_stats.reads += 1;
                        self.delta_stats.bytes_in += c.wire_bytes().1 - in0;
                        self.apply_delta(i, object, delta, generation)
                    }
                    Err(e) if e.connection_lost() => {
                        if !self.connection_lost(i, &e) {
                            unread.push(i);
                        }
                        continue;
                    }
                    Err(e) => {
                        if desynced(&e) {
                            self.clients[i] = None;
                        }
                        Err(e.into())
                    }
                };
                match patch {
                    Ok(patch) => {
                        reached[i] = true;
                        if patch != StatePatch::Unchanged {
                            patches.push(patch);
                        }
                    }
                    Err(e) => {
                        // The later replies stay unread: drop their
                        // connections, so a stale frame is never read
                        // as the answer to a later request.
                        for &j in &sent[k + 1..] {
                            self.clients[j] = None;
                        }
                        return Err(e);
                    }
                }
            }
            if unread.is_empty() || round == self.retry_limit {
                break;
            }
            // lint:allow sleep — bounded backoff before re-reading replicas whose connection was lost
            std::thread::sleep(self.backoff);
        }
        self.fold_accum(object, &patches)?;
        Ok(reached)
    }

    /// Applies one `SNAPSHOT_SINCE` reply to replica `i`'s cache. The
    /// server echoes the base it diffed from; anything that does not
    /// line up with the cache that base came from is surfaced as a
    /// typed mismatch, never silently patched.
    fn apply_delta(
        &mut self,
        i: usize,
        object: u32,
        delta: SnapshotDelta,
        generation: u64,
    ) -> Result<StatePatch, ReplicaError> {
        let observed = delta.envelope.observed();
        self.ledgers[i].last_seen.insert(object, observed);
        // A full state needs no base: it installs a fresh cache. It is
        // also where a rejoin shows itself — a server's `observed` is
        // monotone within one process, so a full state observing
        // *less* than the cache means the replica restarted and lost
        // history; the displaced cache becomes the catch-up payload.
        if let DeltaChange::Full(state) = delta.change {
            self.delta_stats.fulls += 1;
            let fresh = CachedSnapshot {
                generation,
                epoch: delta.epoch,
                state,
                envelope: delta.envelope,
            };
            if let Some(old) = self.caches[i].insert(object, fresh) {
                let old_observed = old.envelope.observed();
                if observed < old_observed {
                    self.note_rejoin(i, object, old, old_observed - observed);
                }
            }
            return Ok(StatePatch::Replaced);
        }
        // Everything else patches the cache in place; the base the
        // server claims (a delta's own, `Unchanged`'s implied one) must
        // be the cache actually held, over the same connection
        // generation.
        let base = delta.change.base_epoch();
        if base.is_some() {
            self.delta_stats.deltas += 1;
        } else {
            self.delta_stats.unchanged += 1;
        }
        let Some(cache) = self.caches[i]
            .get_mut(&object)
            .filter(|c| c.generation == generation && base.is_none_or(|base| base == c.epoch))
        else {
            return Err(ReplicaError::MergeMismatch {
                why: format!(
                    "object {object}: replica {i} answered against base {base:?}, not the cache held over this connection"
                ),
            });
        };
        // The kind and bounds checks — and the patch itself — are the
        // mergeable-state layer's job; this layer only prefixes the
        // object for the operator.
        let patch = cache
            .state
            .apply_change(delta.change)
            .map_err(|e| mismatch(object, e))?;
        cache.epoch = delta.epoch;
        cache.envelope = delta.envelope;
        Ok(patch)
    }

    /// Folds this round's cache patches into the merged accumulator, or
    /// rebuilds it from every cache when there is none yet or a patch
    /// does not fold (a replaced cache; resync beats guessing).
    fn fold_accum(&mut self, object: u32, patches: &[StatePatch]) -> Result<(), ReplicaError> {
        let policy = policy_for(self.mode);
        if let Some(accum) = self.accums.get_mut(&object) {
            if patches
                .iter()
                .all(|p| accum.state.fold_patch(p, policy).is_ok())
            {
                if !patches.is_empty() {
                    accum.moved = true;
                    self.epoch += 1;
                }
                return Ok(());
            }
        }
        self.epoch += 1;
        let states: Vec<&SnapshotState> = self
            .caches
            .iter()
            .filter_map(|m| m.get(&object))
            .map(|c| &c.state)
            .collect();
        if states.is_empty() {
            self.accums.remove(&object);
        } else {
            let state = merge_states(policy, &states).map_err(|e| mismatch(object, e))?;
            self.accums.insert(object, Accum { state, moved: true });
        }
        Ok(())
    }

    /// The one merged-read path behind [`query`](Self::query) and
    /// [`snapshot_since`](Self::snapshot_since). Refreshes the caches,
    /// composes their envelopes under the mode's [`MergePolicy`],
    /// re-derives from the merged state what it knows better than any
    /// part — the CountMin point estimate for `key` (`None` keeps the
    /// snapshot-form zero sentinels) and the HLL estimate — and widens
    /// the frequency envelope by the ledger. A cached-but-silent replica
    /// still contributes its cells, with the weight that may have landed
    /// there since the cache was taken priced into `lag`.
    fn merged_read(&mut self, object: u32, key: Option<u64>) -> Result<MergedRead, ReplicaError> {
        let reached = self.refresh(object)?;
        let n = self.addrs.len();
        let mut envelopes = Vec::with_capacity(n);
        let mut parts: Vec<Option<u64>> = vec![None; n];
        let mut missing = 0u64; // unreachable with nothing cached
        let mut stale = 0u64; // cached but silent this round
        let mut missed = u64::MAX; // the smallest miss among the merged copies
        for (i, ledger) in self.ledgers.iter().enumerate() {
            let known =
                Ledger::get(&ledger.acked, object).max(Ledger::get(&ledger.last_seen, object));
            let Some(cache) = self.caches[i].get(&object) else {
                missing = missing.saturating_add(known);
                continue;
            };
            let observed = cache.envelope.observed();
            envelopes.push(cache.envelope.clone());
            parts[i] = Some(observed);
            missed = missed.min(Ledger::get(&ledger.missed, object));
            if !reached[i] {
                stale = stale.saturating_add(known.saturating_sub(observed));
            }
        }
        if envelopes.is_empty() {
            return Err(ReplicaError::AllUnreachable { what: "snapshot" });
        }
        let policy = policy_for(self.mode);
        let (doubt, lost) = (self.doubt(object), self.lost(object));
        // What the merged parts cannot see. Disjoint parts (`Add`) lose
        // a missing replica's whole count; every mirrored copy (`Join`)
        // holds the stream but for what it missed, so the smallest miss
        // bounds the merge. In-doubt weight only accrues under `Add`.
        let invisible = match policy {
            MergePolicy::Add => missing,
            MergePolicy::Join => missed,
        };
        let mut envelope = ErrorEnvelope::compose(&envelopes, policy)?;
        let Some(accum) = self.accums.get_mut(&object) else {
            return Err(ReplicaError::MergeMismatch {
                why: format!("object {object}: merged accumulator lost sync with caches"),
            });
        };
        check_seed(&mut self.seeded, self.seed, object, &accum.state)?
            .answer(&accum.state, accum.moved, key, &mut envelope)
            .map_err(|e| mismatch(object, e))?;
        accum.moved = false;
        let unseen = [invisible, doubt, stale, lost]
            .into_iter()
            .fold(0, u64::saturating_add);
        envelope.widen(unseen, doubt);
        Ok(MergedRead {
            envelope,
            parts,
            reached: reached.iter().filter(|&&r| r).count(),
            total: n,
            missing_observed: missing.saturating_add(stale).saturating_add(lost),
        })
    }

    /// Total in-doubt weight for `object` (partition failovers whose
    /// first attempt died mid-roundtrip).
    fn doubt(&self, object: u32) -> u64 {
        self.ledgers
            .iter()
            .fold(0, |t, l| t.saturating_add(Ledger::get(&l.in_doubt, object)))
    }

    /// Total weight rejoined replicas demonstrably forgot and have not
    /// yet been caught up on — widens merged `lag` in both modes until
    /// the retained state is pushed back and acknowledged.
    fn lost(&self, object: u32) -> u64 {
        self.ledgers
            .iter()
            .fold(0, |t, l| t.saturating_add(Ledger::get(&l.lost, object)))
    }

    /// Answers `SNAPSHOT_SINCE` the way a frontend serves the merge:
    /// `Unchanged` when `base_epoch` is the group's epoch, which moves
    /// whenever any accumulator does, else the `Full` merged state; the
    /// composed envelope either way. The epoch is local to this group,
    /// which is sound because a client sends a base only over the
    /// connection it read it on.
    pub fn snapshot_since(
        &mut self,
        object: u32,
        base: u64,
    ) -> Result<SnapshotDelta, ReplicaError> {
        let envelope = self.merged_read(object, None)?.envelope;
        let state = &self.accums[&object].state;
        let change = if base == self.epoch {
            DeltaChange::Unchanged
        } else {
            DeltaChange::Full(state.clone())
        };
        Ok(SnapshotDelta {
            object,
            kind: state.kind(),
            epoch: self.epoch,
            change,
            envelope,
        })
    }

    /// Answers a query for `key` on `object` by merging the replicas'
    /// states — the group's read primitive. Each replica is asked only
    /// what changed since its cached epoch; quiescent replicas answer a
    /// tiny `Unchanged` frame and the persistent accumulator re-merges
    /// nothing.
    pub fn query(&mut self, object: u32, key: u64) -> Result<MergedRead, ReplicaError> {
        self.merged_read(object, Some(key))
    }

    /// The object roster, from the first replica that answers (rosters
    /// must agree for the group to be meaningful). A connection found
    /// lost gets one fresh try after the other replicas, so a dead
    /// replica still costs one probe; a replica's refusal is surfaced,
    /// not skipped.
    pub fn objects(&mut self) -> Result<Vec<ObjectInfo>, ReplicaError> {
        let n = self.addrs.len();
        let mut tries: Vec<usize> = (0..n).collect();
        let mut next = 0;
        while let Some(&i) = tries.get(next) {
            next += 1;
            let Some(client) = self.ensure_client(i) else {
                continue;
            };
            match client.objects() {
                Ok(infos) => return Ok(infos),
                Err(e) if e.connection_lost() => {
                    if !self.connection_lost(i, &e) && next <= n {
                        tries.push(i);
                    }
                }
                Err(e) => {
                    if desynced(&e) {
                        self.clients[i] = None;
                    }
                    return Err(e.into());
                }
            }
        }
        Err(ReplicaError::AllUnreachable { what: "objects" })
    }

    /// Asks every reachable replica to shut down; returns how many
    /// acknowledged. Each replica is dialled through its down window: one
    /// back up inside the window is reachable and must drain too.
    pub fn shutdown(&mut self) -> usize {
        let mut acked = 0;
        for i in 0..self.addrs.len() {
            self.ledgers[i].down = None;
            if let Some(client) = self.ensure_client(i) {
                if client.shutdown().is_ok() {
                    acked += 1;
                }
                self.clients[i] = None;
            }
        }
        acked
    }
}

/// Checks `state` against the shape the group seed gives `object` —
/// seeded from [`slot_coins`]`(seed, object)` at the dimensions the
/// first state read names, then cached — and returns the seeded
/// prototype. A dimension no object of the kind can have is refused.
fn check_seed<'a>(
    seeded: &'a mut HashMap<u32, Box<dyn Seeded>>,
    seed: u64,
    object: u32,
    state: &SnapshotState,
) -> Result<&'a mut dyn Seeded, ReplicaError> {
    let seeded = match seeded.entry(object) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(e) => {
            let proto = kinds::seed(state, &mut slot_coins(seed, object))
                .map_err(|e| mismatch(object, e))?;
            e.insert(proto)
        }
    };
    seeded
        .admit(state)
        .map_err(|e| ReplicaError::MergeMismatch {
            why: format!("object {object}: not what group seed {seed} samples: {e}"),
        })?;
    Ok(seeded.as_mut())
}

/// A refused merge, prefixed with the object for the operator.
fn mismatch(object: u32, e: MergeError) -> ReplicaError {
    ReplicaError::MergeMismatch {
        why: format!("object {object}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivl_service::hll_hash_fingerprint;
    use ivl_sketch::hll::HyperLogLog;

    #[test]
    fn modes_parse_and_display() {
        assert_eq!(
            "partition".parse::<ReplicaMode>(),
            Ok(ReplicaMode::Partition)
        );
        assert_eq!("mirror".parse::<ReplicaMode>(), Ok(ReplicaMode::Mirror));
        assert!("primary".parse::<ReplicaMode>().is_err());
        assert_eq!(ReplicaMode::Partition.to_string(), "partition");
        assert_eq!(ReplicaMode::Mirror.to_string(), "mirror");
    }

    #[test]
    fn empty_group_is_refused() {
        assert!(matches!(
            ReplicaGroup::new(Vec::new(), ReplicaMode::Partition, 1),
            Err(ReplicaError::NoReplicas)
        ));
    }

    #[test]
    fn route_spreads_and_is_stable() {
        let g = ReplicaGroup::new(
            vec!["a:1".into(), "b:1".into(), "c:1".into()],
            ReplicaMode::Partition,
            1,
        )
        .unwrap();
        let mut hit = [false; 3];
        for key in 0..64u64 {
            let r = g.route(key);
            assert_eq!(r, g.route(key), "route must be deterministic");
            hit[r] = true;
        }
        assert!(
            hit.iter().all(|&h| h),
            "64 keys should touch all 3 replicas"
        );
    }

    #[test]
    fn hll_state_of_no_served_precision_is_a_typed_mismatch() {
        // A replica's register count names the precision the group
        // rebuilds the prototype at; one no sketch can have must be
        // refused, not handed to a constructor that panics on it.
        let proto = HyperLogLog::new(4, &mut slot_coins(1, 0));
        let hll = |registers| SnapshotState::Hll {
            hash_fp: hll_hash_fingerprint(&proto),
            registers: vec![0; registers],
        };
        let mut seeded = HashMap::new();
        for registers in [0, 3, 8, 1 << 17] {
            assert!(matches!(
                check_seed(&mut seeded, 1, 0, &hll(registers)),
                Err(ReplicaError::MergeMismatch { .. })
            ));
        }
        assert!(check_seed(&mut seeded, 1, 0, &hll(16)).is_ok());
    }

    #[test]
    fn ledger_sums_saturate() {
        // Ledger weights come from client-chosen weights and replica
        // envelopes; summing them across replicas must not wrap.
        let mut g =
            ReplicaGroup::new(vec!["a:1".into(), "b:1".into()], ReplicaMode::Partition, 1).unwrap();
        for ledger in &mut g.ledgers {
            ledger.in_doubt.insert(0, u64::MAX);
            ledger.lost.insert(0, u64::MAX);
        }
        assert_eq!((g.doubt(0), g.lost(0)), (u64::MAX, u64::MAX));
    }

    #[test]
    fn unreachable_group_degrades_to_error_not_panic() {
        // Port 1 on localhost refuses immediately; with zero retries
        // the group reports AllUnreachable instead of hanging.
        let mut g =
            ReplicaGroup::new(vec!["127.0.0.1:1".into()], ReplicaMode::Partition, 1).unwrap();
        g.set_retry_limit(0);
        // A refused connect is no lost connection: one probe, no retry.
        assert!(matches!(
            g.objects(),
            Err(ReplicaError::AllUnreachable { .. })
        ));
        assert_eq!(g.health()[0].failures, 1);
        assert!(matches!(
            g.update(0, 5, 1),
            Err(ReplicaError::AllUnreachable { .. })
        ));
        assert!(matches!(
            g.query(0, 5),
            Err(ReplicaError::AllUnreachable { .. })
        ));
        let health = g.health();
        assert_eq!(health.len(), 1);
        assert!(!health[0].connected);
        assert!(health[0].failures >= 2);
    }
}
