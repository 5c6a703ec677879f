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
//! Two placement modes ([`ReplicaMode`]), one
//! [`MergePolicy`](ivl_service::MergePolicy) each:
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
//! backoffs (its connect, each write, and each reply as a whole): a
//! replica that accepts bytes and never answers, or trickles them,
//! costs one deadline, then sits out the widest down window like a dead
//! one. The merged frequency
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
//! seeds from [`slot_coins`](ivl_service::slot_coins)`(seed, object)`. A mismatch is a
//! typed [`ReplicaError::MergeMismatch`] (the wire's `MergeMismatch`
//! through a frontend), never a panic.
//!
//! **Core and I/O** (DESIGN §11.2). Every decision above lives in a
//! sans-I/O core (`core.rs`) that plans each operation as rounds of
//! `(replica, frame)` sends and folds the classified outcomes back in,
//! taking time only as an argument. [`ReplicaGroup`] runs it over
//! blocking sockets: it owns the connections, and one function does
//! every socket call of every round.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use crate::core::{GroupCore, Objects, Op, Outcome, Read, Round, Step, Write};
use ivl_service::{
    Client, ClientError, ComposeError, DeltaChange, ErrorEnvelope, MergeableState, ObjectInfo,
    Response, SnapshotDelta,
};
use std::fmt;
use std::time::Instant;

mod core;
mod frontend;
pub use crate::core::{CatchupStats, DeltaStats};
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
    /// No replica could be reached for the named operation: each was
    /// dialled at most once, and none inside its down window — nothing
    /// to degrade to.
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

/// A client-side replica group: N backends speaking the ordinary
/// `ivl-service` protocol, one merged answer. The decisions are the
/// group core's; this is the blocking loop that does its socket
/// calls, all of them in one exchange per round.
#[derive(Debug)]
pub struct ReplicaGroup {
    addrs: Vec<String>,
    clients: Vec<Option<Client>>,
    core: GroupCore,
}

/// Classifies a failed socket call once; `sent` is whether the frame
/// had fully left. A timeout is a silent peer, any other lost
/// connection a dead one; a wire error leaves the framing
/// untrustworthy (an oversized or malformed reply is never consumed, so
/// the next read would parse payload bytes as a frame); the rest is
/// the replica's refusal.
fn classify(e: ClientError, sent: bool) -> Outcome {
    if e.timed_out() {
        Outcome::TimedOut { sent }
    } else if e.connection_lost() {
        Outcome::Lost { sent }
    } else if matches!(e, ClientError::Wire(_)) {
        Outcome::Desynced(e)
    } else {
        Outcome::Refused(e)
    }
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
            clients: (0..n).map(|_| None).collect(),
            core: GroupCore::new(n, mode, seed),
        })
    }

    /// The placement mode.
    pub fn mode(&self) -> ReplicaMode {
        self.core.mode
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
        self.core.retry_limit = limit;
    }

    /// Sets the pause between read rounds and the unit of a down
    /// replica's probe window (default 20ms).
    pub fn set_backoff(&mut self, backoff: std::time::Duration) {
        self.core.backoff = backoff;
    }

    /// Cumulative snapshot-read accounting (deltas and fulls alike).
    pub fn delta_stats(&self) -> DeltaStats {
        self.core.delta_stats
    }

    /// Cumulative catch-up (anti-entropy) accounting.
    pub fn catchup_stats(&self) -> CatchupStats {
        self.core.catchup
    }

    /// Retained states still waiting to be pushed back to a rejoined
    /// replica (0 once the group has converged).
    pub fn catchup_pending(&self) -> usize {
        self.core.catchup_pending()
    }

    /// Drops the held connection to replica `i` (if any). The next
    /// operation reconnects; useful for operators cycling a replica
    /// and for tests simulating one dying mid-run.
    pub fn disconnect(&mut self, i: usize) {
        self.clients[i] = None;
        self.core.unlink(i);
    }

    /// Per-replica health rows.
    pub fn health(&self) -> Vec<ReplicaHealth> {
        self.addrs
            .iter()
            .zip(&self.clients)
            .enumerate()
            .map(|(i, (addr, client))| ReplicaHealth {
                addr: addr.clone(),
                connected: client.is_some(),
                failures: self.core.failures(i),
            })
            .collect()
    }

    /// The partition route of `key`: which replica its substream
    /// lives on (before failover).
    pub fn route(&self, key: u64) -> usize {
        self.core.route(key)
    }

    /// Runs `op` to its result: each round the core plans goes through
    /// [`exchange`](Self::exchange), and its outcomes are folded back.
    fn run<'a, O: Op<'a>>(&mut self, mut op: O) -> Result<O::Output, ReplicaError> {
        let mut step = op.start(&mut self.core);
        loop {
            let (at, round) = match step {
                Step::Done(result) => return result,
                Step::Send(at, round) => (at, round),
            };
            if let Some(at) = at {
                // lint:allow sleep — the bounded backoff the core schedules between read rounds
                std::thread::sleep(at.saturating_duration_since(Instant::now()));
            }
            let outcomes = self.exchange(&round);
            step = self.core.fold(&mut op, outcomes, Instant::now());
        }
    }

    /// Does one round's socket calls: dials each replica that has no
    /// connection where its down window allows, writes every frame, then
    /// reads the replies in send order, so a round costs one round trip
    /// however many replicas it reaches. Each failure is classified once,
    /// and a connection that failed is dropped: a late reply is never
    /// read as the answer to a later request.
    fn exchange(&mut self, round: &Round<'_>) -> Vec<(usize, Outcome)> {
        let mut outcomes = Vec::with_capacity(round.len());
        // Per frame that left, its place in `outcomes` and bytes out.
        let mut sent = Vec::with_capacity(round.len());
        for (i, frame) in round {
            let i = *i;
            let outcome = match self.connect(i) {
                None => Outcome::Unreached,
                Some(c) => {
                    let out0 = c.wire_bytes().0;
                    match c.send(|buf| frame.encode(buf)) {
                        Ok(()) => {
                            sent.push((outcomes.len(), c.wire_bytes().0 - out0));
                            // Replaced by the reply below.
                            Outcome::Lost { sent: true }
                        }
                        Err(e) => {
                            self.clients[i] = None;
                            classify(e, false)
                        }
                    }
                }
            };
            outcomes.push((i, outcome));
        }
        for (k, out) in sent {
            let i = outcomes[k].0;
            let c = self.clients[i]
                .as_mut()
                .expect("one frame per replica per round");
            let in0 = c.wire_bytes().1;
            outcomes[k].1 = match c.recv() {
                Ok(rsp) => Outcome::Reply(rsp, (out, c.wire_bytes().1 - in0)),
                Err(e) => {
                    let outcome = classify(e, true);
                    if !matches!(outcome, Outcome::Refused(_)) {
                        self.clients[i] = None;
                    }
                    outcome
                }
            };
        }
        outcomes
    }

    /// The connection to replica `i`, dialled with one attempt under the
    /// round-trip deadline if there is none; `None` when that fails or
    /// the replica is inside its down window, where no dial is tried.
    fn connect(&mut self, i: usize) -> Option<&mut Client> {
        if self.clients[i].is_none() {
            if !self.core.may_dial(i, Instant::now()) {
                return None;
            }
            match Client::connect_with_deadline(self.addrs[i].as_str(), self.core.deadline()) {
                Ok(c) => {
                    self.core.dialled(i, c.generation());
                    self.clients[i] = Some(c);
                }
                Err(e) if e.timed_out() => {
                    self.core.timed_out(i, Instant::now());
                    return None;
                }
                Err(_) => {
                    self.core.connect_failed(i, Instant::now());
                    return None;
                }
            }
        }
        self.clients[i].as_mut()
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
    /// batch by key route and sends every sub-batch in one round (the
    /// unreached fail over in the next); mirror mode fans the whole
    /// batch to every reachable replica in one round.
    pub fn batch(&mut self, object: u32, items: &[(u64, u64)]) -> Result<Vec<usize>, ReplicaError> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let routed = self.core.split(items);
        let write = Write::new(&self.core, object, items, &routed);
        self.run(write)
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
        let envelope = self.run(Read::new(object, None))?.envelope;
        let (state, epoch) = self
            .core
            .merged_state(object)
            .expect("a merged read leaves its accumulator");
        let change = if base == epoch {
            DeltaChange::Unchanged
        } else {
            DeltaChange::Full(state.clone())
        };
        Ok(SnapshotDelta {
            object,
            kind: state.kind(),
            epoch,
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
        self.run(Read::new(object, Some(key)))
    }

    /// The object roster, from the first replica that answers (rosters
    /// must agree for the group to be meaningful). A connection found
    /// lost gets one fresh try after the other replicas, so a dead
    /// replica still costs one probe; a replica's refusal is surfaced,
    /// not skipped.
    pub fn objects(&mut self) -> Result<Vec<ObjectInfo>, ReplicaError> {
        self.run(Objects::default())
    }

    /// Asks every reachable replica to shut down; returns how many
    /// acknowledged. Each replica is dialled through its down window: one
    /// back up inside the window is reachable and must drain too.
    pub fn shutdown(&mut self) -> usize {
        let round = self.core.shutdown_round();
        let outcomes = self.exchange(&round);
        let goodbye =
            |(_, o): &&(usize, Outcome)| matches!(o, Outcome::Reply(Response::Goodbye, _));
        let acked = outcomes.iter().filter(goodbye).count();
        for i in 0..self.addrs.len() {
            self.disconnect(i);
        }
        acked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
