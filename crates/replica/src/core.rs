//! The replica group's decisions, with no I/O.
//!
//! [`GroupCore`] owns everything a merged read's correctness rests on:
//! the ledgers, the caches and their connection generations, the
//! merged accumulators, the seeded prototypes, the group epoch and the
//! catch-up payloads. It plans each operation ([`Write`], [`Read`],
//! [`Objects`], the shutdown round) as rounds of `(replica, frame)` sends,
//! at most one frame per replica per round, and folds each round's
//! [`Outcome`]s back in. Time enters only as an `Instant` argument.
//! Its answer to a round is a [`Step`]: the next round, the next round
//! not before some instant, or the result. `ReplicaGroup` does the sends.

use crate::{MergedRead, ReplicaError, ReplicaMode};
use ivl_merge::kinds::{self, Seeded};
use ivl_service::{
    merge_states, protocol, slot_coins, ClientError, DeltaChange, ErrorCode, ErrorEnvelope,
    MergeError, MergePolicy, MergeableState, ObjectInfo, Request, Response, SnapshotDelta,
    SnapshotState, StatePatch,
};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::mem;
use std::time::{Duration, Instant};

/// The round-trip deadline in units of `backoff`.
const DEADLINE_BACKOFFS: u32 = 50;

/// One frame of a round.
#[derive(Debug)]
pub(crate) enum Frame<'a> {
    /// A write whose items are borrowed, so no item is copied per
    /// replica.
    Batch {
        object: u32,
        items: &'a [(u64, u64)],
    },
    /// Any other request.
    Request(Request),
}

impl Frame<'_> {
    /// Appends the frame's wire bytes to `buf`.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Frame::Batch { object, items } => protocol::encode_batch(buf, *object, items),
            Frame::Request(req) => req.encode(buf),
        }
    }
}

/// The sends of one round, in send order; no replica appears twice.
pub(crate) type Round<'a> = Vec<(usize, Frame<'a>)>;

/// How one send of a round ended, classified once by `ReplicaGroup`.
#[derive(Debug)]
pub(crate) enum Outcome {
    /// The replica answered, the exchange moving (bytes out, bytes in).
    Reply(Response, (u64, u64)),
    /// No connection: the replica was inside its down window or a dial
    /// failed. Nothing left.
    Unreached,
    /// The connection died; `sent` is whether the frame had fully left.
    Lost { sent: bool },
    /// The deadline passed; `sent` is whether the frame had fully left.
    TimedOut { sent: bool },
    /// The reply did not parse: the connection's framing is gone.
    Desynced(ClientError),
    /// The replica answered with a refusal.
    Refused(ClientError),
}

impl Outcome {
    /// Whether the frame left without an answer: it may have applied.
    fn in_doubt(&self) -> bool {
        matches!(
            self,
            Outcome::Lost { sent: true } | Outcome::TimedOut { sent: true }
        )
    }

    /// The error an outcome other than the awaited reply surfaces: a
    /// reply of another kind, a refusal or lost framing.
    fn refusal(self, want: &'static str) -> Option<ReplicaError> {
        match self {
            Outcome::Reply(..) => Some(ClientError::Unexpected(want).into()),
            Outcome::Refused(e) | Outcome::Desynced(e) => Some(e.into()),
            _ => None,
        }
    }
}

/// The core's answer to a round: the next round (not before the
/// instant, if one is given), or the result.
#[derive(Debug)]
pub(crate) enum Step<'a, T> {
    Send(Option<Instant>, Round<'a>),
    Done(Result<T, ReplicaError>),
}

/// One group operation as a state machine over rounds.
pub(crate) trait Op<'a> {
    /// What the operation returns.
    type Output;
    /// Plans the first round.
    fn start(&mut self, core: &mut GroupCore) -> Step<'a, Self::Output>;
    /// Folds the outcomes of the last round, in its send order.
    fn fold(
        &mut self,
        core: &mut GroupCore,
        outcomes: Vec<(usize, Outcome)>,
        now: Instant,
    ) -> Step<'a, Self::Output>;
}

/// Per-replica ledger: health plus the degradation accounting.
#[derive(Debug, Default)]
struct Ledger {
    /// Connection failures (connects and mid-roundtrip deaths).
    failures: u64,
    /// Connects failed (or round trips timed out) in a row, and until
    /// when no connect is tried (see [`GroupCore::connect_failed`]).
    down: Option<(u32, Instant)>,
    /// The generation of the connection the group holds, if any.
    link: Option<u64>,
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

fn bump(map: &mut HashMap<u32, u64>, object: u32, weight: u64) {
    let total = map.entry(object).or_insert(0);
    *total = total.saturating_add(weight);
}

fn get(map: &HashMap<u32, u64>, object: u32) -> u64 {
    map.get(&object).copied().unwrap_or(0)
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
    /// Pushes that failed: the connection died after the frame left
    /// (never resent — absorb is not idempotent) or the replica refused.
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
    /// The generation of the connection the cache was read over. A
    /// cache from another generation is never used as a base.
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
pub(crate) fn weight_of(items: &[(u64, u64)]) -> u64 {
    items.iter().fold(0, |t, &(_, w)| t.saturating_add(w))
}

/// The replica group's state and decisions.
#[derive(Debug)]
pub(crate) struct GroupCore {
    pub(crate) mode: ReplicaMode,
    seed: u64,
    pub(crate) retry_limit: u32,
    pub(crate) backoff: Duration,
    ledgers: Vec<Ledger>,
    /// Per object, the shape [`check_seed`] expects of its states, with
    /// the prototype that re-derives answers from the merged state.
    seeded: HashMap<u32, Box<dyn Seeded>>,
    /// Per-replica, per-object cached snapshots — the delta bases.
    caches: Vec<HashMap<u32, CachedSnapshot>>,
    /// Per-object merge of the caches under the mode's policy.
    accums: HashMap<u32, Accum>,
    /// Bumped whenever an accumulator is folded with a change, rebuilt
    /// or dropped: the epoch a merged-state read answers with.
    epoch: u64,
    pub(crate) delta_stats: DeltaStats,
    /// Retained states awaiting a catch-up push to a rejoined replica.
    pending_pushes: Vec<PendingPush>,
    pub(crate) catchup: CatchupStats,
}

impl GroupCore {
    /// A core for `n` replicas.
    pub(crate) fn new(n: usize, mode: ReplicaMode, seed: u64) -> Self {
        GroupCore {
            mode,
            seed,
            retry_limit: 2,
            backoff: Duration::from_millis(20),
            ledgers: (0..n).map(|_| Ledger::default()).collect(),
            seeded: HashMap::new(),
            caches: (0..n).map(|_| HashMap::new()).collect(),
            accums: HashMap::new(),
            epoch: 0,
            delta_stats: DeltaStats::default(),
            pending_pushes: Vec::new(),
            catchup: CatchupStats::default(),
        }
    }

    /// Retained states still waiting for a catch-up push.
    pub(crate) fn catchup_pending(&self) -> usize {
        self.pending_pushes.len()
    }

    pub(crate) fn failures(&self, i: usize) -> u64 {
        self.ledgers[i].failures
    }

    /// The partition route of `key` (before failover).
    pub(crate) fn route(&self, key: u64) -> usize {
        (mix64(key) % self.ledgers.len() as u64) as usize
    }

    /// Partition mode: `items` split by route, one (possibly empty)
    /// sub-batch per replica. Mirror mode routes nothing.
    pub(crate) fn split(&self, items: &[(u64, u64)]) -> Vec<Vec<(u64, u64)>> {
        let mut routed = Vec::new();
        if self.mode == ReplicaMode::Partition {
            routed.resize_with(self.ledgers.len(), Vec::new);
            for &(key, weight) in items {
                routed[self.route(key)].push((key, weight));
            }
        }
        routed
    }

    /// The bound on every round trip to a replica — its connect, each
    /// write, and a round's replies together (each reply still unread
    /// past it gets one `backoff` more) — derived from `backoff` so that no
    /// option is added: a replica silent for this long is treated as
    /// down. It is shorter than the widest down window.
    pub(crate) fn deadline(&self) -> Duration {
        self.backoff * DEADLINE_BACKOFFS
    }

    /// Whether replica `i` may be dialled at `now`: no connect is tried
    /// inside its down window.
    pub(crate) fn may_dial(&self, i: usize, now: Instant) -> bool {
        self.ledgers[i].down.is_none_or(|(_, until)| now >= until)
    }

    /// Records a new connection to replica `i`, of `generation`.
    pub(crate) fn dialled(&mut self, i: usize, generation: u64) {
        let ledger = &mut self.ledgers[i];
        ledger.down = None;
        ledger.link = Some(generation);
    }

    /// Records that the group dropped replica `i`'s connection.
    pub(crate) fn unlink(&mut self, i: usize) {
        self.ledgers[i].link = None;
    }

    /// Counts a failed connect to replica `i` and opens its down window,
    /// inside which no connect is tried: reads serve its cache as stale
    /// lag and writes fail over at once, so a dead replica costs one
    /// probe per window. The window is empty after the first failure (a
    /// refused connect may be a restart in progress), then `backoff`,
    /// doubling with each further failure in a row up to 64 × `backoff`.
    pub(crate) fn connect_failed(&mut self, i: usize, now: Instant) {
        let ledger = &mut self.ledgers[i];
        ledger.failures += 1;
        let streak = ledger.down.map_or(1, |(n, _)| n.saturating_add(1));
        // backoff × 2^(streak − 2), capped at 2^6; 0 for the first.
        let window = self.backoff * ((1 << streak.min(8)) / 4);
        ledger.down = Some((streak, now + window));
    }

    /// Replica `i` ran past the [`deadline`](Self::deadline): its down
    /// window opens at its widest, since a silent replica is no restart
    /// in progress and each probe of it costs a whole deadline.
    pub(crate) fn timed_out(&mut self, i: usize, now: Instant) {
        // A streak one short of the cap: `connect_failed` makes it 8.
        self.ledgers[i].down = Some((7, now));
        self.connect_failed(i, now);
    }

    /// Folds a round's outcomes: first the health each one implies (the
    /// group dropped every connection that died, timed out or lost its
    /// framing), then the operation's own accounting.
    pub(crate) fn fold<'a, O: Op<'a>>(
        &mut self,
        op: &mut O,
        outcomes: Vec<(usize, Outcome)>,
        now: Instant,
    ) -> Step<'a, O::Output> {
        for (i, outcome) in &outcomes {
            match outcome {
                Outcome::Lost { .. } => self.ledgers[*i].failures += 1,
                Outcome::TimedOut { .. } => self.timed_out(*i, now),
                Outcome::Desynced(_) => {}
                _ => continue,
            }
            self.unlink(*i);
        }
        op.fold(self, outcomes, now)
    }

    /// The base replica `i`'s next `SNAPSHOT_SINCE` of `object` names:
    /// the cache's epoch if it was read over the connection held now,
    /// else `u64::MAX` (never a real epoch), which asks for full state.
    /// Another generation's epoch belongs to whatever server that
    /// connection reached.
    fn base(&self, i: usize, object: u32) -> u64 {
        match (self.caches[i].get(&object), self.ledgers[i].link) {
            (Some(c), Some(link)) if c.generation == link => c.epoch,
            _ => u64::MAX,
        }
    }

    /// Records a rejoin of replica `i`: its fresh state observes less
    /// than what this group had cached from it, so it restarted and
    /// lost history. The displaced cache is retained as the catch-up
    /// payload and the forgotten weight moves to the `lost` ledger
    /// bucket, widening merged envelopes until the push lands.
    fn note_rejoin(&mut self, i: usize, object: u32, old: CachedSnapshot, lost: u64) {
        self.catchup.detected += 1;
        bump(&mut self.ledgers[i].lost, object, lost);
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

    /// Applies one `SNAPSHOT_SINCE` reply to replica `i`'s cache. The
    /// server echoes the base it diffed from; anything that does not
    /// line up with the cache that base came from is surfaced as a
    /// typed mismatch, never silently patched.
    fn apply_delta(
        &mut self,
        i: usize,
        object: u32,
        delta: SnapshotDelta,
    ) -> Result<StatePatch, ReplicaError> {
        let generation = self.ledgers[i].link.unwrap_or(u64::MAX);
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

    /// Folds this refresh's cache patches into the merged accumulator,
    /// or rebuilds it from every cache when there is none yet or a
    /// patch does not fold (a replaced cache; resync beats guessing).
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

    /// Drops `object`'s accumulator after an abandoned refresh, which
    /// may have patched caches without folding them, so the next read
    /// rebuilds from the caches instead of silently drifting.
    fn drop_accum(&mut self, object: u32) {
        self.accums.remove(&object);
        self.epoch += 1;
    }

    /// Composes the merged read of `object` from the caches. Composes
    /// their envelopes under the mode's [`MergePolicy`], re-derives from
    /// the merged state what it knows better than any part — the
    /// CountMin point estimate for `key` (`None` keeps the
    /// snapshot-form zero sentinels) and the HLL estimate — and widens
    /// the frequency envelope by the ledger. A cached replica that did
    /// not answer (`reached` false) still contributes its cells, with
    /// the weight that may have landed there since the cache was taken
    /// priced into `lag`.
    fn merged(
        &mut self,
        object: u32,
        key: Option<u64>,
        reached: &[bool],
    ) -> Result<MergedRead, ReplicaError> {
        let n = self.ledgers.len();
        let mut envelopes = Vec::with_capacity(n);
        let mut parts: Vec<Option<u64>> = vec![None; n];
        let mut missing = 0u64; // unreachable with nothing cached
        let mut stale = 0u64; // cached but silent this round
        let mut missed = u64::MAX; // the smallest miss among the merged copies
        for (i, ledger) in self.ledgers.iter().enumerate() {
            let known = get(&ledger.acked, object).max(get(&ledger.last_seen, object));
            let Some(cache) = self.caches[i].get(&object) else {
                missing = missing.saturating_add(known);
                continue;
            };
            let observed = cache.envelope.observed();
            envelopes.push(cache.envelope.clone());
            parts[i] = Some(observed);
            missed = missed.min(get(&ledger.missed, object));
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

    /// The `SHUTDOWN` round: every replica, each dialled through its
    /// down window — one back up inside it is reachable and must drain
    /// too. Its outcomes change nothing here.
    pub(crate) fn shutdown_round(&mut self) -> Round<'static> {
        for ledger in &mut self.ledgers {
            ledger.down = None;
        }
        let n = self.ledgers.len();
        (0..n)
            .map(|i| (i, Frame::Request(Request::Shutdown)))
            .collect()
    }

    /// `object`'s merged state with the group epoch, as the last merged
    /// read of it left them.
    pub(crate) fn merged_state(&self, object: u32) -> Option<(&SnapshotState, u64)> {
        self.accums.get(&object).map(|a| (&a.state, self.epoch))
    }

    /// Total in-doubt weight for `object` (partition failovers whose
    /// first attempt died mid-roundtrip).
    fn doubt(&self, object: u32) -> u64 {
        self.ledgers
            .iter()
            .fold(0, |t, l| t.saturating_add(get(&l.in_doubt, object)))
    }

    /// Total weight rejoined replicas demonstrably forgot and have not
    /// yet been caught up on — widens merged `lag` in both modes until
    /// the retained state is pushed back and acknowledged.
    fn lost(&self, object: u32) -> u64 {
        self.ledgers
            .iter()
            .fold(0, |t, l| t.saturating_add(get(&l.lost, object)))
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

/// One part of a write: a sub-batch, the replica it goes to first (its
/// route in partition mode, its copy's replica in mirror mode), and the
/// replicas it has tried.
#[derive(Debug)]
struct Part<'a> {
    first: usize,
    items: &'a [(u64, u64)],
    tried: usize,
    done: bool,
}

/// A write. Partition mode sends each routed sub-batch to its route in
/// one round and fails the unreached over, ring-wise, in the next; a
/// frame sent whose ack is lost or late is never resent to the same
/// replica (it could double-apply), and its weight is in doubt. Mirror
/// mode sends the batch to every replica in one round and debits a
/// replica that missed it. Returns the replicas that acknowledged.
#[derive(Debug, Default)]
pub(crate) struct Write<'a> {
    object: u32,
    parts: Vec<Part<'a>>,
    /// The part each send of the round in flight carries.
    in_flight: Vec<usize>,
    applied: Vec<usize>,
}

impl<'a> Write<'a> {
    /// A write of `items`, with `routed` from [`GroupCore::split`].
    pub(crate) fn new(
        core: &GroupCore,
        object: u32,
        items: &'a [(u64, u64)],
        routed: &'a [Vec<(u64, u64)>],
    ) -> Self {
        let part = |first, items| Part {
            first,
            items,
            tried: 0,
            done: false,
        };
        let parts = match core.mode {
            ReplicaMode::Partition => (routed.iter().enumerate())
                .filter(|(_, sub)| !sub.is_empty())
                .map(|(i, sub)| part(i, &sub[..]))
                .collect(),
            ReplicaMode::Mirror => (0..core.ledgers.len()).map(|i| part(i, items)).collect(),
        };
        Write {
            object,
            parts,
            ..Write::default()
        }
    }

    /// Sends every unfinished part to its next replica; a part whose
    /// replica already has a frame in this round waits for the next.
    fn round(&mut self, n: usize) -> Step<'a, Vec<usize>> {
        let mut round = Round::new();
        for (k, part) in self.parts.iter().enumerate().filter(|(_, p)| !p.done) {
            let i = (part.first + part.tried) % n;
            if round.iter().all(|(j, _)| *j != i) {
                let (object, items) = (self.object, part.items);
                round.push((i, Frame::Batch { object, items }));
                self.in_flight.push(k);
            }
        }
        Step::Send(None, round)
    }
}

impl<'a> Op<'a> for Write<'a> {
    type Output = Vec<usize>;

    fn start(&mut self, core: &mut GroupCore) -> Step<'a, Vec<usize>> {
        self.round(core.ledgers.len())
    }

    fn fold(
        &mut self,
        core: &mut GroupCore,
        outcomes: Vec<(usize, Outcome)>,
        _now: Instant,
    ) -> Step<'a, Vec<usize>> {
        let n = core.ledgers.len();
        let mut error = None;
        for ((i, outcome), k) in outcomes.into_iter().zip(mem::take(&mut self.in_flight)) {
            let part = &mut self.parts[k];
            let (ledger, weight) = (&mut core.ledgers[i], weight_of(part.items));
            match outcome {
                Outcome::Reply(Response::Ack { .. }, _) => {
                    bump(&mut ledger.acked, self.object, weight);
                    part.done = true;
                    if !self.applied.contains(&i) {
                        self.applied.push(i);
                    }
                }
                Outcome::Reply(..) | Outcome::Refused(_) | Outcome::Desynced(_) => {
                    error = error.or(outcome.refusal("wanted ACK"));
                }
                // Possibly applied at i; the failover may double it, or
                // it may be lost — both sides of the merged envelope
                // widen by this weight.
                _ if core.mode == ReplicaMode::Partition => {
                    if outcome.in_doubt() {
                        bump(&mut ledger.in_doubt, self.object, weight);
                    }
                    part.tried += 1;
                }
                // Max-merge cannot double-count, so ambiguity just
                // means "treat as missed" (conservative).
                _ => {
                    bump(&mut ledger.missed, self.object, weight);
                    part.done = true;
                }
            }
        }
        let unreachable = Err(ReplicaError::AllUnreachable { what: "update" });
        if let Some(e) = error {
            Step::Done(Err(e))
        } else if self.parts.iter().any(|p| p.tried == n) {
            Step::Done(unreachable)
        } else if self.parts.iter().all(|p| p.done) {
            let applied = mem::take(&mut self.applied);
            Step::Done(if applied.is_empty() {
                unreachable
            } else {
                Ok(applied)
            })
        } else {
            self.round(n)
        }
    }
}

/// A merged read of `object`. Catch-up pushes detected by earlier reads
/// go out first, one per replica, so a replica caught up here re-reads
/// as converged in this very read. Then every replica is asked
/// `SNAPSHOT_SINCE` its cached epoch in one round; one whose connection
/// was lost is asked again after `backoff`, for at most `retry_limit`
/// extra rounds. One unreached or timed out is served from its cache.
#[derive(Debug, Default)]
pub(crate) struct Read {
    object: u32,
    key: Option<u64>,
    /// The pushes of the round in flight, in send order.
    pushing: Vec<PendingPush>,
    /// Snapshot rounds sent so far.
    rounds: u32,
    reached: Vec<bool>,
    /// `Unchanged` folds to nothing, so a quiet read collects none.
    patches: Vec<StatePatch>,
}

impl Read {
    /// A merged read of `object`, re-deriving the point estimate of
    /// `key` when there is one.
    pub(crate) fn new(object: u32, key: Option<u64>) -> Self {
        Read {
            object,
            key,
            ..Read::default()
        }
    }

    fn snapshot_round(&self, core: &GroupCore, replicas: Vec<usize>) -> Round<'static> {
        let object = self.object;
        let since = |i| Request::SnapshotSince {
            object,
            base_epoch: core.base(i, object),
        };
        replicas
            .into_iter()
            .map(|i| (i, Frame::Request(since(i))))
            .collect()
    }

    /// Folds a push round. An acknowledged push settles the ledger
    /// (`lost` recovered, `in_doubt` resolved) and drops that replica's
    /// cache and the accumulator, so this read re-pulls the absorbed
    /// state instead of diffing a pre-absorb base. A push that never
    /// left stays pending; one whose connection died after it left is
    /// dropped (absorb is not idempotent — a resend could double-count)
    /// and its `lost` weight keeps widening, which is conservative. A
    /// refusal is surfaced, its payload dropped.
    fn fold_pushes(
        &mut self,
        core: &mut GroupCore,
        outcomes: Vec<(usize, Outcome)>,
    ) -> Step<'static, MergedRead> {
        let mut error = None;
        for ((i, outcome), push) in outcomes.into_iter().zip(mem::take(&mut self.pushing)) {
            let object = push.object;
            match outcome {
                Outcome::Unreached
                | Outcome::Lost { sent: false }
                | Outcome::TimedOut { sent: false } => {
                    core.pending_pushes.push(push);
                    continue;
                }
                Outcome::Reply(Response::Absorbed { .. }, _) => {
                    core.catchup.acked += 1;
                    let ledger = &mut core.ledgers[i];
                    let lost = ledger.lost.remove(&object).unwrap_or(0);
                    let doubt = ledger.in_doubt.remove(&object).unwrap_or(0);
                    let settled = &mut core.catchup.settled_weight;
                    *settled = settled.saturating_add(lost.saturating_add(doubt));
                    core.caches[i].remove(&object);
                    core.drop_accum(object);
                }
                // The replica refused the absorb (seed or fingerprint
                // skew): surfaced in the group's own typed shape.
                Outcome::Refused(ClientError::Server {
                    code: ErrorCode::MergeMismatch,
                    message,
                }) => {
                    core.catchup.failed += 1;
                    error = error.or(Some(ReplicaError::MergeMismatch { why: message }));
                }
                other => {
                    core.catchup.failed += 1;
                    error = error.or(other.refusal("wanted ABSORBED"));
                }
            }
            core.catchup.pushed += 1;
        }
        match error {
            Some(e) => Step::Done(Err(e)),
            None => Step::Send(
                None,
                self.snapshot_round(core, (0..core.ledgers.len()).collect()),
            ),
        }
    }
}

impl Op<'static> for Read {
    type Output = MergedRead;

    fn start(&mut self, core: &mut GroupCore) -> Step<'static, MergedRead> {
        let n = core.ledgers.len();
        self.reached = vec![false; n];
        let mut round = Round::new();
        for push in mem::take(&mut core.pending_pushes) {
            let i = push.replica;
            if round.iter().any(|(j, _)| *j == i) {
                core.pending_pushes.push(push);
                continue;
            }
            let (object, observed, state) = (push.object, push.observed, push.state.clone());
            round.push((
                i,
                Frame::Request(Request::PushState {
                    object,
                    observed,
                    state,
                }),
            ));
            self.pushing.push(push);
        }
        if round.is_empty() {
            round = self.snapshot_round(core, (0..n).collect());
        }
        Step::Send(None, round)
    }

    fn fold(
        &mut self,
        core: &mut GroupCore,
        outcomes: Vec<(usize, Outcome)>,
        now: Instant,
    ) -> Step<'static, MergedRead> {
        // Only a push round has pushes in flight.
        if !self.pushing.is_empty() {
            return self.fold_pushes(core, outcomes);
        }
        let object = self.object;
        let mut error = None;
        let mut lost = Vec::new();
        for (i, outcome) in outcomes {
            match outcome {
                Outcome::Reply(Response::SnapshotDelta(delta), (out, inn)) => {
                    let stats = &mut core.delta_stats;
                    stats.reads += 1;
                    stats.bytes_out += out;
                    stats.bytes_in += inn;
                    match core.apply_delta(i, object, delta) {
                        Ok(StatePatch::Unchanged) => self.reached[i] = true,
                        Ok(patch) => {
                            self.reached[i] = true;
                            self.patches.push(patch);
                        }
                        Err(e) => error = error.or(Some(e)),
                    }
                }
                Outcome::Lost { .. } => lost.push(i),
                other => error = error.or(other.refusal("wanted SNAPSHOT_DELTA_REPLY")),
            }
        }
        if !lost.is_empty() && error.is_none() && self.rounds < core.retry_limit {
            self.rounds += 1;
            return Step::Send(Some(now + core.backoff), self.snapshot_round(core, lost));
        }
        if let Err(e) = error.map_or_else(|| core.fold_accum(object, &self.patches), Err) {
            core.drop_accum(object);
            return Step::Done(Err(e));
        }
        Step::Done(core.merged(object, self.key, &self.reached))
    }
}

/// The object roster, from the first replica that answers (rosters
/// must agree for the group to be meaningful), one replica per round.
/// A connection found lost gets one fresh try after the other replicas,
/// so a dead replica still costs one probe; a replica's refusal is
/// surfaced, not skipped.
#[derive(Debug, Default)]
pub(crate) struct Objects {
    tries: Vec<usize>,
    next: usize,
}

impl Objects {
    fn next_round(&mut self) -> Step<'static, Vec<ObjectInfo>> {
        let Some(&i) = self.tries.get(self.next) else {
            return Step::Done(Err(ReplicaError::AllUnreachable { what: "objects" }));
        };
        self.next += 1;
        Step::Send(None, vec![(i, Frame::Request(Request::Objects))])
    }
}

impl Op<'static> for Objects {
    type Output = Vec<ObjectInfo>;

    fn start(&mut self, core: &mut GroupCore) -> Step<'static, Vec<ObjectInfo>> {
        self.tries = (0..core.ledgers.len()).collect();
        self.next_round()
    }

    fn fold(
        &mut self,
        core: &mut GroupCore,
        outcomes: Vec<(usize, Outcome)>,
        _now: Instant,
    ) -> Step<'static, Vec<ObjectInfo>> {
        for (i, outcome) in outcomes {
            match outcome {
                Outcome::Reply(Response::Objects(infos), _) => return Step::Done(Ok(infos)),
                Outcome::Lost { .. } if self.next <= core.ledgers.len() => self.tries.push(i),
                other => {
                    if let Some(e) = other.refusal("wanted OBJECTS_REPLY") {
                        return Step::Done(Err(e));
                    }
                }
            }
        }
        self.next_round()
    }
}

#[cfg(test)]
mod tests {
    //! Scripted rounds: every outcome is given as data, with no socket,
    //! no sleep and no clock but the instants passed in.
    use super::*;
    use ivl_service::{hll_hash_fingerprint, Metrics, ObjectConfig, ObjectKind, ObjectRegistry};
    use ivl_sketch::hll::HyperLogLog;

    const SEED: u64 = 11;

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
        let mut g = GroupCore::new(2, ReplicaMode::Partition, 1);
        for ledger in &mut g.ledgers {
            ledger.in_doubt.insert(0, u64::MAX);
            ledger.lost.insert(0, u64::MAX);
        }
        assert_eq!((g.doubt(0), g.lost(0)), (u64::MAX, u64::MAX));
    }

    /// A group core over `n` replicas, each with a live connection of
    /// generation `i + 1`.
    fn linked(n: usize) -> GroupCore {
        let mut core = GroupCore::new(n, ReplicaMode::Partition, SEED);
        for i in 0..n {
            core.dialled(i, i as u64 + 1);
        }
        core
    }

    /// The full `SNAPSHOT_SINCE` reply of a replica's CountMin (object
    /// 0, the group seed) that took `items`.
    fn full(items: &[(u64, u64)]) -> Outcome {
        let registry = ObjectRegistry::build(
            &[ObjectConfig::new("cm", ObjectKind::CountMin)],
            0.005,
            0.01,
            1,
            0,
            SEED,
        );
        let metrics = Metrics::new();
        let mut w = registry.get(0).expect("object 0").writer(&metrics);
        w.ensure_ready().expect("a writer");
        w.apply_batch(items);
        w.release();
        let delta = registry.snapshot_since(0, u64::MAX).expect("object 0");
        Outcome::Reply(Response::SnapshotDelta(delta), (17, 0))
    }

    fn ack() -> Outcome {
        Outcome::Reply(Response::Ack { applied: 1 }, (0, 0))
    }

    /// What a planned round sends to whom.
    fn sends<T: std::fmt::Debug>(step: &Step<'_, T>) -> Vec<(usize, &'static str)> {
        let Step::Send(None, round) = step else {
            panic!("wanted a round, got {step:?}");
        };
        let what = |frame: &Frame<'_>| match frame {
            Frame::Batch { .. } => "batch",
            Frame::Request(Request::SnapshotSince { .. }) => "since",
            Frame::Request(Request::PushState { .. }) => "push",
            Frame::Request(_) => "other",
        };
        round.iter().map(|(i, frame)| (*i, what(frame))).collect()
    }

    fn done<T: std::fmt::Debug>(step: Step<'_, T>) -> T {
        match step {
            Step::Done(Ok(out)) => out,
            other => panic!("wanted a result, got {other:?}"),
        }
    }

    /// One merged read of key 7 whose single round the replicas answer
    /// with `replies`, in replica order.
    fn read(
        core: &mut GroupCore,
        replies: Vec<Outcome>,
        now: Instant,
    ) -> Step<'static, MergedRead> {
        let mut op = Read::new(0, Some(7));
        let step = op.start(core);
        assert_eq!(sends(&step).len(), replies.len());
        core.fold(&mut op, replies.into_iter().enumerate().collect(), now)
    }

    #[test]
    fn a_rejoin_is_detected_pushed_first_and_settled_by_its_ack() {
        let now = Instant::now();
        let mut core = linked(1);
        let read0 = done(read(&mut core, vec![full(&[(7, 100)])], now));
        assert_eq!(read0.parts, [Some(100)]);

        // A new connection, to a replica that restarted and took 40.
        core.unlink(0);
        core.dialled(0, 9);
        let read1 = done(read(&mut core, vec![full(&[(7, 40)])], now));
        assert_eq!(core.catchup.detected, 1);
        assert_eq!(core.lost(0), 60);
        assert_eq!(read1.missing_observed, 60);
        assert!(read1.envelope.frequency().expect("frequency").lag >= 60);

        // The next read pushes the displaced cache before any snapshot.
        let mut op = Read::new(0, Some(7));
        let step = op.start(&mut core);
        assert_eq!(sends(&step), [(0, "push")]);
        let absorbed = Response::Absorbed {
            object: 0,
            epoch: 200,
            observed: 100,
        };
        let absorbed = Outcome::Reply(absorbed, (0, 0));
        let step = core.fold(&mut op, vec![(0, absorbed)], now);
        let stats = core.catchup;
        assert_eq!(
            (stats.pushed, stats.acked, stats.settled_weight),
            (1, 1, 60)
        );
        assert_eq!((core.lost(0), core.pending_pushes.len()), (0, 0));
        assert!(
            !core.caches[0].contains_key(&0),
            "the replica's cache is dropped"
        );
        assert!(!core.accums.contains_key(&0), "the accumulator is dropped");
        assert_eq!(sends(&step), [(0, "since")]);
        assert_eq!(core.base(0, 0), u64::MAX, "the re-pull is a full read");
    }

    #[test]
    fn a_lost_ack_is_in_doubt_and_an_unreached_primary_is_not() {
        let now = Instant::now();
        let mut core = linked(3);
        let key = 7;
        let primary = core.route(key);
        let next = (primary + 1) % 3;
        let items = [(key, 1000)];
        let routed = core.split(&items);

        // The frame left and its ack never came: in doubt, failed over.
        let mut op = Write::new(&core, 0, &items, &routed);
        assert_eq!(sends(&op.start(&mut core)), [(primary, "batch")]);
        let step = core.fold(&mut op, vec![(primary, Outcome::Lost { sent: true })], now);
        assert_eq!(sends(&step), [(next, "batch")]);
        assert_eq!(done(core.fold(&mut op, vec![(next, ack())], now)), [next]);
        assert_eq!(core.doubt(0), 1000);
        assert_eq!(
            core.ledgers[primary].link, None,
            "the lost connection is unlinked"
        );

        // The merged read widens both sides by the in-doubt weight.
        let mut replies: Vec<Outcome> = (0..3).map(|_| full(&[])).collect();
        replies[next] = full(&items);
        let env = done(read(&mut core, replies, now)).envelope;
        let env = env.frequency().expect("frequency");
        assert!(env.epsilon >= 1000 && env.lag >= 1000, "{env:?}");

        // An unreached primary fails over with no doubt.
        let mut op = Write::new(&core, 0, &items, &routed);
        op.start(&mut core);
        let step = core.fold(&mut op, vec![(primary, Outcome::Unreached)], now);
        assert_eq!(sends(&step), [(next, "batch")]);
        assert_eq!(done(core.fold(&mut op, vec![(next, ack())], now)), [next]);
        assert_eq!(core.doubt(0), 1000);
    }

    #[test]
    fn a_refusal_returns_only_after_the_rounds_acks_are_booked() {
        let now = Instant::now();
        let mut core = linked(3);
        let on = |r| {
            (0..)
                .find(|&k| core.route(k) == r)
                .expect("a key on each replica")
        };
        let items = [(on(0), 3), (on(1), 4)];
        let routed = core.split(&items);
        let mut op = Write::new(&core, 0, &items, &routed);
        assert_eq!(sends(&op.start(&mut core)), [(0, "batch"), (1, "batch")]);
        let refused = Outcome::Refused(ClientError::Server {
            code: ErrorCode::Busy,
            message: "busy".into(),
        });
        match core.fold(&mut op, vec![(0, refused), (1, ack())], now) {
            Step::Done(Err(ReplicaError::Client(ClientError::Server { .. }))) => {}
            other => panic!("wanted the refusal, got {other:?}"),
        }
        assert_eq!(get(&core.ledgers[1].acked, 0), 4, "the other ack is booked");
        assert_eq!(get(&core.ledgers[0].acked, 0), 0);
    }

    #[test]
    fn a_timed_out_read_is_served_from_cache_and_not_retried() {
        let now = Instant::now();
        let mut core = linked(2);
        let before = done(read(&mut core, vec![full(&[(1, 5)]), full(&[(7, 9)])], now));
        assert_eq!(before.reached, 2);

        let timed_out = Outcome::TimedOut { sent: true };
        let after = done(read(&mut core, vec![full(&[(1, 5)]), timed_out], now));
        assert_eq!((after.reached, after.total), (1, 2));
        assert_eq!(after.parts[1], before.parts[1], "the cache is served");
        let env = after.envelope.frequency().expect("frequency");
        assert!(env.covers(9, 9), "{env:?}");
        // Its down window opens at its widest: 64 backoffs.
        let window = core.backoff * 64;
        assert!(!core.may_dial(1, now + window - Duration::from_nanos(1)));
        assert!(core.may_dial(1, now + window));

        // A lost connection, by contrast, is retried after one backoff.
        core.dialled(1, 5);
        let mut op = Read::new(0, Some(7));
        op.start(&mut core);
        let lost = vec![(0, full(&[(1, 5)])), (1, Outcome::Lost { sent: true })];
        match core.fold(&mut op, lost, now) {
            Step::Send(Some(at), round) => {
                assert_eq!(at, now + core.backoff);
                assert_eq!(round.len(), 1);
                assert_eq!(round[0].0, 1);
            }
            other => panic!("wanted a retry round, got {other:?}"),
        }
    }
}
