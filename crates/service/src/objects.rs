//! The served-object layer: one trait, many quantitative objects.
//!
//! The paper's Theorem 1 (locality) says a multi-object history is IVL
//! iff every per-object projection is IVL. This module is that theorem
//! made operational for the service: a [`ServedObject`] is any
//! quantitative object the server can route wire requests to, an
//! [`ObjectRegistry`] holds the named instances (object ids are
//! registry indices, carried in every object-addressed frame), and each
//! object supplies its own error-envelope form
//! ([`ErrorEnvelope`]) plus a sequential spec for
//! verifying *its own projection* of a recorded run. The server checks
//! (and `ivl_check` reports) one verdict per object — the history as a
//! whole is IVL exactly when every row of that table is.
//!
//! Four kinds ship ([`ObjectKind`]), each served from its own file
//! under `kinds/` and built through its `ivl-merge` [`Kind`](ivl_merge::Kind)
//! impl, which holds the algebra of its state and envelope:
//!
//! * `cm` — the sharded CountMin ([`ServedCountMin`]): single-writer
//!   shard leases, optional write buffering, the Theorem 6 frequency
//!   envelope.
//! * `hll` — [`ivl_concurrent::ConcurrentHll`]: `fetch_max` registers,
//!   cardinality envelope with the standard-error bound, and the
//!   monotone register-sum indicator as the checkable query value.
//! * `morris` — [`ivl_concurrent::ConcurrentMorris`]: CAS'd exponent.
//!   Its coin flips live server-side, so a recorded run is not
//!   deterministically replayable against the estimator; the verdict
//!   instead checks the object's acknowledged-weight counter
//!   projection, which *is* deterministic (and exactly the guarantee
//!   the envelope's `observed` field serves).
//! * `min` — [`ivl_concurrent::ConcurrentMinRegister`]: `fetch_min`,
//!   an antitone object; the generalized (endpoint-sorting) interval
//!   checker verifies it directly.
//!
//! Writers are per-(object, writer-thread): each connection thread
//! (threaded backend) or reactor thread (event-loop backend) holds a
//! lazily created [`ObjectWriter`] per object it updates, so the
//! CountMin's per-(object, shard) lease discipline and the lock-free
//! objects' wait-free updates coexist behind one interface.

use crate::kinds::{Serve, ServeParams};
use crate::metrics::{Metrics, ObjectStats};
use crate::protocol::ErrorCode;
use crate::ErrorEnvelope;
use ivl_merge::{for_kind, MergeError};
use ivl_spec::history::History;
use std::fmt;

// The kind-tagged mergeable-state vocabulary and the coin/fingerprint
// discipline live in `ivl-merge` (one property-tested home shared
// with the replication layer), and each served kind in its own file;
// re-exported here so the served-object API — and every
// `crate::objects::*` path — is unchanged.
pub use crate::kinds::{
    AckCounterSpec, HllSumSpec, ServedCountMin, ServedHll, ServedMinRegister, ServedMinSpec,
    ServedMorris, HLL_PRECISION, MORRIS_A, MORRIS_MAX_EVENTS_PER_UPDATE,
};
pub use ivl_merge::{
    cm_hash_fingerprint, hll_hash_fingerprint, slot_coins, CellRun, DeltaChange, ObjectKind,
    SnapshotState,
};

/// One named object to register at server start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectConfig {
    /// Registry name (resolved by `Client::object`).
    pub name: String,
    /// Which object kind to instantiate.
    pub kind: ObjectKind,
}

impl ObjectConfig {
    /// A named object of `kind`.
    pub fn new(name: impl Into<String>, kind: ObjectKind) -> Self {
        ObjectConfig {
            name: name.into(),
            kind,
        }
    }
}

impl std::str::FromStr for ObjectConfig {
    type Err = String;

    /// Parses `name=kind`, or a bare `kind` (the kind string doubles
    /// as the name).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (name, kind) = match s.split_once('=') {
            Some((n, k)) => (n, k),
            None => (s, s),
        };
        if name.is_empty() {
            return Err("object name is empty".into());
        }
        Ok(ObjectConfig::new(name, kind.parse::<ObjectKind>()?))
    }
}

/// A registry row as listed over the wire by `OBJECTS`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectInfo {
    /// Object id (the registry index carried in object-addressed frames).
    pub id: u32,
    /// Object kind.
    pub kind: ObjectKind,
    /// Registry name.
    pub name: String,
}

/// One object's snapshot — the `Full` reply to a `SNAPSHOT_SINCE` from
/// the no-cache base: its mergeable state plus the error envelope in
/// force at snapshot time.
///
/// The envelope carries the object's error *parameters* and observed
/// update weight; for frequency envelopes the `key`/`estimate` fields
/// are zero sentinels — a snapshot is not a point query, and the
/// consumer re-derives point estimates from the (merged) state.
#[derive(Clone, Debug, PartialEq)]
pub struct ObjectSnapshot {
    /// Object id on the serving replica.
    pub object: u32,
    /// Object kind (decides how `state` decodes on the wire).
    pub kind: ObjectKind,
    /// The mergeable state.
    pub state: SnapshotState,
    /// The envelope at snapshot time.
    pub envelope: ErrorEnvelope,
}

/// A `SNAPSHOT_SINCE` reply: the object's current epoch, the change
/// against the client's base, and the envelope in force — the one
/// state read, of which an [`ObjectSnapshot`] is the `Full` case.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotDelta {
    /// Object id on the serving replica.
    pub object: u32,
    /// Object kind (decides how `change` decodes on the wire).
    pub kind: ObjectKind,
    /// The epoch this reply brings the client up to; the client
    /// records it as the base of its next `SNAPSHOT_SINCE`.
    pub epoch: u64,
    /// The state change since the client's base.
    pub change: DeltaChange,
    /// The envelope at reply time (same sentinel conventions as
    /// [`ObjectSnapshot::envelope`]).
    pub envelope: ErrorEnvelope,
}

impl SnapshotDelta {
    /// The snapshot a `Full` reply carries; `None` for `Unchanged` or a
    /// sparse delta.
    pub fn into_snapshot(self) -> Option<ObjectSnapshot> {
        let DeltaChange::Full(state) = self.change else {
            return None;
        };
        Some(ObjectSnapshot {
            object: self.object,
            kind: self.kind,
            state,
            envelope: self.envelope,
        })
    }
}

/// A request the served objects refuse (a CountMin's exhausted shard
/// pool, an unknown id, an unreachable group), answered as the wire
/// error `code` on a connection that keeps being served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Refusal {
    /// The wire error code the client sees.
    pub code: ErrorCode,
    /// Human-readable reason.
    pub message: String,
}

/// One writer thread's per-object update state. A connection thread
/// (threaded backend) or reactor thread (event-loop backend) holds at
/// most one writer per object, created lazily on the object's first
/// update — for the CountMin that writer owns the per-(object, shard)
/// lease and the local write buffer; for the lock-free objects it is
/// stateless.
pub trait ObjectWriter: fmt::Debug {
    /// Acquires whatever the writer needs before updates can apply
    /// (the CountMin's shard lease); wait-free objects always succeed.
    /// Called before every update batch so a previously `busy` writer
    /// retries acquisition.
    fn ensure_ready(&mut self) -> Result<(), Refusal>;

    /// Applies a batch of `(key, weight)` updates — the one write entry;
    /// a single update is a batch of one. Only called after
    /// [`ensure_ready`](Self::ensure_ready) succeeded. The CountMin's
    /// batch kernel coalesces duplicate keys within the frame and
    /// hashes each distinct key once; every kind must leave the same
    /// quiescent state as applying the items one by one, keep any
    /// buffered-weight bound its envelope advertises, and saturate at
    /// `u64::MAX` instead of overflowing on client-chosen weights.
    fn apply_batch(&mut self, items: &[(u64, u64)]);

    /// Absorbs a peer's pushed snapshot state into the shared object —
    /// the receiving half of replication catch-up (`PUSH_STATE`). Only
    /// called after [`ensure_ready`](Self::ensure_ready) succeeded.
    /// `observed` is the acknowledged update weight the pushed state
    /// covers; on success it is credited to the object's observed
    /// counter so envelopes account for the restored weight. Refuses
    /// with a typed [`MergeError`] (mapping to the wire's
    /// `MergeMismatch`) when the state's
    /// [`StateShape`](ivl_merge::StateShape) — kind, dimensions and hash
    /// fingerprint — is not the served object's.
    fn absorb(&mut self, state: &SnapshotState, observed: u64) -> Result<(), MergeError>;

    /// Propagates any locally buffered weight into the shared object.
    fn flush(&mut self);

    /// Flushes and drops any held shard lease; returns whether a lease
    /// went back to its pool (so the server can wake lease waiters).
    fn release(&mut self) -> bool;
}

/// A quantitative object the server can route requests to.
///
/// Implementations own their shared concurrent state, their per-object
/// operation counters, and their envelope form; the server stays
/// object-agnostic and just routes by id. Every impl must have a row
/// in the "Served objects" table of `crates/concurrent/ORDERINGS.md`
/// (enforced by `ivl_lint`) naming the concurrent core it serves and
/// its verdict discipline.
pub trait ServedObject: Send + Sync + fmt::Debug {
    /// Which kind this object is.
    fn kind(&self) -> ObjectKind;

    /// Creates this object's per-writer update state.
    fn writer<'a>(&'a self, metrics: &'a Metrics) -> Box<dyn ObjectWriter + 'a>;

    /// Answers a query with this object's error envelope.
    fn query(&self, key: u64) -> ErrorEnvelope;

    /// This object's update epoch. Equal epochs across two reads mean
    /// the snapshot state is equal between them, so a client holding
    /// state at epoch `e` can be answered `Unchanged` while the epoch is
    /// still `e`. Every kind's epoch is a function of the state itself
    /// (the min register's is its minimum), never a counter bumped
    /// beside it that could lag an acknowledged update.
    fn epoch(&self) -> u64;

    /// The one state read: answers `SNAPSHOT_SINCE` against the epoch
    /// of the client's cached state with the current epoch, the change
    /// to apply, and the envelope in force. `Unchanged` only when
    /// `base` is the current epoch; `None` is a client with no cache,
    /// always answered `Full` — which is also what a snapshot is. Each
    /// piece of the state is an IVL read (an intermediate
    /// mix of the concurrent updates), so merging snapshots composes
    /// exactly like merging sequential summaries.
    fn snapshot_since(&self, base: Option<u64>) -> (u64, DeltaChange, ErrorEnvelope);

    /// Per-object operation counters (the `STATS` rows).
    fn op_stats(&self) -> ObjectStats;

    /// Free shard-lease slots, for lease-pooled objects (`None` when
    /// the object's updates are wait-free and never refuse).
    fn free_shards(&self) -> Option<usize> {
        None
    }

    /// Downcast hook for the CountMin (callers reach its sketch and
    /// spec through [`ObjectRegistry::cm`]).
    fn as_count_min(&self) -> Option<&ServedCountMin> {
        None
    }

    /// Checks this object's projection of a recorded history against
    /// its sequential spec. Returns the verdict (`None` when the
    /// object has no deterministic strict check) and a note naming
    /// what was checked.
    fn check_projection(
        &self,
        projection: &History<(u64, u64), u64, u64>,
    ) -> (Option<bool>, &'static str);
}

/// The per-object verdict row — Theorem 1 (locality) operationally: a
/// recorded multi-object run is IVL iff every row's `ivl` is not
/// `false`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectVerdict {
    /// Object id.
    pub id: u32,
    /// Registry name.
    pub name: String,
    /// Object kind.
    pub kind: ObjectKind,
    /// Operations in this object's projection.
    pub ops: usize,
    /// Projection verdict; `None` when no deterministic strict check
    /// exists (see `note`).
    pub ivl: Option<bool>,
    /// What the verdict checked.
    pub note: &'static str,
}

/// The named objects one server instance routes to. Object ids are
/// indices into this registry and appear verbatim in every
/// object-addressed frame; any kind may sit at any index.
pub struct ObjectRegistry {
    entries: Vec<(String, Box<dyn ServedObject>)>,
}

impl fmt::Debug for ObjectRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.entries.iter().map(|(n, o)| (n, o.kind())))
            .finish()
    }
}

impl ObjectRegistry {
    /// Builds a registry from object configs. `seed` feeds each
    /// object's coin flips (perturbed per index so same-kind objects
    /// hash independently); CountMin objects take `(alpha, delta)`,
    /// `shards` and `write_buffer` from the server config.
    ///
    /// # Panics
    ///
    /// Panics if `objects` is empty or if two objects share a name.
    pub fn build(
        objects: &[ObjectConfig],
        alpha: f64,
        delta: f64,
        shards: usize,
        write_buffer: u64,
        seed: u64,
    ) -> Self {
        assert!(!objects.is_empty(), "need at least one served object");
        let params = ServeParams {
            alpha,
            delta,
            shards,
            write_buffer,
        };
        let mut entries: Vec<(String, Box<dyn ServedObject>)> = Vec::with_capacity(objects.len());
        for (idx, oc) in objects.iter().enumerate() {
            assert!(
                entries.iter().all(|(n, _)| n != &oc.name),
                "duplicate object name {:?}",
                oc.name
            );
            let coins = slot_coins(seed, idx as u32);
            let object = for_kind!(oc.kind, K => K::serve(&params, coins));
            entries.push((oc.name.clone(), object));
        }
        ObjectRegistry { entries }
    }

    /// Number of registered objects.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty (never true for a built registry).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The object with id `id`.
    pub fn get(&self, id: u32) -> Option<&dyn ServedObject> {
        self.entries.get(id as usize).map(|(_, o)| o.as_ref())
    }

    /// The object named `name`, with its id.
    pub fn by_name(&self, name: &str) -> Option<(u32, &dyn ServedObject)> {
        self.entries
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| (i as u32, self.entries[i].1.as_ref()))
    }

    /// The CountMin with id `id`, if that object is one.
    pub fn cm(&self, id: u32) -> Option<&ServedCountMin> {
        self.get(id).and_then(ServedObject::as_count_min)
    }

    /// A snapshot of object `id` (`None` for unknown ids): the full
    /// state a client with no cache is sent.
    pub fn snapshot(&self, id: u32) -> Option<ObjectSnapshot> {
        self.snapshot_since(id, u64::MAX).map(|delta| {
            delta
                .into_snapshot()
                .expect("a client with no cache is answered in full")
        })
    }

    /// A `SNAPSHOT_SINCE` reply for object `id` against a client base
    /// epoch (`None` for unknown ids). `u64::MAX` is the wire's no-cache
    /// base: it is answered in full here, once for every kind, so no
    /// object's epoch — an empty min register's is `u64::MAX` — can be
    /// mistaken for it.
    pub fn snapshot_since(&self, id: u32, base: u64) -> Option<SnapshotDelta> {
        self.get(id).map(|o| {
            let (epoch, change, envelope) = o.snapshot_since((base != u64::MAX).then_some(base));
            SnapshotDelta {
                object: id,
                kind: o.kind(),
                epoch,
                change,
                envelope,
            }
        })
    }

    /// The wire listing served by `OBJECTS`.
    pub fn infos(&self) -> Vec<ObjectInfo> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, (name, o))| ObjectInfo {
                id: i as u32,
                kind: o.kind(),
                name: name.clone(),
            })
            .collect()
    }

    /// Per-object operation counters, ordered by id (the `STATS` rows).
    pub fn stats_rows(&self) -> Vec<ObjectStats> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, (_, o))| ObjectStats {
                id: i as u32,
                ..o.op_stats()
            })
            .collect()
    }

    /// Total acknowledged update weight across all objects (the
    /// server-wide `stream_len`), saturating at `u64::MAX`.
    pub fn total_observed(&self) -> u64 {
        self.entries
            .iter()
            .fold(0, |t, (_, o)| t.saturating_add(o.op_stats().observed))
    }

    /// Free shard-lease slots summed over lease-pooled objects.
    pub fn free_shards(&self) -> usize {
        self.entries
            .iter()
            .filter_map(|(_, o)| o.free_shards())
            .sum()
    }

    /// Checks every object's projection of `history` against its own
    /// sequential spec — one [`ObjectVerdict`] per registered object
    /// (Theorem 1's locality, per row).
    pub fn verdicts(&self, history: &History<(u64, u64), u64, u64>) -> Vec<ObjectVerdict> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, (name, o))| {
                let projection = history.project(ivl_spec::history::ObjectId(i as u32));
                let ops = projection.operations().len();
                let (ivl, note) = o.check_projection(&projection);
                ObjectVerdict {
                    id: i as u32,
                    name: name.clone(),
                    kind: o.kind(),
                    ops,
                    ivl,
                    note,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds::countmin::SNAPSHOT_LEDGER_CAP;
    use crate::kinds::AtomicApply;
    use ivl_merge::MergeableState;
    use ivl_sketch::CoinFlips;
    use ivl_spec::history::{HistoryBuilder, ObjectId, ProcessId};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn registry() -> ObjectRegistry {
        ObjectRegistry::build(
            &[
                ObjectConfig::new("cm", ObjectKind::CountMin),
                ObjectConfig::new("hll", ObjectKind::Hll),
                ObjectConfig::new("morris", ObjectKind::Morris),
                ObjectConfig::new("low", ObjectKind::MinRegister),
            ],
            0.005,
            0.01,
            2,
            0,
            7,
        )
    }

    #[test]
    fn kinds_roundtrip_through_wire_tags_and_strings() {
        for kind in [
            ObjectKind::CountMin,
            ObjectKind::Hll,
            ObjectKind::Morris,
            ObjectKind::MinRegister,
        ] {
            assert_eq!(ObjectKind::from_u8(kind.to_u8()), Some(kind));
            assert_eq!(kind.to_string().parse::<ObjectKind>().unwrap(), kind);
        }
        assert_eq!(ObjectKind::from_u8(9), None);
        assert!("quartz".parse::<ObjectKind>().is_err());
    }

    #[test]
    fn object_config_parses_named_and_bare_forms() {
        let oc: ObjectConfig = "heavy=cm".parse().unwrap();
        assert_eq!(oc, ObjectConfig::new("heavy", ObjectKind::CountMin));
        let oc: ObjectConfig = "hll".parse().unwrap();
        assert_eq!(oc, ObjectConfig::new("hll", ObjectKind::Hll));
        assert!("=cm".parse::<ObjectConfig>().is_err());
        assert!("x=warp".parse::<ObjectConfig>().is_err());
    }

    #[test]
    fn registry_routes_by_id_and_name() {
        let r = registry();
        assert_eq!(r.len(), 4);
        assert_eq!(r.get(1).unwrap().kind(), ObjectKind::Hll);
        assert_eq!(r.get(9).map(|o| o.kind()), None);
        let (id, obj) = r.by_name("low").unwrap();
        assert_eq!((id, obj.kind()), (3, ObjectKind::MinRegister));
        assert!(r.by_name("nope").is_none());
        assert!(r.cm(0).is_some());
        assert!(r.cm(1).is_none());
        let infos = r.infos();
        assert_eq!(infos[2].name, "morris");
        assert_eq!(infos[2].id, 2);
    }

    #[test]
    fn registry_serves_an_hll_as_object_zero() {
        // Any kind may sit at index 0: a roster with no CountMin at all
        // builds, routes, writes and reads like any other.
        let r = ObjectRegistry::build(
            &[ObjectConfig::new("hits", ObjectKind::Hll)],
            0.005,
            0.01,
            1,
            0,
            1,
        );
        assert_eq!(r.len(), 1);
        assert_eq!(r.get(0).unwrap().kind(), ObjectKind::Hll);
        assert!(r.cm(0).is_none());
        assert_eq!(r.free_shards(), 0, "no lease pool without a CountMin");
        let metrics = Metrics::new();
        let mut w = r.get(0).unwrap().writer(&metrics);
        w.ensure_ready().unwrap();
        w.apply_batch(&[(7, 3)]);
        w.release();
        match r.get(0).unwrap().query(7) {
            ErrorEnvelope::Cardinality { observed, .. } => assert_eq!(observed, 3),
            other => panic!("wanted cardinality envelope, got {other:?}"),
        }
        let snap = r.snapshot(0).unwrap();
        assert_eq!((snap.object, snap.kind), (0, ObjectKind::Hll));
        assert_eq!(r.infos()[0].name, "hits");
    }

    #[test]
    #[should_panic(expected = "duplicate object name")]
    fn registry_rejects_duplicate_names() {
        ObjectRegistry::build(
            &[
                ObjectConfig::new("x", ObjectKind::CountMin),
                ObjectConfig::new("x", ObjectKind::Hll),
            ],
            0.005,
            0.01,
            1,
            0,
            1,
        );
    }

    #[test]
    fn writers_update_and_envelopes_reflect_state() {
        let metrics = Metrics::new();
        let r = registry();
        for id in 0..4u32 {
            let obj = r.get(id).unwrap();
            let mut w = obj.writer(&metrics);
            w.ensure_ready().unwrap();
            w.apply_batch(&[(41, 3)]);
            w.apply_batch(&[(100, 2)]);
            w.release();
        }
        match r.get(0).unwrap().query(41) {
            ErrorEnvelope::Frequency(env) => {
                assert_eq!(env.estimate, 3);
                assert_eq!(env.stream_len, 5);
            }
            other => panic!("wanted frequency envelope, got {other:?}"),
        }
        match r.get(1).unwrap().query(0) {
            ErrorEnvelope::Cardinality {
                register_sum,
                observed,
                registers,
                ..
            } => {
                assert!(register_sum > 0);
                assert_eq!(observed, 5);
                assert_eq!(registers, 1 << HLL_PRECISION);
            }
            other => panic!("wanted cardinality envelope, got {other:?}"),
        }
        match r.get(2).unwrap().query(0) {
            ErrorEnvelope::ApproxCount {
                observed, estimate, ..
            } => {
                assert_eq!(observed, 5);
                assert!(estimate >= 0.0);
            }
            other => panic!("wanted approx-count envelope, got {other:?}"),
        }
        match r.get(3).unwrap().query(0) {
            ErrorEnvelope::Minimum { minimum, observed } => {
                assert_eq!(minimum, 41);
                assert_eq!(observed, 5);
            }
            other => panic!("wanted minimum envelope, got {other:?}"),
        }
        assert_eq!(r.total_observed(), 20);
        let rows = r.stats_rows();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|row| row.updates == 2));
        assert!(rows.iter().all(|row| row.queries == 1));
    }

    #[test]
    fn cm_writer_reports_busy_when_pool_exhausted() {
        let metrics = Metrics::new();
        let r = ObjectRegistry::build(
            &[ObjectConfig::new("cm", ObjectKind::CountMin)],
            0.005,
            0.01,
            1,
            0,
            1,
        );
        let obj = r.get(0).unwrap();
        let mut a = obj.writer(&metrics);
        a.ensure_ready().unwrap();
        let mut b = obj.writer(&metrics);
        assert!(b.ensure_ready().is_err());
        assert_eq!(r.free_shards(), 0);
        assert!(a.release());
        assert!(b.ensure_ready().is_ok());
    }

    #[test]
    fn per_object_verdicts_accept_a_clean_multi_object_history() {
        let r = registry();
        let metrics = Metrics::new();
        let mut b = HistoryBuilder::<(u64, u64), u64, u64>::new();
        let p = ProcessId(0);
        // Drive the real objects and record what they actually served,
        // sequentially — every projection must then be IVL.
        for id in 0..4u32 {
            let obj = r.get(id).unwrap();
            let mut w = obj.writer(&metrics);
            w.ensure_ready().unwrap();
            for k in [5u64, 9, 5] {
                let u = b.invoke_update(p, ObjectId(id), (k, 2));
                w.apply_batch(&[(k, 2)]);
                b.respond_update(u);
            }
            w.release();
            let q = b.invoke_query(p, ObjectId(id), 5);
            b.respond_query(q, r.get(id).unwrap().query(5).value());
        }
        let h = b.finish();
        let verdicts = r.verdicts(&h);
        assert_eq!(verdicts.len(), 4);
        for v in &verdicts {
            assert_eq!(v.ops, 4, "{}: {} ops", v.name, v.ops);
            assert_eq!(
                v.ivl,
                Some(true),
                "{} projection not IVL: {}",
                v.name,
                v.note
            );
        }
    }

    #[test]
    fn write_buffered_cm_waives_the_strict_check() {
        let r = ObjectRegistry::build(
            &[ObjectConfig::new("cm", ObjectKind::CountMin)],
            0.005,
            0.01,
            1,
            8,
            1,
        );
        let h = HistoryBuilder::<(u64, u64), u64, u64>::new().finish();
        let v = &r.verdicts(&h)[0];
        assert_eq!(v.ivl, None);
        assert!(v.note.contains("write-buffered"));
    }

    #[test]
    fn snapshots_carry_mergeable_state_matching_served_queries() {
        let metrics = Metrics::new();
        let r = registry();
        for id in 0..4u32 {
            let obj = r.get(id).unwrap();
            let mut w = obj.writer(&metrics);
            w.ensure_ready().unwrap();
            w.apply_batch(&[(41, 3)]);
            w.apply_batch(&[(100, 2)]);
            w.release();
        }
        let snap = r.snapshot(0).unwrap();
        assert_eq!((snap.object, snap.kind), (0, ObjectKind::CountMin));
        let cm = r.cm(0).unwrap();
        match &snap.state {
            SnapshotState::CountMin {
                width,
                depth,
                hash_fp,
                cells,
            } => {
                let params = cm.params();
                assert_eq!(*width as usize, params.width);
                assert_eq!(*depth as usize, params.depth);
                assert_eq!(*hash_fp, cm_hash_fingerprint(cm.sketch().hashes()));
                assert_eq!(cells.len(), params.width * params.depth);
                // Row 0 holds the whole stream weight.
                let row0: u64 = cells[..params.width].iter().sum();
                assert_eq!(row0, 5);
            }
            other => panic!("wanted CountMin state, got {other:?}"),
        }
        match snap.envelope {
            ErrorEnvelope::Frequency(env) => {
                assert_eq!(env.stream_len, 5);
                assert_eq!((env.key, env.estimate), (0, 0));
            }
            other => panic!("wanted frequency envelope, got {other:?}"),
        }

        let snap = r.snapshot(1).unwrap();
        match (&snap.state, &snap.envelope) {
            (
                SnapshotState::Hll { registers, .. },
                ErrorEnvelope::Cardinality { register_sum, .. },
            ) => {
                let sum: u64 = registers.iter().map(|&b| b as u64).sum();
                assert_eq!(sum, *register_sum);
                assert!(sum > 0);
            }
            other => panic!("wanted hll state + cardinality envelope, got {other:?}"),
        }

        match r.snapshot(2).unwrap().state {
            SnapshotState::Morris { .. } => {}
            other => panic!("wanted morris state, got {other:?}"),
        }
        match r.snapshot(3).unwrap().state {
            SnapshotState::MinRegister { minimum } => assert_eq!(minimum, 41),
            other => panic!("wanted min-register state, got {other:?}"),
        }
        assert!(r.snapshot(9).is_none());
    }

    #[test]
    fn delta_snapshots_patch_caches_into_full_snapshot_equality() {
        let metrics = Metrics::new();
        let r = registry();
        let write = |id: u32, key: u64, weight: u64| {
            let obj = r.get(id).unwrap();
            let mut w = obj.writer(&metrics);
            w.ensure_ready().unwrap();
            w.apply_batch(&[(key, weight)]);
            w.release();
        };
        for id in 0..4u32 {
            write(id, 41, 3);
        }

        // An unknown base (the no-cache sentinel) gets a full state.
        let d0 = r.snapshot_since(0, u64::MAX).unwrap();
        let mut cached = match d0.change {
            DeltaChange::Full(SnapshotState::CountMin { cells, .. }) => cells,
            other => panic!("unknown base must go full, got {other:?}"),
        };

        // A current base is answered `Unchanged` with a live envelope.
        let d1 = r.snapshot_since(0, d0.epoch).unwrap();
        assert_eq!(d1.epoch, d0.epoch);
        assert_eq!(d1.change, DeltaChange::Unchanged);
        match d1.envelope {
            ErrorEnvelope::Frequency(env) => assert_eq!(env.stream_len, 3),
            other => panic!("wanted frequency envelope, got {other:?}"),
        }

        // New writes turn into sparse runs that patch the cache into
        // exactly the fresh full snapshot.
        write(0, 977, 5);
        write(0, 3, 1);
        let d2 = r.snapshot_since(0, d0.epoch).unwrap();
        assert!(d2.epoch > d0.epoch);
        let cm = r.cm(0).unwrap();
        let width = cm.params().width;
        match &d2.change {
            DeltaChange::CmRuns {
                base_epoch,
                runs,
                values,
            } => {
                assert_eq!(*base_epoch, d0.epoch);
                assert!(!runs.is_empty());
                for (run, new) in CellRun::zip_values(runs, values) {
                    let at = run.row as usize * width + run.lo as usize;
                    cached[at..at + new.len()].copy_from_slice(new);
                }
            }
            other => panic!("wanted sparse runs, got {other:?}"),
        }
        match r.snapshot(0).unwrap().state {
            SnapshotState::CountMin { cells, .. } => {
                assert_eq!(cached, cells, "patched cache must equal a fresh snapshot");
            }
            other => panic!("wanted CountMin state, got {other:?}"),
        }
        // And the new epoch is now `Unchanged`-able.
        assert_eq!(
            r.snapshot_since(0, d2.epoch).unwrap().change,
            DeltaChange::Unchanged
        );

        // HLL: a raising update answers the whole vector, keyed by the
        // register sum.
        let h0 = r.snapshot_since(1, u64::MAX).unwrap();
        assert!(matches!(h0.change, DeltaChange::Full(_)));
        write(1, 12345, 1);
        let h1 = r.snapshot_since(1, h0.epoch).unwrap();
        match (&h1.change, r.snapshot(1).unwrap().state) {
            (
                DeltaChange::Full(SnapshotState::Hll { registers, .. }),
                SnapshotState::Hll {
                    registers: fresh, ..
                },
            ) => {
                assert_eq!(registers, &fresh);
                let sum: u64 = fresh.iter().map(|&b| b as u64).sum();
                assert_eq!(h1.epoch, sum, "the HLL epoch is the register sum");
            }
            other => panic!("a raising update must answer the full vector, got {other:?}"),
        }
        assert_eq!(
            r.snapshot_since(1, h1.epoch).unwrap().change,
            DeltaChange::Unchanged
        );

        // Morris and the min register are scalars that are their own
        // epochs: stale base → full state, current base → `Unchanged`.
        for id in [2u32, 3] {
            let f = r.snapshot_since(id, u64::MAX).unwrap();
            assert!(matches!(f.change, DeltaChange::Full(_)));
            assert_eq!(
                r.snapshot_since(id, f.epoch).unwrap().change,
                DeltaChange::Unchanged
            );
        }
        assert!(r.snapshot_since(9, 0).is_none());
    }

    /// Replays a polling client against one served HLL: `base` is the
    /// epoch of the last reply (`None` before the first), `cached` its
    /// registers.
    fn poll_hll(hll: &ServedHll, base: &mut Option<u64>, cached: &mut Vec<u8>) -> bool {
        let (epoch, change, envelope) = hll.snapshot_since(*base);
        let unchanged = match change {
            DeltaChange::Unchanged => true,
            DeltaChange::Full(SnapshotState::Hll { registers, .. }) => {
                *cached = registers;
                false
            }
            other => panic!("an HLL answers unchanged or full, got {other:?}"),
        };
        assert_eq!(
            envelope.value(),
            epoch,
            "the envelope counts the reply's registers"
        );
        *base = Some(epoch);
        unchanged
    }

    #[test]
    fn hll_answers_unchanged_only_when_the_registers_equal_the_base_reply() {
        let hll = ServedHll::new(4, &mut CoinFlips::from_seed(3));
        let (mut base, mut cached) = (None, Vec::new());
        assert!(!poll_hll(&hll, &mut base, &mut cached));
        // Keys repeat, so some updates raise a register and some do not.
        for key in (0..400u64).map(|i| (i * 7) % 97) {
            let before = hll.hll.registers_snapshot();
            hll.apply_one(key, 1);
            let after = hll.hll.registers_snapshot();
            assert_eq!(poll_hll(&hll, &mut base, &mut cached), before == after);
            assert_eq!(cached, after);
        }
    }

    #[test]
    fn hll_unchanged_never_hides_a_completed_update() {
        // A writer acknowledges updates while a poller keeps a cache; an
        // `Unchanged` reply must leave every register at least as high as
        // the rank of every update acknowledged before the poll began.
        let hll = ServedHll::new(8, &mut CoinFlips::from_seed(9));
        let keys: Vec<u64> = (0..20_000u64).map(|i| i % 5_000).collect();
        let acked = AtomicU64::new(0);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for (n, &key) in keys.iter().enumerate() {
                    hll.apply_one(key, 1);
                    acked.store(n as u64 + 1, Ordering::Release);
                }
            });
            // Registers only grow, so a cache that covered an update
            // keeps covering it: each poll checks the newly acked keys.
            let (mut base, mut cached) = (None, Vec::new());
            let mut covered = 0;
            while covered < keys.len() {
                let done = acked.load(Ordering::Acquire) as usize;
                poll_hll(&hll, &mut base, &mut cached);
                for &key in &keys[covered..done] {
                    let (idx, rank) = hll.hll.prototype().route(key);
                    assert!(cached[idx] >= rank, "an acknowledged update is missing");
                }
                covered = done;
            }
            assert!(
                poll_hll(&hll, &mut base, &mut cached),
                "a quiet poll is unchanged"
            );
        });
    }

    #[test]
    fn equal_minima_give_equal_epochs() {
        // Insert 5 then 3, against insert 3: the same minimum is the
        // same state, so it must be the same epoch — a counter of
        // lowering inserts would tell them apart, and could lag one.
        let (twice, once) = (ServedMinRegister::new(), ServedMinRegister::new());
        twice.apply_one(5, 1);
        twice.apply_one(3, 1);
        once.apply_one(3, 1);
        assert_eq!(twice.epoch(), once.epoch());
    }

    #[test]
    fn min_answers_unchanged_only_when_the_minimum_equals_the_base_reply() {
        let reg = ServedMinRegister::new();
        let (mut base, mut cached) = (None, None);
        // Raises, repeats and lowered minima, down to 0 (an epoch that must
        // not be special).
        for key in [50u64, 70, 50, 20, 20, 90, 0, 0, 5] {
            let before = reg.reg.min();
            reg.apply_one(key, 1);
            let after = reg.reg.min();
            let (epoch, change, envelope) = reg.snapshot_since(base);
            match change {
                DeltaChange::Unchanged => assert!(base.is_some() && before == after),
                DeltaChange::Full(SnapshotState::MinRegister { minimum }) => {
                    assert!(base.is_none() || before != after, "{key}: needless full");
                    cached = Some(minimum);
                }
                other => panic!("a min register answers unchanged or full, got {other:?}"),
            }
            assert_eq!(cached, Some(after));
            assert_eq!((epoch, envelope.value()), (after, after));
            base = Some(epoch);
        }
    }

    #[test]
    fn every_kind_answers_the_no_cache_base_in_full() {
        // Fresh, an empty min register's epoch is `u64::MAX` itself;
        // after the writes it holds 0. Neither may be taken for a
        // client that has no cache.
        let metrics = Metrics::new();
        let r = registry();
        let no_cache = |id: u32| {
            let d = r.snapshot_since(id, u64::MAX).unwrap();
            assert!(
                matches!(d.change, DeltaChange::Full(_)),
                "object {id}: the no-cache base must go full, got {:?}",
                d.change
            );
            assert_eq!(r.snapshot(id).unwrap().state.kind(), d.kind);
        };
        for id in 0..4u32 {
            no_cache(id);
            let mut w = r.get(id).unwrap().writer(&metrics);
            w.ensure_ready().unwrap();
            w.apply_batch(&[(0, 3)]);
            w.apply_batch(&[(41, 2)]);
            w.release();
            no_cache(id);
        }
        assert_eq!(r.get(3).unwrap().epoch(), 0);
    }

    #[test]
    fn absorb_refuses_every_foreign_kind() {
        // Each served kind absorbs its own kind's state and refuses the
        // other three with a typed error, leaving its epoch and its
        // acknowledged weight where they were.
        let metrics = Metrics::new();
        let (r, peer) = (registry(), registry());
        for id in 0..4u32 {
            let mut w = peer.get(id).unwrap().writer(&metrics);
            w.ensure_ready().unwrap();
            for key in [5u64, 9, 31] {
                w.apply_batch(&[(key, 2)]);
            }
            w.release();
        }
        let states: Vec<SnapshotState> =
            (0..4).map(|id| peer.snapshot(id).unwrap().state).collect();
        for id in 0..4u32 {
            let obj = r.get(id).unwrap();
            for (from, state) in (0u32..).zip(&states) {
                let (epoch, observed) = (obj.epoch(), obj.op_stats().observed);
                let mut w = obj.writer(&metrics);
                w.ensure_ready().unwrap();
                let absorbed = w.absorb(state, 7);
                w.release();
                if from == id {
                    absorbed.unwrap();
                    assert_eq!(obj.op_stats().observed, observed + 7);
                    continue;
                }
                let err: MergeError = absorbed.unwrap_err();
                assert_eq!(
                    err.to_string(),
                    format!(
                        "kind, dimensions or coins do not match: {:?} against {:?}",
                        state.shape(),
                        states[id as usize].shape()
                    )
                );
                assert_eq!(
                    (obj.epoch(), obj.op_stats().observed),
                    (epoch, observed),
                    "object {id} moved on a refused {} state",
                    state.kind()
                );
            }
        }
    }

    #[test]
    fn warm_cm_answers_one_frame_with_a_small_delta() {
        // A warm sketch (every row touched end to end long ago) must
        // still answer one frame with a delta far smaller than full.
        use crate::protocol::Response;
        use ivl_sketch::stream::ZipfStream;
        let metrics = Metrics::new();
        let r = registry(); // serving defaults: alpha 0.005, 2 shards
        let obj = r.get(0).unwrap();
        let mut w = obj.writer(&metrics);
        w.ensure_ready().unwrap();
        let mut keys = ZipfStream::new(1 << 16, 1.1, 11);
        let mut frame =
            |n: usize| -> Vec<(u64, u64)> { (0..n).map(|_| (keys.next_item(), 1)).collect() };
        w.apply_batch(&frame(10_000));
        let d0 = r.snapshot_since(0, u64::MAX).unwrap();
        let DeltaChange::Full(mut cached) = d0.change else {
            panic!("unknown base must go full");
        };
        w.apply_batch(&frame(32));
        w.release();

        let d1 = r.snapshot_since(0, d0.epoch).unwrap();
        assert!(
            matches!(d1.change, DeltaChange::CmRuns { .. }),
            "a warm sketch must still answer one frame sparsely, got {:?}",
            d1.change
        );
        // Exactly the frame's cells: 12 B of run header and 8 B of
        // value per touched cell, on top of an empty delta's frame.
        let DeltaChange::CmRuns { runs, .. } = &d1.change else {
            unreachable!("matched above");
        };
        let touched: usize = runs.iter().map(|run| run.len as usize).sum();
        let depth = r.cm(0).unwrap().params().depth;
        assert!(touched > 0 && touched <= 32 * depth, "{touched} cells");
        let (mut delta_frame, mut header) = (Vec::new(), Vec::new());
        Response::SnapshotDelta(d1.clone()).encode(&mut delta_frame);
        Response::SnapshotDelta(SnapshotDelta {
            change: DeltaChange::CmRuns {
                base_epoch: d0.epoch,
                runs: Vec::new(),
                values: Vec::new(),
            },
            ..d1.clone()
        })
        .encode(&mut header);
        assert!(
            delta_frame.len() <= header.len() + 24 * touched,
            "delta frame {} B for {touched} touched cells over a {} B header",
            delta_frame.len(),
            header.len()
        );
        cached.apply_change(d1.change).unwrap();
        assert_eq!(cached, r.snapshot(0).unwrap().state);
    }

    #[test]
    fn ledger_keeps_the_minimum_of_two_decompositions_of_one_sum() {
        let cm = ServedCountMin::new(0.005, 0.01, 2, 0, &mut CoinFlips::from_seed(1));
        assert_eq!(cm.ledger_exchange(vec![1, 2], Some(3)), Some(vec![1, 2]));
        assert_eq!(cm.ledger_exchange(vec![2, 1], Some(3)), Some(vec![1, 1]));
        assert_eq!(cm.ledger_exchange(vec![2, 2], Some(5)), None);
    }

    #[test]
    fn cm_delta_falls_back_to_full_when_the_base_left_the_ledger() {
        let metrics = Metrics::new();
        let r = registry();
        let obj = r.get(0).unwrap();
        let base = r.snapshot_since(0, u64::MAX).unwrap().epoch;
        // Push more epochs through the ledger than it remembers.
        for i in 0..(SNAPSHOT_LEDGER_CAP as u64 + 4) {
            let mut w = obj.writer(&metrics);
            w.ensure_ready().unwrap();
            w.apply_batch(&[(i, 1)]);
            w.release();
            let _ = r.snapshot_since(0, u64::MAX);
        }
        let d = r.snapshot_since(0, base).unwrap();
        assert!(
            matches!(d.change, DeltaChange::Full(_)),
            "evicted base must fall back to a full snapshot, got {:?}",
            d.change
        );
    }

    #[test]
    fn cm_delta_falls_back_to_full_when_the_log_lapped_the_base() {
        let metrics = Metrics::new();
        let r = registry();
        let obj = r.get(0).unwrap();
        let depth = r.cm(0).unwrap().params().depth;
        let mut w = obj.writer(&metrics);
        w.ensure_ready().unwrap();
        let full = |base: u64| {
            matches!(
                r.snapshot_since(0, base).unwrap().change,
                DeltaChange::Full(_)
            )
        };
        // More single-key touches than a shard's ring holds, with the
        // base still in the ledger (nobody polled in between).
        let base = r.snapshot_since(0, u64::MAX).unwrap().epoch;
        for key in 0..400u64 {
            w.apply_batch(&[(key, 1)]);
        }
        assert!(full(base), "a base the ring lapped must go full");
        // One frame too large to log laps every older base at once...
        let before = r.snapshot_since(0, u64::MAX).unwrap().epoch;
        let frame: Vec<(u64, u64)> = (0..400u64).map(|key| (key, 1)).collect();
        w.apply_batch(&frame);
        assert!(
            full(before),
            "a base older than an over-size op must go full"
        );
        // ...and none taken after it: the next small write is a delta
        // of exactly its own cells.
        let after = r.snapshot_since(0, u64::MAX).unwrap().epoch;
        w.apply_batch(&[(7, 1)]);
        w.release();
        match r.snapshot_since(0, after).unwrap().change {
            DeltaChange::CmRuns { runs, values, .. } => {
                assert_eq!(values.len(), depth);
                assert!(runs.iter().all(|run| run.len == 1));
            }
            other => panic!("wanted sparse runs, got {other:?}"),
        }
    }

    #[test]
    fn same_seed_same_slot_gives_equal_fingerprints() {
        // The replication precondition: two registries built from the
        // same seed sample the same coins per slot; different seeds
        // (or different slots) fingerprint differently.
        let a = registry();
        let b = registry();
        let fp = |r: &ObjectRegistry, id: u32| match r.snapshot(id).unwrap().state {
            SnapshotState::CountMin { hash_fp, .. } | SnapshotState::Hll { hash_fp, .. } => hash_fp,
            other => panic!("no fingerprint in {other:?}"),
        };
        assert_eq!(fp(&a, 0), fp(&b, 0));
        assert_eq!(fp(&a, 1), fp(&b, 1));
        let other = ObjectRegistry::build(
            &[
                ObjectConfig::new("cm", ObjectKind::CountMin),
                ObjectConfig::new("hll", ObjectKind::Hll),
            ],
            0.005,
            0.01,
            2,
            0,
            8,
        );
        assert_ne!(fp(&a, 0), fp(&other, 0));
        assert_ne!(fp(&a, 1), fp(&other, 1));
    }

    #[test]
    fn absorb_then_snapshot_equals_snapshot_then_merge() {
        use ivl_merge::{merge_states, MergePolicy};
        let metrics = Metrics::new();
        let a = registry();
        let b = registry(); // same seed: merging is legal
        for id in 0..4u32 {
            for (reg, keys) in [(&a, [5u64, 9, 31]), (&b, [9u64, 77, 200])] {
                let obj = reg.get(id).unwrap();
                let mut w = obj.writer(&metrics);
                w.ensure_ready().unwrap();
                for k in keys {
                    w.apply_batch(&[(k, 2)]);
                }
                w.release();
            }
        }
        for id in 0..4u32 {
            let sa = a.snapshot(id).unwrap();
            let sb = b.snapshot(id).unwrap();
            let merged = merge_states(MergePolicy::Add, &[&sa.state, &sb.state]).unwrap();
            let obj = a.get(id).unwrap();
            let mut w = obj.writer(&metrics);
            w.ensure_ready().unwrap();
            w.absorb(&sb.state, 6).unwrap();
            w.release();
            assert_eq!(
                a.snapshot(id).unwrap().state,
                merged,
                "object {id}: absorb-then-snapshot must equal snapshot-then-merge"
            );
            // The absorbed acknowledged weight is credited once.
            assert_eq!(a.get(id).unwrap().op_stats().observed, 12);
        }
    }

    #[test]
    fn absorb_refuses_mismatched_coins_and_kinds() {
        let metrics = Metrics::new();
        let a = registry();
        let skewed = ObjectRegistry::build(
            &[
                ObjectConfig::new("cm", ObjectKind::CountMin),
                ObjectConfig::new("hll", ObjectKind::Hll),
            ],
            0.005,
            0.01,
            2,
            0,
            8, // different seed: different coins, must be refused
        );
        for id in 0..2u32 {
            let snap = skewed.snapshot(id).unwrap();
            let obj = a.get(id).unwrap();
            let mut w = obj.writer(&metrics);
            w.ensure_ready().unwrap();
            assert!(
                w.absorb(&snap.state, 1).is_err(),
                "object {id}: mismatched coins must be refused"
            );
            // Kind mismatch: push the other kind's state at this writer.
            let other = a.snapshot(1 - id).unwrap();
            assert!(w.absorb(&other.state, 1).is_err());
            w.release();
        }
        // The served shape carrying one cell too few: refused whole.
        let mut short = a.snapshot(0).unwrap().state;
        if let SnapshotState::CountMin { cells, .. } = &mut short {
            cells.pop();
        }
        let mut w = a.get(0).unwrap().writer(&metrics);
        w.ensure_ready().unwrap();
        let err = w.absorb(&short, 1).unwrap_err();
        assert_eq!(
            err.to_string(),
            "peer CountMin cells do not fill its dimensions"
        );
        w.release();
        // Nothing was credited by refused pushes.
        assert_eq!(a.total_observed(), 0);
    }

    #[test]
    fn morris_clamps_estimator_events_but_acknowledges_all_weight() {
        let metrics = Metrics::new();
        let obj = ServedMorris::new(MORRIS_A, CoinFlips::from_seed(5));
        let mut w = obj.writer(&metrics);
        w.ensure_ready().unwrap();
        w.apply_batch(&[(0, u64::MAX)]); // must terminate quickly
        match obj.query(0) {
            ErrorEnvelope::ApproxCount { observed, .. } => assert_eq!(observed, u64::MAX),
            other => panic!("wanted approx-count envelope, got {other:?}"),
        }
    }
}
