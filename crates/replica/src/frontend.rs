//! The replication frontend: one [`ReplicaGroup`], shared by every
//! connection, is an [`ObjectSource`] like the local registry (by
//! Theorem 1, one more object projection), so the server's gate,
//! framing and drain serve it.

use crate::{ReplicaError, ReplicaGroup};
use ivl_service::{
    serve_source, Backend, ClientError, ErrorCode, ErrorEnvelope, Metrics, ObjectInfo,
    ObjectSource, ObjectStats, Recording, Refusal, ServerConfig, ServerHandle, SnapshotDelta,
    SnapshotState,
};
use std::io;
use std::net::ToSocketAddrs;
use std::sync::{Mutex, MutexGuard};

/// A replica group served to every connection of a frontend, with the
/// update weight acknowledged through it (the `STATS` stream length).
#[derive(Debug)]
pub struct SharedGroup(Mutex<(ReplicaGroup, u64)>);

impl SharedGroup {
    fn group(&self) -> MutexGuard<'_, (ReplicaGroup, u64)> {
        self.0.lock().expect("replica group lock")
    }
}

/// Serves `group` at `addr` on the event-loop backend, with one reactor
/// thread: every call takes the group's lock, so clients are served one
/// group call at a time.
pub fn serve_group(
    addr: impl ToSocketAddrs,
    group: ReplicaGroup,
) -> io::Result<ServerHandle<SharedGroup>> {
    let cfg = ServerConfig {
        backend: Backend::EventLoop,
        shards: 1,
        ..ServerConfig::default()
    };
    serve_source(addr, cfg, SharedGroup(Mutex::new((group, 0))))
}

/// A group error as the client sees it: mismatched states are a typed
/// `merge-mismatch`, a replica's refusal is forwarded verbatim, and the
/// rest (an unreachable group too) is a retryable `busy`.
impl From<ReplicaError> for Refusal {
    fn from(e: ReplicaError) -> Self {
        let (code, message) = match e {
            ReplicaError::MergeMismatch { why } => (ErrorCode::MergeMismatch, why),
            ReplicaError::Compose(e) => (ErrorCode::MergeMismatch, e.to_string()),
            ReplicaError::Client(ClientError::Server { code, message }) => (code, message),
            other => (ErrorCode::Busy, other.to_string()),
        };
        Refusal { code, message }
    }
}

/// A frontend records no history; its replicas and clients do.
impl ObjectSource for SharedGroup {
    type Writers<'a> = ();

    fn writers(&self, _metrics: &Metrics) {}

    fn release(_writers: &mut ()) -> bool {
        false
    }

    fn batch(
        &self,
        _writers: &mut (),
        _rec: Recording<'_>,
        object: u32,
        items: &[(u64, u64)],
    ) -> Result<(), Refusal> {
        let (group, observed) = &mut *self.group();
        group.batch(object, items)?;
        *observed = observed.saturating_add(crate::core::weight_of(items));
        Ok(())
    }

    fn query(&self, _rec: Recording<'_>, object: u32, key: u64) -> Result<ErrorEnvelope, Refusal> {
        Ok(self.group().0.query(object, key)?.envelope)
    }

    fn state_since(&self, object: u32, base_epoch: u64) -> Result<SnapshotDelta, Refusal> {
        Ok(self.group().0.snapshot_since(object, base_epoch)?)
    }

    /// Refused, typed: a frontend holds no state to absorb into, and
    /// relaying a push to every replica would double-count it under
    /// partition placement.
    fn push_state(
        &self,
        _writers: &mut (),
        object: u32,
        _observed: u64,
        _state: &SnapshotState,
    ) -> Result<u64, Refusal> {
        Err(Refusal {
            code: ErrorCode::MergeMismatch,
            message: format!("object {object}: a frontend absorbs no state; push to a replica"),
        })
    }

    fn objects(&self) -> Result<Vec<ObjectInfo>, Refusal> {
        Ok(self.group().0.objects()?)
    }

    fn stats(&self) -> (u64, Vec<ObjectStats>) {
        (self.group().1, Vec::new())
    }

    /// Propagates `SHUTDOWN` to every reachable replica first.
    fn shutdown(&self) {
        self.group().0.shutdown();
    }
}
