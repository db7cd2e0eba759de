//! The unified replication surface: [`RegistrySync`].
//!
//! Three consumers used to hand-stitch the same cursor/gap/snapshot
//! dance against the raw event log: delta-QASSA re-selection (replaying
//! churn since compose time), the daemon's churn receipts, and the
//! cluster gossip peers. `RegistrySync` folds that dance into one typed
//! call: a replica presents its [`ReplicaCursor`] and gets back either
//! the contiguous [`SyncResponse::Delta`] it can replay incrementally,
//! or — when the cursor fell behind the retained window — a
//! [`SyncResponse::Snapshot`] to resync from. The gap is handled *inside*
//! the trait, so callers can no longer forget the fallback leg.
//!
//! # Examples
//!
//! ```
//! use qasom_registry::{RegistrySync, ServiceDescription, ServiceRegistry, SyncResponse};
//!
//! let mut reg = ServiceRegistry::new();
//! let replica = reg.sync_cursor(); // replica is caught up at the origin
//! reg.register(ServiceDescription::new("s", "d#F"));
//! match reg.sync_from(replica) {
//!     SyncResponse::Delta(events) => assert_eq!(events.len(), 1),
//!     SyncResponse::Snapshot(_) => unreachable!("nothing was compacted"),
//! }
//! ```

use std::fmt;

use crate::registry::{RegistryEvent, RegistrySnapshot, ServiceRegistry};

/// A replica's position in a registry's monotone event log.
///
/// Sequence numbers are never reused and compaction never rewinds them,
/// so cursors are totally ordered and a cursor taken from one
/// [`sync_cursor`](RegistrySync::sync_cursor) call remains meaningful for
/// every later [`sync_from`](RegistrySync::sync_from). The newtype
/// replaces the bare `usize` cursors the pre-cluster API passed around —
/// a bare `usize` reads equally well as a length, an index or an epoch,
/// which is exactly how the `retry_after_ticks` class of off-by-one bugs
/// gets in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReplicaCursor(usize);

impl ReplicaCursor {
    /// The cursor before the first event ever emitted.
    pub const ORIGIN: ReplicaCursor = ReplicaCursor(0);

    /// A cursor at raw sequence number `seq`.
    pub fn new(seq: usize) -> Self {
        ReplicaCursor(seq)
    }

    /// The raw sequence number.
    pub fn seq(self) -> usize {
        self.0
    }

    /// The cursor after replaying `events` further events.
    #[must_use]
    pub fn advanced_by(self, events: usize) -> Self {
        ReplicaCursor(self.0.saturating_add(events))
    }

    /// How many events this cursor trails `head` by (0 when caught up or
    /// ahead).
    pub fn lag_behind(self, head: ReplicaCursor) -> usize {
        head.0.saturating_sub(self.0)
    }
}

impl fmt::Display for ReplicaCursor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// What a replica gets back from [`RegistrySync::sync_from`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncResponse<'a> {
    /// The contiguous events from the replica's cursor to the head.
    /// Replaying them advances the replica to
    /// [`sync_cursor`](RegistrySync::sync_cursor). Empty when the
    /// replica is already caught up.
    Delta(&'a [RegistryEvent]),
    /// The replica's cursor predates the oldest retained event:
    /// incremental catch-up is impossible, replace the world view with
    /// the snapshot's live set and continue from its cursor.
    Snapshot(RegistrySnapshot),
}

impl SyncResponse<'_> {
    /// Whether the response is the snapshot (gap-fallback) leg.
    pub fn is_snapshot(&self) -> bool {
        matches!(self, SyncResponse::Snapshot(_))
    }

    /// The cursor a replica that applies this response ends up at, given
    /// the cursor it asked from.
    pub fn cursor_after(&self, asked_from: ReplicaCursor) -> ReplicaCursor {
        match self {
            SyncResponse::Delta(events) => asked_from.advanced_by(events.len()),
            SyncResponse::Snapshot(snap) => ReplicaCursor::new(snap.cursor),
        }
    }
}

/// The typed replication surface of a service registry.
///
/// Implementations promise:
///
/// * [`sync_cursor`](RegistrySync::sync_cursor) is monotone;
/// * [`sync_from`](RegistrySync::sync_from) returns
///   [`SyncResponse::Delta`] exactly when the cursor is inside the
///   retained window, and the delta is the *complete* contiguous run of
///   events from the cursor to the head;
/// * the snapshot leg's live set plus later deltas reconstruct every
///   subsequent registry state.
pub trait RegistrySync {
    /// The head of the event log: where a replica that replays
    /// everything ends up.
    fn sync_cursor(&self) -> ReplicaCursor;

    /// Events since `cursor`, or a snapshot when the cursor fell behind
    /// the retained window.
    fn sync_from(&self, cursor: ReplicaCursor) -> SyncResponse<'_>;

    /// How far `cursor` trails the head, in events.
    fn sync_lag(&self, cursor: ReplicaCursor) -> usize {
        cursor.lag_behind(self.sync_cursor())
    }
}

impl RegistrySync for ServiceRegistry {
    fn sync_cursor(&self) -> ReplicaCursor {
        ReplicaCursor::new(self.event_head())
    }

    fn sync_from(&self, cursor: ReplicaCursor) -> SyncResponse<'_> {
        match self.retained_events_from(cursor.seq()) {
            Ok(events) => SyncResponse::Delta(events),
            Err(_) => SyncResponse::Snapshot(self.resync_point()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceDescription;

    fn svc(name: &str) -> ServiceDescription {
        ServiceDescription::new(name, "d#F")
    }

    #[test]
    fn caught_up_replica_gets_an_empty_delta() {
        let reg = ServiceRegistry::new();
        let cursor = reg.sync_cursor();
        assert_eq!(cursor, ReplicaCursor::ORIGIN);
        match reg.sync_from(cursor) {
            SyncResponse::Delta(events) => assert!(events.is_empty()),
            SyncResponse::Snapshot(_) => panic!("empty log cannot gap"),
        }
    }

    #[test]
    fn delta_replays_to_the_head() {
        let mut reg = ServiceRegistry::new();
        let cursor = reg.sync_cursor();
        let a = reg.register(svc("a"));
        reg.deregister(a);
        let response = reg.sync_from(cursor);
        match &response {
            SyncResponse::Delta(events) => assert_eq!(
                **events,
                [RegistryEvent::Registered(a), RegistryEvent::Deregistered(a)]
            ),
            SyncResponse::Snapshot(_) => panic!("nothing was compacted"),
        }
        assert_eq!(response.cursor_after(cursor), reg.sync_cursor());
    }

    #[test]
    fn gap_falls_back_to_a_snapshot() {
        let mut reg = ServiceRegistry::new();
        let stale = reg.sync_cursor();
        let a = reg.register(svc("a"));
        let b = reg.register(svc("b"));
        reg.set_event_retention(1);
        let response = reg.sync_from(stale);
        assert!(response.is_snapshot());
        match &response {
            SyncResponse::Snapshot(snap) => {
                assert_eq!(snap.live, vec![a, b]);
                assert_eq!(snap.cursor, reg.sync_cursor().seq());
            }
            SyncResponse::Delta(_) => unreachable!(),
        }
        // Continuing from the snapshot's cursor is incremental again.
        let caught_up = response.cursor_after(stale);
        let c = reg.register(svc("c"));
        match reg.sync_from(caught_up) {
            SyncResponse::Delta(events) => {
                assert_eq!(*events, [RegistryEvent::Registered(c)]);
            }
            SyncResponse::Snapshot(_) => panic!("cursor was inside the window"),
        }
    }

    #[test]
    fn cursor_arithmetic_is_saturating_and_ordered() {
        let a = ReplicaCursor::new(3);
        let b = ReplicaCursor::new(7);
        assert!(a < b);
        assert_eq!(a.lag_behind(b), 4);
        assert_eq!(b.lag_behind(a), 0);
        assert_eq!(a.advanced_by(4), b);
        assert_eq!(a.to_string(), "@3");
    }
}
