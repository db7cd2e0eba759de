//! The replication surface of [`ServiceRegistry`]: cursors and
//! [`ServiceRegistry::sync_from`].
//!
//! Delta-QASSA re-selection (replaying churn since compose time), the
//! daemon's churn receipts and registry persistence all follow the
//! registry's event log. `sync_from` folds the cursor/gap/snapshot dance
//! into one typed call: a replica presents its [`ReplicaCursor`] and gets
//! back either the contiguous [`SyncResponse::Delta`] it can replay
//! incrementally, or — when the cursor fell behind the retained window —
//! a [`SyncResponse::Snapshot`] to resync from. The gap is handled
//! *inside* the call, so callers cannot forget the fallback leg.
//!
//! # Examples
//!
//! ```
//! use qasom_registry::{ServiceDescription, ServiceRegistry, SyncResponse};
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
/// [`sync_cursor`](ServiceRegistry::sync_cursor) call remains meaningful
/// for every later [`sync_from`](ServiceRegistry::sync_from). A newtype
/// rather than a bare `usize`, which reads equally well as a length, an
/// index or an epoch — exactly how the `retry_after_ticks` class of
/// off-by-one bugs gets in.
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
}

impl fmt::Display for ReplicaCursor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// What a replica gets back from [`ServiceRegistry::sync_from`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncResponse<'a> {
    /// The contiguous events from the replica's cursor to the head.
    /// Replaying them advances the replica to
    /// [`sync_cursor`](ServiceRegistry::sync_cursor). Empty when the
    /// replica is already caught up.
    Delta(&'a [RegistryEvent]),
    /// The replica's cursor predates the oldest retained event:
    /// incremental catch-up is impossible, replace the world view with
    /// the snapshot's live set and continue from its cursor.
    Snapshot(RegistrySnapshot),
}

/// The typed replication surface. It promises:
///
/// * [`sync_cursor`](ServiceRegistry::sync_cursor) is monotone;
/// * [`sync_from`](ServiceRegistry::sync_from) returns
///   [`SyncResponse::Delta`] exactly when the cursor is inside the
///   retained window, and the delta is the *complete* contiguous run of
///   events from the cursor to the head;
/// * the snapshot leg's live set plus later deltas reconstruct every
///   subsequent registry state.
impl ServiceRegistry {
    /// The head of the event log: where a replica that replays
    /// everything ends up.
    pub fn sync_cursor(&self) -> ReplicaCursor {
        ReplicaCursor::new(self.event_head())
    }

    /// Events since `cursor`, or a snapshot when the cursor fell behind
    /// the retained window.
    pub fn sync_from(&self, cursor: ReplicaCursor) -> SyncResponse<'_> {
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
        match reg.sync_from(cursor) {
            SyncResponse::Delta(events) => {
                assert_eq!(
                    *events,
                    [RegistryEvent::Registered(a), RegistryEvent::Deregistered(a)]
                );
                assert_eq!(cursor.seq() + events.len(), reg.sync_cursor().seq());
            }
            SyncResponse::Snapshot(_) => panic!("nothing was compacted"),
        }
    }

    #[test]
    fn gap_falls_back_to_a_snapshot() {
        let mut reg = ServiceRegistry::new();
        let stale = reg.sync_cursor();
        let a = reg.register(svc("a"));
        let b = reg.register(svc("b"));
        reg.set_event_retention(1);
        let caught_up = match reg.sync_from(stale) {
            SyncResponse::Snapshot(snap) => {
                assert_eq!(snap.live, vec![a, b]);
                assert_eq!(snap.cursor, reg.sync_cursor().seq());
                ReplicaCursor::new(snap.cursor)
            }
            SyncResponse::Delta(_) => panic!("the stale cursor was compacted away"),
        };
        // Continuing from the snapshot's cursor is incremental again.
        let c = reg.register(svc("c"));
        match reg.sync_from(caught_up) {
            SyncResponse::Delta(events) => {
                assert_eq!(*events, [RegistryEvent::Registered(c)]);
            }
            SyncResponse::Snapshot(_) => panic!("cursor was inside the window"),
        }
    }

    #[test]
    fn cursors_are_ordered_and_render_their_sequence_number() {
        let a = ReplicaCursor::new(3);
        assert!(a < ReplicaCursor::new(7));
        assert_eq!(a.to_string(), "@3");
    }
}
