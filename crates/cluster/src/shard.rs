//! Capability-bucket shards and scatter/gather discovery.
//!
//! The clustered registry partitions the service directory into `N`
//! shards keyed on the *capability bucket* of each advertisement: the
//! canonical concept of the service's function when the domain ontology
//! knows it, or the raw IRI otherwise, hashed onto `0..N`. The bucket
//! governs **placement only** — semantic discovery matches through
//! subsumption, so a query for `Pay` must also reach the shard holding
//! `PayByCard`. Queries therefore always fan out to every live shard
//! ([`ShardSet::scatter_gather`]) and the per-shard candidate lists are
//! merged back in the exact order the single-registry oracle produces.
//!
//! Each shard replica tracks its position in the origin's event log with
//! a [`ReplicaCursor`] and catches up through the typed [`RegistrySync`]
//! surface: an incremental event delta when the cursor is inside the
//! retained window, a full snapshot otherwise. The deterministic plane in
//! this module syncs replicas directly against an origin registry; the
//! [`peer`](crate::peer) module runs the same state machine over the
//! network simulator with loss, retries and shard failure.

use std::collections::BTreeMap;
use std::sync::Arc;

use qasom_ontology::{Iri, Ontology};
use qasom_qos::QosModel;
use qasom_registry::{
    fnv1a_iri, DiscoveredCandidate, Discovery, DiscoveryQuery, MatchCache, RegistryEvent,
    RegistrySync, ReplicaCursor, ServiceDescription, ServiceId, ServiceRegistry, SyncResponse,
};

/// The capability bucket `function` falls into, out of `n_shards`.
///
/// Declared-equivalent concepts hash identically (the canonical IRI is
/// hashed), so re-advertisements under an alias land on the same shard.
/// IRIs unknown to the ontology hash syntactically.
pub fn shard_of(function: &Iri, ontology: &Ontology, n_shards: usize) -> usize {
    let canonical;
    let key: &Iri = match ontology.concept(function) {
        Some(c) => {
            canonical = ontology.iri(ontology.canon(c));
            canonical
        }
        None => function,
    };
    (fnv1a_iri(key) % n_shards.max(1) as u64) as usize
}

/// How one sync round caught a replica up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncKind {
    /// The replica was already at the head.
    CaughtUp,
    /// An incremental delta of this many events was replayed.
    Delta(usize),
    /// The cursor had fallen out of the retained window; a snapshot was
    /// installed.
    Snapshot,
}

/// One shard replica: its bucket's slice of the directory as a private
/// capability-indexed registry, plus the replication cursor.
pub struct ShardReplica {
    bucket: usize,
    ontology: Arc<Ontology>,
    registry: ServiceRegistry,
    /// Origin (global) id → shard-local id, for event routing.
    to_local: BTreeMap<ServiceId, ServiceId>,
    /// Shard-local dense id → the global id the candidate is known by.
    global_ids: Vec<ServiceId>,
    cursor: ReplicaCursor,
    alive: bool,
    cache: MatchCache,
}

impl ShardReplica {
    /// An empty replica for `bucket`, indexed under `ontology`.
    pub fn new(bucket: usize, ontology: Arc<Ontology>) -> Self {
        ShardReplica {
            bucket,
            registry: ServiceRegistry::with_ontology(Arc::clone(&ontology)),
            ontology,
            to_local: BTreeMap::new(),
            global_ids: Vec::new(),
            cursor: ReplicaCursor::ORIGIN,
            alive: true,
            cache: MatchCache::new(),
        }
    }

    /// The bucket this replica owns.
    pub fn bucket(&self) -> usize {
        self.bucket
    }

    /// The replica's position in the origin event log.
    pub fn cursor(&self) -> ReplicaCursor {
        self.cursor
    }

    /// Whether the replica is reachable.
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Live services currently held by this shard.
    pub fn len(&self) -> usize {
        self.registry.len()
    }

    /// Whether the shard holds no service.
    pub fn is_empty(&self) -> bool {
        self.registry.is_empty()
    }

    /// The shard's private registry (for inspection; mutate only through
    /// the replication surface).
    pub fn registry(&self) -> &ServiceRegistry {
        &self.registry
    }

    /// Marks the replica unreachable: it stops syncing and answering
    /// queries, and scatter/gather reports degraded coverage.
    pub fn fail(&mut self) {
        self.alive = false;
    }

    /// Replays an event delta starting exactly at this replica's cursor.
    ///
    /// Events outside the replica's bucket only advance the cursor.
    /// A batch whose `from` does not equal the current cursor is dropped
    /// (`Err` carries the cursor to re-pull from): deltas are idempotent
    /// at the protocol level by re-requesting, not by partial replay.
    ///
    /// # Errors
    ///
    /// Returns the replica's actual cursor when `from` does not match it.
    pub fn apply_delta(
        &mut self,
        n_shards: usize,
        from: ReplicaCursor,
        batch: &[(RegistryEvent, Option<ServiceDescription>)],
    ) -> Result<usize, ReplicaCursor> {
        if from != self.cursor {
            return Err(self.cursor);
        }
        let mut applied = 0;
        for (event, description) in batch {
            match event {
                RegistryEvent::Registered(global) => {
                    // A missing description means the service was
                    // deregistered later in this very suffix (the origin
                    // resolves descriptions at its head); skipping both
                    // events yields the same state at the head.
                    if let Some(desc) = description {
                        if shard_of(desc.function(), &self.ontology, n_shards) == self.bucket {
                            let local = self.registry.register(desc.clone());
                            self.to_local.insert(*global, local);
                            debug_assert_eq!(local.index(), self.global_ids.len());
                            self.global_ids.push(*global);
                            applied += 1;
                        }
                    }
                }
                RegistryEvent::Deregistered(global) => {
                    if let Some(local) = self.to_local.remove(global) {
                        self.registry.deregister(local);
                        applied += 1;
                    }
                }
            }
            self.cursor = self.cursor.advanced_by(1);
        }
        Ok(applied)
    }

    /// Installs a full snapshot, replacing the replica's state.
    ///
    /// `live` must be sorted by global id (the origin's snapshot order);
    /// only this bucket's services are kept.
    pub fn install_snapshot(
        &mut self,
        n_shards: usize,
        cursor: ReplicaCursor,
        live: &[(ServiceId, ServiceDescription)],
    ) {
        self.registry = ServiceRegistry::with_ontology(Arc::clone(&self.ontology));
        self.to_local.clear();
        self.global_ids.clear();
        for (global, desc) in live {
            if shard_of(desc.function(), &self.ontology, n_shards) == self.bucket {
                let local = self.registry.register(desc.clone());
                self.to_local.insert(*global, local);
                self.global_ids.push(*global);
            }
        }
        self.cursor = cursor;
    }

    /// Answers a discovery query from this shard alone, with candidate
    /// ids translated back to the origin's (global) ids.
    pub fn discover_global(
        &self,
        model: &QosModel,
        query: &DiscoveryQuery<'_>,
    ) -> Vec<DiscoveredCandidate> {
        let discovery = Discovery::with_cache(&self.ontology, model, &self.cache);
        let mut found = discovery.discover(&self.registry, query);
        for candidate in &mut found {
            if let Some(&global) = self.global_ids.get(candidate.service.index()) {
                candidate.service = global;
            }
        }
        found
    }
}

/// Result of one scatter/gather discovery round.
#[derive(Debug, Clone, PartialEq)]
pub struct GatherOutcome {
    /// Merged candidates in the single-registry oracle's order:
    /// match degree descending, then global service id ascending.
    pub candidates: Vec<DiscoveredCandidate>,
    /// Shards that answered.
    pub shards_queried: usize,
    /// Shards skipped because they are down — coverage is degraded, the
    /// query still succeeds on the remaining shards.
    pub shards_lost: usize,
    /// The most stale position among the answering shards; the gather is
    /// consistent with the oracle at (at least) this cursor restricted
    /// to the answering buckets.
    pub min_cursor: ReplicaCursor,
}

impl GatherOutcome {
    /// Whether any shard was unreachable.
    pub fn degraded(&self) -> bool {
        self.shards_lost > 0
    }
}

/// A full set of shard replicas plus the deterministic control plane:
/// direct (in-process) sync against an origin registry, and
/// scatter/gather discovery over the live shards.
pub struct ShardSet {
    ontology: Arc<Ontology>,
    shards: Vec<ShardReplica>,
}

impl ShardSet {
    /// `n` empty replicas indexed under `ontology`.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    pub fn new(n: usize, ontology: Arc<Ontology>) -> Self {
        assert!(n > 0, "a cluster needs at least one shard");
        let shards = (0..n)
            .map(|bucket| ShardReplica::new(bucket, Arc::clone(&ontology)))
            .collect();
        ShardSet { ontology, shards }
    }

    /// Number of shards (dead ones included).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The taxonomy every replica indexes under.
    pub fn ontology(&self) -> &Arc<Ontology> {
        &self.ontology
    }

    /// The replicas, bucket order.
    pub fn shards(&self) -> &[ShardReplica] {
        &self.shards
    }

    /// One replica by bucket.
    pub fn shard(&self, bucket: usize) -> &ShardReplica {
        &self.shards[bucket]
    }

    /// Marks a shard unreachable.
    pub fn fail_shard(&mut self, bucket: usize) {
        self.shards[bucket].fail();
    }

    /// The bucket a function IRI routes to in this set.
    pub fn bucket_of(&self, function: &Iri) -> usize {
        shard_of(function, &self.ontology, self.shards.len())
    }

    /// Syncs one live replica against `origin` through [`RegistrySync`]:
    /// delta replay when the cursor is retained, snapshot otherwise.
    pub fn sync_shard(&mut self, bucket: usize, origin: &ServiceRegistry) -> SyncKind {
        let n = self.shards.len();
        let shard = &mut self.shards[bucket];
        if !shard.alive {
            return SyncKind::CaughtUp;
        }
        match origin.sync_from(shard.cursor) {
            SyncResponse::Delta([]) => SyncKind::CaughtUp,
            SyncResponse::Delta(events) => {
                let from = shard.cursor;
                let batch: Vec<(RegistryEvent, Option<ServiceDescription>)> = events
                    .iter()
                    .map(|&e| {
                        let description = match e {
                            RegistryEvent::Registered(id) => origin.get(id).cloned(),
                            RegistryEvent::Deregistered(_) => None,
                        };
                        (e, description)
                    })
                    .collect();
                // `from` was read from the shard's own cursor just
                // above, so the batch can never be stale here.
                if let Err(cursor) = shard.apply_delta(n, from, &batch) {
                    panic!("shard {bucket} cursor {cursor} diverged from its own pull");
                }
                SyncKind::Delta(batch.len())
            }
            SyncResponse::Snapshot(snap) => {
                let cursor = ReplicaCursor::new(snap.cursor);
                let live: Vec<(ServiceId, ServiceDescription)> = snap
                    .live
                    .iter()
                    .filter_map(|&id| origin.get(id).map(|d| (id, d.clone())))
                    .collect();
                shard.install_snapshot(n, cursor, &live);
                SyncKind::Snapshot
            }
        }
    }

    /// Syncs every live replica to `origin`'s head.
    pub fn sync_all(&mut self, origin: &ServiceRegistry) -> Vec<SyncKind> {
        (0..self.shards.len())
            .map(|bucket| self.sync_shard(bucket, origin))
            .collect()
    }

    /// Scatter/gather discovery: fans `query` across every live shard
    /// and merges the per-shard candidates into the oracle's order.
    ///
    /// Dead shards are skipped, never waited on: their buckets simply do
    /// not contribute candidates and the outcome reports the loss.
    pub fn scatter_gather(&self, model: &QosModel, query: &DiscoveryQuery<'_>) -> GatherOutcome {
        let mut candidates = Vec::new();
        let mut shards_queried = 0;
        let mut shards_lost = 0;
        let mut min_cursor: Option<ReplicaCursor> = None;
        for shard in &self.shards {
            if !shard.alive {
                shards_lost += 1;
                continue;
            }
            shards_queried += 1;
            min_cursor = Some(match min_cursor {
                Some(m) => m.min(shard.cursor),
                None => shard.cursor,
            });
            candidates.extend(shard.discover_global(model, query));
        }
        // Each service lives in exactly one bucket, so concatenation has
        // no duplicates and the oracle's comparator fully determines the
        // merged order.
        candidates.sort_by(|a, b| b.degree.cmp(&a.degree).then(a.service.cmp(&b.service)));
        GatherOutcome {
            candidates,
            shards_queried,
            shards_lost,
            min_cursor: min_cursor.unwrap_or(ReplicaCursor::ORIGIN),
        }
    }

    /// Staleness bound: how far the most-lagged live replica trails
    /// `head`, in events.
    pub fn max_staleness(&self, head: ReplicaCursor) -> usize {
        self.shards
            .iter()
            .filter(|s| s.alive)
            .map(|s| s.cursor.lag_behind(head))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qasom_ontology::OntologyBuilder;
    use qasom_task::Activity;

    fn world() -> (Arc<Ontology>, QosModel) {
        let mut b = OntologyBuilder::new("cl");
        let pay = b.concept("Pay");
        b.subconcept("PayByCard", pay);
        b.concept("Locate");
        (
            Arc::new(b.build().unwrap()),
            qasom_qos::QosModel::standard(),
        )
    }

    fn origin(ontology: &Arc<Ontology>) -> ServiceRegistry {
        ServiceRegistry::with_ontology(Arc::clone(ontology))
    }

    #[test]
    fn shard_key_is_stable_and_alias_invariant() {
        let (onto, _) = world();
        let pay: Iri = "cl#Pay".parse().unwrap();
        for n in [1, 2, 4, 8] {
            let b = shard_of(&pay, &onto, n);
            assert!(b < n);
            assert_eq!(b, shard_of(&pay, &onto, n), "stable across calls");
        }
        // Unknown IRIs still route deterministically.
        let unknown: Iri = "cl#NeverDeclared".parse().unwrap();
        assert_eq!(shard_of(&unknown, &onto, 4), shard_of(&unknown, &onto, 4));
    }

    #[test]
    fn delta_sync_routes_events_to_the_owning_bucket() {
        let (onto, model) = world();
        let mut origin = origin(&onto);
        let mut set = ShardSet::new(4, Arc::clone(&onto));
        origin.register(ServiceDescription::new("visa", "cl#PayByCard"));
        origin.register(ServiceDescription::new("gps", "cl#Locate"));
        let kinds = set.sync_all(&origin);
        assert!(kinds.iter().all(|k| !matches!(k, SyncKind::Snapshot)));
        let total: usize = set.shards().iter().map(ShardReplica::len).sum();
        assert_eq!(total, 2, "each service lives in exactly one shard");
        for shard in set.shards() {
            assert_eq!(shard.cursor(), origin.sync_cursor());
        }
        // Subsumption: a query for Pay reaches PayByCard wherever it is.
        let activity = Activity::new("pay", "cl#Pay");
        let gathered = set.scatter_gather(&model, &DiscoveryQuery::new(&activity));
        assert_eq!(gathered.candidates.len(), 1);
        assert_eq!(gathered.shards_queried, 4);
        assert!(!gathered.degraded());
    }

    #[test]
    fn snapshot_fallback_rebuilds_a_lagged_shard() {
        let (onto, _) = world();
        let mut origin = origin(&onto);
        let mut set = ShardSet::new(2, Arc::clone(&onto));
        let a = origin.register(ServiceDescription::new("visa", "cl#PayByCard"));
        origin.register(ServiceDescription::new("gps", "cl#Locate"));
        origin.deregister(a);
        origin.register(ServiceDescription::new("visa2", "cl#PayByCard"));
        origin.set_event_retention(1);
        let kinds = set.sync_all(&origin);
        assert!(kinds.iter().all(|k| matches!(k, SyncKind::Snapshot)));
        let total: usize = set.shards().iter().map(ShardReplica::len).sum();
        assert_eq!(total, origin.len());
        assert_eq!(set.max_staleness(origin.sync_cursor()), 0);
    }

    #[test]
    fn dead_shards_degrade_coverage_without_panicking() {
        let (onto, model) = world();
        let mut origin = origin(&onto);
        let mut set = ShardSet::new(2, Arc::clone(&onto));
        origin.register(ServiceDescription::new("visa", "cl#PayByCard"));
        origin.register(ServiceDescription::new("gps", "cl#Locate"));
        set.sync_all(&origin);
        let lost_bucket = set.bucket_of(&"cl#PayByCard".parse().unwrap());
        set.fail_shard(lost_bucket);
        let activity = Activity::new("pay", "cl#Pay");
        let gathered = set.scatter_gather(&model, &DiscoveryQuery::new(&activity));
        assert_eq!(gathered.shards_lost, 1);
        assert!(gathered.degraded());
        assert!(gathered.candidates.is_empty(), "the bucket owner is down");
        // The surviving bucket still answers its own queries.
        let locate = Activity::new("locate", "cl#Locate");
        let gathered = set.scatter_gather(&model, &DiscoveryQuery::new(&locate));
        assert_eq!(gathered.candidates.len(), 1);
    }

    #[test]
    fn stale_delta_batches_are_rejected_not_replayed() {
        let (onto, _) = world();
        let mut replica = ShardReplica::new(0, Arc::clone(&onto));
        let desc = ServiceDescription::new("visa", "cl#PayByCard");
        let gid = ServiceRegistry::new().register(desc.clone());
        let batch = vec![(RegistryEvent::Registered(gid), Some(desc))];
        assert!(replica
            .apply_delta(1, ReplicaCursor::ORIGIN, &batch)
            .is_ok());
        // Re-delivering the same batch (duplicate in flight) is refused.
        let err = replica.apply_delta(1, ReplicaCursor::ORIGIN, &batch);
        assert_eq!(err, Err(ReplicaCursor::new(1)));
        assert_eq!(replica.len(), 1);
    }
}
