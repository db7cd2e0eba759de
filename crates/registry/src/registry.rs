//! The service directory.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

use qasom_ontology::{ConceptId, Iri, Ontology};

use crate::ServiceDescription;

/// Capability-index tag: the service's *profile* matches the probed
/// concept.
pub(crate) const VIA_PROFILE: u8 = 0b01;
/// Capability-index tag: one of the service's *operations* matches the
/// probed concept.
pub(crate) const VIA_OPERATION: u8 = 0b10;

/// The inverted capability index: for every (canonical) ontology concept,
/// the live services that can serve a request for it with a usable degree
/// (`Exact` or `PlugIn`), plus syntactic buckets for function IRIs the
/// ontology does not know.
///
/// `BTreeMap<ServiceId, u8>` keeps each posting list id-sorted, so index
/// probes enumerate candidates in the same order a linear registry scan
/// would — a prerequisite for byte-identical discovery results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct CapabilityIndex {
    /// canonical concept → services offering a sub-concept (or the
    /// concept itself), tagged with *how* (profile and/or operation).
    by_concept: HashMap<ConceptId, BTreeMap<ServiceId, u8>>,
    /// function IRIs unknown to the ontology → services advertising them
    /// verbatim (syntactic `Exact` fallback), with the same tags.
    by_unknown_iri: HashMap<Iri, BTreeMap<ServiceId, u8>>,
}

impl CapabilityIndex {
    fn insert(&mut self, ontology: &Ontology, id: ServiceId, desc: &ServiceDescription) {
        self.tag(ontology, id, desc.function(), VIA_PROFILE);
        for op in desc.operations() {
            self.tag(ontology, id, op.function(), VIA_OPERATION);
        }
    }

    fn remove(&mut self, ontology: &Ontology, id: ServiceId, desc: &ServiceDescription) {
        self.untag(ontology, id, desc.function(), VIA_PROFILE);
        for op in desc.operations() {
            self.untag(ontology, id, op.function(), VIA_OPERATION);
        }
    }

    fn tag(&mut self, ontology: &Ontology, id: ServiceId, offered: &Iri, via: u8) {
        match ontology.concept(offered) {
            Some(concept) => {
                // A request for any ancestor of the offered concept is
                // served with Exact or PlugIn strength, so the service
                // joins every ancestor's posting list. `ancestors`
                // yields canonical ids, which is also what probes use.
                for ancestor in ontology.ancestors(concept) {
                    *self
                        .by_concept
                        .entry(ancestor)
                        .or_default()
                        .entry(id)
                        .or_insert(0) |= via;
                }
            }
            None => {
                *self
                    .by_unknown_iri
                    .entry(offered.clone())
                    .or_default()
                    .entry(id)
                    .or_insert(0) |= via;
            }
        }
    }

    fn untag(&mut self, ontology: &Ontology, id: ServiceId, offered: &Iri, via: u8) {
        match ontology.concept(offered) {
            Some(concept) => {
                for ancestor in ontology.ancestors(concept) {
                    Self::clear_bit(self.by_concept.get_mut(&ancestor), id, via);
                    if self
                        .by_concept
                        .get(&ancestor)
                        .is_some_and(BTreeMap::is_empty)
                    {
                        self.by_concept.remove(&ancestor);
                    }
                }
            }
            None => {
                Self::clear_bit(self.by_unknown_iri.get_mut(offered), id, via);
                if self
                    .by_unknown_iri
                    .get(offered)
                    .is_some_and(BTreeMap::is_empty)
                {
                    self.by_unknown_iri.remove(offered);
                }
            }
        }
    }

    fn clear_bit(bucket: Option<&mut BTreeMap<ServiceId, u8>>, id: ServiceId, via: u8) {
        let Some(bucket) = bucket else { return };
        if let Some(bits) = bucket.get_mut(&id) {
            *bits &= !via;
            if *bits == 0 {
                bucket.remove(&id);
            }
        }
    }
}

/// Handle to a registered service. Ids are never reused within one
/// registry, so a stale id reliably reports a departed service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceId(u32);

impl ServiceId {
    /// Index into the registry's service table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw id, for persistence codecs.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds an id from its raw form (persistence codecs only: ids
    /// are meaningful within the registry that allocated them).
    pub fn from_raw(raw: u32) -> Self {
        ServiceId(raw)
    }
}

impl fmt::Display for ServiceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A change notification produced by the registry, consumed by components
/// that track environment dynamics (monitoring, adaptation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegistryEvent {
    /// A provider published a service.
    Registered(ServiceId),
    /// A provider (or churn) removed a service.
    Deregistered(ServiceId),
}

/// An observer's cursor points before the oldest retained event: the
/// intervening events were compacted away, so incremental catch-up is
/// impossible and the observer must resync from a [`RegistrySnapshot`]
/// (which [`ServiceRegistry::sync_from`] hands out automatically).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventLogGap {
    /// Sequence number of the oldest event still retained.
    pub oldest_retained: usize,
    /// Events lost between the observer's cursor and the retained log.
    pub missed: usize,
}

impl fmt::Display for EventLogGap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "event log gap: {} events compacted away (oldest retained seq {})",
            self.missed, self.oldest_retained
        )
    }
}

impl std::error::Error for EventLogGap {}

/// A consistent view for observers resyncing across an [`EventLogGap`]:
/// the live services at `cursor`. Replaying events from `cursor` on top
/// of `live` reconstructs every later registry state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// Event cursor the snapshot corresponds to (continue incrementally
    /// from here via
    /// [`ServiceRegistry::sync_from`]).
    pub cursor: usize,
    /// Ids of every live service, ascending.
    pub live: Vec<ServiceId>,
}

/// The service directory of a pervasive environment.
///
/// Supports dynamic registration/departure and keeps an event log so
/// observers can catch up on churn through the typed
/// [`sync_from`](ServiceRegistry::sync_from) surface. The log can be bounded
/// (`set_event_retention`) or compacted explicitly (`compact_events`);
/// cursors stay monotone across compaction, and an observer whose
/// cursor fell behind the retained window transparently gets a
/// [`RegistrySnapshot`] to resync from.
///
/// # Examples
///
/// ```
/// use qasom_registry::{ServiceDescription, ServiceRegistry};
///
/// let mut reg = ServiceRegistry::new();
/// let id = reg.register(ServiceDescription::new("s", "d#F"));
/// assert!(reg.get(id).is_some());
/// reg.deregister(id);
/// assert!(reg.get(id).is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ServiceRegistry {
    services: Vec<Option<ServiceDescription>>,
    /// Retained suffix of the event log; `events[0]` has sequence number
    /// `events_base`. Sequence numbers are monotone and never reused, so
    /// compaction moves `events_base` forward without disturbing cursors.
    events: Vec<RegistryEvent>,
    events_base: usize,
    /// Retention bound: compaction keeps at most this many recent events
    /// (`None` = unbounded, the historical behaviour).
    event_retention: Option<usize>,
    alive: usize,
    /// Bound taxonomy: enables the inverted capability index. `None`
    /// keeps the registry purely syntactic (discovery falls back to
    /// linear scans).
    ontology: Option<Arc<Ontology>>,
    index: CapabilityIndex,
}

impl ServiceRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ServiceRegistry::default()
    }

    /// Creates an empty registry with the capability index enabled over
    /// `ontology` (see [`ServiceRegistry::bind_ontology`]).
    pub fn with_ontology(ontology: Arc<Ontology>) -> Self {
        let mut registry = ServiceRegistry::new();
        registry.bind_ontology(ontology);
        registry
    }

    /// Rebuilds a registry from persisted state: the full service table
    /// (tombstones included, so replayed registrations allocate the
    /// exact ids the original run did) positioned at event sequence
    /// `events_base` with an empty retained log. The capability index is
    /// rebuilt from the live slots when an ontology is supplied.
    pub(crate) fn restore(
        slots: Vec<Option<ServiceDescription>>,
        events_base: usize,
        ontology: Option<Arc<Ontology>>,
    ) -> Self {
        let alive = slots.iter().flatten().count();
        let mut registry = ServiceRegistry {
            services: slots,
            events: Vec::new(),
            events_base,
            event_retention: None,
            alive,
            ontology,
            index: CapabilityIndex::default(),
        };
        registry.rebuild_index();
        registry
    }

    /// The raw service table — live descriptions and tombstones — for
    /// the persistence snapshot codec.
    pub(crate) fn slots(&self) -> &[Option<ServiceDescription>] {
        &self.services
    }

    /// Binds a domain ontology and (re)builds the inverted capability
    /// index over it.
    ///
    /// From then on every registration and departure maintains the index
    /// incrementally: a service is posted under every *ancestor* of its
    /// offered capability concepts, so a PlugIn/Exact lookup for a
    /// required concept is a single probe instead of a registry scan.
    /// [`Discovery`](crate::Discovery) uses the index automatically when
    /// its ontology matches the bound one (checked via
    /// [`Ontology::stamp`]).
    pub fn bind_ontology(&mut self, ontology: Arc<Ontology>) {
        self.ontology = Some(ontology);
        self.rebuild_index();
    }

    /// The ontology the capability index is maintained over, if any.
    pub fn ontology(&self) -> Option<&Arc<Ontology>> {
        self.ontology.as_ref()
    }

    /// Discards and rebuilds the capability index from the live services.
    ///
    /// Needed only after mutating a service's *capabilities* (function or
    /// operations) in place through [`ServiceRegistry::get_mut`] — QoS
    /// re-advertisements do not touch the index.
    pub fn rebuild_index(&mut self) {
        self.index = CapabilityIndex::default();
        let Some(ontology) = self.ontology.clone() else {
            return;
        };
        for (i, slot) in self.services.iter().enumerate() {
            if let Some(desc) = slot {
                self.index.insert(&ontology, ServiceId(i as u32), desc);
            }
        }
    }

    /// Whether this registry's capability index is identical to
    /// `other`'s — the cross-instance oracle of the persistence
    /// kill-and-replay tests (a recovered registry must rebuild the
    /// exact index, not merely an equivalent one).
    pub fn index_eq(&self, other: &ServiceRegistry) -> bool {
        self.index == other.index
    }

    /// Whether the incrementally maintained capability index is equal to
    /// one rebuilt from scratch — the index's consistency invariant,
    /// exercised by the churn property tests.
    pub fn index_matches_rebuild(&self) -> bool {
        let Some(ontology) = self.ontology.as_deref() else {
            // No ontology bound: the index must be empty.
            return self.index == CapabilityIndex::default();
        };
        let mut fresh = CapabilityIndex::default();
        for (id, desc) in self.iter() {
            fresh.insert(ontology, id, desc);
        }
        self.index == fresh
    }

    /// Index probe: live services able to serve a request for `concept`
    /// with usable strength (`Exact`/`PlugIn`), id-ascending, tagged with
    /// how they qualified. `concept` is canonicalised by the caller
    /// ([`Ontology::canon`]).
    pub(crate) fn usable_for_concept(
        &self,
        concept: ConceptId,
    ) -> Option<&BTreeMap<ServiceId, u8>> {
        self.index.by_concept.get(&concept)
    }

    /// Index probe: live services advertising the ontology-unknown IRI
    /// `function` verbatim (syntactic `Exact` fallback).
    pub(crate) fn usable_for_unknown_iri(
        &self,
        function: &Iri,
    ) -> Option<&BTreeMap<ServiceId, u8>> {
        self.index.by_unknown_iri.get(function)
    }

    /// Publishes a service, returning its id.
    pub fn register(&mut self, description: ServiceDescription) -> ServiceId {
        // Saturate rather than panic: a registry of u32::MAX services is
        // unreachable in practice (the index vectors exhaust memory far
        // earlier), and the broker must never abort the serving loop.
        let id = ServiceId(u32::try_from(self.services.len()).unwrap_or(u32::MAX));
        if let Some(ontology) = &self.ontology {
            self.index.insert(ontology, id, &description);
        }
        self.services.push(Some(description));
        self.alive += 1;
        self.record(RegistryEvent::Registered(id));
        id
    }

    /// Removes a service, returning its description if it was present.
    pub fn deregister(&mut self, id: ServiceId) -> Option<ServiceDescription> {
        let slot = self.services.get_mut(id.index())?;
        let desc = slot.take();
        if let Some(desc) = &desc {
            self.alive -= 1;
            self.record(RegistryEvent::Deregistered(id));
            if let Some(ontology) = &self.ontology {
                self.index.remove(ontology, id, desc);
            }
        }
        desc
    }

    /// The description of a live service.
    pub fn get(&self, id: ServiceId) -> Option<&ServiceDescription> {
        self.services.get(id.index())?.as_ref()
    }

    /// Mutable description access (QoS re-advertisement).
    pub fn get_mut(&mut self, id: ServiceId) -> Option<&mut ServiceDescription> {
        self.services.get_mut(id.index())?.as_mut()
    }

    /// Number of live services.
    pub fn len(&self) -> usize {
        self.alive
    }

    /// Whether no service is live.
    pub fn is_empty(&self) -> bool {
        self.alive == 0
    }

    /// Iterates over live services.
    pub fn iter(&self) -> impl Iterator<Item = (ServiceId, &ServiceDescription)> {
        self.services
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|d| (ServiceId(i as u32), d)))
    }

    /// Total number of events emitted so far — the head of the event
    /// log, equal to [`ServiceRegistry::sync_cursor`]'s
    /// raw sequence number. Monotone: compaction never rewinds it.
    pub fn event_cursor(&self) -> usize {
        self.event_head()
    }

    /// The raw head sequence number ([`ServiceRegistry::sync_from`] backing).
    pub(crate) fn event_head(&self) -> usize {
        self.events_base + self.events.len()
    }

    /// Sequence number of the oldest event still retained. Cursors below
    /// this fall into a gap.
    pub fn oldest_retained_event(&self) -> usize {
        self.events_base
    }

    /// Bounds the event log: at most `keep` recent events are retained
    /// from now on (older ones are compacted away immediately and on
    /// every future emission). Production registries run with a bound so
    /// sustained churn cannot grow memory without limit.
    pub fn set_event_retention(&mut self, keep: usize) {
        self.event_retention = Some(keep);
        self.enforce_retention();
    }

    /// Drops retained events with sequence numbers below `cursor`
    /// (clamped to the emitted range), e.g. once every observer has
    /// consumed them. Returns how many events were dropped.
    pub fn compact_events(&mut self, cursor: usize) -> usize {
        let cut = cursor.clamp(self.events_base, self.event_cursor()) - self.events_base;
        self.events.drain(..cut);
        self.events_base += cut;
        cut
    }

    /// [`ServiceRegistry::sync_from`] backing: retained events from `cursor`,
    /// or the gap when the cursor fell behind the retained window.
    pub(crate) fn retained_events_from(
        &self,
        cursor: usize,
    ) -> Result<&[RegistryEvent], EventLogGap> {
        if cursor < self.events_base {
            return Err(EventLogGap {
                oldest_retained: self.events_base,
                missed: self.events_base - cursor,
            });
        }
        let from = (cursor - self.events_base).min(self.events.len());
        Ok(&self.events[from..])
    }

    /// [`ServiceRegistry::sync_from`] backing: the live services as of the
    /// current event head.
    pub(crate) fn resync_point(&self) -> RegistrySnapshot {
        RegistrySnapshot {
            cursor: self.event_head(),
            live: self.iter().map(|(id, _)| id).collect(),
        }
    }

    fn record(&mut self, event: RegistryEvent) {
        self.events.push(event);
        self.enforce_retention();
    }

    fn enforce_retention(&mut self) {
        if let Some(keep) = self.event_retention {
            if self.events.len() > keep {
                let cut = self.events.len() - keep;
                self.events.drain(..cut);
                self.events_base += cut;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc(name: &str, function: &str) -> ServiceDescription {
        ServiceDescription::new(name, function)
    }

    #[test]
    fn register_and_lookup() {
        let mut r = ServiceRegistry::new();
        let a = r.register(svc("a", "d#F"));
        let b = r.register(svc("b", "d#G"));
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(a).unwrap().name(), "a");
        assert_eq!(r.get(b).unwrap().name(), "b");
    }

    #[test]
    fn deregister_removes_and_is_idempotent() {
        let mut r = ServiceRegistry::new();
        let a = r.register(svc("a", "d#F"));
        assert!(r.deregister(a).is_some());
        assert!(r.deregister(a).is_none());
        assert_eq!(r.len(), 0);
        assert!(r.get(a).is_none());
    }

    #[test]
    fn ids_are_never_reused() {
        let mut r = ServiceRegistry::new();
        let a = r.register(svc("a", "d#F"));
        r.deregister(a);
        let b = r.register(svc("b", "d#F"));
        assert_ne!(a, b);
        assert!(r.get(a).is_none());
    }

    #[test]
    fn event_log_records_churn() {
        let mut r = ServiceRegistry::new();
        let cursor = r.event_cursor();
        let a = r.register(svc("a", "d#F"));
        r.deregister(a);
        assert_eq!(
            r.retained_events_from(cursor).unwrap(),
            &[RegistryEvent::Registered(a), RegistryEvent::Deregistered(a)]
        );
        assert!(r.retained_events_from(r.event_cursor()).unwrap().is_empty());
    }

    #[test]
    fn retention_bounds_the_log_and_keeps_the_cursor_monotone() {
        let mut r = ServiceRegistry::new();
        r.set_event_retention(4);
        for i in 0..10 {
            r.register(svc(&format!("s{i}"), "d#F"));
        }
        // 10 events emitted, only the last 4 retained.
        assert_eq!(r.event_cursor(), 10);
        assert_eq!(r.oldest_retained_event(), 6);
        assert_eq!(r.retained_events_from(6).unwrap().len(), 4);
        // The cursor keeps counting past compaction.
        r.register(svc("late", "d#F"));
        assert_eq!(r.event_cursor(), 11);
        assert_eq!(r.oldest_retained_event(), 7);
    }

    #[test]
    fn stale_cursor_detects_the_gap_and_resyncs_via_snapshot() {
        let mut r = ServiceRegistry::new();
        let stale = r.event_cursor();
        let a = r.register(svc("a", "d#F"));
        let b = r.register(svc("b", "d#F"));
        r.deregister(a);
        r.set_event_retention(1);
        // The observer's cursor fell behind the retained window…
        let gap = r
            .retained_events_from(stale)
            .expect_err("events were compacted");
        assert_eq!(gap.oldest_retained, 2);
        assert_eq!(gap.missed, 2);
        assert!(!gap.to_string().is_empty());
        // …so it resyncs: the snapshot's live set is the current world,
        // and its cursor continues incrementally without another gap.
        let snap = r.resync_point();
        assert_eq!(snap.live, vec![b]);
        assert_eq!(snap.cursor, r.event_cursor());
        let c = r.register(svc("c", "d#F"));
        assert_eq!(
            r.retained_events_from(snap.cursor).unwrap(),
            &[RegistryEvent::Registered(c)]
        );
    }

    #[test]
    fn explicit_compaction_drops_consumed_events() {
        let mut r = ServiceRegistry::new();
        for i in 0..6 {
            r.register(svc(&format!("s{i}"), "d#F"));
        }
        let consumed = 4;
        assert_eq!(r.compact_events(consumed), 4);
        assert_eq!(r.oldest_retained_event(), 4);
        assert_eq!(r.retained_events_from(4).unwrap().len(), 2);
        // Compacting behind the current base or past the head is safe.
        assert_eq!(r.compact_events(0), 0);
        assert_eq!(r.compact_events(usize::MAX), 2);
        assert!(r.retained_events_from(r.event_cursor()).unwrap().is_empty());
        assert_eq!(r.event_cursor(), 6);
    }

    #[test]
    fn unbounded_log_never_gaps() {
        let mut r = ServiceRegistry::new();
        for i in 0..100 {
            let id = r.register(svc(&format!("s{i}"), "d#F"));
            r.deregister(id);
        }
        assert_eq!(r.retained_events_from(0).unwrap().len(), 200);
    }

    // ---- compaction boundary audit ---------------------------------
    // The off-by-one class that bit `retry_after_ticks` in PR 7 lives
    // exactly at these edges: compaction *at* the live cursor, a
    // retention bound of zero, and reads one event either side of the
    // compaction edge.

    #[test]
    fn compaction_exactly_at_the_live_cursor_keeps_the_head_readable() {
        let mut r = ServiceRegistry::new();
        for i in 0..5 {
            r.register(svc(&format!("s{i}"), "d#F"));
        }
        let head = r.event_cursor();
        // Compacting at the head drops everything retained…
        assert_eq!(r.compact_events(head), 5);
        assert_eq!(r.oldest_retained_event(), head);
        assert_eq!(r.event_cursor(), head);
        // …a cursor at the head still reads an empty delta (no gap)…
        assert_eq!(r.retained_events_from(head).unwrap(), &[]);
        // …and the very next event is readable from that same cursor.
        let a = r.register(svc("late", "d#F"));
        assert_eq!(
            r.retained_events_from(head).unwrap(),
            &[RegistryEvent::Registered(a)]
        );
        // Compacting at the head twice is idempotent.
        let head = r.event_cursor();
        assert_eq!(r.compact_events(head), 1);
        assert_eq!(r.compact_events(head), 0);
    }

    #[test]
    fn zero_retention_compacts_every_event_immediately() {
        let mut r = ServiceRegistry::new();
        r.set_event_retention(0);
        let before = r.event_cursor();
        let a = r.register(svc("a", "d#F"));
        r.deregister(a);
        // The cursor still advances event by event…
        assert_eq!(r.event_cursor(), before + 2);
        assert_eq!(r.oldest_retained_event(), r.event_cursor());
        // …a head cursor reads empty, anything older is a gap of the
        // exact missed count.
        assert_eq!(r.retained_events_from(r.event_cursor()).unwrap(), &[]);
        let gap = r.retained_events_from(before).expect_err("all compacted");
        assert_eq!(gap.oldest_retained, r.event_cursor());
        assert_eq!(gap.missed, 2);
        // Setting zero retention on a populated log empties it too.
        let mut r2 = ServiceRegistry::new();
        r2.register(svc("x", "d#F"));
        r2.set_event_retention(0);
        assert_eq!(r2.oldest_retained_event(), r2.event_cursor());
    }

    #[test]
    fn events_at_the_compaction_edge_are_off_by_one_exact() {
        let mut r = ServiceRegistry::new();
        for i in 0..6 {
            r.register(svc(&format!("s{i}"), "d#F"));
        }
        r.compact_events(3);
        let edge = r.oldest_retained_event();
        assert_eq!(edge, 3);
        // At the edge: the full retained window, no gap.
        assert_eq!(r.retained_events_from(edge).unwrap().len(), 3);
        // One before the edge: a gap missing exactly one event.
        let gap = r.retained_events_from(edge - 1).expect_err("one short");
        assert_eq!(gap.oldest_retained, edge);
        assert_eq!(gap.missed, 1);
        // One after the edge: one fewer event, still no gap.
        assert_eq!(r.retained_events_from(edge + 1).unwrap().len(), 2);
    }
}
