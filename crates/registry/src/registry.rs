//! The service directory.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

use qasom_ontology::{ConceptId, Iri, Ontology};

use crate::ServiceDescription;

/// The inverted capability index: for every (canonical) ontology concept,
/// the live services that can serve a request for it with a usable degree
/// (`Exact` or `PlugIn`), plus syntactic buckets for function IRIs the
/// ontology does not know.
///
/// `BTreeSet<ServiceId>` keeps each posting list id-sorted, so index
/// probes enumerate candidates in the same order a linear registry scan
/// would — a prerequisite for byte-identical discovery results.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct CapabilityIndex {
    /// canonical concept → services offering a sub-concept (or the
    /// concept itself) through their profile or an operation.
    by_concept: HashMap<ConceptId, BTreeSet<ServiceId>>,
    /// function IRIs unknown to the ontology → services advertising them
    /// verbatim (syntactic `Exact` fallback).
    by_unknown_iri: HashMap<Iri, BTreeSet<ServiceId>>,
}

impl CapabilityIndex {
    /// Every function IRI `desc` offers: its profile, then its operations.
    fn offered(desc: &ServiceDescription) -> impl Iterator<Item = &Iri> {
        std::iter::once(desc.function()).chain(desc.operations().iter().map(|op| op.function()))
    }

    fn insert(&mut self, ontology: &Ontology, id: ServiceId, desc: &ServiceDescription) {
        for offered in Self::offered(desc) {
            match ontology.concept(offered) {
                // A request for any ancestor of the offered concept is
                // served with Exact or PlugIn strength, so the service
                // joins every ancestor's posting list. `ancestors`
                // yields canonical ids, which is also what probes use.
                Some(concept) => {
                    for ancestor in ontology.ancestors(concept) {
                        self.by_concept.entry(ancestor).or_default().insert(id);
                    }
                }
                None => {
                    self.by_unknown_iri
                        .entry(offered.clone())
                        .or_default()
                        .insert(id);
                }
            }
        }
    }

    /// Services enter and leave the index whole, so removing `id` from
    /// every posting `insert` put it in needs no per-IRI bookkeeping.
    fn remove(&mut self, ontology: &Ontology, id: ServiceId, desc: &ServiceDescription) {
        for offered in Self::offered(desc) {
            match ontology.concept(offered) {
                Some(concept) => {
                    for ancestor in ontology.ancestors(concept) {
                        Self::unpost(&mut self.by_concept, &ancestor, id);
                    }
                }
                None => Self::unpost(&mut self.by_unknown_iri, offered, id),
            }
        }
    }

    /// Removes `id` from the posting under `key`, dropping a posting it
    /// empties so the index stays equal to a rebuild.
    fn unpost<K: Eq + Hash>(
        postings: &mut HashMap<K, BTreeSet<ServiceId>>,
        key: &K,
        id: ServiceId,
    ) {
        if let Some(posting) = postings.get_mut(key) {
            posting.remove(&id);
            if posting.is_empty() {
                postings.remove(key);
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

/// The service directory of a pervasive environment.
///
/// Supports dynamic registration/departure; every one advances the
/// monotone [`event_cursor`](ServiceRegistry::event_cursor), which is what
/// the environment's epoch and the WAL's sequence numbers count.
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
    /// Registrations and departures so far.
    event_cursor: usize,
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
    /// exact ids the original run did) positioned at `event_cursor`.
    /// The capability index is rebuilt from the live slots when an
    /// ontology is supplied.
    pub(crate) fn restore(
        slots: Vec<Option<ServiceDescription>>,
        event_cursor: usize,
        ontology: Option<Arc<Ontology>>,
    ) -> Self {
        let alive = slots.iter().flatten().count();
        let mut registry = ServiceRegistry {
            services: slots,
            event_cursor,
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
    /// with usable strength (`Exact`/`PlugIn`), id-ascending. `concept`
    /// is canonicalised by the caller ([`Ontology::canon`]).
    pub(crate) fn usable_for_concept(&self, concept: ConceptId) -> Option<&BTreeSet<ServiceId>> {
        self.index.by_concept.get(&concept)
    }

    /// Index probe: live services advertising the ontology-unknown IRI
    /// `function` verbatim (syntactic `Exact` fallback).
    pub(crate) fn usable_for_unknown_iri(&self, function: &Iri) -> Option<&BTreeSet<ServiceId>> {
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
        self.event_cursor += 1;
        id
    }

    /// Removes a service, returning its description if it was present.
    pub fn deregister(&mut self, id: ServiceId) -> Option<ServiceDescription> {
        let slot = self.services.get_mut(id.index())?;
        let desc = slot.take();
        if let Some(desc) = &desc {
            self.alive -= 1;
            self.event_cursor += 1;
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

    /// Registrations and departures so far. Monotone and never reused:
    /// two reads of the same value saw the same provider population.
    pub fn event_cursor(&self) -> usize {
        self.event_cursor
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
    fn every_registration_and_departure_advances_the_cursor() {
        let mut r = ServiceRegistry::new();
        assert_eq!(r.event_cursor(), 0);
        let a = r.register(svc("a", "d#F"));
        assert_eq!(r.event_cursor(), 1);
        r.deregister(a);
        assert_eq!(r.event_cursor(), 2);
        // A departure that removes nothing is not an event.
        r.deregister(a);
        assert_eq!(r.event_cursor(), 2);
        // A copy-on-write clone continues from the same position.
        let mut clone = r.clone();
        clone.register(svc("b", "d#F"));
        assert_eq!((r.event_cursor(), clone.event_cursor()), (2, 3));
    }
}
