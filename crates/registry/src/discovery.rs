//! QoS-aware semantic service discovery.
//!
//! The entry point is [`Discovery::discover_rows`] with a
//! [`DiscoveryQuery`]: one call covers black-box and white-box
//! (per-operation) discovery, and writes the caller's row for each
//! [`Qualified`] service as it is evaluated, so a caller that ranks the
//! candidates builds its table in one pass. [`Discovery::discover`] is
//! the same call writing [`DiscoveredCandidate`]s. A service qualifies
//! by an exact or plug-in match ([`MatchDegree::is_usable`]); the user's
//! global QoS constraints are checked later, on the aggregate, by
//! selection.
//!
//! Two execution paths produce byte-identical results:
//!
//! * an **indexed** path, used when the registry has the query's
//!   ontology [bound](crate::ServiceRegistry::bind_ontology): the
//!   required concept is resolved to its posting list in the registry's
//!   inverted capability index, so only plausibly-matching services are
//!   evaluated;
//! * a **linear** path scanning every live service — the fallback for
//!   unbound registries, and the oracle the parity tests compare against
//!   ([`DiscoveryQuery::linear_scan`]).

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BTreeSet;

use qasom_obs::{keys, Recorder};
use qasom_ontology::{ConceptId, Iri, MatchDegree, Ontology};
use qasom_qos::{QosModel, QosVector};
use qasom_task::Activity;

use crate::{ServiceDescription, ServiceId, ServiceRegistry};

/// How a discovered service qualified for the requested function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchedVia {
    /// The service's profile (its advertised capability concept) matched.
    Profile,
    /// The profile did not qualify, but the conversation operation at
    /// this index into [`ServiceDescription::operations`] did.
    Operation(usize),
}

/// A discovered candidate service for an abstract activity.
///
/// `effective_qos` is what selection should reason on: the service-level
/// advertisement for profile matches, or the advertisement overridden by
/// the matched operation's per-operation QoS for white-box matches.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveredCandidate {
    /// The matched service.
    pub service: ServiceId,
    /// How well its capability matches the required function.
    pub degree: MatchDegree,
    /// Which part of the description produced the match.
    pub matched_via: MatchedVia,
    /// The QoS vector the match is advertised with.
    pub effective_qos: QosVector,
}

/// A service that qualified for a query, as [`Discovery::discover_rows`]
/// hands it to the caller's row builder: the fields of a
/// [`DiscoveredCandidate`], plus the description they were read from.
#[derive(Debug)]
pub struct Qualified<'r> {
    /// The matched service.
    pub service: ServiceId,
    /// Its live description in the queried registry.
    pub description: &'r ServiceDescription,
    /// How well its capability matches the required function.
    pub degree: MatchDegree,
    /// Which part of the description produced the match.
    pub matched_via: MatchedVia,
    /// The QoS vector the match is advertised with: the description's
    /// own for a profile match, and an owned merge of it with the
    /// operation's QoS for an operation match.
    pub effective_qos: Cow<'r, QosVector>,
}

/// A discovery request: the activity to serve plus matching options.
///
/// Built fluently and passed to [`Discovery::discover`]:
///
/// ```
/// use qasom_ontology::OntologyBuilder;
/// use qasom_qos::QosModel;
/// use qasom_registry::{Discovery, DiscoveryQuery, ServiceDescription, ServiceRegistry};
/// use qasom_task::Activity;
///
/// let mut onto = OntologyBuilder::new("shop");
/// let pay = onto.concept("Pay");
/// onto.subconcept("PayByCard", pay);
/// let onto = onto.build().unwrap();
/// let model = QosModel::standard();
///
/// let mut registry = ServiceRegistry::new();
/// registry.register(ServiceDescription::new("visa", "shop#PayByCard"));
///
/// let discovery = Discovery::new(&onto, &model);
/// let activity = Activity::new("pay", "shop#Pay");
/// let found = discovery.discover(&registry, &DiscoveryQuery::new(&activity).white_box(true));
/// assert_eq!(found.len(), 1); // PayByCard plugs into Pay
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DiscoveryQuery<'a> {
    activity: &'a Activity,
    white_box: bool,
    force_linear: bool,
}

impl<'a> DiscoveryQuery<'a> {
    /// A black-box query for `activity`.
    pub fn new(activity: &'a Activity) -> Self {
        DiscoveryQuery {
            activity,
            white_box: false,
            force_linear: false,
        }
    }

    /// Enables white-box matching: a service whose profile does not
    /// qualify may still match through one of its conversation
    /// operations, advertising the operation's merged QoS.
    pub fn white_box(mut self, enabled: bool) -> Self {
        self.white_box = enabled;
        self
    }

    /// Forces the linear full-scan path even when the capability index is
    /// available — the oracle used by parity tests and benchmarks. The
    /// results are identical either way; only the work differs.
    pub fn linear_scan(mut self, force: bool) -> Self {
        self.force_linear = force;
        self
    }

    /// The queried activity.
    pub fn activity(&self) -> &Activity {
        self.activity
    }
}

/// QoS-aware service discovery over a domain [`Ontology`]: a pure
/// function of (registry, ontology, query) that remembers nothing between
/// calls.
///
/// Discovery is *semantic*: a service matches an activity when its
/// capability concept matches the required function exactly or by
/// plug-in and its I/O signature is compatible. Function
/// IRIs unknown to the ontology fall back to syntactic equality, so
/// purely syntactic environments still work (degraded recall).
#[derive(Debug, Clone, Copy)]
pub struct Discovery<'a> {
    ontology: &'a Ontology,
    recorder: Option<&'a dyn Recorder>,
}

impl<'a> Discovery<'a> {
    /// Creates a discovery engine over a domain ontology.
    ///
    /// `_model` is not read: constraints reach discovery already resolved
    /// to property ids. `perf/src/trace.rs:593` pins the two-argument
    /// form, so the parameter goes with the next `[benchmark]` PR
    /// (ROADMAP item 1.1).
    pub fn new(ontology: &'a Ontology, _model: &'a QosModel) -> Self {
        Discovery {
            ontology,
            recorder: None,
        }
    }

    /// Routes per-query counters (indexed-vs-linear path taken, services
    /// evaluated, candidates produced) through `recorder`. Observation
    /// only: results are identical with or without one.
    #[must_use]
    pub fn with_recorder(mut self, recorder: &'a dyn Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Looks `iri` up in the ontology.
    fn resolve<'i>(&self, iri: &'i Iri) -> Resolved<'i> {
        Resolved {
            iri,
            concept: self.ontology.concept(iri),
        }
    }

    /// Semantic match degree between a required and an offered function,
    /// both already resolved ([`Ontology::match_looked_up`]).
    fn match_resolved(&self, required: Resolved<'_>, offered: Resolved<'_>) -> MatchDegree {
        self.ontology.match_looked_up(
            (required.iri, required.concept),
            (offered.iri, offered.concept),
        )
    }

    /// QoS-aware discovery: the candidate set `S_i` for an abstract
    /// activity under the given query. See [`DiscoveryQuery`] for the
    /// knobs; results are sorted by match degree (best first), ties by
    /// ascending service id — a total order, so the indexed and linear
    /// paths return identical vectors.
    pub fn discover(
        &self,
        registry: &ServiceRegistry,
        query: &DiscoveryQuery<'_>,
    ) -> Vec<DiscoveredCandidate> {
        let (rows, ()) = self.discover_rows(
            registry,
            query,
            |_| (),
            |(), found| DiscoveredCandidate {
                service: found.service,
                degree: found.degree,
                matched_via: found.matched_via,
                effective_qos: found.effective_qos.into_owned(),
            },
        );
        rows
    }

    /// [`Discovery::discover`], writing `row(table, found)` for each
    /// qualifying service instead of a [`DiscoveredCandidate`]: every
    /// service is evaluated once, and its row is built as it qualifies.
    /// Rows come out in the order `discover` returns candidates in
    /// (degree best first, then ascending id) on either path.
    ///
    /// A caller that keeps more per row than the row itself (a ranking
    /// table) builds that storage with `table(presize)`, before the
    /// first row: `presize` is how many services the indexed path
    /// evaluates, the most rows it can write, and 0 on the linear path,
    /// whose rows grow as they come. Returns the rows and the table.
    pub fn discover_rows<'r, S, T>(
        &self,
        registry: &'r ServiceRegistry,
        query: &DiscoveryQuery<'_>,
        table: impl FnOnce(usize) -> S,
        mut row: impl FnMut(&mut S, Qualified<'r>) -> T,
    ) -> (Vec<T>, S) {
        let indexed = !query.force_linear && self.index_usable(registry);
        let required = self.resolve(query.activity.function());
        let (evaluated, rows, table) = if indexed {
            let posting = self.posting(registry, required);
            let services = posting
                .iter()
                .filter_map(|&id| registry.get(id).map(|desc| (id, desc)));
            let mut table = table(posting.len());
            let rows = self.evaluate(query, required, services, posting.len(), |found| {
                row(&mut table, found)
            });
            (posting.len(), rows, table)
        } else {
            let mut table = table(0);
            let rows = self.evaluate(query, required, registry.iter(), 0, |found| {
                row(&mut table, found)
            });
            (registry.len(), rows, table)
        };
        if let Some(rec) = self.recorder {
            rec.incr(
                if indexed {
                    keys::DISCOVERY_INDEXED
                } else {
                    keys::DISCOVERY_LINEAR
                },
                1,
            );
            rec.incr(keys::DISCOVERY_EVALUATED, evaluated as u64);
            rec.incr(keys::DISCOVERY_CANDIDATES, rows.len() as u64);
        }
        (rows, table)
    }

    /// One live service evaluated against `query`, as
    /// [`Discovery::discover_rows`] would hand it to its row builder;
    /// `None` when it is gone or does not qualify. Records no counter.
    pub fn qualify<'r>(
        &self,
        registry: &'r ServiceRegistry,
        query: &DiscoveryQuery<'_>,
        service: ServiceId,
    ) -> Option<Qualified<'r>> {
        let desc = registry.get(service)?;
        self.evaluate_service(
            query,
            self.resolve(query.activity.function()),
            self.resolve(desc.function()),
            service,
            desc,
        )
    }

    /// Whether the registry's capability index covers this engine's
    /// ontology (same [`Ontology::stamp`]).
    fn index_usable(&self, registry: &ServiceRegistry) -> bool {
        registry
            .ontology()
            .is_some_and(|bound| bound.stamp() == self.ontology.stamp())
    }

    /// Index probe for full discovery: ids (ascending) that can qualify
    /// for `required` through their profile or, for white-box queries,
    /// any operation. Completeness: a service accepted by the linear
    /// scan with a usable degree offers a capability concept having
    /// `required` among its ancestors (hence is in the concept posting
    /// list) or advertises the identical unknown IRI (hence is in the
    /// syntactic bucket) — there is no third way to reach `Exact` or
    /// `PlugIn`.
    fn posting<'r>(
        &self,
        registry: &'r ServiceRegistry,
        required: Resolved<'_>,
    ) -> &'r BTreeSet<ServiceId> {
        static EMPTY: BTreeSet<ServiceId> = BTreeSet::new();
        match required.concept {
            Some(concept) => registry.usable_for_concept(self.ontology.canon(concept)),
            None => registry.usable_for_unknown_iri(required.iri),
        }
        .unwrap_or(&EMPTY)
    }

    /// Evaluates live services (ascending id) against the query, writing
    /// one row per qualifying service into a `Vec` of `capacity`. The
    /// per-service logic is shared verbatim by the indexed and linear
    /// paths, so they can only differ in which services they consider.
    /// Services arrive in id order, so rows of one degree are already in
    /// (degree, id) order and only a table mixing degrees is sorted.
    fn evaluate<'r, T>(
        &self,
        query: &DiscoveryQuery<'_>,
        required: Resolved<'_>,
        services: impl Iterator<Item = (ServiceId, &'r ServiceDescription)>,
        capacity: usize,
        mut row: impl FnMut(Qualified<'r>) -> T,
    ) -> Vec<T> {
        let mut rows = Vec::with_capacity(capacity);
        let mut degrees = DegreeColumn::default();
        // Neighbouring services often advertise the same function, so
        // its concept is looked up once per run of equal IRIs.
        let mut offered: Option<Resolved<'r>> = None;
        for (id, desc) in services {
            let function = desc.function();
            let profile = match offered {
                Some(last) if last.iri == function => last,
                _ => *offered.insert(self.resolve(function)),
            };
            if let Some(found) = self.evaluate_service(query, required, profile, id, desc) {
                degrees.push(found.degree, rows.len());
                rows.push(row(found));
            }
        }
        degrees.sort(&mut rows);
        rows
    }

    /// Evaluates one live service, whose profile function resolves to
    /// `profile`, against the query.
    fn evaluate_service<'r>(
        &self,
        query: &DiscoveryQuery<'_>,
        required: Resolved<'_>,
        profile: Resolved<'_>,
        id: ServiceId,
        desc: &'r ServiceDescription,
    ) -> Option<Qualified<'r>> {
        let activity = query.activity;
        if !self.ontology.io_compatible(
            (activity.inputs(), activity.outputs()),
            (desc.inputs(), desc.outputs()),
        ) {
            return None;
        }
        let profile_degree = self.match_resolved(required, profile);
        if profile_degree.is_usable() {
            Some(Qualified {
                service: id,
                description: desc,
                degree: profile_degree,
                matched_via: MatchedVia::Profile,
                effective_qos: Cow::Borrowed(desc.qos()),
            })
        } else if query.white_box {
            // Fall back to the conversation: the best qualifying
            // operation (ties resolved towards the last declared, the
            // behaviour of `Iterator::max_by_key`).
            let (op_index, op, degree) = desc
                .operations()
                .iter()
                .enumerate()
                .map(|(i, op)| {
                    (
                        i,
                        op,
                        self.match_resolved(required, self.resolve(op.function())),
                    )
                })
                .filter(|&(_, _, d)| d.is_usable())
                .max_by_key(|&(_, _, d)| d)?;
            let mut qos = desc.qos().clone();
            // Operation-level QoS overrides the black-box figures.
            qos.merge_with(op.qos(), |_, op_value| op_value);
            Some(Qualified {
                service: id,
                description: desc,
                degree,
                matched_via: MatchedVia::Operation(op_index),
                effective_qos: Cow::Owned(qos),
            })
        } else {
            None
        }
    }
}

/// The match degree of each row [`Discovery::evaluate`] has written,
/// kept only once two rows differ: while every row has the first row's
/// degree, nothing is stored and nothing needs sorting.
#[derive(Debug, Default)]
struct DegreeColumn {
    first: Option<MatchDegree>,
    mixed: Vec<MatchDegree>,
}

impl DegreeColumn {
    /// Notes the degree of row `index`, the next row written.
    fn push(&mut self, degree: MatchDegree, index: usize) {
        let first = *self.first.get_or_insert(degree);
        if degree != first && self.mixed.is_empty() {
            self.mixed.resize(index, first);
        }
        if !self.mixed.is_empty() {
            self.mixed.push(degree);
        }
    }

    /// Stable-sorts `rows` by degree, best first, so rows of one degree
    /// keep their ascending-id order.
    fn sort<T>(self, rows: &mut Vec<T>) {
        if self.mixed.is_empty() {
            return;
        }
        let mut keyed: Vec<(MatchDegree, T)> = self.mixed.into_iter().zip(rows.drain(..)).collect();
        keyed.sort_by_key(|&(degree, _)| Reverse(degree));
        rows.extend(keyed.into_iter().map(|(_, row)| row));
    }
}

/// A function IRI looked up in the ontology: its concept, or `None` when
/// the ontology does not know it.
#[derive(Debug, Clone, Copy)]
struct Resolved<'i> {
    iri: &'i Iri,
    concept: Option<ConceptId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServiceDescription;
    use qasom_ontology::OntologyBuilder;
    use std::sync::Arc;

    fn domain() -> Ontology {
        let mut b = OntologyBuilder::new("shop");
        let pay = b.concept("Pay");
        b.subconcept("PayByCard", pay);
        b.subconcept("PayCash", pay);
        b.concept("Browse");
        b.build().unwrap()
    }

    fn setup() -> (Ontology, QosModel) {
        (domain(), QosModel::standard())
    }

    #[test]
    fn plugin_matches_are_discovered() {
        let (o, m) = setup();
        let d = Discovery::new(&o, &m);
        let mut r = ServiceRegistry::new();
        r.register(ServiceDescription::new("visa", "shop#PayByCard"));
        r.register(ServiceDescription::new("cash", "shop#PayCash"));
        r.register(ServiceDescription::new("browse", "shop#Browse"));
        let a = Activity::new("pay", "shop#Pay");
        assert_eq!(d.discover(&r, &DiscoveryQuery::new(&a)).len(), 2);
    }

    #[test]
    fn exact_sorts_before_plugin() {
        let (o, m) = setup();
        let d = Discovery::new(&o, &m);
        let mut r = ServiceRegistry::new();
        let card = r.register(ServiceDescription::new("visa", "shop#PayByCard"));
        let generic = r.register(ServiceDescription::new("till", "shop#Pay"));
        let cash = r.register(ServiceDescription::new("cash", "shop#PayCash"));
        let a = Activity::new("pay", "shop#Pay");
        let order: Vec<_> = d
            .discover(&r, &DiscoveryQuery::new(&a))
            .iter()
            .map(|c| (c.service, c.degree))
            .collect();
        // Degree first (best first), ascending id within a degree.
        assert_eq!(
            order,
            [
                (generic, MatchDegree::Exact),
                (card, MatchDegree::PlugIn),
                (cash, MatchDegree::PlugIn),
            ]
        );
    }

    #[test]
    fn unknown_iris_match_syntactically() {
        let (o, m) = setup();
        let d = Discovery::new(&o, &m);
        let mut r = ServiceRegistry::new();
        r.register(ServiceDescription::new("x", "other#Thing"));
        let a = Activity::new("t", "other#Thing");
        assert_eq!(d.discover(&r, &DiscoveryQuery::new(&a)).len(), 1);
        let b = Activity::new("t", "other#Different");
        assert_eq!(d.discover(&r, &DiscoveryQuery::new(&b)).len(), 0);
    }

    #[test]
    fn io_incompatible_services_are_filtered() {
        let (o, m) = setup();
        let d = Discovery::new(&o, &m);
        let mut r = ServiceRegistry::new();
        // Needs data the activity cannot provide.
        r.register(ServiceDescription::new("greedy", "shop#Pay").with_input("shop#LoyaltyCard"));
        let a = Activity::new("pay", "shop#Pay");
        assert_eq!(d.discover(&r, &DiscoveryQuery::new(&a)).len(), 0);

        // Activity provides the needed input.
        let a = Activity::new("pay", "shop#Pay").with_input("shop#LoyaltyCard");
        assert_eq!(d.discover(&r, &DiscoveryQuery::new(&a)).len(), 1);
    }

    #[test]
    fn required_outputs_must_be_produced() {
        let (o, m) = setup();
        let d = Discovery::new(&o, &m);
        let mut r = ServiceRegistry::new();
        r.register(ServiceDescription::new("s", "shop#Pay"));
        let a = Activity::new("pay", "shop#Pay").with_output("shop#Receipt");
        assert_eq!(d.discover(&r, &DiscoveryQuery::new(&a)).len(), 0);

        let mut r = ServiceRegistry::new();
        r.register(ServiceDescription::new("s", "shop#Pay").with_output("shop#Receipt"));
        assert_eq!(d.discover(&r, &DiscoveryQuery::new(&a)).len(), 1);
    }

    #[test]
    fn departed_services_are_not_discovered() {
        let (o, m) = setup();
        let d = Discovery::new(&o, &m);
        let mut r = ServiceRegistry::new();
        let id = r.register(ServiceDescription::new("visa", "shop#PayByCard"));
        r.deregister(id);
        let a = Activity::new("pay", "shop#Pay");
        assert!(d.discover(&r, &DiscoveryQuery::new(&a)).is_empty());
    }

    #[test]
    fn white_box_matches_through_operations() {
        use crate::Operation;
        let (o, m) = setup();
        let d = Discovery::new(&o, &m);
        let rt = m.property("ResponseTime").unwrap();
        let av = m.property("Availability").unwrap();
        let mut r = ServiceRegistry::new();
        // A multi-function kiosk: profile is a generic concept unknown to
        // the ontology, but one operation implements payment with its own
        // (faster) QoS.
        let kiosk = ServiceDescription::new("kiosk", "misc#MultiService")
            .with_qos(rt, 500.0)
            .with_qos(av, 0.95)
            .with_operation(Operation::new("pay-op", "shop#PayByCard").with_qos(rt, 80.0));
        let id = r.register(kiosk);

        let a = Activity::new("pay", "shop#Pay");
        // Black-box discovery misses it…
        assert!(d.discover(&r, &DiscoveryQuery::new(&a)).is_empty());
        // …white-box discovery finds the operation and merges its QoS.
        let deep = d.discover(&r, &DiscoveryQuery::new(&a).white_box(true));
        assert_eq!(deep.len(), 1);
        assert_eq!(deep[0].service, id);
        assert_eq!(deep[0].matched_via, MatchedVia::Operation(0));
        assert_eq!(deep[0].effective_qos.get(rt), Some(80.0)); // operation overrides
        assert_eq!(deep[0].effective_qos.get(av), Some(0.95)); // service-level kept
    }

    #[test]
    fn white_box_prefers_profile_matches() {
        let (o, m) = setup();
        let d = Discovery::new(&o, &m);
        let rt = m.property("ResponseTime").unwrap();
        let mut r = ServiceRegistry::new();
        let direct = r.register(ServiceDescription::new("till", "shop#Pay").with_qos(rt, 100.0));
        let a = Activity::new("pay", "shop#Pay");
        let deep = d.discover(&r, &DiscoveryQuery::new(&a).white_box(true));
        assert_eq!(deep.len(), 1);
        assert_eq!(deep[0].service, direct);
        assert_eq!(deep[0].matched_via, MatchedVia::Profile);
        assert_eq!(deep[0].effective_qos.get(rt), Some(100.0));
    }

    #[test]
    fn indexed_and_linear_paths_agree() {
        use crate::Operation;
        let (o, m) = setup();
        let onto = Arc::new(o);
        let d = Discovery::new(&onto, &m);
        let mut r = ServiceRegistry::with_ontology(Arc::clone(&onto));
        let rt = m.property("ResponseTime").unwrap();
        for i in 0..40 {
            let function = match i % 5 {
                0 => "shop#Pay",
                1 => "shop#PayByCard",
                2 => "shop#PayCash",
                3 => "shop#Browse",
                _ => "misc#Unknown",
            };
            let mut desc =
                ServiceDescription::new(format!("s{i}"), function).with_qos(rt, 40.0 + i as f64);
            if i % 7 == 0 {
                desc = desc.with_operation(Operation::new("op", "shop#PayCash").with_qos(rt, 10.0));
            }
            r.register(desc);
        }
        // Churn a few to exercise index removal.
        for id in d
            .discover(&r, &DiscoveryQuery::new(&Activity::new("x", "shop#Browse")))
            .iter()
            .map(|c| c.service)
            .collect::<Vec<_>>()
        {
            r.deregister(id);
        }
        assert!(r.index_matches_rebuild());

        for activity in [
            Activity::new("a", "shop#Pay"),
            Activity::new("b", "shop#PayCash"),
            Activity::new("c", "misc#Unknown"),
            Activity::new("d", "misc#Never"),
        ] {
            for white_box in [false, true] {
                let query = DiscoveryQuery::new(&activity).white_box(white_box);
                let indexed = d.discover(&r, &query);
                let linear = d.discover(&r, &query.linear_scan(true));
                assert_eq!(indexed, linear, "activity {}", activity.name());
            }
        }
    }

    /// Every candidate's degree is the one the ontology gives directly,
    /// over a posting whose offered concept changes at almost every step:
    /// a parent, both leaves, an unknown IRI and operation-only services
    /// interleave, so a per-call lookup that outlived its IRI would show.
    #[test]
    fn every_discovered_degree_is_the_direct_match() {
        use crate::Operation;
        let (o, m) = setup();
        let onto = Arc::new(o);
        let d = Discovery::new(&onto, &m);
        let mut r = ServiceRegistry::with_ontology(Arc::clone(&onto));
        for i in 0..36 {
            let desc = match i % 6 {
                0 => ServiceDescription::new(format!("s{i}"), "shop#Pay"),
                1 => ServiceDescription::new(format!("s{i}"), "shop#PayByCard"),
                2 => ServiceDescription::new(format!("s{i}"), "misc#Unknown"),
                3 => ServiceDescription::new(format!("s{i}"), "shop#PayCash"),
                4 => ServiceDescription::new(format!("s{i}"), "misc#Kiosk")
                    .with_operation(Operation::new("op", "shop#PayCash")),
                _ => ServiceDescription::new(format!("s{i}"), "shop#Browse")
                    .with_operation(Operation::new("op", "shop#Pay"))
                    .with_operation(Operation::new("op", "misc#Unknown")),
            };
            r.register(desc);
        }
        for function in ["shop#Pay", "shop#PayByCard", "shop#PayCash", "misc#Unknown"] {
            let activity = Activity::new("a", function);
            for white_box in [false, true] {
                for linear in [false, true] {
                    let query = DiscoveryQuery::new(&activity)
                        .white_box(white_box)
                        .linear_scan(linear);
                    let found = d.discover(&r, &query);
                    assert!(!found.is_empty(), "{function} found nothing");
                    for c in found {
                        let desc = r.get(c.service).unwrap();
                        let offered = match c.matched_via {
                            MatchedVia::Profile => desc.function(),
                            MatchedVia::Operation(i) => desc.operations()[i].function(),
                        };
                        assert_eq!(
                            c.degree,
                            onto.match_iri(activity.function(), offered),
                            "{function} -> {} (white-box {white_box}, linear {linear})",
                            desc.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn recorder_counts_paths_without_changing_results() {
        use qasom_obs::MemoryRecorder;
        let (o, m) = setup();
        let onto = Arc::new(o);
        let mut r = ServiceRegistry::with_ontology(Arc::clone(&onto));
        r.register(ServiceDescription::new("visa", "shop#PayByCard"));
        r.register(ServiceDescription::new("cash", "shop#PayCash"));
        r.register(ServiceDescription::new("browse", "shop#Browse"));
        let a = Activity::new("pay", "shop#Pay");
        let plain = Discovery::new(&onto, &m);
        let rec = MemoryRecorder::new();
        let observed = plain.with_recorder(&rec);

        let query = DiscoveryQuery::new(&a);
        assert_eq!(observed.discover(&r, &query), plain.discover(&r, &query));
        observed.discover(&r, &query.linear_scan(true));

        let snap = rec.snapshot().expect("memory recorder snapshots");
        assert_eq!(snap.counter(keys::DISCOVERY_INDEXED), 1);
        assert_eq!(snap.counter(keys::DISCOVERY_LINEAR), 1);
        // Indexed path touched only the 2 Pay descendants; linear
        // scanned all 3 live services.
        assert_eq!(snap.counter(keys::DISCOVERY_EVALUATED), 2 + 3);
        assert_eq!(snap.counter(keys::DISCOVERY_CANDIDATES), 2 + 2);
    }
}
