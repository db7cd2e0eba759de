//! The middleware instance: environment state + composition pipeline.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use qasom_adaptation::{overlay, QosMonitor};
use qasom_analysis::{Analyzer, ApproachKind, RequestSpec};
use qasom_netsim::runtime::{ServiceRuntime, SyntheticService};
use qasom_obs::report::RunReport;
use qasom_obs::{keys, JsonValue, Recorder};
use qasom_ontology::Ontology;
use qasom_qos::{EndToEnd, QosModel, QosVector};
use qasom_registry::persist::{PersistStats, RegistryJournal};
use qasom_registry::{Discovery, DiscoveryQuery, ServiceDescription, ServiceId, ServiceRegistry};
use qasom_selection::{
    LocalScratch, Qassa, QassaConfig, QosLevels, RankedCandidate, SelectionProblem,
    ServiceCandidate,
};
use qasom_task::{Activity, TaskClass, TaskClassRepository};

use crate::{
    ComposeError, EventSink, ExecutableComposition, ExecutionReport, MiddlewareEvent, UserRequest,
};

/// Tunables of a middleware instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnvironmentConfig {
    /// Seed of the synthetic service runtime (and the stamp carried by
    /// exported [`RunReport`]s).
    pub seed: u64,
    /// QASSA parameters.
    pub qassa: QassaConfig,
}

impl EnvironmentConfig {
    /// A typed builder over the configuration plus the non-`Copy`
    /// attachments (recorder, event sinks), ending in
    /// [`EnvironmentBuilder::build`]:
    ///
    /// ```
    /// use qasom::{Environment, EnvironmentConfig};
    /// use qasom_ontology::OntologyBuilder;
    /// use qasom_qos::QosModel;
    ///
    /// let env: Environment = EnvironmentConfig::builder()
    ///     .seed(42)
    ///     .build(QosModel::standard(), OntologyBuilder::new("d").build().unwrap());
    /// assert_eq!(env.config().seed, 42);
    /// ```
    pub fn builder() -> EnvironmentBuilder {
        EnvironmentBuilder::new()
    }
}

/// Builder for [`Environment`]: the seed plus the observability
/// attachments ([`Recorder`], [`EventSink`]s) that a `Copy` config cannot
/// carry; QASSA runs on its defaults. Created by
/// [`EnvironmentConfig::builder`].
#[derive(Debug, Default)]
pub struct EnvironmentBuilder {
    config: EnvironmentConfig,
    recorder: Option<Arc<dyn Recorder>>,
    sinks: Vec<Arc<dyn EventSink>>,
}

impl EnvironmentBuilder {
    /// A builder over the default configuration.
    pub fn new() -> Self {
        EnvironmentBuilder {
            config: EnvironmentConfig::default(),
            recorder: None,
            sinks: Vec::new(),
        }
    }

    /// Seed of the synthetic service runtime.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Attaches a [`Recorder`]: discovery, selection and event counters
    /// flow into it (see [`Environment::run_report`]).
    #[must_use]
    pub fn recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Subscribes an [`EventSink`] from the start (equivalent to calling
    /// [`Environment::subscribe`] right after construction).
    #[must_use]
    pub fn sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Builds the environment over a QoS model and a domain ontology.
    pub fn build(self, model: QosModel, ontology: Ontology) -> Environment {
        let mut env = Environment::with_config(model, ontology, self.config);
        env.recorder = self.recorder;
        env.sinks = self.sinks;
        env
    }
}

// Return type of the `Environment::cache_stats` stub; see there.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct CacheStats {
    pub misses: u64,
}

impl CacheStats {
    pub fn hit_ratio(&self) -> f64 {
        0.0
    }
}

/// A QASOM middleware instance bound to one pervasive environment: the
/// service registry and synthetic runtime (the environment side), the
/// task-class repository, the QoS monitor and the event trace (the
/// middleware side).
pub struct Environment {
    model: QosModel,
    ontology: Arc<Ontology>,
    registry: ServiceRegistry,
    // When attached, every registration/departure is journaled to the
    // WAL before control returns to the caller; a journal I/O failure
    // is counted and detaches the journal (the instance degrades to
    // in-memory rather than diverging from its own store).
    journal: Option<RegistryJournal>,
    runtime: ServiceRuntime,
    tasks: TaskClassRepository,
    infra: HashMap<u64, QosVector>,
    end_to_end: EndToEnd,
    slas: HashMap<ServiceId, qasom_qos::Sla>,
    pub(crate) monitor: QosMonitor,
    pub(crate) config: EnvironmentConfig,
    recorder: Option<Arc<dyn Recorder>>,
    sinks: Vec<Arc<dyn EventSink>>,
}

impl Environment {
    /// Creates an environment over a QoS model and a domain ontology;
    /// `seed` drives the synthetic service runtime.
    pub fn new(model: QosModel, ontology: Ontology, seed: u64) -> Self {
        Environment::with_config(
            model,
            ontology,
            EnvironmentConfig {
                seed,
                ..EnvironmentConfig::default()
            },
        )
    }

    fn with_config(model: QosModel, ontology: Ontology, config: EnvironmentConfig) -> Self {
        let end_to_end = EndToEnd::standard(&model);
        let ontology = Arc::new(ontology);
        Environment {
            model,
            // The registry is bound to the domain ontology so it maintains
            // the inverted capability index discovery probes.
            registry: ServiceRegistry::with_ontology(Arc::clone(&ontology)),
            journal: None,
            ontology,
            runtime: ServiceRuntime::new(config.seed),
            tasks: TaskClassRepository::new(),
            infra: HashMap::new(),
            end_to_end,
            slas: HashMap::new(),
            monitor: QosMonitor::new(),
            config,
            recorder: None,
            sinks: Vec::new(),
        }
    }

    /// The QoS model in force.
    pub fn model(&self) -> &QosModel {
        &self.model
    }

    /// The domain ontology in force.
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// The service directory.
    pub fn registry(&self) -> &ServiceRegistry {
        &self.registry
    }

    /// The registry epoch: the monotone event cursor every
    /// registration/departure advances. Two compositions computed at
    /// the same epoch saw the identical provider population, so the
    /// epoch is what concurrent sessions use to compare results
    /// against a single-threaded replay.
    pub fn epoch(&self) -> u64 {
        self.registry.event_cursor() as u64
    }

    /// The task-class repository.
    pub fn task_repository(&self) -> &TaskClassRepository {
        &self.tasks
    }

    /// The QoS monitor.
    pub fn monitor(&self) -> &QosMonitor {
        &self.monitor
    }

    /// The configuration in force.
    pub fn config(&self) -> &EnvironmentConfig {
        &self.config
    }

    /// Subscribes a sink to the event stream: it sees every subsequent
    /// [`MiddlewareEvent`] synchronously, in emission order. The
    /// standard sink is [`crate::EventLog`].
    pub fn subscribe(&mut self, sink: Arc<dyn EventSink>) {
        self.sinks.push(sink);
    }

    /// Attaches (or replaces) the metrics recorder. Pipeline counters —
    /// discovery index/cache behaviour, QASSA phase statistics, per-type
    /// event counts — flow into it from now on.
    pub fn set_recorder(&mut self, recorder: Arc<dyn Recorder>) {
        self.recorder = Some(recorder);
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<dyn Recorder>> {
        self.recorder.as_ref()
    }

    /// Routes one event to the recorder (per-type counter) and every
    /// subscribed sink — the single emission path for the whole
    /// pipeline. Takes `&self` so composition can emit under a shared
    /// reference — the requirement for serving compositions from many
    /// sessions concurrently.
    pub(crate) fn emit(&self, event: MiddlewareEvent) {
        if let Some(rec) = &self.recorder {
            rec.incr(event.counter_key(), 1);
        }
        for sink in &self.sinks {
            sink.on_event(&event);
        }
    }

    // Discovery memoises nothing, so there is nothing to count. The stub
    // stays because `perf/src/trace.rs:550` calls `cache_stats()` and reads
    // `.hit_ratio()` and `.misses` off the result, and `perf/` changes
    // only in `[benchmark]` PRs (ROADMAP item 1.1 drops both).
    #[doc(hidden)]
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats { misses: 0 }
    }

    /// Assembles a [`RunReport`] whose `metrics` is the recorder's
    /// current [`qasom_obs::MetricsSnapshot`]. Compose/execution/
    /// distributed sections are left for the caller to fill from the
    /// corresponding reports. Without a recorder the report carries an
    /// empty snapshot.
    pub fn run_report(&self, scenario: &str) -> RunReport {
        let mut report = RunReport::new(self.config.seed, scenario);
        if let Some(snapshot) = self.recorder.as_ref().and_then(|r| r.snapshot()) {
            report.metrics = snapshot;
        }
        report
    }

    /// The `compose` section of a [`RunReport`] for `composition`.
    pub fn compose_section(composition: &ExecutableComposition) -> JsonValue {
        let outcome = composition.outcome();
        JsonValue::object()
            .field("task", composition.task().name())
            .field("feasible", outcome.feasible)
            .field("levels_explored", outcome.levels_explored)
            .field("utility", outcome.utility)
            .field("analyzer_warnings", composition.warnings().len())
    }

    /// The `execution` section of a [`RunReport`] for `report`, with
    /// delivered QoS keyed by this environment's property names in the
    /// QoS model's property order.
    pub fn execution_section(&self, report: &ExecutionReport) -> JsonValue {
        let failures = report
            .invocations
            .iter()
            .filter(|r| r.qos.is_none())
            .count();
        let delivered = report
            .delivered
            .iter()
            .fold(JsonValue::object(), |json, (p, v)| {
                json.field(self.model.def(p).name(), v)
            });
        JsonValue::object()
            .field("success", report.success)
            .field("invocations", report.invocations.len())
            .field("failures", failures)
            .field("substitutions", report.substitutions)
            .field("behavioural_adaptations", report.behavioural_adaptations)
            .field("violations", report.violations.len())
            .field("delivered", delivered)
    }

    /// Replaces the domain ontology and re-binds the registry to it (the
    /// inverted capability index is rebuilt over the new concept
    /// hierarchy). Both happen under the caller's one `&mut self`, so no
    /// reader sees the new ontology beside the old index. Returns the
    /// new [`Ontology::stamp`].
    ///
    /// This is the purpose-built mutator behind
    /// [`crate::SharedEnvironment::reload_ontology`]; daemon code uses
    /// it instead of reaching for a raw `with_mut` closure.
    pub fn reload_ontology(&mut self, ontology: Ontology) -> u64 {
        let ontology = Arc::new(ontology);
        let stamp = ontology.stamp();
        self.registry.bind_ontology(Arc::clone(&ontology));
        self.ontology = ontology;
        stamp
    }

    /// Publishes a service: registers the description and deploys its
    /// synthetic behaviour. With a journal attached the registration is
    /// WAL-journaled (and may trigger a checkpoint) before returning.
    pub fn deploy(
        &mut self,
        description: ServiceDescription,
        behaviour: SyntheticService,
    ) -> ServiceId {
        let id = self.registry.register(description);
        if let Some(journal) = &mut self.journal {
            let before = journal.stats();
            let outcome = match self.registry.get(id) {
                Some(desc) => journal.record_registered(id, desc),
                None => Ok(()),
            }
            .and_then(|()| journal.maybe_checkpoint(&self.registry).map(|_| ()));
            let after = journal.stats();
            self.settle_journal(before, after, outcome);
        }
        self.runtime.deploy(id.index(), behaviour);
        id
    }

    /// Removes a service (provider departure / churn) with its behaviour,
    /// monitor windows and SLA record. Journaled like
    /// [`Environment::deploy`] when the service was live.
    pub fn undeploy(&mut self, id: ServiceId) {
        let removed = self.registry.deregister(id).is_some();
        if removed {
            if let Some(journal) = &mut self.journal {
                let before = journal.stats();
                let outcome = journal
                    .record_deregistered(id)
                    .and_then(|()| journal.maybe_checkpoint(&self.registry).map(|_| ()));
                let after = journal.stats();
                self.settle_journal(before, after, outcome);
            }
        }
        self.runtime.undeploy(id.index());
        self.monitor.forget(id);
        self.slas.remove(&id);
    }

    /// Mirrors journal counter movement into the recorder and detaches
    /// the journal on its first I/O failure (in-memory state and store
    /// would otherwise diverge silently).
    fn settle_journal(
        &mut self,
        before: PersistStats,
        after: PersistStats,
        outcome: Result<(), qasom_registry::persist::PersistError>,
    ) {
        if let Some(rec) = &self.recorder {
            rec.incr(keys::PERSIST_WAL_APPENDS, after.appends - before.appends);
            rec.incr(keys::PERSIST_WAL_BYTES, after.wal_bytes - before.wal_bytes);
            rec.incr(
                keys::PERSIST_CHECKPOINTS,
                after.checkpoints - before.checkpoints,
            );
            rec.incr(
                keys::PERSIST_REPLAY_EVENTS,
                after.replayed_events - before.replayed_events,
            );
            rec.incr(
                keys::PERSIST_TORN_TAIL,
                after.torn_tails - before.torn_tails,
            );
            rec.incr(
                keys::PERSIST_SNAPSHOT_LOADS,
                after.snapshot_loads - before.snapshot_loads,
            );
        }
        if outcome.is_err() {
            if let Some(rec) = &self.recorder {
                rec.incr(keys::PERSIST_ERRORS, 1);
            }
            self.journal = None;
        }
    }

    /// Replaces the registry wholesale with one recovered from a
    /// persistence backend. The recovered instance is re-bound to this
    /// environment's own ontology `Arc` — ontology stamps are
    /// per-instance, so keeping the stamp the recovery path bound would
    /// silently disqualify the capability index.
    pub fn adopt_registry(&mut self, mut registry: ServiceRegistry) {
        registry.bind_ontology(Arc::clone(&self.ontology));
        self.registry = registry;
    }

    /// Attaches the journal continuing the WAL the adopted registry was
    /// recovered from; recovery-time counter movement (replays, torn
    /// tails, snapshot loads) is mirrored into the recorder here.
    pub fn attach_journal(&mut self, journal: RegistryJournal) {
        let after = journal.stats();
        self.journal = Some(journal);
        self.settle_journal(PersistStats::default(), after, Ok(()));
    }

    /// Whether a journal is currently attached.
    pub fn journaling(&self) -> bool {
        self.journal.is_some()
    }

    /// Counter snapshot of the attached journal, if any.
    pub fn journal_stats(&self) -> Option<PersistStats> {
        self.journal.as_ref().map(RegistryJournal::stats)
    }

    /// Takes an explicit persistence checkpoint (snapshot + WAL
    /// truncation); returns whether a journal was attached to
    /// checkpoint through.
    pub fn checkpoint_registry(&mut self) -> bool {
        let Some(journal) = &mut self.journal else {
            return false;
        };
        let before = journal.stats();
        let outcome = journal.checkpoint(&self.registry);
        let after = journal.stats();
        self.settle_journal(before, after, outcome);
        true
    }

    /// Re-attaches a synthetic behaviour to an already-registered
    /// service: the warm-restart path, where the registry rows were
    /// recovered from the WAL but runtime behaviours live only in
    /// memory and must be re-created by the host.
    pub fn attach_behaviour(&mut self, id: ServiceId, behaviour: SyntheticService) {
        self.runtime.deploy(id.index(), behaviour);
    }

    /// Direct access to a deployed synthetic service (fault injection in
    /// tests and examples).
    pub fn runtime_mut(&mut self, id: ServiceId) -> Option<&mut SyntheticService> {
        self.runtime.get_mut(id.index())
    }

    pub(crate) fn invoke(
        &mut self,
        id: ServiceId,
    ) -> Option<qasom_netsim::runtime::InvocationOutcome> {
        self.runtime.invoke(id.index())
    }

    /// Registers a task class.
    pub fn register_task_class(&mut self, class: TaskClass) {
        self.tasks.insert(class);
    }

    /// Loads a QSD document (see [`qasom_registry::qsd`]) and deploys
    /// every described service with a faithful synthetic behaviour
    /// (delivers its advertised QoS exactly; tune via
    /// [`Environment::runtime_mut`]).
    ///
    /// Ingestion is analyzer-gated: providers publishing inconsistent
    /// QoS specifications (error-level diagnostics) are rejected with
    /// [`qasom_registry::qsd::QsdError::Rejected`] instead of being
    /// admitted and silently mis-ranked; warning-level diagnostics are
    /// recorded as [`MiddlewareEvent::AnalysisWarning`] events.
    ///
    /// # Errors
    ///
    /// Fails on malformed QSD or analyzer-rejected specifications.
    pub fn load_services(
        &mut self,
        qsd_document: &str,
    ) -> Result<Vec<ServiceId>, qasom_registry::qsd::QsdError> {
        let (descriptions, warnings) = qasom_registry::qsd::parse_with_diagnostics(
            qsd_document,
            &self.model,
            Some(&self.ontology),
        )?;
        for warning in warnings {
            self.emit(MiddlewareEvent::AnalysisWarning {
                diagnostic: warning.to_string(),
            });
        }
        Ok(descriptions
            .into_iter()
            .map(|desc| {
                let nominal = desc.qos().clone();
                self.deploy(desc, SyntheticService::new(nominal))
            })
            .collect())
    }

    /// Loads a `<taskclasses>` document (see
    /// [`TaskClassRepository::from_xml`]) into the repository, returning
    /// the number of classes added.
    ///
    /// # Errors
    ///
    /// Fails on malformed XML or invalid embedded processes.
    pub fn load_task_classes(
        &mut self,
        xml_document: &str,
    ) -> Result<usize, qasom_task::bpel::BpelError> {
        let repo = TaskClassRepository::from_xml(xml_document)?;
        let mut count = 0;
        for class in repo.iter() {
            self.tasks.insert(class.clone());
            count += 1;
        }
        Ok(count)
    }

    /// Publishes the infrastructure-layer QoS of the path towards a
    /// hosting node (network latency, packet loss, …). Subsequent
    /// discovery perceives services on that host through the end-to-end
    /// rules, so degraded paths degrade candidates before selection even
    /// runs.
    pub fn set_infrastructure(&mut self, host: u64, qos: QosVector) {
        self.infra.insert(host, qos);
    }

    /// The currently published infrastructure QoS towards a host.
    pub fn infrastructure(&self, host: u64) -> Option<&QosVector> {
        self.infra.get(&host)
    }

    /// Removes the infrastructure information of a host.
    pub fn clear_infrastructure(&mut self, host: u64) {
        self.infra.remove(&host);
    }

    /// The SLA record of a service (created lazily at first delivery).
    pub fn sla(&self, id: ServiceId) -> Option<&qasom_qos::Sla> {
        self.slas.get(&id)
    }

    /// Records a delivery (or failure) against the service's SLA, which
    /// is derived from its advertised QoS on first use.
    pub(crate) fn record_delivery(&mut self, id: ServiceId, delivered: Option<&QosVector>) {
        /// How much worse than advertised a delivery may be before it
        /// counts as a contract breach (fraction, `0.2` = 20 %).
        const SLA_TOLERANCE: f64 = 0.2;
        let Some(desc) = self.registry.get(id) else {
            return;
        };
        let sla = self.slas.entry(id).or_insert_with(|| {
            // Feedback-derived properties (Reputation) are written into
            // advertisements by the middleware itself and never appear in
            // deliveries — they must not become contract terms.
            let agreed: QosVector = desc
                .qos()
                .iter()
                .filter(|&(p, _)| self.model.def(p).category() != qasom_qos::Category::Reputation)
                .collect();
            qasom_qos::Sla::from_agreed(&self.model, &agreed, SLA_TOLERANCE)
        });
        match delivered {
            Some(qos) => {
                sla.record(qos);
            }
            None => sla.record_failure(),
        }
    }

    /// Reputation feedback: re-advertises every SLA-tracked service's
    /// `Reputation` as `5 × compliance` (the standard model's 0–5 scale),
    /// so chronically breaching providers sink in future selections.
    /// Returns the number of services updated.
    ///
    /// The WAL journals only registrations and departures, so when a
    /// journal is attached and anything changed, the pass ends with a
    /// checkpoint: a crash afterwards recovers the re-advertised values.
    pub fn apply_reputation_feedback(&mut self) -> usize {
        let Some(reputation) = self.model.property("Reputation") else {
            return 0;
        };
        let mut updated = 0;
        for (&id, sla) in &self.slas {
            if sla.checks() == 0 {
                continue;
            }
            if let Some(desc) = self.registry.get_mut(id) {
                desc.qos_mut().set(reputation, 5.0 * sla.compliance());
                updated += 1;
            }
        }
        if updated > 0 {
            self.checkpoint_registry();
        }
        updated
    }

    /// QoS-aware discovery for one activity: the candidate set `S_i`.
    ///
    /// Discovery is white-box aware (a service may qualify through one of
    /// its conversation operations) and *end-to-end*: when the hosting
    /// node's infrastructure QoS is known, the candidate's QoS is the
    /// user-perceived one (service QoS degraded by the path).
    pub fn discover(&self, activity: &Activity) -> Vec<ServiceCandidate> {
        self.discover_rows(activity, |candidate| candidate)
    }

    /// Discovery for one activity, one output row per discovered,
    /// still-deployed service: `row` receives the candidate with its
    /// perceived QoS, and the rows land in one exactly-sized `Vec`.
    fn discover_rows<T>(
        &self,
        activity: &Activity,
        mut row: impl FnMut(ServiceCandidate) -> T,
    ) -> Vec<T> {
        let mut discovery = Discovery::new(&self.ontology, &self.model);
        if let Some(rec) = &self.recorder {
            discovery = discovery.with_recorder(rec.as_ref());
        }
        let found = discovery.discover(
            &self.registry,
            &DiscoveryQuery::new(activity).white_box(true),
        );
        let mut rows = Vec::with_capacity(found.len());
        for c in found {
            let Some(desc) = self.registry.get(c.service) else {
                continue;
            };
            let qos = match desc.host().and_then(|h| self.infra.get(&h)) {
                Some(infra) => self.end_to_end.perceive(&c.effective_qos, infra),
                None => c.effective_qos,
            };
            rows.push(row(ServiceCandidate::new(c.service, qos)));
        }
        rows
    }

    /// Whether at least one discoverable, deployed service can serve the
    /// activity — the realisability check of behavioural adaptation.
    pub(crate) fn realisable(&self, activity: &Activity) -> bool {
        !self.discover(activity).is_empty()
    }

    /// Runs the static analyzer over a request without composing: the
    /// full pre-selection validation pass (task structure, QoS
    /// dimensional analysis, constraint satisfiability, vocabulary
    /// alignment, ontology sanity).
    pub fn analyze(&self, request: &UserRequest) -> Vec<qasom_analysis::Diagnostic> {
        let approach = match request.aggregation_approach() {
            qasom_selection::AggregationApproach::Pessimistic => ApproachKind::Pessimistic,
            qasom_selection::AggregationApproach::Optimistic => ApproachKind::Optimistic,
            qasom_selection::AggregationApproach::MeanValue => ApproachKind::MeanValue,
        };
        let spec = RequestSpec {
            task: request.task(),
            constraints: request.raw_constraints(),
            weights: request.raw_weights(),
            approach,
        };
        Analyzer::new(&self.model)
            .with_ontology(&self.ontology)
            .check_request(&spec)
    }

    /// Runs the composition pipeline: static analysis of the request,
    /// then discovery per activity, then QASSA. Error-level diagnostics
    /// reject the request before discovery runs
    /// ([`ComposeError::Rejected`]); warnings are carried on the
    /// returned composition
    /// ([`ExecutableComposition::warnings`]).
    ///
    /// # Errors
    ///
    /// Fails when the analyzer rejects the request, an activity has no
    /// candidate, or the request's QoS names are unknown.
    pub fn compose(&self, request: &UserRequest) -> Result<ExecutableComposition, ComposeError> {
        let (errors, warnings) = qasom_analysis::partition(self.analyze(request));
        if !errors.is_empty() {
            return Err(ComposeError::Rejected(errors));
        }
        let constraints = request.constraints(&self.model)?;
        let preferences = request.preferences(&self.model)?;
        let mut composition = self.compose_task(
            request.task().clone(),
            constraints,
            preferences,
            request.aggregation_approach(),
        )?;
        composition.warnings = warnings;
        Ok(composition)
    }

    /// Composition from already-resolved QoS parts (also used when
    /// behavioural adaptation re-composes an alternative behaviour).
    pub(crate) fn compose_task(
        &self,
        task: qasom_task::UserTask,
        constraints: qasom_qos::ConstraintSet,
        preferences: qasom_qos::Preferences,
        approach: qasom_selection::AggregationApproach,
    ) -> Result<ExecutableComposition, ComposeError> {
        self.compose_task_with(task, constraints, preferences, approach, false)
    }

    /// Re-runs discovery and selection for an existing composition's task
    /// and QoS context, but reasons on *monitored* QoS where delivery
    /// history exists instead of trusting advertisements — the
    /// re-selection step of QoS-driven adaptation. Discovery and local
    /// ranking re-run for every activity.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Environment::compose`].
    pub fn recompose_full(
        &self,
        composition: &ExecutableComposition,
    ) -> Result<ExecutableComposition, ComposeError> {
        self.compose_task_with(
            composition.task().clone(),
            composition.constraints().clone(),
            composition.preferences().clone(),
            composition.approach(),
            true,
        )
    }

    /// Discovery for one activity as selection will see it, built as the
    /// unranked table ranking sorts in place: monitored QoS overlaid
    /// where delivery history exists (when `use_monitor`), and a
    /// [`ComposeError::NoServiceFor`] when nothing qualifies.
    fn discover_for_selection(
        &self,
        activity: &Activity,
        use_monitor: bool,
    ) -> Result<Vec<RankedCandidate>, ComposeError> {
        let table = self.discover_rows(activity, |c| {
            match use_monitor.then(|| self.monitor.estimate(c.id())).flatten() {
                Some(observed) => RankedCandidate::from(ServiceCandidate::new(
                    c.id(),
                    overlay(Some(observed), c.qos()),
                )),
                None => RankedCandidate::from(c),
            }
        });
        if table.is_empty() {
            return Err(ComposeError::NoServiceFor {
                activity: activity.name().to_owned(),
            });
        }
        Ok(table)
    }

    fn compose_task_with(
        &self,
        task: qasom_task::UserTask,
        constraints: qasom_qos::ConstraintSet,
        preferences: qasom_qos::Preferences,
        approach: qasom_selection::AggregationApproach,
        use_monitor: bool,
    ) -> Result<ExecutableComposition, ComposeError> {
        let activities: Vec<&Activity> = task.activities().map(|a| a.activity()).collect();

        // Discovering and locally ranking one activity reads nothing of the
        // others, so the activities are split into one contiguous chunk
        // per core: the caller discovers and ranks the first chunk while
        // a scoped worker takes each of the others, and each keeps one
        // ranking scratch for its chunk. An activity's table is built
        // from its discovery rows and ranked in place on the thread that
        // discovered it. The global phase needs only the rankings, so the
        // problem carries no candidate matrix. Results are collected by
        // position, so errors still surface in activity order and the
        // first missing activity wins deterministically.
        let problem = SelectionProblem::new(&task)
            .with_constraints(constraints.clone())
            .with_preferences(preferences.clone())
            .with_approach(approach);
        let properties = problem.properties();
        let local = self.config.qassa.local;
        let rank_chunk = |chunk: &[&Activity]| -> Vec<Result<QosLevels, ComposeError>> {
            let mut scratch = LocalScratch::new();
            chunk
                .iter()
                .map(|a| {
                    let table = self.discover_for_selection(a, use_monitor)?;
                    Ok(local.rank_table(
                        &self.model,
                        table,
                        &properties,
                        problem.preferences(),
                        &mut scratch,
                    ))
                })
                .collect()
        };
        let chunk_len = activities.len().div_ceil(compose_workers()).max(1);
        let ranked: Vec<Vec<Result<QosLevels, ComposeError>>> = std::thread::scope(|s| {
            let mut chunks = activities.chunks(chunk_len);
            let first = chunks.next().unwrap_or_default();
            let spawned: Vec<_> = chunks.map(|c| s.spawn(move || rank_chunk(c))).collect();
            let mut ranked = Vec::with_capacity(spawned.len() + 1);
            ranked.push(rank_chunk(first));
            for worker in spawned {
                ranked.push(
                    worker
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                );
            }
            ranked
        });

        let mut levels = Vec::with_capacity(activities.len());
        for activity in ranked.into_iter().flatten() {
            levels.push(activity?);
        }

        let mut qassa = Qassa::with_config(&self.model, self.config.qassa);
        if let Some(rec) = &self.recorder {
            qassa = qassa.with_recorder(rec.as_ref());
        }
        let outcome = qassa.select_with_levels(&problem, levels)?;

        self.emit(MiddlewareEvent::Composed {
            task: task.name().to_owned(),
            feasible: outcome.feasible,
            levels_explored: outcome.levels_explored,
        });

        Ok(ExecutableComposition {
            task,
            outcome,
            constraints,
            preferences,
            approach,
            warnings: Vec::new(),
        })
    }
}

/// How many threads one compose fans out to: the cores this process may
/// run on, read once (the standard library re-reads the cgroup files on
/// every call).
fn compose_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qasom_netsim::runtime::SyntheticService;
    use qasom_ontology::OntologyBuilder;
    use qasom_qos::Unit;
    use qasom_task::{TaskNode, UserTask};

    fn env() -> Environment {
        let mut b = OntologyBuilder::new("d");
        b.concept("A");
        b.concept("B");
        Environment::new(QosModel::standard(), b.build().unwrap(), 7)
    }

    fn deploy(env: &mut Environment, name: &str, function: &str, rt_ms: f64) -> ServiceId {
        let rt = env.model().property("ResponseTime").unwrap();
        let av = env.model().property("Availability").unwrap();
        let desc = ServiceDescription::new(name, function)
            .with_qos(rt, rt_ms)
            .with_qos(av, 0.99);
        let nominal = desc.qos().clone();
        env.deploy(desc, SyntheticService::new(nominal))
    }

    fn two_step_task() -> UserTask {
        UserTask::new(
            "t",
            TaskNode::sequence([
                TaskNode::activity(Activity::new("first", "d#A")),
                TaskNode::activity(Activity::new("second", "d#B")),
            ]),
        )
        .unwrap()
    }

    #[test]
    fn compose_selects_discovered_services() {
        let mut e = env();
        let log = crate::EventLog::new();
        e.subscribe(Arc::new(log.clone()));
        deploy(&mut e, "a1", "d#A", 50.0);
        deploy(&mut e, "a2", "d#A", 500.0);
        deploy(&mut e, "b1", "d#B", 60.0);
        let request = UserRequest::new(two_step_task())
            .constraint("ResponseTime", 1.0, Unit::Seconds)
            .unwrap();
        let comp = e.compose(&request).unwrap();
        assert!(comp.outcome().feasible);
        assert_eq!(comp.outcome().assignment.len(), 2);
        assert!(matches!(
            log.events()[0],
            MiddlewareEvent::Composed { feasible: true, .. }
        ));
    }

    /// Compose ranks each activity where it discovered it and runs the
    /// global phase over those rankings alone; the outcome, hierarchies
    /// included, is the one QASSA selects over the whole candidate matrix.
    #[test]
    fn compose_selects_as_qassa_does_over_the_discovered_candidates() {
        let mut e = env();
        for i in 0..12 {
            let x = f64::from(i);
            deploy(&mut e, &format!("a{i}"), "d#A", 40.0 + 37.0 * (x % 5.0) + x);
            deploy(&mut e, &format!("b{i}"), "d#B", 300.0 - 11.0 * x);
        }
        let request = UserRequest::new(two_step_task())
            .constraint("ResponseTime", 0.4, Unit::Seconds)
            .unwrap()
            .weight("ResponseTime", 0.6)
            .weight("Availability", 0.4);
        let comp = e.compose(&request).unwrap();

        let task = two_step_task();
        let candidates = task
            .activities()
            .map(|a| e.discover(a.activity()))
            .collect();
        let problem = SelectionProblem::new(&task)
            .with_candidates(candidates)
            .with_constraints(request.constraints(e.model()).unwrap())
            .with_preferences(request.preferences(e.model()).unwrap())
            .with_approach(request.aggregation_approach());
        let expected = Qassa::with_config(e.model(), e.config().qassa)
            .select(&problem)
            .unwrap();
        assert_eq!(comp.outcome(), &expected);
        assert_eq!(comp.outcome().levels.len(), 2);
    }

    /// Full re-selection builds each activity's table with the monitor's
    /// estimates overlaid on the discovered advertisements; the outcome
    /// is the one QASSA selects over those overlaid candidates.
    #[test]
    fn recompose_full_selects_as_qassa_does_over_the_monitored_candidates() {
        let mut e = env();
        let rt = e.model().property("ResponseTime").unwrap();
        let mut observed = Vec::new();
        for i in 0..12 {
            let x = f64::from(i);
            let a = deploy(&mut e, &format!("a{i}"), "d#A", 40.0 + 37.0 * (x % 5.0) + x);
            deploy(&mut e, &format!("b{i}"), "d#B", 300.0 - 11.0 * x);
            if i % 3 == 0 {
                observed.push(a);
            }
        }
        for (k, &id) in observed.iter().enumerate() {
            let mut q = qasom_qos::QosVector::new();
            q.set(rt, 90.0 + 50.0 * k as f64);
            e.monitor.observe(id, &q);
        }
        let request = UserRequest::new(two_step_task())
            .constraint("ResponseTime", 0.4, Unit::Seconds)
            .unwrap()
            .weight("ResponseTime", 0.6)
            .weight("Availability", 0.4);
        let comp = e.compose(&request).unwrap();
        let recomposed = e.recompose_full(&comp).unwrap();

        let task = two_step_task();
        let candidates = task
            .activities()
            .map(|a| {
                e.discover(a.activity())
                    .into_iter()
                    .map(|c| {
                        let qos = overlay(e.monitor.estimate(c.id()), c.qos());
                        ServiceCandidate::new(c.id(), qos)
                    })
                    .collect()
            })
            .collect();
        let problem = SelectionProblem::new(&task)
            .with_candidates(candidates)
            .with_constraints(request.constraints(e.model()).unwrap())
            .with_preferences(request.preferences(e.model()).unwrap())
            .with_approach(request.aggregation_approach());
        let expected = Qassa::with_config(e.model(), e.config().qassa)
            .select(&problem)
            .unwrap();
        assert_eq!(recomposed.outcome(), &expected);
        assert_ne!(recomposed.outcome(), comp.outcome());
    }

    #[test]
    fn a_departed_service_leaves_no_monitor_windows_or_sla() {
        let mut e = env();
        let rt = e.model().property("ResponseTime").unwrap();
        let a = deploy(&mut e, "a1", "d#A", 50.0);
        let b = deploy(&mut e, "b1", "d#B", 60.0);
        let comp = e.compose(&UserRequest::new(two_step_task())).unwrap();
        assert!(e.execute(comp).unwrap().success);
        assert!(e.sla(a).is_some());
        assert_eq!(e.monitor().sample_count(a, rt), 1);

        e.undeploy(a);
        assert!(e.sla(a).is_none());
        assert_eq!(e.monitor().sample_count(a, rt), 0);
        // The service that stays keeps its record.
        assert!(e.sla(b).is_some());
        assert_eq!(e.monitor().sample_count(b, rt), 1);
    }

    #[test]
    fn builder_configures_recorder_and_sinks() {
        use qasom_obs::MemoryRecorder;

        let mut b = OntologyBuilder::new("d");
        b.concept("A");
        b.concept("B");
        let recorder = Arc::new(MemoryRecorder::new());
        let log = crate::EventLog::new();
        let bounded = crate::EventLog::bounded(1);
        let mut e = EnvironmentConfig::builder()
            .seed(7)
            .recorder(Arc::clone(&recorder) as Arc<dyn qasom_obs::Recorder>)
            .sink(Arc::new(log.clone()))
            .sink(Arc::new(bounded.clone()))
            .build(QosModel::standard(), b.build().unwrap());
        assert_eq!(e.config().seed, 7);
        deploy(&mut e, "a1", "d#A", 50.0);
        deploy(&mut e, "b1", "d#B", 60.0);
        let comp = e.compose(&UserRequest::new(two_step_task())).unwrap();
        let report = e.execute(comp).unwrap();
        assert!(report.success);

        // The sink saw the full stream: Composed, 2 × Invoked, Completed.
        assert_eq!(log.len(), 4);
        // The bounded sink retains only the most recent event.
        let retained = bounded.events();
        assert_eq!(retained.len(), 1);
        assert!(matches!(retained[0], MiddlewareEvent::Completed { .. }));

        // The recorder counted per-type events and the pipeline phases.
        let snap = recorder.snapshot().unwrap();
        assert_eq!(snap.counter(qasom_obs::keys::EVENT_COMPOSED), 1);
        assert_eq!(snap.counter(qasom_obs::keys::EVENT_INVOKED), 2);
        assert_eq!(snap.counter(qasom_obs::keys::EVENT_COMPLETED), 1);
        assert_eq!(snap.counter(qasom_obs::keys::SELECTION_RUNS), 1);
        assert!(snap.counter(qasom_obs::keys::DISCOVERY_INDEXED) >= 2);

        // And the report carries exactly those counters.
        let rr = e.run_report("unit");
        assert_eq!(rr.seed, 7);
        assert_eq!(rr.metrics, snap);
    }

    #[test]
    fn recorder_does_not_change_composition_outcomes() {
        use qasom_obs::MemoryRecorder;

        let run = |recorded: bool| {
            let mut e = env();
            if recorded {
                e.set_recorder(Arc::new(MemoryRecorder::new()));
            }
            deploy(&mut e, "a1", "d#A", 50.0);
            deploy(&mut e, "a2", "d#A", 500.0);
            deploy(&mut e, "b1", "d#B", 60.0);
            let request = UserRequest::new(two_step_task())
                .constraint("ResponseTime", 1.0, Unit::Seconds)
                .unwrap();
            let comp = e.compose(&request).unwrap();
            (
                comp.outcome().feasible,
                comp.outcome().levels_explored,
                comp.outcome()
                    .assignment
                    .iter()
                    .map(|c| c.id())
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn compose_fails_without_a_candidate() {
        let mut e = env();
        deploy(&mut e, "a1", "d#A", 50.0);
        let request = UserRequest::new(two_step_task());
        assert_eq!(
            e.compose(&request).err(),
            Some(ComposeError::NoServiceFor {
                activity: "second".to_owned()
            })
        );
    }

    #[test]
    fn undeployed_services_are_not_discovered() {
        let mut e = env();
        let id = deploy(&mut e, "a1", "d#A", 50.0);
        e.undeploy(id);
        assert!(e.discover(&Activity::new("x", "d#A")).is_empty());
    }

    #[test]
    fn sla_tracks_deliveries_and_feeds_reputation() {
        let mut e = env();
        let rt = e.model().property("ResponseTime").unwrap();
        let rep = e.model().property("Reputation").unwrap();
        // Advertises 50 ms but delivers 200 ms (beyond the 20 % default
        // tolerance).
        let liar = {
            let desc = describe(&e, "liar", "d#A", 50.0);
            let mut delivered = desc.qos().clone();
            delivered.set(rt, 200.0);
            e.deploy(desc, SyntheticService::new(delivered))
        };
        let honest = deploy(&mut e, "honest", "d#B", 50.0);

        let req = UserRequest::new(two_step_task());
        let comp = e.compose(&req).unwrap();
        let report = e.execute(comp).unwrap();
        assert!(report.success);

        let liar_sla = e.sla(liar).expect("delivery recorded");
        assert_eq!(liar_sla.checks(), 1);
        assert_eq!(liar_sla.breaches(), 1);
        let honest_sla = e.sla(honest).expect("delivery recorded");
        assert_eq!(honest_sla.compliance(), 1.0);

        let updated = e.apply_reputation_feedback();
        assert_eq!(updated, 2);
        assert_eq!(e.registry().get(liar).unwrap().qos().get(rep), Some(0.0));
        assert_eq!(e.registry().get(honest).unwrap().qos().get(rep), Some(5.0));
    }

    fn describe(e: &Environment, name: &str, function: &str, rt_ms: f64) -> ServiceDescription {
        let rt = e.model().property("ResponseTime").unwrap();
        let av = e.model().property("Availability").unwrap();
        ServiceDescription::new(name, function)
            .with_qos(rt, rt_ms)
            .with_qos(av, 0.99)
    }

    #[test]
    fn reputation_feedback_does_not_poison_future_slas() {
        let mut e = env();
        let rep = e.model().property("Reputation").unwrap();
        // An honest service; reputation feedback writes Reputation into
        // its advertisement between two execution rounds.
        let id = deploy(&mut e, "honest", "d#A", 50.0);
        let task = UserTask::new("t", TaskNode::activity(Activity::new("a", "d#A"))).unwrap();
        let comp = e.compose(&UserRequest::new(task.clone())).unwrap();
        assert!(e.execute(comp).unwrap().success);
        assert_eq!(e.apply_reputation_feedback(), 1);
        assert_eq!(e.registry().get(id).unwrap().qos().get(rep), Some(5.0));

        // A new SLA created after feedback (fresh environment state for
        // the SLA map): re-deploy the same advertisement.
        let desc = e.registry().get(id).unwrap().clone();
        let nominal_without_rep: qasom_qos::QosVector =
            desc.qos().iter().filter(|&(p, _)| p != rep).collect();
        let id2 = e.deploy(
            desc.clone().with_qos_vector(desc.qos().clone()),
            SyntheticService::new(nominal_without_rep),
        );
        let comp = e.compose(&UserRequest::new(task)).unwrap();
        let report = e.execute(comp).unwrap();
        assert!(report.success);
        // Whichever service served, no SLA may count the feedback-derived
        // Reputation as a breached contract term.
        for sid in [id, id2] {
            if let Some(sla) = e.sla(sid) {
                assert_eq!(
                    sla.breaches(),
                    0,
                    "feedback-derived Reputation must not breach SLAs"
                );
            }
        }
    }

    #[test]
    fn recompose_uses_monitored_history() {
        let mut e = env();
        let rt = e.model().property("ResponseTime").unwrap();
        // Advertised-fast-but-actually-slow vs advertised-slow-but-fine.
        let liar = deploy(&mut e, "liar", "d#A", 10.0);
        let honest = deploy(&mut e, "honest", "d#A", 80.0);
        deploy(&mut e, "b1", "d#B", 50.0);
        let request = UserRequest::new(two_step_task())
            .constraint("ResponseTime", 0.2, Unit::Seconds)
            .unwrap();
        let comp = e.compose(&request).unwrap();
        assert_eq!(comp.outcome().assignment[0].id(), liar);

        // The monitor learns the truth.
        for _ in 0..5 {
            let mut q = qasom_qos::QosVector::new();
            q.set(rt, 500.0);
            e.monitor.observe(liar, &q);
        }
        let recomposed = e.recompose_full(&comp).unwrap();
        assert_eq!(recomposed.outcome().assignment[0].id(), honest);
    }

    #[test]
    fn recompose_survives_departure_of_the_chosen_service() {
        let mut e = env();
        let a1 = deploy(&mut e, "a1", "d#A", 50.0);
        deploy(&mut e, "a2", "d#A", 500.0);
        deploy(&mut e, "b1", "d#B", 60.0);
        let request = UserRequest::new(two_step_task())
            .constraint("ResponseTime", 1.0, Unit::Seconds)
            .unwrap();
        let comp = e.compose(&request).unwrap();
        assert_eq!(comp.outcome().assignment[0].id(), a1);

        e.undeploy(a1);
        let recomposed = e.recompose_full(&comp).unwrap();
        assert_ne!(recomposed.outcome().assignment[0].id(), a1);
    }

    #[test]
    fn load_services_from_qsd() {
        let mut e = env();
        let ids = e
            .load_services(
                r#"<services>
                     <service name="a1" function="d#A">
                       <qos property="ResponseTime" value="0.05" unit="s"/>
                     </service>
                     <service name="b1" function="d#B">
                       <qos property="ResponseTime" value="60" unit="ms"/>
                     </service>
                   </services>"#,
            )
            .unwrap();
        assert_eq!(ids.len(), 2);
        let rt = e.model().property("ResponseTime").unwrap();
        assert_eq!(e.registry().get(ids[0]).unwrap().qos().get(rt), Some(50.0));
        // The loaded services are immediately usable end to end.
        let request = UserRequest::new(two_step_task());
        let comp = e.compose(&request).unwrap();
        let report = e.execute(comp).unwrap();
        assert!(report.success);
    }

    #[test]
    fn load_task_classes_from_xml() {
        let mut e = env();
        let n = e
            .load_task_classes(
                r#"<taskclasses>
                     <taskclass name="demo">
                       <process name="v1"><invoke name="a" function="d#A"/></process>
                       <process name="v2"><invoke name="b" function="d#B"/></process>
                     </taskclass>
                   </taskclasses>"#,
            )
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(e.task_repository().alternatives("v1").count(), 1);
    }

    #[test]
    fn infrastructure_degrades_perceived_candidates() {
        let mut e = env();
        let rt = e.model().property("ResponseTime").unwrap();
        let lat = e.model().property("NetworkLatency").unwrap();
        // Two identical services on different hosts.
        let mk = |host: u64| {
            ServiceDescription::new(format!("svc-{host}"), "d#A")
                .with_qos(rt, 100.0)
                .with_host(host)
        };
        for host in [1, 2] {
            let d = mk(host);
            let nominal = d.qos().clone();
            e.deploy(d, SyntheticService::new(nominal));
        }
        let path = |latency_ms: f64| {
            let mut infra = qasom_qos::QosVector::new();
            infra.set(lat, latency_ms);
            infra
        };
        let perceived = |e: &Environment| {
            let mut by_host: Vec<(u64, f64)> = e
                .discover(&Activity::new("x", "d#A"))
                .iter()
                .map(|c| {
                    (
                        e.registry().get(c.id()).unwrap().host().unwrap(),
                        c.qos().get(rt).unwrap(),
                    )
                })
                .collect();
            by_host.sort_by_key(|&(host, _)| host);
            by_host
        };
        let selected_host = |e: &mut Environment| {
            let task = UserTask::new("t", TaskNode::activity(Activity::new("x", "d#A"))).unwrap();
            // Selection needs a QoS axis to rank on: the user cares about delay.
            let comp = e
                .compose(&UserRequest::new(task).weight("Delay", 1.0))
                .unwrap();
            let id = comp.outcome().assignment[0].id();
            e.registry().get(id).unwrap().host().unwrap()
        };

        // Host 2's path is slow: 100 + 2 × 200 round trip. The nearer
        // host wins.
        e.set_infrastructure(2, path(200.0));
        assert_eq!(perceived(&e), vec![(1, 100.0), (2, 500.0)]);
        assert_eq!(selected_host(&mut e), 1);
        // The user walks: the paths swap, so does the selection.
        e.set_infrastructure(1, path(200.0));
        e.set_infrastructure(2, path(2.5));
        assert_eq!(perceived(&e), vec![(1, 500.0), (2, 105.0)]);
        assert_eq!(selected_host(&mut e), 2);
        // Host 1 is out of range: an unusable path makes its perceived
        // response time infinite and takes it out of selection, even
        // against a slow path to host 2.
        e.set_infrastructure(1, path(f64::INFINITY));
        e.set_infrastructure(2, path(200.0));
        assert_eq!(perceived(&e), vec![(1, f64::INFINITY), (2, 500.0)]);
        assert_eq!(selected_host(&mut e), 2);

        e.clear_infrastructure(1);
        e.clear_infrastructure(2);
        assert_eq!(perceived(&e), vec![(1, 100.0), (2, 100.0)]);
    }

    #[test]
    fn white_box_services_are_discovered_through_operations() {
        let mut e = env();
        let rt = e.model().property("ResponseTime").unwrap();
        let desc = ServiceDescription::new("kiosk", "misc#Multi")
            .with_qos(rt, 900.0)
            .with_operation(qasom_registry::Operation::new("fast-a", "d#A").with_qos(rt, 45.0));
        let nominal = desc.qos().clone();
        e.deploy(desc, SyntheticService::new(nominal));
        let found = e.discover(&Activity::new("x", "d#A"));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].qos().get(rt), Some(45.0));
    }

    #[test]
    fn unknown_constraint_name_is_rejected_by_analysis() {
        let mut e = env();
        deploy(&mut e, "a1", "d#A", 50.0);
        deploy(&mut e, "b1", "d#B", 50.0);
        let request = UserRequest::new(two_step_task())
            .constraint("Bogus", 1.0, Unit::Dimensionless)
            .unwrap();
        match e.compose(&request) {
            Err(ComposeError::Rejected(diags)) => {
                assert!(diags.iter().any(|d| d.code.code() == "QA010"), "{diags:?}");
            }
            other => panic!("expected analysis rejection, got {other:?}"),
        }
    }

    #[test]
    fn analyzer_warnings_ride_on_the_composition() {
        let mut e = env();
        deploy(&mut e, "a1", "d#A", 50.0);
        // `misc#X` is not a concept of the `d` ontology: QA020 warning,
        // but composition still goes ahead (it still resolves by exact
        // IRI match).
        let rt = e.model().property("ResponseTime").unwrap();
        let desc = ServiceDescription::new("x1", "misc#X").with_qos(rt, 10.0);
        let nominal = desc.qos().clone();
        e.deploy(desc, SyntheticService::new(nominal));
        let task = UserTask::new(
            "t",
            TaskNode::sequence([
                TaskNode::activity(Activity::new("first", "d#A")),
                TaskNode::activity(Activity::new("odd", "misc#X")),
            ]),
        )
        .unwrap();
        let comp = e.compose(&UserRequest::new(task)).unwrap();
        assert!(
            comp.warnings().iter().any(|d| d.code.code() == "QA020"),
            "{:?}",
            comp.warnings()
        );
    }

    #[test]
    fn inconsistent_qsd_is_rejected_with_diagnostics() {
        use qasom_registry::qsd::QsdError;
        let mut e = env();
        // Availability is a probability; 1.2 is out of range → QA030.
        let err = e
            .load_services(
                r#"<services>
                     <service name="liar" function="d#A">
                       <qos property="Availability" value="1.2"/>
                     </service>
                   </services>"#,
            )
            .unwrap_err();
        match err {
            QsdError::Rejected(diags) => {
                assert!(diags.iter().any(|d| d.code.code() == "QA030"), "{diags:?}");
            }
            other => panic!("expected analyzer rejection, got {other:?}"),
        }
        // Nothing was deployed.
        assert!(e.discover(&Activity::new("x", "d#A")).is_empty());
    }
}
