//! The middleware instance: environment state + composition pipeline.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use qasom_adaptation::{QosEstimate, QosMonitor};
use qasom_analysis::{Analyzer, RequestSpec};
use qasom_netsim::runtime::{ServiceRuntime, SyntheticService};
use qasom_obs::report::RunReport;
use qasom_obs::{keys, JsonValue, Recorder};
use qasom_ontology::Ontology;
use qasom_qos::{EndToEnd, PropertyId, QosModel, QosVector};
use qasom_registry::persist::{
    Fs, PersistConfig, PersistError, PersistStats, PersistentRegistry, RecoveryReport,
    RegistryJournal, Unjournaled,
};
use qasom_registry::{
    Discovery, DiscoveryQuery, Qualified, ServiceDescription, ServiceId, ServiceRegistry,
};
use qasom_selection::{
    LocalScratch, Qassa, QassaConfig, QosColumns, QosLevels, RankedCandidate, SelectionProblem,
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
    // Mutated only through `mutate`, which applies the journal policy.
    registry: PersistentRegistry,
    runtime: ServiceRuntime,
    tasks: TaskClassRepository,
    infra: HashMap<u64, QosVector>,
    end_to_end: EndToEnd,
    pub(crate) monitor: QosMonitor,
    pub(crate) config: EnvironmentConfig,
    recorder: Option<Arc<dyn Recorder>>,
    sinks: Vec<Arc<dyn EventSink>>,
}

impl Environment {
    /// Creates an environment over a QoS model and a domain ontology;
    /// `seed` drives the synthetic service runtime.
    pub fn new(model: QosModel, ontology: Ontology, seed: u64) -> Self {
        let config = EnvironmentConfig {
            seed,
            ..EnvironmentConfig::default()
        };
        let end_to_end = EndToEnd::standard(&model);
        let ontology = Arc::new(ontology);
        // The registry is bound to the domain ontology so it maintains
        // the inverted capability index discovery probes.
        let registry = ServiceRegistry::with_ontology(Arc::clone(&ontology));
        // Services deliver ratios as the model's units say, not as their
        // advertised values suggest.
        let runtime = ServiceRuntime::new(seed, &model);
        Environment {
            model,
            registry: PersistentRegistry::new(registry),
            ontology,
            runtime,
            tasks: TaskClassRepository::new(),
            infra: HashMap::new(),
            end_to_end,
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
        self.registry.registry()
    }

    /// The registry epoch: the monotone event cursor every
    /// registration/departure advances. Two compositions computed at
    /// the same epoch saw the identical provider population, so the
    /// epoch is what concurrent sessions use to compare results
    /// against a single-threaded replay.
    pub fn epoch(&self) -> u64 {
        self.registry.registry().event_cursor() as u64
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
        let id = self.mutate(|registry| registry.register(description));
        self.runtime.deploy(id.index(), behaviour);
        id
    }

    /// Removes a service (provider departure / churn) with its behaviour,
    /// monitor windows and SLA record. Journaled like
    /// [`Environment::deploy`] when the service was live.
    pub fn undeploy(&mut self, id: ServiceId) {
        self.mutate(|registry| registry.deregister(id));
        self.runtime.undeploy(id.index());
        self.monitor.forget(id);
    }

    /// Runs one registry mutation under the journal policy: the mutation
    /// stands either way, journal counter movement is mirrored into the
    /// recorder, and the first journaling failure is counted and
    /// detaches the journal (in-memory state and store would otherwise
    /// diverge silently).
    fn mutate<T>(
        &mut self,
        op: impl FnOnce(&mut PersistentRegistry) -> Result<T, Unjournaled<T>>,
    ) -> T {
        let before = self.journal_stats();
        let (applied, failed) = match op(&mut self.registry) {
            Ok(applied) => (applied, false),
            Err(unjournaled) => (unjournaled.applied, true),
        };
        if let Some(before) = before {
            self.settle_journal(before, failed);
        }
        applied
    }

    /// Mirrors journal counter movement since `before` into the
    /// recorder, then counts a failure and detaches the journal.
    fn settle_journal(&mut self, before: PersistStats, failed: bool) {
        let after = self.journal_stats().unwrap_or_default();
        if let Some(rec) = &self.recorder {
            for (key, moved) in [
                (keys::PERSIST_WAL_APPENDS, after.appends - before.appends),
                (keys::PERSIST_WAL_BYTES, after.wal_bytes - before.wal_bytes),
                (
                    keys::PERSIST_CHECKPOINTS,
                    after.checkpoints - before.checkpoints,
                ),
                (
                    keys::PERSIST_REPLAY_EVENTS,
                    after.replayed_events - before.replayed_events,
                ),
                (
                    keys::PERSIST_TORN_TAIL,
                    after.torn_tails - before.torn_tails,
                ),
                (
                    keys::PERSIST_SNAPSHOT_LOADS,
                    after.snapshot_loads - before.snapshot_loads,
                ),
            ] {
                rec.incr(key, moved);
            }
        }
        if failed {
            if let Some(rec) = &self.recorder {
                rec.incr(keys::PERSIST_ERRORS, 1);
            }
            self.registry.detach_journal();
        }
    }

    /// Makes the registry durable in `backend`: recovers what it holds
    /// (snapshot + WAL tail, bound to this environment's own ontology)
    /// and journals every later registration and departure to it. The
    /// recovered registry replaces the current one, so call this before
    /// deploying anything; an empty backend is a cold boot. Runtime
    /// behaviours of recovered services live only in memory: re-create
    /// them with [`Environment::attach_behaviour`].
    ///
    /// # Errors
    ///
    /// As for [`RegistryJournal::open`]; the environment is then left
    /// as it was.
    pub fn open_registry(
        &mut self,
        backend: impl Fs + Send + Sync + 'static,
        config: PersistConfig,
    ) -> Result<RecoveryReport, PersistError> {
        let ontology = Some(Arc::clone(&self.ontology));
        let (registry, report) = PersistentRegistry::open(backend, config, ontology)?;
        self.registry = registry;
        // Recovery-time movement (replays, torn tails, snapshot loads).
        self.settle_journal(PersistStats::default(), false);
        Ok(report)
    }

    /// Attaches a journal that continues at the registry's epoch (a
    /// fresh one for a fresh environment); recovery-time counter
    /// movement is mirrored into the recorder here.
    pub fn attach_journal(&mut self, journal: RegistryJournal) {
        self.registry.attach_journal(journal);
        self.settle_journal(PersistStats::default(), false);
    }

    /// Whether a journal is currently attached.
    pub fn journaling(&self) -> bool {
        self.registry.journal().is_some()
    }

    /// Counter snapshot of the attached journal, if any.
    pub fn journal_stats(&self) -> Option<PersistStats> {
        self.registry.journal().map(RegistryJournal::stats)
    }

    /// Takes an explicit persistence checkpoint (snapshot + WAL
    /// truncation); returns whether a journal was attached to
    /// checkpoint through.
    pub fn checkpoint_registry(&mut self) -> bool {
        self.mutate(|registry| {
            registry.checkpoint().map_err(|error| Unjournaled {
                applied: true,
                error,
            })
        })
    }

    /// Re-attaches a synthetic behaviour to an already-registered
    /// service: the warm-restart path, where the registry rows were
    /// recovered from the WAL but runtime behaviours live only in
    /// memory and must be re-created by the host.
    pub fn attach_behaviour(&mut self, id: ServiceId, behaviour: SyntheticService) {
        self.runtime.deploy(id.index(), behaviour);
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
    /// (delivers its advertised QoS exactly).
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
        self.monitor.sla(id)
    }

    /// Records one invocation of a registered service, as
    /// [`Environment::execute`] does for each of its own: `delivered` is
    /// the QoS it delivered, `None` a failure. Deliveries fill the
    /// monitor's windows, and every outcome is checked against the SLA
    /// derived from the service's advertisement; both settle into the
    /// [`qasom_adaptation::QosEstimate`] every later composition ranks
    /// the service on. Nothing is written to the registry.
    pub fn record_invocation(&mut self, id: ServiceId, delivered: Option<&QosVector>) {
        let Some(desc) = self.registry.registry().get(id) else {
            return;
        };
        if let Some(qos) = delivered {
            self.monitor.observe(&self.model, id, qos);
        }
        self.monitor
            .record_delivery(&self.model, id, desc.qos(), delivered);
    }

    /// QoS-aware discovery for one activity: the candidate set `S_i`.
    ///
    /// Discovery is white-box aware (a service may qualify through one of
    /// its conversation operations) and *end-to-end*: a candidate's
    /// service-layer QoS is its [`qasom_adaptation::QosEstimate`] laid
    /// over what it advertises, and when the hosting node's
    /// infrastructure QoS is known, the candidate's QoS is the
    /// user-perceived one (that service QoS degraded by the path).
    pub fn discover(&self, activity: &Activity) -> Vec<ServiceCandidate> {
        self.discover_rows(activity, |found| {
            ServiceCandidate::new(found.service, self.seen(&found).qos())
        })
    }

    /// Discovery as this environment runs it, counting into its
    /// recorder.
    fn discovery(&self) -> Discovery<'_> {
        let discovery = Discovery::new(&self.ontology, &self.model);
        match &self.recorder {
            Some(rec) => discovery.with_recorder(rec.as_ref()),
            None => discovery,
        }
    }

    /// White-box discovery for one activity, one row per qualifying
    /// service, built by `row` as discovery evaluates the service.
    fn discover_rows<'e, T>(
        &'e self,
        activity: &Activity,
        mut row: impl FnMut(Qualified<'e>) -> T,
    ) -> Vec<T> {
        let query = DiscoveryQuery::new(activity).white_box(true);
        let (rows, ()) = self.discovery().discover_rows(
            self.registry.registry(),
            &query,
            |_| (),
            |(), found| row(found),
        );
        rows
    }

    /// A discovered service's QoS as selection sees it: the row builder
    /// every compose, discovery and rebind reads through.
    fn seen<'a>(&'a self, found: &'a Qualified<'_>) -> Seen<'a> {
        Seen {
            advertised: &found.effective_qos,
            estimate: self.monitor.qos_estimate(found.service),
            path: found.description.host().and_then(|h| self.infra.get(&h)),
            end_to_end: &self.end_to_end,
        }
    }

    /// The QoS vector a ranked candidate of `activity` is bound with:
    /// everything the service advertises, seen as discovery sees it now,
    /// with the values it was ranked on kept as they were ranked.
    /// `ranked`'s own values when the service no longer qualifies. For a
    /// winner, "now" is the compose that ranked it; for an alternate
    /// rebound during execution, its unranked properties are read when
    /// it is rebound, so an estimate settled since compose (by this or
    /// another session's deliveries) shows in them.
    pub(crate) fn complete(&self, activity: &Activity, ranked: &ServiceCandidate) -> QosVector {
        let query = DiscoveryQuery::new(activity).white_box(true);
        let registry = self.registry.registry();
        let Some(found) = self.discovery().qualify(registry, &query, ranked.id()) else {
            return ranked.qos().clone();
        };
        let mut qos = self.seen(&found).qos();
        qos.overwrite(ranked.qos());
        qos
    }

    /// Whether at least one discoverable, deployed service can serve the
    /// activity — the realisability check of behavioural adaptation.
    /// Its rows are zero-sized, so discovery builds no table for it.
    pub(crate) fn realisable(&self, activity: &Activity) -> bool {
        !self.discover_rows(activity, |_| ()).is_empty()
    }

    /// Runs the static analyzer over a request without composing: the
    /// full pre-selection validation pass (task structure, QoS
    /// dimensional analysis, constraint satisfiability, vocabulary
    /// alignment, ontology sanity).
    pub fn analyze(&self, request: &UserRequest) -> Vec<qasom_analysis::Diagnostic> {
        let spec = RequestSpec {
            task: request.task(),
            constraints: request.raw_constraints(),
            weights: request.raw_weights(),
            approach: request.aggregation_approach(),
        };
        Analyzer::new(&self.model)
            .with_ontology(&self.ontology)
            .check_request(&spec)
    }

    /// Runs the composition pipeline: static analysis of the request,
    /// then discovery per activity, then QASSA over each discovered
    /// service's QoS estimate (its advertisement, corrected by what the
    /// monitor and its SLA have learnt). Error-level diagnostics
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

    /// Re-runs composition for an existing composition's task and QoS
    /// context: the same pipeline as [`Environment::compose`], over the
    /// registry and the estimates as they are now.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Environment::compose`].
    pub fn recompose_full(
        &self,
        composition: &ExecutableComposition,
    ) -> Result<ExecutableComposition, ComposeError> {
        self.compose_task(
            composition.task().clone(),
            composition.constraints().clone(),
            composition.preferences().clone(),
            composition.approach(),
        )
    }

    /// Discovery for one activity as selection ranks it: a row per
    /// qualifying service, and its values of `properties` written into
    /// columns sized by discovery's presize. A
    /// [`ComposeError::NoServiceFor`] when nothing qualifies.
    fn discover_for_selection(
        &self,
        activity: &Activity,
        properties: &Arc<[PropertyId]>,
    ) -> Result<(Vec<RankedCandidate>, QosColumns), ComposeError> {
        let query = DiscoveryQuery::new(activity).white_box(true);
        let (rows, columns) = self.discovery().discover_rows(
            self.registry.registry(),
            &query,
            |presize| QosColumns::with_capacity(Arc::clone(properties), presize),
            |columns, found| {
                let seen = self.seen(&found);
                RankedCandidate::new(found.service, columns.push(|p| seen.get(p)))
            },
        );
        if rows.is_empty() {
            return Err(ComposeError::NoServiceFor {
                activity: activity.name().to_owned(),
            });
        }
        Ok((rows, columns))
    }

    /// Composition from already-resolved QoS parts (also used when
    /// behavioural adaptation re-composes an alternative behaviour):
    /// discovery, then QASSA over the estimated candidates.
    pub(crate) fn compose_task(
        &self,
        task: qasom_task::UserTask,
        constraints: qasom_qos::ConstraintSet,
        preferences: qasom_qos::Preferences,
        approach: qasom_selection::AggregationApproach,
    ) -> Result<ExecutableComposition, ComposeError> {
        let activities: Vec<&Activity> = task.activities().map(|a| a.activity()).collect();

        // Discovering and locally ranking one activity reads nothing of the
        // others, so the activities are split into one contiguous chunk
        // per core: the caller discovers and ranks the first chunk while
        // a scoped worker takes each of the others, and each keeps one
        // ranking scratch for its chunk. An activity's table is built
        // from its discovery rows and ranked in place on the thread that
        // discovered it; it holds the requested properties only (resolved
        // once, shared by every activity's columns). The global phase
        // needs only the rankings, so the problem carries no candidate
        // matrix. Results are collected by position, so errors still
        // surface in activity order and the first missing activity wins
        // deterministically.
        let problem = SelectionProblem::new(&task)
            .with_constraints(constraints.clone())
            .with_preferences(preferences.clone())
            .with_approach(approach);
        let properties: Arc<[PropertyId]> = problem.properties().into();
        let local = self.config.qassa.local;
        let rank_chunk = |chunk: &[&Activity]| -> Vec<Result<QosLevels, ComposeError>> {
            let mut scratch = LocalScratch::new();
            chunk
                .iter()
                .map(|a| {
                    let (rows, columns) = self.discover_for_selection(a, &properties)?;
                    Ok(local.rank_table(
                        &self.model,
                        rows,
                        columns,
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
        let mut outcome = qassa.select_with_levels(&problem, levels)?;
        // The tables hold the requested values only: the winners take
        // everything their services advertise from the row builder.
        for (winner, activity) in outcome.assignment.iter_mut().zip(&activities) {
            *winner = ServiceCandidate::new(winner.id(), self.complete(activity, winner));
        }

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

/// One discovered service's QoS as selection sees it: what it is
/// advertised with for the match, the monitor's estimate laid over that,
/// and the result perceived through the path to its host, in that order.
/// Compose reads the requested properties one at a time
/// ([`Seen::get`]) into its tables, so nothing the request does not
/// name is copied; a winner or a rebound alternate reads the whole
/// vector ([`Seen::qos`]).
struct Seen<'a> {
    advertised: &'a QosVector,
    estimate: Option<&'a QosEstimate>,
    path: Option<&'a QosVector>,
    end_to_end: &'a EndToEnd,
}

impl Seen<'_> {
    /// The value of an advertised property, `value` as advertised.
    fn see(&self, property: PropertyId, value: f64) -> f64 {
        let value = self.estimate.and_then(|e| e.get(property)).unwrap_or(value);
        match self.path {
            Some(infra) => self.end_to_end.perceive_value(property, value, infra),
            None => value,
        }
    }

    /// The value of `property`; `None` when it is not advertised.
    fn get(&self, property: PropertyId) -> Option<f64> {
        Some(self.see(property, self.advertised.get(property)?))
    }

    /// Every advertised property's value.
    fn qos(&self) -> QosVector {
        self.advertised
            .iter()
            .map(|(p, v)| (p, self.see(p, v)))
            .collect()
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
    use qasom_qos::{PropertyId, Unit};
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

    /// Records deliveries of `delivered` from `id` until the estimate
    /// has settled `property`.
    fn settle(e: &mut Environment, id: ServiceId, property: PropertyId, delivered: &QosVector) {
        while e
            .monitor()
            .qos_estimate(id)
            .and_then(|estimate| estimate.get(property))
            .is_none()
        {
            e.record_invocation(id, Some(delivered));
        }
    }

    /// A few deliveries count from the first: three slow ones of the
    /// advertised-best service make the next compose bind the other.
    #[test]
    fn three_bad_deliveries_move_the_next_compose() {
        let mut e = env();
        let rt = e.model().property("ResponseTime").unwrap();
        let fast = deploy(&mut e, "a-fast", "d#A", 50.0);
        let other = deploy(&mut e, "a-other", "d#A", 80.0);
        deploy(&mut e, "b", "d#B", 60.0);
        let request = UserRequest::new(two_step_task())
            .constraint("ResponseTime", 1.0, Unit::Seconds)
            .unwrap()
            .weight("ResponseTime", 1.0);
        let bound = |e: &Environment| e.compose(&request).unwrap().outcome().assignment[0].id();
        assert_eq!(bound(&e), fast);
        let mut slow = QosVector::new();
        slow.set(rt, 200.0);
        for _ in 0..3 {
            e.record_invocation(fast, Some(&slow));
        }
        assert_eq!(bound(&e), other);
    }

    /// Compose ranks each discovered service on its QoS estimate: the
    /// outcome is the one QASSA selects over the discovered candidates
    /// with each service's estimate laid over its advertisement, and
    /// re-composing an earlier composition is that same compose.
    #[test]
    fn compose_selects_as_qassa_does_over_the_estimated_candidates() {
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
        let request = UserRequest::new(two_step_task())
            .constraint("ResponseTime", 0.4, Unit::Seconds)
            .unwrap()
            .weight("ResponseTime", 0.6)
            .weight("Availability", 0.4);
        let advertised = e.compose(&request).unwrap();
        for (k, &id) in observed.iter().enumerate() {
            let mut q = QosVector::new();
            q.set(rt, 90.0 + 50.0 * k as f64);
            settle(&mut e, id, rt, &q);
        }
        let comp = e.compose(&request).unwrap();

        // The reference lays each estimate over the advertisement itself,
        // and discovery must hand ranking exactly those rows.
        let task = two_step_task();
        let candidates = task
            .activities()
            .map(|a| {
                let found = e.discover(a.activity());
                let estimated: Vec<ServiceCandidate> = found
                    .iter()
                    .map(|c| {
                        let mut qos = e.registry().get(c.id()).unwrap().qos().clone();
                        if let Some(estimate) = e.monitor().qos_estimate(c.id()) {
                            estimate.apply(&mut qos);
                        }
                        ServiceCandidate::new(c.id(), qos)
                    })
                    .collect();
                assert_eq!(found, estimated);
                estimated
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
        assert_eq!(comp.outcome(), &expected);
        assert_ne!(comp.outcome(), advertised.outcome(), "the estimates count");
        assert_eq!(
            e.recompose_full(&advertised).unwrap().outcome(),
            comp.outcome()
        );
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
        assert!(e.monitor().qos_estimate(a).is_none());
        assert_eq!(e.monitor().sample_count(a, rt), 0);
        // The service that stays keeps its record.
        assert!(e.sla(b).is_some());
        assert_eq!(e.monitor().sample_count(b, rt), 1);
    }

    #[test]
    fn a_recorder_and_sinks_see_the_whole_pipeline() {
        use qasom_obs::MemoryRecorder;

        let mut b = OntologyBuilder::new("d");
        b.concept("A");
        b.concept("B");
        let recorder = Arc::new(MemoryRecorder::new());
        let log = crate::EventLog::new();
        let bounded = crate::EventLog::bounded(1);
        let mut e = Environment::new(QosModel::standard(), b.build().unwrap(), 7);
        e.set_recorder(Arc::clone(&recorder) as Arc<dyn qasom_obs::Recorder>);
        e.subscribe(Arc::new(log.clone()));
        e.subscribe(Arc::new(bounded.clone()));
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
    fn sla_tracks_deliveries_and_feeds_the_reputation_estimate() {
        let mut e = env();
        let rt = e.model().property("ResponseTime").unwrap();
        let rep = e.model().property("Reputation").unwrap();
        // Both advertise 50 ms and a neutral reputation; the liar
        // delivers 200 ms (beyond the 20 % default tolerance).
        let mut deploy_delivering = |name: &str, function: &str, delivered_ms: f64| {
            let desc = describe(&e, name, function, 50.0).with_qos(rep, 2.5);
            let mut delivered = desc.qos().clone();
            delivered.set(rt, delivered_ms);
            e.deploy(desc, SyntheticService::new(delivered))
        };
        let liar = deploy_delivering("liar", "d#A", 200.0);
        let honest = deploy_delivering("honest", "d#B", 50.0);

        let req = UserRequest::new(two_step_task());
        let comp = e.compose(&req).unwrap();
        let report = e.execute(comp).unwrap();
        assert!(report.success);

        let liar_sla = e.sla(liar).expect("delivery recorded");
        assert_eq!(liar_sla.checks(), 1);
        assert_eq!(liar_sla.breaches(), 1);
        let honest_sla = e.sla(honest).expect("delivery recorded");
        assert_eq!(honest_sla.compliance(), 1.0);

        let reputation = |id| e.monitor().qos_estimate(id).and_then(|q| q.get(rep));
        assert_eq!(reputation(liar), Some(0.0));
        assert_eq!(reputation(honest), Some(5.0));
        // Learning rewrote no advertisement.
        assert_eq!(e.registry().get(liar).unwrap().qos().get(rep), Some(2.5));
    }

    fn describe(e: &Environment, name: &str, function: &str, rt_ms: f64) -> ServiceDescription {
        let rt = e.model().property("ResponseTime").unwrap();
        let av = e.model().property("Availability").unwrap();
        ServiceDescription::new(name, function)
            .with_qos(rt, rt_ms)
            .with_qos(av, 0.99)
    }

    #[test]
    fn an_advertised_reputation_is_no_contract_term() {
        let mut e = env();
        let rep = e.model().property("Reputation").unwrap();
        // An honest service advertising a reputation its deliveries never
        // mention.
        let desc = describe(&e, "honest", "d#A", 50.0).with_qos(rep, 2.5);
        let nominal: QosVector = desc.qos().iter().filter(|&(p, _)| p != rep).collect();
        let id = e.deploy(desc, SyntheticService::new(nominal));
        let task = UserTask::new("t", TaskNode::activity(Activity::new("a", "d#A"))).unwrap();
        for _ in 0..2 {
            let comp = e.compose(&UserRequest::new(task.clone())).unwrap();
            assert!(e.execute(comp).unwrap().success);
        }
        let sla = e.sla(id).unwrap();
        assert_eq!((sla.checks(), sla.breaches()), (2, 0));
        assert!(!sla.agreed().contains(rep));
    }

    #[test]
    fn compose_stops_trusting_an_advertisement_the_monitor_disproves() {
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
        let mut q = e.registry().get(liar).unwrap().qos().clone();
        q.set(rt, 500.0);
        settle(&mut e, liar, rt, &q);
        assert_eq!(
            e.compose(&request).unwrap().outcome().assignment[0].id(),
            honest
        );
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

    /// Two services advertising a 100 ms response time, on hosts 1 and 2.
    fn two_hosts() -> (Environment, [ServiceId; 2]) {
        let mut e = env();
        let rt = e.model().property("ResponseTime").unwrap();
        let ids = [1, 2].map(|host: u64| {
            let d = ServiceDescription::new(format!("svc-{host}"), "d#A")
                .with_qos(rt, 100.0)
                .with_host(host);
            let nominal = d.qos().clone();
            e.deploy(d, SyntheticService::new(nominal))
        });
        (e, ids)
    }

    /// The infrastructure QoS of a path with the given one-way latency.
    fn path(e: &Environment, latency_ms: f64) -> QosVector {
        let mut infra = QosVector::new();
        infra.set(e.model().property("NetworkLatency").unwrap(), latency_ms);
        infra
    }

    /// Each discovered service's host and perceived response time.
    fn perceived(e: &Environment) -> Vec<(u64, f64)> {
        let rt = e.model().property("ResponseTime").unwrap();
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
    }

    /// The host of the service a fresh compose binds.
    fn selected_host(e: &Environment) -> u64 {
        let task = UserTask::new("t", TaskNode::activity(Activity::new("x", "d#A"))).unwrap();
        // Selection needs a QoS axis to rank on: the user cares about delay.
        let comp = e
            .compose(&UserRequest::new(task).weight("Delay", 1.0))
            .unwrap();
        let id = comp.outcome().assignment[0].id();
        e.registry().get(id).unwrap().host().unwrap()
    }

    #[test]
    fn infrastructure_degrades_perceived_candidates() {
        let (mut e, _) = two_hosts();
        // Host 2's path is slow: 100 + 2 × 200 round trip. The nearer
        // host wins.
        e.set_infrastructure(2, path(&e, 200.0));
        assert_eq!(perceived(&e), vec![(1, 100.0), (2, 500.0)]);
        assert_eq!(selected_host(&e), 1);
        // The user walks: the paths swap, so does the selection.
        e.set_infrastructure(1, path(&e, 200.0));
        e.set_infrastructure(2, path(&e, 2.5));
        assert_eq!(perceived(&e), vec![(1, 500.0), (2, 105.0)]);
        assert_eq!(selected_host(&e), 2);
        // Host 1 is out of range: an unusable path makes its perceived
        // response time infinite and takes it out of selection, even
        // against a slow path to host 2.
        e.set_infrastructure(1, path(&e, f64::INFINITY));
        e.set_infrastructure(2, path(&e, 200.0));
        assert_eq!(perceived(&e), vec![(1, f64::INFINITY), (2, 500.0)]);
        assert_eq!(selected_host(&e), 2);

        e.clear_infrastructure(1);
        e.clear_infrastructure(2);
        assert_eq!(perceived(&e), vec![(1, 100.0), (2, 100.0)]);
    }

    /// The estimate replaces what a service delivers, not what the user
    /// perceives: a settled estimate is still degraded by the path, so
    /// an out-of-range host stays out of selection however fast its
    /// service has proved.
    #[test]
    fn a_settled_estimate_is_perceived_through_the_path() {
        let (mut e, [near, _]) = two_hosts();
        let rt = e.model().property("ResponseTime").unwrap();
        let mut fast = QosVector::new();
        fast.set(rt, 50.0);
        settle(&mut e, near, rt, &fast);
        assert_eq!(perceived(&e), vec![(1, 50.0), (2, 100.0)]);
        assert_eq!(selected_host(&e), 1);
        // 50 + 2 × 10 round trip.
        e.set_infrastructure(1, path(&e, 10.0));
        assert_eq!(perceived(&e), vec![(1, 70.0), (2, 100.0)]);
        assert_eq!(selected_host(&e), 1);
        e.set_infrastructure(1, path(&e, f64::INFINITY));
        assert_eq!(perceived(&e), vec![(1, f64::INFINITY), (2, 100.0)]);
        assert_eq!(selected_host(&e), 2);
    }

    /// Compose ranks on the two properties the request names, but binds
    /// with everything a service advertises: each winner's vector and
    /// each rebound alternate's carry all four properties, the estimate
    /// laid over the advertisement and the path perceived, as discovery
    /// sees the service.
    #[test]
    fn bound_services_carry_every_advertised_property() {
        let mut e = env();
        let m = e.model().clone();
        let [rt, av, price, rel, loss] = [
            "ResponseTime",
            "Availability",
            "Price",
            "Reliability",
            "PacketLoss",
        ]
        .map(|name| m.property(name).unwrap());
        let ids = [(1, 100.0), (2, 120.0), (3, 400.0)].map(|(host, ms): (u64, f64)| {
            let d = ServiceDescription::new(format!("svc-{host}"), "d#A")
                .with_qos(rt, ms)
                .with_qos(av, 0.99)
                .with_qos(price, 2.0 + ms / 100.0)
                .with_qos(rel, 0.98)
                .with_host(host);
            let nominal = d.qos().clone();
            e.deploy(d, SyntheticService::new(nominal))
        });
        // Service 1 has proved faster than it advertises, and its path
        // adds 2 × 10 ms and loses one packet in ten.
        let delivered: QosVector = [(rt, 50.0), (av, 0.99), (price, 3.0), (rel, 0.9)]
            .into_iter()
            .collect();
        settle(&mut e, ids[0], rt, &delivered);
        let mut infra = path(&e, 10.0);
        infra.set(loss, 0.1);
        e.set_infrastructure(1, infra);

        let activity = Activity::new("x", "d#A");
        let task = UserTask::new("t", TaskNode::activity(activity.clone())).unwrap();
        let request = UserRequest::new(task)
            .weight("ResponseTime", 0.8)
            .weight("Price", 0.2);
        let comp = e.compose(&request).unwrap();
        let discovered = e.discover(&activity);
        let seen = |id: ServiceId| discovered.iter().find(|c| c.id() == id).unwrap().clone();

        let winner = &comp.outcome().assignment[0];
        assert_eq!(winner.id(), ids[0]);
        assert_eq!(winner, &seen(ids[0]));
        assert_eq!(winner.qos().len(), 4);
        let estimate = e.monitor().qos_estimate(ids[0]).unwrap();
        assert_eq!(winner.qos().get(rt), Some(estimate.get(rt).unwrap() + 20.0));
        assert_eq!(
            winner.qos().get(rel),
            Some(estimate.get(rel).unwrap() * 0.9)
        );

        // The ranked alternates hold the two named properties only; the
        // vector a rebind takes is the one discovery gives the service.
        for alternate in comp.outcome().alternates(0) {
            assert_eq!(alternate.qos().len(), 2);
            assert_eq!(alternate.qos().get(rt), seen(alternate.id()).qos().get(rt));
            let bound = e.complete(&activity, &alternate);
            assert_eq!(bound, seen(alternate.id()).qos().clone());
        }

        // An estimate settled after compose reaches a rebind's unranked
        // properties only: the ranked ones stay as compose ranked them.
        let alternate = comp
            .outcome()
            .alternates(0)
            .find(|c| c.id() == ids[1])
            .unwrap();
        let late: QosVector = [(rt, 60.0), (av, 0.5), (price, 9.0), (rel, 0.5)]
            .into_iter()
            .collect();
        settle(&mut e, ids[1], rt, &late);
        let estimate = e.monitor().qos_estimate(ids[1]).unwrap();
        assert_ne!(estimate.get(rel), Some(0.98));
        let bound = e.complete(&activity, &alternate);
        assert_eq!(bound.get(rt), Some(120.0));
        assert_eq!(bound.get(price), Some(3.2));
        assert_eq!(bound.get(av), estimate.get(av));
        assert_eq!(bound.get(rel), estimate.get(rel));
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
