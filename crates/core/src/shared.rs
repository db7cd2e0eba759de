//! Thread-safe middleware handle for multi-session deployments.

use std::sync::{Arc, RwLock};

use qasom_netsim::runtime::SyntheticService;
use qasom_obs::keys;
use qasom_ontology::Ontology;
use qasom_registry::{ServiceDescription, ServiceId};

use crate::{
    ComposeError, Environment, ExecutableComposition, ExecutionError, ExecutionReport, UserRequest,
};

/// A batch of registry mutations applied as one transaction under the
/// write lock ([`SharedEnvironment::apply_churn`]).
///
/// Purpose-built so serving front-ends never hold an arbitrary closure
/// over the environment's write lock: the delta is constructed lock-free
/// and applied atomically, in insertion order.
#[derive(Default)]
pub struct RegistryDelta {
    ops: Vec<ChurnOp>,
}

enum ChurnOp {
    Deploy(Box<(ServiceDescription, SyntheticService)>),
    Undeploy(ServiceId),
}

impl RegistryDelta {
    /// An empty delta.
    pub fn new() -> Self {
        RegistryDelta::default()
    }

    /// Queues a deployment with an explicit synthetic behaviour.
    #[must_use]
    pub fn deploy(mut self, description: ServiceDescription, behaviour: SyntheticService) -> Self {
        self.ops
            .push(ChurnOp::Deploy(Box::new((description, behaviour))));
        self
    }

    /// Queues a deployment whose behaviour faithfully delivers the
    /// advertised QoS.
    #[must_use]
    pub fn deploy_faithful(self, description: ServiceDescription) -> Self {
        let nominal = description.qos().clone();
        self.deploy(description, SyntheticService::new(nominal))
    }

    /// Queues a departure by service id.
    #[must_use]
    pub fn undeploy(mut self, id: ServiceId) -> Self {
        self.ops.push(ChurnOp::Undeploy(id));
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no operation is queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// What [`SharedEnvironment::apply_churn`] did, and the registry epoch
/// after the transaction.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChurnReceipt {
    /// Registry epoch after the delta was applied.
    pub epoch: u64,
    /// Ids of the services the delta deployed, in delta order.
    pub deployed: Vec<ServiceId>,
    /// Departures actually performed (an id no longer live at apply
    /// time is skipped, not counted).
    pub undeployed: usize,
}

/// A clonable, thread-safe handle to an [`Environment`].
///
/// A deployed middleware instance serves many user sessions at once:
/// composition requests and executions arrive from different threads while
/// providers keep registering and departing. `SharedEnvironment` wraps the
/// [`Environment`] in an `Arc<RwLock<…>>`. A poisoned lock (a panic inside
/// a session) is recovered rather than propagated — the environment's
/// state stays consistent because every mutating operation is applied
/// transactionally under the write lock.
///
/// The lock discipline splits the serving pipeline by what it touches:
///
/// * **read lock (concurrent):** queries ([`SharedEnvironment::with`])
///   and the full composition pipeline — analysis, discovery and QASSA
///   selection ([`SharedEnvironment::compose`]) — which only read the
///   registry/ontology/QoS model and use interior-mutable, concurrency-
///   safe structures (event buffer, recorder) for their
///   side channels. Any number of sessions compose simultaneously.
/// * **write lock (exclusive):** provider churn and execution
///   ([`SharedEnvironment::apply_churn`], [`SharedEnvironment::execute`])
///   — executions mutate the QoS monitor, SLA records and the synthetic
///   runtime, so they are transactions over the environment's state.
///
/// A session is those two calls in sequence, as the `qasomd` broker runs
/// it: [`SharedEnvironment::compose_with_epoch`] under the read lock,
/// then [`SharedEnvironment::execute`] under the write lock. Churn may
/// slip between the two phases; that is safe because execution
/// re-validates liveness at binding time (dynamic binding substitutes
/// departed services), exactly as it already must for services failing
/// mid-execution.
///
/// # Examples
///
/// ```
/// use qasom::{Environment, SharedEnvironment};
/// use qasom_ontology::OntologyBuilder;
/// use qasom_qos::QosModel;
///
/// let env = Environment::new(
///     QosModel::standard(),
///     OntologyBuilder::new("d").build().unwrap(),
///     1,
/// );
/// let shared = SharedEnvironment::new(env);
/// let clone = shared.clone();
/// let services = clone.with(|e| e.registry().len());
/// assert_eq!(services, 0);
/// ```
#[derive(Clone)]
pub struct SharedEnvironment {
    inner: Arc<RwLock<Environment>>,
}

impl SharedEnvironment {
    /// Wraps an environment.
    pub fn new(environment: Environment) -> Self {
        SharedEnvironment {
            inner: Arc::new(RwLock::new(environment)),
        }
    }

    /// Runs a read-only query under the shared lock. Since the whole
    /// composition pipeline works through `&Environment`, sessions may
    /// compose inside the closure — e.g. to read the composition and the
    /// [`Environment::epoch`] that produced it atomically.
    pub fn with<R>(&self, f: impl FnOnce(&Environment) -> R) -> R {
        f(&self.read())
    }

    /// Runs a mutating operation under the exclusive lock (deployments,
    /// fault injection, task-class registration, …).
    ///
    /// Serving front-ends should not reach for this: provider churn has
    /// the purpose-built [`SharedEnvironment::apply_churn`] and ontology
    /// swaps [`SharedEnvironment::reload_ontology`], both of which apply
    /// a *value* under the lock instead of holding a caller-supplied
    /// closure over it (`crates/daemon/clippy.toml` disallows
    /// `with_mut`).
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut Environment) -> R) -> R {
        f(&mut self.write())
    }

    /// Applies a batch of registry mutations as one transaction under
    /// the write lock and reports the resulting epoch.
    ///
    /// This is the churn entry point for serving front-ends: the delta
    /// is built lock-free, applied in order, and the receipt carries the
    /// epoch sessions need to tag compositions raced against the churn.
    pub fn apply_churn(&self, delta: RegistryDelta) -> ChurnReceipt {
        let mut env = self.write();
        let mut receipt = ChurnReceipt::default();
        for op in delta.ops {
            match op {
                ChurnOp::Deploy(boxed) => {
                    let (description, behaviour) = *boxed;
                    receipt.deployed.push(env.deploy(description, behaviour));
                }
                ChurnOp::Undeploy(id) => {
                    if env.registry().get(id).is_some() {
                        env.undeploy(id);
                        receipt.undeployed += 1;
                    }
                }
            }
        }
        receipt.epoch = env.epoch();
        receipt
    }

    /// Swaps the domain ontology and rebuilds the capability index over
    /// it as one write-lock transaction. Returns the new ontology's
    /// stamp.
    pub fn reload_ontology(&self, ontology: Ontology) -> u64 {
        self.write().reload_ontology(ontology)
    }

    /// Takes a registry persistence checkpoint under the write lock
    /// (snapshot + WAL truncation, see DESIGN.md §14) and reports
    /// whether one was taken (`false` when no journal is attached).
    ///
    /// This is the typed shutdown/flush entry point for serving
    /// front-ends — the daemon is not allowed arbitrary `with_mut`
    /// closures (`crates/daemon/clippy.toml`), and a checkpoint is a
    /// bounded, accounted write like churn or an ontology reload.
    pub fn checkpoint_registry(&self) -> bool {
        self.write().checkpoint_registry()
    }

    /// Takes the shared lock and counts the acquisition.
    fn read(&self) -> std::sync::RwLockReadGuard<'_, Environment> {
        let env = self
            .inner
            .read()
            .unwrap_or_else(|poison| poison.into_inner());
        if let Some(rec) = env.recorder() {
            rec.incr(keys::SERVING_READ_LOCKS, 1);
        }
        env
    }

    /// Takes the exclusive lock and counts the acquisition.
    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Environment> {
        let env = self
            .inner
            .write()
            .unwrap_or_else(|poison| poison.into_inner());
        if let Some(rec) = env.recorder() {
            rec.incr(keys::SERVING_WRITE_LOCKS, 1);
        }
        env
    }

    /// Composes a request under the **read** lock: any number of
    /// sessions run discovery + selection concurrently, and provider
    /// churn (which needs the write lock) waits rather than being
    /// interleaved mid-pipeline.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Environment::compose`].
    pub fn compose(&self, request: &UserRequest) -> Result<ExecutableComposition, ComposeError> {
        self.read().compose(request)
    }

    /// Composes a request and returns it together with the registry
    /// epoch ([`Environment::epoch`]) it was computed against, read
    /// atomically under one read-lock acquisition. Sessions use the
    /// epoch to compare concurrent results against a deterministic
    /// single-threaded replay of the same registry state.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Environment::compose`].
    pub fn compose_with_epoch(
        &self,
        request: &UserRequest,
    ) -> Result<(u64, ExecutableComposition), ComposeError> {
        let env = self.read();
        let composition = env.compose(request)?;
        Ok((env.epoch(), composition))
    }

    /// Re-selects an existing composition under the **read** lock
    /// ([`Environment::recompose_full`]), so other sessions keep
    /// composing concurrently.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Environment::compose`].
    pub fn recompose(
        &self,
        composition: &ExecutableComposition,
    ) -> Result<ExecutableComposition, ComposeError> {
        self.read().recompose_full(composition)
    }

    /// Executes a composition as one transaction over the environment
    /// (write lock: execution mutates the monitor, SLAs and runtime).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Environment::execute`].
    pub fn execute(
        &self,
        composition: ExecutableComposition,
    ) -> Result<ExecutionReport, ExecutionError> {
        self.write().execute(composition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qasom_ontology::OntologyBuilder;
    use qasom_qos::QosModel;
    use qasom_task::{Activity, TaskNode, UserTask};

    fn shared() -> SharedEnvironment {
        let mut b = OntologyBuilder::new("d");
        b.concept("A");
        let mut env = Environment::new(QosModel::standard(), b.build().unwrap(), 5);
        let rt = env.model().property("ResponseTime").unwrap();
        for i in 0..4 {
            let desc =
                ServiceDescription::new(format!("s{i}"), "d#A").with_qos(rt, 50.0 + f64::from(i));
            let nominal = desc.qos().clone();
            env.deploy(desc, SyntheticService::new(nominal));
        }
        SharedEnvironment::new(env)
    }

    fn request() -> UserRequest {
        UserRequest::new(UserTask::new("t", TaskNode::activity(Activity::new("a", "d#A"))).unwrap())
    }

    /// One session as the daemon's broker runs it: compose under the
    /// read lock, then execute under the write lock.
    fn serve(shared: &SharedEnvironment) -> ExecutionReport {
        let (_, composition) = shared.compose_with_epoch(&request()).unwrap();
        shared.execute(composition).unwrap()
    }

    #[test]
    fn concurrent_sessions_all_complete() {
        let shared = shared();
        let log = crate::EventLog::new();
        shared.with_mut(|e| e.subscribe(std::sync::Arc::new(log.clone())));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let s = shared.clone();
                std::thread::spawn(move || serve(&s).success)
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap());
        }
        // All eight sessions' invocations are visible to the shared sink.
        let invoked = log
            .events()
            .iter()
            .filter(|ev| matches!(ev, crate::MiddlewareEvent::Invoked { .. }))
            .count();
        assert_eq!(invoked, 8);
    }

    #[test]
    fn reads_run_while_handle_is_cloned() {
        let shared = shared();
        let clone = shared.clone();
        let (a, b) = (
            shared.with(|e| e.registry().len()),
            clone.with(|e| e.registry().len()),
        );
        assert_eq!(a, b);
    }

    #[test]
    fn apply_churn_deploys_and_undeploys_transactionally() {
        let shared = shared();
        let rt = shared.with(|e| e.model().property("ResponseTime").unwrap());
        let before = shared.with(|e| e.epoch());
        let s0 = shared.with(|e| e.registry().iter().next().unwrap().0);
        let receipt = shared.apply_churn(
            RegistryDelta::new()
                .deploy_faithful(ServiceDescription::new("burst", "d#A").with_qos(rt, 10.0))
                .undeploy(s0)
                // Already gone by the time this op applies: skipped.
                .undeploy(s0),
        );
        assert_eq!(receipt.deployed.len(), 1);
        assert_eq!(receipt.undeployed, 1);
        // One deploy + one departure = two registry events.
        assert_eq!(receipt.epoch, before + 2);
        shared.with(|e| {
            assert!(e.registry().iter().any(|(_, d)| d.name() == "burst"));
            assert!(e.registry().get(s0).is_none());
        });
    }

    #[test]
    fn reload_ontology_swaps_taxonomy_and_rebuilds_index() {
        let shared = shared();
        let old_stamp = shared.with(|e| e.ontology().stamp());
        let mut b = OntologyBuilder::new("d");
        let a = b.concept("A");
        b.subconcept("A1", a);
        let new_stamp = shared.reload_ontology(b.build().unwrap());
        assert_ne!(old_stamp, new_stamp);
        shared.with(|e| {
            assert_eq!(e.ontology().stamp(), new_stamp);
            assert!(e.registry().index_matches_rebuild());
            // Services registered before the swap stay discoverable
            // through the rebuilt index.
            assert_eq!(e.discover(&Activity::new("x", "d#A")).len(), 4);
        });
    }

    /// Proof that `compose` takes only the read lock: one thread holds a
    /// read guard (via `with`) for the entire duration of another
    /// thread's `compose`. If `compose` needed the write lock it could
    /// never finish while the guard is held, and the bounded wait below
    /// would fail the test instead of deadlocking.
    #[test]
    fn compose_overlaps_a_held_read_lock() {
        use std::sync::mpsc;
        use std::time::Duration;

        let shared = shared();
        let (entered_tx, entered_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel::<()>();

        let holder = {
            let s = shared.clone();
            std::thread::spawn(move || {
                s.with(|_| {
                    entered_tx.send(()).unwrap();
                    // Keep the read guard until the composer reports back.
                    done_rx
                        .recv_timeout(Duration::from_secs(10))
                        .expect("compose must complete while this read guard is held");
                })
            })
        };

        entered_rx.recv().unwrap();
        let composed = shared.compose(&request());
        done_tx.send(()).unwrap();
        holder.join().unwrap();
        assert!(composed.is_ok());
    }

    #[test]
    fn compose_with_epoch_tracks_churn() {
        let shared = shared();
        let (before, _) = shared.compose_with_epoch(&request()).unwrap();
        let id = shared.with(|e| e.registry().iter().next().unwrap().0);
        shared.apply_churn(RegistryDelta::new().undeploy(id));
        let (after, _) = shared.compose_with_epoch(&request()).unwrap();
        assert_eq!(after, before + 1);
    }

    #[test]
    fn recompose_runs_under_the_read_lock_and_sees_the_churn() {
        use qasom_obs::{MemoryRecorder, Recorder};
        let shared = shared();
        let recorder = std::sync::Arc::new(MemoryRecorder::new());
        shared.with_mut(|e| {
            e.set_recorder(std::sync::Arc::clone(&recorder) as std::sync::Arc<dyn Recorder>)
        });
        let comp = shared.compose(&request()).unwrap();
        let rt = shared.with(|e| e.model().property("ResponseTime").unwrap());
        let receipt = shared.apply_churn(
            RegistryDelta::new()
                .deploy_faithful(ServiceDescription::new("fresh", "d#A").with_qos(rt, 1.0)),
        );
        let recomposed = shared.recompose(&comp).unwrap();
        // The newcomer entered the re-ranked candidate hierarchy.
        assert!(recomposed
            .outcome()
            .alternates(0)
            .any(|c| c.id() == receipt.deployed[0]));
        let snap = recorder.snapshot().unwrap();
        // compose + the rt lookup + recompose = 3.
        assert_eq!(snap.counter(keys::SERVING_READ_LOCKS), 3);
        assert_eq!(snap.counter(keys::SERVING_WRITE_LOCKS), 1);
    }

    #[test]
    fn serving_counters_record_lock_traffic() {
        use qasom_obs::{MemoryRecorder, Recorder};
        let shared = shared();
        let recorder = std::sync::Arc::new(MemoryRecorder::new());
        shared.with_mut(|e| {
            e.set_recorder(std::sync::Arc::clone(&recorder) as std::sync::Arc<dyn Recorder>)
        });
        for _ in 0..3 {
            serve(&shared);
        }
        let _ = shared.compose(&request()).unwrap();
        let snap = recorder.snapshot().unwrap();
        // 3 sessions (read each) + 1 compose.
        assert_eq!(snap.counter(keys::SERVING_READ_LOCKS), 4);
        // 3 sessions (write each); the set_recorder with_mut predates
        // the recorder, so it is not counted.
        assert_eq!(snap.counter(keys::SERVING_WRITE_LOCKS), 3);
    }

    /// The daemon's shutdown flush: one counted write lock per call,
    /// journal or not. A read guard held across its `write()` would
    /// self-deadlock here, so this test hangs instead of passing.
    #[test]
    fn checkpoint_registry_takes_one_write_lock_and_truncates_the_wal() {
        use qasom_obs::{MemoryRecorder, Recorder};
        use qasom_registry::persist::{MemoryBackend, PersistConfig, RegistryJournal};

        // Empty registry: the journal must see every registration.
        let mut b = OntologyBuilder::new("d");
        b.concept("A");
        let env = Environment::new(QosModel::standard(), b.build().unwrap(), 5);
        let shared = SharedEnvironment::new(env);
        let recorder = Arc::new(MemoryRecorder::new());
        shared.with_mut(|e| e.set_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>));
        let writes = || {
            recorder
                .snapshot()
                .unwrap()
                .counter(keys::SERVING_WRITE_LOCKS)
        };

        assert!(!shared.checkpoint_registry(), "no journal to checkpoint");
        assert_eq!(writes(), 1);

        let backend = MemoryBackend::new();
        let (_, journal, _) =
            RegistryJournal::open(backend.clone(), PersistConfig::default(), None).unwrap();
        shared.with_mut(|e| e.attach_journal(journal));
        let rt = shared.with(|e| e.model().property("ResponseTime").unwrap());
        shared.apply_churn(
            RegistryDelta::new()
                .deploy_faithful(ServiceDescription::new("late", "d#A").with_qos(rt, 5.0)),
        );
        let wal_len = || backend.file("registry.wal").map_or(0, |wal| wal.len());
        assert!(wal_len() > 0);
        let before = writes();
        assert!(shared.checkpoint_registry());
        assert_eq!(wal_len(), 0);
        assert_eq!(writes(), before + 1);
        assert!(shared.checkpoint_registry());
        assert_eq!(writes(), before + 2);
    }
}
