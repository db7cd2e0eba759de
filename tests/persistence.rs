//! Crash-recovery guarantees of the registry persistence layer
//! (DESIGN.md §14):
//!
//! * **kill-and-replay oracle** — a registry recovered from any crash
//!   image is byte-identical to the never-crashed one (state encoding,
//!   capability index, epoch, WAL cursor);
//! * **torn tails** — a WAL whose last record is bit-flipped or
//!   truncated at *every possible byte* recovers cleanly to the last
//!   durable point, never panics, never replays a partial record —
//!   and trimming the tear never endangers the records before it;
//! * **the journaled `Environment`** — the path `qasomd --data-dir`
//!   runs (`open_registry`, journaled `deploy` / `undeploy` /
//!   `checkpoint_registry`) meets the same oracle, makes the same file
//!   calls as a bare `PersistentRegistry`, a failing store detaches
//!   the journal instead of stopping service, and what execution learns
//!   (monitor windows, SLAs, QoS estimates) makes no file call;
//! * **the on-disk bytes** — a snapshot and both WAL record kinds
//!   encode exactly as `tests/fixtures/persist_format.hex` pins them,
//!   so a data directory written by an older `qasomd` still opens;
//! * **power loss** — the journal's exact sequence of file calls is
//!   pinned, and after every call of a scripted run every disk image a
//!   conservative power-loss model allows recovers to a state the
//!   never-crashed registry went through, no older than its last sync.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use qasom::{Environment, UserRequest};
use qasom_netsim::runtime::SyntheticService;
use qasom_obs::{keys, MemoryRecorder, Recorder};
use qasom_ontology::{Ontology, OntologyBuilder};
use qasom_qos::QosModel;
use qasom_registry::persist::wal::split_frames;
use qasom_registry::persist::{
    encode_state, Fs, MemoryBackend, PersistConfig, PersistError, PersistentRegistry,
    RecoveryReport, RegistryJournal,
};
use qasom_registry::{Operation, ServiceDescription, ServiceId, ServiceRegistry};
use qasom_task::{Activity, TaskNode, UserTask};

/// The data directory's layout — an on-disk contract, like the byte
/// format: a directory written by an older `qasomd` must still open.
const WAL: &str = "registry.wal";
const SNAP: &str = "registry.snap";
const SNAP_TMP: &str = "registry.snap.tmp";

/// The stored WAL (empty when there is none).
fn wal(backend: &MemoryBackend) -> Vec<u8> {
    backend.file(WAL).unwrap_or_default()
}

/// Replaces the stored WAL: corruption injection for torn-tail tests.
fn set_wal(backend: &MemoryBackend, bytes: &[u8]) {
    backend.clone().create(WAL, bytes).unwrap();
}

/// One call the journal made on its [`Fs`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum Call {
    Read(String),
    Append(String, Vec<u8>),
    Create(String, Vec<u8>),
    Truncate(String, u64),
    Rename(String, String),
    Sync(String),
    SyncDir,
}

impl Call {
    /// The call without its bytes, e.g. `truncate(registry.wal, 0)`.
    fn op(&self) -> String {
        match self {
            Call::Read(name) => format!("read({name})"),
            Call::Append(name, _) => format!("append({name})"),
            Call::Create(name, _) => format!("create({name})"),
            Call::Truncate(name, len) => format!("truncate({name}, {len})"),
            Call::Rename(from, to) => format!("rename({from}, {to})"),
            Call::Sync(name) => format!("sync({name})"),
            Call::SyncDir => "sync_dir".to_owned(),
        }
    }
}

type Hook = dyn Fn(&Call) -> Result<bool, PersistError> + Send + Sync;

/// An [`Fs`] over a [`MemoryBackend`] that shows every call to a hook
/// first. The hook may fail the call (`Err`) or drop it (`Ok(false)`:
/// the call is never made, as if the journal did not contain it).
#[derive(Clone)]
struct Hooked {
    inner: MemoryBackend,
    hook: Arc<Hook>,
}

impl Hooked {
    fn new(
        inner: MemoryBackend,
        hook: impl Fn(&Call) -> Result<bool, PersistError> + Send + Sync + 'static,
    ) -> Self {
        Hooked {
            inner,
            hook: Arc::new(hook),
        }
    }

    fn pass(&self, call: Call) -> Result<bool, PersistError> {
        (self.hook)(&call)
    }
}

impl Fs for Hooked {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, PersistError> {
        self.pass(Call::Read(name.into()))?;
        self.inner.read(name)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), PersistError> {
        if self.pass(Call::Append(name.into(), bytes.into()))? {
            self.inner.append(name, bytes)?;
        }
        Ok(())
    }

    fn create(&mut self, name: &str, bytes: &[u8]) -> Result<(), PersistError> {
        if self.pass(Call::Create(name.into(), bytes.into()))? {
            self.inner.create(name, bytes)?;
        }
        Ok(())
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), PersistError> {
        if self.pass(Call::Truncate(name.into(), len))? {
            self.inner.truncate(name, len)?;
        }
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), PersistError> {
        if self.pass(Call::Rename(from.into(), to.into()))? {
            self.inner.rename(from, to)?;
        }
        Ok(())
    }

    fn sync(&mut self, name: &str) -> Result<(), PersistError> {
        if self.pass(Call::Sync(name.into()))? {
            self.inner.sync(name)?;
        }
        Ok(())
    }

    fn sync_dir(&mut self) -> Result<(), PersistError> {
        if self.pass(Call::SyncDir)? {
            self.inner.sync_dir()?;
        }
        Ok(())
    }
}

/// Selects a call to drop, given the call logged before it.
type Barrier = fn(&Call, &Call) -> bool;

/// A [`Hooked`] store that logs every call it lets through into `log`,
/// and drops each call `skip(previous call, call)` selects.
fn recording(inner: MemoryBackend, log: &Arc<Mutex<Vec<Call>>>, skip: Option<Barrier>) -> Hooked {
    let log = Arc::clone(log);
    Hooked::new(inner, move |call| {
        let mut log = log.lock().unwrap();
        if let (Some(skip), Some(previous)) = (skip, log.last()) {
            if skip(previous, call) {
                return Ok(false);
            }
        }
        log.push(call.clone());
        Ok(true)
    })
}

fn taxonomy() -> Ontology {
    let mut b = OntologyBuilder::new("p");
    let pay = b.concept("Pay");
    b.subconcept("PayByCard", pay);
    b.concept("Locate");
    b.build().unwrap()
}

fn ontology() -> Arc<Ontology> {
    Arc::new(taxonomy())
}

fn open(
    backend: MemoryBackend,
    checkpoint_every: usize,
) -> (PersistentRegistry, qasom_registry::persist::RecoveryReport) {
    PersistentRegistry::open(
        backend,
        PersistConfig { checkpoint_every },
        Some(ontology()),
    )
    .unwrap()
}

/// Seeded churn: a deterministic mix of registrations and departures.
fn churn(registry: &mut PersistentRegistry, rounds: usize) {
    let functions = ["p#Pay", "p#PayByCard", "p#Locate"];
    for i in 0..rounds {
        let function = functions[i % functions.len()];
        registry
            .register(ServiceDescription::new(format!("s{i}"), function))
            .unwrap();
        if i % 3 == 2 {
            let victim = registry.registry().iter().next().map(|(id, _)| id).unwrap();
            registry.deregister(victim).unwrap();
        }
    }
}

/// The byte-for-byte oracle: recovered ≡ never-crashed.
fn assert_equivalent(recovered: &PersistentRegistry, oracle: &PersistentRegistry) {
    assert_eq!(
        encode_state(recovered.registry()),
        encode_state(oracle.registry()),
        "slot-vector encoding must match byte for byte"
    );
    assert!(
        recovered.registry().index_eq(oracle.registry()),
        "capability index must match"
    );
    assert!(recovered.registry().index_matches_rebuild());
    assert_eq!(
        recovered.registry().event_cursor(),
        oracle.registry().event_cursor(),
        "epoch must match"
    );
    assert_eq!(
        recovered.journal().unwrap().wal_cursor(),
        oracle.journal().unwrap().wal_cursor(),
        "replica cursor (WAL position) must match"
    );
}

#[test]
fn empty_store_boots_fresh() {
    let (registry, report) = open(MemoryBackend::new(), 0);
    assert!(!report.recovered_anything());
    assert!(registry.registry().is_empty());
    assert_eq!(registry.registry().event_cursor(), 0);
}

#[test]
fn wal_only_recovery_is_byte_identical() {
    let backend = MemoryBackend::new();
    let (mut oracle, _) = open(backend.clone(), 0);
    churn(&mut oracle, 12);
    let (recovered, report) = open(backend.fork(), 0);
    assert!(report.recovered_anything());
    assert!(!report.snapshot_loaded);
    assert_equivalent(&recovered, &oracle);
}

#[test]
fn snapshot_only_recovery_is_byte_identical() {
    let backend = MemoryBackend::new();
    let (mut oracle, _) = open(backend.clone(), 0);
    churn(&mut oracle, 12);
    oracle.checkpoint().unwrap();
    assert!(wal(&backend).is_empty(), "checkpoint truncates the WAL");
    let (recovered, report) = open(backend.fork(), 0);
    assert!(report.snapshot_loaded);
    assert_eq!(report.wal_events_applied, 0);
    assert_equivalent(&recovered, &oracle);
}

#[test]
fn snapshot_plus_wal_tail_recovery_is_byte_identical() {
    let backend = MemoryBackend::new();
    let (mut oracle, _) = open(backend.clone(), 0);
    churn(&mut oracle, 8);
    oracle.checkpoint().unwrap();
    churn(&mut oracle, 5);
    let (recovered, report) = open(backend.fork(), 0);
    assert!(report.snapshot_loaded);
    assert!(report.wal_events_applied > 0);
    assert_equivalent(&recovered, &oracle);
}

#[test]
fn automatic_checkpoints_fire_and_stay_equivalent() {
    let backend = MemoryBackend::new();
    let (mut oracle, _) = open(backend.clone(), 4);
    churn(&mut oracle, 20);
    assert!(oracle.journal().unwrap().stats().checkpoints > 0);
    let (recovered, _) = open(backend.fork(), 4);
    assert_equivalent(&recovered, &oracle);
}

#[test]
fn truncation_at_every_byte_of_the_last_record_recovers_cleanly() {
    let backend = MemoryBackend::new();
    let (mut oracle, _) = open(backend.clone(), 0);
    churn(&mut oracle, 6);
    let wal = wal(&backend);
    let (frames, torn) = split_frames(&wal);
    assert!(torn.is_none() && frames.len() >= 2);
    let boundary = wal.len() - (frames.last().unwrap().len() + 8);

    // The expected durable point: everything but the last record.
    let clean = backend.fork();
    set_wal(&clean, &wal[..boundary]);
    let (expected, _) = open(clean, 0);

    for cut in boundary + 1..wal.len() {
        let crash = backend.fork();
        set_wal(&crash, &wal[..cut]);
        let (recovered, report) = open(crash, 0);
        assert!(report.torn_tail, "cut at byte {cut} must read as a tear");
        assert_equivalent(&recovered, &expected);
    }
}

#[test]
fn bit_flip_at_every_byte_of_the_last_record_recovers_cleanly() {
    let backend = MemoryBackend::new();
    let (mut oracle, _) = open(backend.clone(), 0);
    churn(&mut oracle, 6);
    let wal = wal(&backend);
    let (frames, _) = split_frames(&wal);
    let boundary = wal.len() - (frames.last().unwrap().len() + 8);

    let clean = backend.fork();
    set_wal(&clean, &wal[..boundary]);
    let (expected, _) = open(clean, 0);

    for i in boundary..wal.len() {
        let mut bytes = wal.clone();
        bytes[i] ^= 0x40;
        let crash = backend.fork();
        set_wal(&crash, &bytes);
        let (recovered, report) = open(crash, 0);
        assert!(report.torn_tail, "flip at byte {i} must read as a tear");
        assert_equivalent(&recovered, &expected);
    }
}

#[test]
fn recovery_trims_the_torn_tail_so_the_store_reopens_clean() {
    let backend = MemoryBackend::new();
    let (mut oracle, _) = open(backend.clone(), 0);
    churn(&mut oracle, 6);
    let crash = backend.fork();
    let mut wal = wal(&crash);
    let last = wal.len() - 1;
    wal[last] ^= 0xFF;
    set_wal(&crash, &wal);
    let (first, report) = open(crash.clone(), 0);
    assert!(report.torn_tail);
    let (second, report2) = open(crash, 0);
    assert!(!report2.torn_tail, "the tear was trimmed on first recovery");
    assert_equivalent(&second, &first);
}

/// A store whose appends fail once `appends_left` of them have
/// succeeded: a full disk, or — with none left — a crash before the
/// next write. Every other call goes through to `inner`.
fn failing_appends(inner: MemoryBackend, appends_left: usize) -> Hooked {
    let left = AtomicUsize::new(appends_left);
    Hooked::new(inner, move |call| match call {
        Call::Append(..) => left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .map(|_| true)
            .map_err(|_| PersistError::Io("injected append failure".into())),
        _ => Ok(true),
    })
}

#[test]
fn trimming_a_torn_tail_never_loses_the_durable_prefix() {
    let backend = MemoryBackend::new();
    let (mut oracle, _) = open(backend.clone(), 0);
    for i in 0..5 {
        oracle
            .register(ServiceDescription::new(format!("s{i}"), "p#Pay"))
            .unwrap();
    }
    let crash = backend.fork();
    let mut wal = wal(&crash);
    let last = wal.len() - 1;
    wal[last] ^= 0xFF;
    set_wal(&crash, &wal);

    // Recovery runs over a store that dies at its next write: whatever
    // this attempt returns, it must not have cut away the four records
    // that were durable before it started.
    let dying = failing_appends(crash.clone(), 0);
    let _ = PersistentRegistry::open(dying, PersistConfig::default(), Some(ontology()));
    let (recovered, _) = open(crash, 0);
    assert_eq!(recovered.registry().len(), 4);
}

/// What [`counting`] saw the journal do: WAL syncs, snapshots
/// installed, the WAL's length, the last snapshot's size and the bytes
/// of all snapshots before it.
#[derive(Default)]
struct Counts {
    wal_syncs: AtomicUsize,
    snapshots: AtomicUsize,
    wal_len: AtomicUsize,
    created_len: AtomicUsize,
    snapshot_len: AtomicUsize,
    earlier_snapshot_bytes: AtomicUsize,
}

/// A store that counts what the journal does to `inner`.
fn counting(inner: MemoryBackend) -> (Hooked, Arc<Counts>) {
    let counts = Arc::new(Counts::default());
    let c = Arc::clone(&counts);
    let store = Hooked::new(inner, move |call| {
        match call {
            Call::Append(name, bytes) if name == WAL => {
                c.wal_len.fetch_add(bytes.len(), Ordering::Relaxed);
            }
            Call::Truncate(name, len) if name == WAL => {
                c.wal_len.store(*len as usize, Ordering::Relaxed);
            }
            Call::Sync(name) if name == WAL => {
                c.wal_syncs.fetch_add(1, Ordering::Relaxed);
            }
            Call::Create(name, bytes) if name == SNAP_TMP => {
                c.created_len.store(bytes.len(), Ordering::Relaxed);
            }
            Call::Rename(_, to) if to == SNAP => {
                c.snapshots.fetch_add(1, Ordering::Relaxed);
                let len = c.created_len.load(Ordering::Relaxed);
                let previous = c.snapshot_len.swap(len, Ordering::Relaxed);
                c.earlier_snapshot_bytes
                    .fetch_add(previous, Ordering::Relaxed);
            }
            _ => {}
        }
        Ok(true)
    });
    (store, counts)
}

/// The `i`-th registration of a deterministic run.
fn numbered(i: usize) -> ServiceDescription {
    let functions = ["p#Pay", "p#PayByCard", "p#Locate"];
    ServiceDescription::new(format!("s{i}"), functions[i % functions.len()])
}

#[test]
fn the_schedule_bounds_the_power_loss_window_and_the_replay() {
    const EVERY: usize = 16;
    const SERVICES: usize = 20_000;
    let config = PersistConfig {
        checkpoint_every: EVERY,
    };
    let (store, counts) = counting(MemoryBackend::new());
    let (mut oracle, _) = PersistentRegistry::open(store, config, Some(ontology())).unwrap();

    let mut largest_frame = 0;
    let mut largest_wal = (0, 0);
    for i in 0..SERVICES {
        let before = oracle.journal().unwrap().stats().wal_bytes;
        oracle.register(numbered(i)).unwrap();
        let frame = (oracle.journal().unwrap().stats().wal_bytes - before) as usize;
        largest_frame = largest_frame.max(frame);
        // Replay bound: a boot replays no more than `EVERY` frames or
        // one snapshot's worth of WAL, whichever is larger.
        let wal = counts.wal_len.load(Ordering::Relaxed);
        let snapshot = counts.snapshot_len.load(Ordering::Relaxed);
        let bound = (EVERY * largest_frame).max(snapshot + largest_frame);
        assert!(
            wal <= bound,
            "after {} appends the WAL is {wal} B > {bound} B",
            i + 1
        );
        if wal > largest_wal.0 {
            largest_wal = (wal, i + 1);
        }
    }

    // Power-loss window: one sync per `EVERY` appends, on the dot, plus
    // the one each checkpoint makes of the emptied WAL.
    let stats = oracle.journal().unwrap().stats();
    assert_eq!(stats.appends as usize, SERVICES);
    let snapshots = counts.snapshots.load(Ordering::Relaxed);
    assert_eq!(
        counts.wal_syncs.load(Ordering::Relaxed),
        SERVICES / EVERY + snapshots
    );

    // Snapshot writing is amortised O(1) per event: a snapshot is taken
    // only once the WAL has outgrown the one before it, so every
    // snapshot but the last was paid for by as many WAL bytes.
    assert_eq!(stats.checkpoints as usize, snapshots);
    let earlier = counts.earlier_snapshot_bytes.load(Ordering::Relaxed);
    assert!(
        earlier as u64 <= stats.wal_bytes,
        "{earlier} B of snapshots for {} B of WAL",
        stats.wal_bytes
    );
    // So under registrations alone each snapshot is at least
    // 1 + slot/frame times its predecessor: logarithmically many, where
    // a fixed cadence would take `SERVICES / EVERY` = 1 250. A slot is
    // cheaper than its register frame (no frame header, sequence number
    // or id), so the base is below 2 here.
    let slot = encode_state(oracle.registry()).len() as f64 / SERVICES as f64;
    let growth = 1.0 + slot / largest_frame as f64;
    let bound = ((SERVICES / EVERY) as f64).log(growth).ceil() as usize + 2;
    assert!(
        snapshots <= bound,
        "{snapshots} snapshots for {SERVICES} registrations (bound {bound}, growth {growth:.2})"
    );

    // The crash image at the largest WAL recovers ≡ never-crashed: the
    // run is deterministic, so replay it up to that append and crash.
    let (largest, at) = largest_wal;
    let store = MemoryBackend::new();
    let (mut oracle, _) =
        PersistentRegistry::open(store.clone(), config, Some(ontology())).unwrap();
    for i in 0..at {
        oracle.register(numbered(i)).unwrap();
    }
    assert_eq!(wal(&store).len(), largest);
    let (recovered, report) =
        PersistentRegistry::open(store.fork(), config, Some(ontology())).unwrap();
    assert!(report.snapshot_loaded);
    assert!(report.wal_events_applied as usize >= EVERY);
    assert_equivalent(&recovered, &oracle);
}

fn environment() -> Environment {
    Environment::new(QosModel::standard(), taxonomy(), 7)
}

fn deploy(env: &mut Environment, desc: ServiceDescription) -> ServiceId {
    let nominal = desc.qos().clone();
    env.deploy(desc, SyntheticService::new(nominal))
}

/// Recovers `image` as it stands, to compare with the live registry.
fn recover(
    image: MemoryBackend,
    config: PersistConfig,
) -> (qasom_registry::ServiceRegistry, RegistryJournal) {
    let (registry, journal, _) = RegistryJournal::open(image, config, None).unwrap();
    (registry, journal)
}

#[test]
fn a_journaled_environment_recovers_byte_identically_after_every_op() {
    let config = PersistConfig {
        checkpoint_every: 4,
    };
    let backend = MemoryBackend::new();
    let assert_recoverable = |env: &Environment| {
        let (recovered, journal) = recover(backend.fork(), config);
        assert_eq!(encode_state(&recovered), encode_state(env.registry()));
        assert_eq!(recovered.event_cursor() as u64, env.epoch());
        assert_eq!(journal.wal_cursor(), env.epoch());
    };

    // Cold boot: the journal is attached before the first registration.
    let mut env = environment();
    let report = env.open_registry(backend.clone(), config).unwrap();
    assert!(!report.recovered_anything());
    assert!(env.journaling());
    for i in 0..14 {
        deploy(&mut env, numbered(i));
        assert_recoverable(&env);
        if i % 3 == 2 {
            let victim = env.registry().iter().next().map(|(id, _)| id).unwrap();
            env.undeploy(victim);
            assert_recoverable(&env);
        }
        if i == 9 {
            assert!(env.checkpoint_registry());
            assert!(wal(&backend).is_empty(), "checkpoint truncates the WAL");
            assert_recoverable(&env);
        }
    }
    let stats = env.journal_stats().unwrap();
    assert!(stats.checkpoints > 1, "automatic checkpoints fired too");

    // Warm boot on the same store: the same call recovers what was
    // journaled, bound to the environment's own ontology, and continues
    // the same WAL.
    let epoch = env.epoch();
    drop(env);
    let mut env = environment();
    let report = env.open_registry(backend.clone(), config).unwrap();
    assert!(report.recovered_anything());
    assert_eq!(env.epoch(), epoch);
    assert!(env.registry().index_matches_rebuild());
    let bound = env.registry().ontology().unwrap();
    assert_eq!(bound.stamp(), env.ontology().stamp());
    for i in 14..20 {
        deploy(&mut env, numbered(i));
        assert_recoverable(&env);
    }
}

/// What execution learns lives in memory only: monitor windows, SLA
/// records and the QoS estimates compose ranks on. On a journaled
/// environment, sessions that settle every provider's estimate, its
/// learnt reputation included, make no file call at all: no WAL byte,
/// no checkpoint, and the store still recovers the advertisements.
#[test]
fn composing_executing_and_learning_reputation_touch_no_file() {
    let log = Arc::new(Mutex::new(Vec::<Call>::new()));
    let backend = MemoryBackend::new();
    let mut env = environment();
    env.open_registry(
        recording(backend.clone(), &log, None),
        PersistConfig::default(),
    )
    .unwrap();
    let rt = env.model().property("ResponseTime").unwrap();
    let rep = env.model().property("Reputation").unwrap();
    let ids: Vec<ServiceId> = (0..3)
        .map(|i| {
            let desc = ServiceDescription::new(format!("pay{i}"), "p#Pay")
                .with_qos(rt, 50.0 + 10.0 * i as f64)
                .with_qos(rep, 2.5);
            deploy(&mut env, desc)
        })
        .collect();
    let stats = env.journal_stats().unwrap();
    log.lock().unwrap().clear();

    let task = UserTask::new("t", TaskNode::activity(Activity::new("pay", "p#Pay"))).unwrap();
    let request = UserRequest::new(task).weight("ResponseTime", 1.0);
    while env
        .monitor()
        .qos_estimate(ids[0])
        .and_then(|e| e.get(rt))
        .is_none()
    {
        let composition = env.compose(&request).unwrap();
        assert!(env.execute(composition).unwrap().success);
    }
    assert_eq!(
        env.monitor().qos_estimate(ids[0]).unwrap().get(rep),
        Some(5.0)
    );

    assert_eq!(*log.lock().unwrap(), []);
    assert_eq!(env.journal_stats().unwrap(), stats);
    let (recovered, _) = recover(backend.fork(), PersistConfig::default());
    assert_eq!(encode_state(&recovered), encode_state(env.registry()));
    assert_eq!(recovered.get(ids[0]).unwrap().qos().get(rep), Some(2.5));
}

#[test]
fn a_failing_store_detaches_the_journal_and_service_continues() {
    let backend = MemoryBackend::new();
    let store = failing_appends(backend.clone(), 2);
    let recorder = Arc::new(MemoryRecorder::new());
    let mut env = environment();
    env.set_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
    env.open_registry(store, PersistConfig::default()).unwrap();

    let pay = |i: usize| ServiceDescription::new(format!("s{i}"), "p#Pay");
    for i in 0..2 {
        deploy(&mut env, pay(i));
    }
    assert!(env.journaling());
    // The third append fails: counted once, journal detached, the
    // registration itself stands.
    let third = deploy(&mut env, pay(2));
    assert!(!env.journaling());
    assert_eq!(env.registry().get(third).unwrap().name(), "s2");
    deploy(&mut env, pay(3));
    assert!(!env.checkpoint_registry());
    assert_eq!(env.registry().len(), 4);
    let errors = recorder.snapshot().unwrap().counter(keys::PERSIST_ERRORS);
    assert_eq!(errors, 1);
    // The store keeps exactly what was journaled before the failure.
    let (durable, _) = recover(backend.fork(), PersistConfig::default());
    assert_eq!(durable.len(), 2);
}

#[test]
fn crash_between_snapshot_and_truncate_skips_stale_records() {
    let backend = MemoryBackend::new();
    let (mut oracle, _) = open(backend.clone(), 0);
    churn(&mut oracle, 6);

    // Simulate the torn checkpoint: the snapshot became durable but the
    // WAL truncation never happened — the stale WAL must be skipped,
    // not replayed on top of the snapshot.
    let wal = wal(&backend);
    let snapshot = encode_state(oracle.registry());
    let crash = backend.fork();
    crash.clone().create(SNAP, &snapshot).unwrap();
    set_wal(&crash, &wal);
    let (recovered, report) = open(crash, 0);
    assert!(report.snapshot_loaded);
    assert!(report.wal_events_skipped > 0);
    assert_eq!(report.wal_events_applied, 0);
    assert_equivalent(&recovered, &oracle);
}

/// Renders named byte strings as `name:` followed by 32 bytes of hex a
/// line.
fn hex_sections(sections: &[(&str, &[u8])]) -> String {
    let mut text = String::new();
    for (name, bytes) in sections {
        text.push_str(name);
        text.push_str(":\n");
        for line in bytes.chunks(32) {
            for b in line {
                text.push_str(&format!("{b:02x}"));
            }
            text.push('\n');
        }
    }
    text
}

#[test]
fn on_disk_bytes_match_the_format_fixture() {
    // Small enough to pin byte for byte, yet every branch of the
    // encoding: a live slot with inputs, outputs, two QoS values, an
    // operation with its own QoS and a host; a tombstone; a minimal
    // live slot.
    let model = QosModel::standard();
    let rt = model.property("ResponseTime").unwrap();
    let price = model.property("Price").unwrap();
    let full = ServiceDescription::new("books", "shop#BuyBook")
        .with_provider("fnac")
        .with_input("shop#BookTitle")
        .with_input("shop#CardNumber")
        .with_output("shop#Receipt")
        .with_qos(rt, 120.5)
        .with_qos(price, 3.0)
        .with_operation(Operation::new("pay", "shop#Pay").with_qos(rt, 30.0))
        .with_host(3);
    let mut registry = ServiceRegistry::new();
    registry.register(full.clone());
    let tombstone = registry.register(ServiceDescription::new("gone", "shop#Locate"));
    registry.register(
        ServiceDescription::new("maps", "geo#Locate")
            .with_provider("osm")
            .with_output("geo#Position"),
    );
    registry.deregister(tombstone).unwrap();
    let snapshot = encode_state(&registry);

    let backend = MemoryBackend::new();
    let (mut journaled, _) = PersistentRegistry::open(
        backend.clone(),
        PersistConfig {
            checkpoint_every: 0,
        },
        None,
    )
    .unwrap();
    let id = journaled.register(full).unwrap();
    let register = wal(&backend);
    journaled.deregister(id).unwrap();
    let deregister = wal(&backend)[register.len()..].to_vec();

    let rendered = hex_sections(&[
        ("snapshot", &snapshot),
        ("register", &register),
        ("deregister", &deregister),
    ]);
    let fixture = include_str!("fixtures/persist_format.hex");
    let pinned: String = fixture
        .lines()
        .filter(|line| !line.starts_with('#'))
        .flat_map(|line| [line, "\n"])
        .collect();
    assert_eq!(
        rendered, pinned,
        "the persistence format changed: old data directories would not open"
    );
}

/// A journaled registry as the protocol pin drives it: bare, or inside
/// an `Environment` the way `qasomd --data-dir` runs it.
enum Journaled {
    Bare(Box<PersistentRegistry>),
    Served(Box<Environment>),
}

impl Journaled {
    fn open(store: Hooked, config: PersistConfig, served: bool) -> (Self, RecoveryReport) {
        if served {
            let mut env = environment();
            let report = env.open_registry(store, config).unwrap();
            (Journaled::Served(Box::new(env)), report)
        } else {
            let (registry, report) =
                PersistentRegistry::open(store, config, Some(ontology())).unwrap();
            (Journaled::Bare(Box::new(registry)), report)
        }
    }

    fn register(&mut self, desc: ServiceDescription) -> ServiceId {
        match self {
            Journaled::Bare(registry) => registry.register(desc).unwrap(),
            Journaled::Served(env) => deploy(env, desc),
        }
    }

    fn deregister(&mut self, id: ServiceId) {
        match self {
            Journaled::Bare(registry) => assert!(registry.deregister(id).unwrap()),
            Journaled::Served(env) => env.undeploy(id),
        }
    }
}

/// The pinned run: the first boot, three registrations, one departure,
/// then a power loss that tears a record after the fourth (three bytes
/// of its header made it to disk) and the boot that follows. Returns
/// the file calls of each of those six steps, and the WAL's length at
/// the power loss.
fn protocol_run(served: bool) -> (Vec<Vec<Call>>, u64) {
    let log = Arc::new(Mutex::new(Vec::<Call>::new()));
    let mut steps = Vec::new();
    let mut step = || steps.push(std::mem::take(&mut *log.lock().unwrap()));
    let config = PersistConfig {
        checkpoint_every: 2,
    };
    let backend = MemoryBackend::new();
    let (mut registry, _) = Journaled::open(recording(backend.clone(), &log, None), config, served);
    step();
    let first = registry.register(numbered(0));
    step();
    for i in 1..3 {
        registry.register(numbered(i));
        step();
    }
    registry.deregister(first);
    step();

    let crash = backend.fork();
    let keep = wal(&crash).len() as u64;
    set_wal(&crash, &[wal(&crash), vec![0xEE; 3]].concat());
    let (_, report) = Journaled::open(recording(crash, &log, None), config, served);
    assert!(report.torn_tail);
    step();
    (steps, keep)
}

/// The journal's durability protocol, call by call: the first boot, one
/// group commit, one checkpoint and one torn-tail trim. A journaled
/// `Environment` makes exactly the same calls, bytes included: it
/// mutates its registry through the same `PersistentRegistry`.
#[test]
fn the_journal_makes_exactly_the_protocols_file_calls() {
    let (steps, keep) = protocol_run(false);
    let ops: Vec<Vec<String>> = steps
        .iter()
        .map(|calls| calls.iter().map(Call::op).collect())
        .collect();
    assert_eq!(
        ops[0],
        [
            "read(registry.snap)",
            "read(registry.wal)",
            "create(registry.wal)",
            "sync_dir"
        ]
    );
    assert_eq!(ops[1], ["append(registry.wal)"]);
    // The second append is due a group commit, and the checkpoint then
    // installs the snapshot before it empties the WAL.
    assert_eq!(
        ops[2],
        [
            "append(registry.wal)",
            "sync(registry.wal)",
            "create(registry.snap.tmp)",
            "sync(registry.snap.tmp)",
            "rename(registry.snap.tmp, registry.snap)",
            "sync_dir",
            "truncate(registry.wal, 0)",
            "sync(registry.wal)",
        ]
    );
    assert_eq!(ops[3], ["append(registry.wal)"]);
    // The departure is the fourth append: a group commit, and two
    // events since the snapshot but fewer WAL bytes than it holds.
    assert_eq!(ops[4], ["append(registry.wal)", "sync(registry.wal)"]);
    assert_eq!(
        ops[5],
        [
            "read(registry.snap)".to_owned(),
            "read(registry.wal)".to_owned(),
            format!("truncate(registry.wal, {keep})"),
            "sync(registry.wal)".to_owned(),
        ]
    );

    assert_eq!(
        protocol_run(true),
        (steps, keep),
        "a journaled environment makes the same file calls"
    );
}

/// The power-loss model's view of one file: the bytes the last `sync`
/// made durable, and the writes since.
#[derive(Debug, Clone, Default)]
struct Inode {
    durable: Vec<u8>,
    pending: Vec<Write>,
}

#[derive(Debug, Clone)]
enum Write {
    Append(Vec<u8>),
    Truncate(usize),
}

impl Inode {
    /// The contents the running process sees.
    fn live(&self) -> Vec<u8> {
        let mut bytes = self.durable.clone();
        for write in &self.pending {
            match write {
                Write::Append(tail) => bytes.extend_from_slice(tail),
                Write::Truncate(len) => bytes.truncate(*len),
            }
        }
        bytes
    }

    /// Every content a power loss may leave: the pending writes applied
    /// in order up to some point, the last one applied torn at any byte.
    /// So un-synced appends are lost or torn, and an un-synced truncate
    /// is applied or not.
    fn images(&self) -> BTreeSet<Vec<u8>> {
        let mut bytes = self.durable.clone();
        let mut images = BTreeSet::from([bytes.clone()]);
        for write in &self.pending {
            match write {
                Write::Append(tail) => {
                    for cut in 1..=tail.len() {
                        let mut image = bytes.clone();
                        image.extend_from_slice(&tail[..cut]);
                        images.insert(image);
                    }
                    bytes.extend_from_slice(tail);
                }
                Write::Truncate(len) => {
                    bytes.truncate(*len);
                    images.insert(bytes.clone());
                }
            }
        }
        images
    }
}

/// A directory under the conservative power-loss model: file contents
/// are durable up to their last `sync`, and names up to the last
/// `sync_dir` — each create or rename since then is kept or lost on its
/// own.
#[derive(Debug, Default)]
struct Disk {
    inodes: Vec<Inode>,
    /// Name → inode as of the last `sync_dir`.
    durable: BTreeMap<String, usize>,
    /// Name → inode as the running process sees it.
    live: BTreeMap<String, usize>,
    /// Name changes since the last `sync_dir`: the name a rename moved
    /// the inode from (none for a create), the new name, the inode.
    pending: Vec<(Option<String>, String, usize)>,
}

impl Disk {
    fn apply(&mut self, call: &Call) {
        match call {
            Call::Read(_) => {}
            Call::Append(name, bytes) => {
                let inode = self.inode(name);
                self.inodes[inode]
                    .pending
                    .push(Write::Append(bytes.clone()));
            }
            Call::Create(name, bytes) => {
                let inode = self.link(name);
                self.inodes[inode]
                    .pending
                    .push(Write::Append(bytes.clone()));
            }
            Call::Truncate(name, len) => {
                let inode = self.inode(name);
                self.inodes[inode]
                    .pending
                    .push(Write::Truncate(*len as usize));
            }
            Call::Rename(from, to) => {
                let inode = self.live.remove(from).expect("renames an existing file");
                self.live.insert(to.clone(), inode);
                self.pending.push((Some(from.clone()), to.clone(), inode));
            }
            Call::Sync(name) => {
                let inode = &mut self.inodes[self.live[name]];
                inode.durable = inode.live();
                inode.pending.clear();
            }
            Call::SyncDir => {
                self.durable = self.live.clone();
                self.pending.clear();
            }
        }
    }

    fn inode(&mut self, name: &str) -> usize {
        match self.live.get(name) {
            Some(&inode) => inode,
            None => self.link(name),
        }
    }

    /// A new, empty inode under `name`.
    fn link(&mut self, name: &str) -> usize {
        let inode = self.inodes.len();
        self.inodes.push(Inode::default());
        self.live.insert(name.to_owned(), inode);
        self.pending.push((None, name.to_owned(), inode));
        inode
    }

    /// Every image of the files `names` a power loss may leave now.
    fn images(&self, names: &[&str]) -> BTreeSet<Vec<Option<Vec<u8>>>> {
        let mut images = BTreeSet::new();
        for kept in 0..1u32 << self.pending.len() {
            let mut dir = self.durable.clone();
            for (k, (from, to, inode)) in self.pending.iter().enumerate() {
                if kept & 1 << k != 0 {
                    if let Some(from) = from {
                        if dir.get(from) == Some(inode) {
                            dir.remove(from);
                        }
                    }
                    dir.insert(to.clone(), *inode);
                }
            }
            let mut partial = vec![Vec::new()];
            for name in names {
                let contents: Vec<Option<Vec<u8>>> = match dir.get(*name) {
                    Some(&inode) => self.inodes[inode].images().into_iter().map(Some).collect(),
                    None => vec![None],
                };
                partial = partial
                    .iter()
                    .flat_map(|image: &Vec<Option<Vec<u8>>>| {
                        contents.iter().map(move |content| {
                            let mut image = image.clone();
                            image.push(content.clone());
                            image
                        })
                    })
                    .collect();
            }
            images.extend(partial);
        }
        images
    }
}

const CRASH_EVERY: usize = 4;

/// The scripted run the crash-state check replays: 30 registrations,
/// 10 departures and one explicit checkpoint, journaled with
/// `checkpoint_every = 4` through a store that logs every call and
/// drops the ones `skip` selects. Returns the log and the never-crashed
/// registry's state after each event (index = event cursor).
fn scripted_run(skip: Option<Barrier>) -> (Vec<Call>, Vec<Vec<u8>>) {
    let log = Arc::new(Mutex::new(Vec::new()));
    let store = recording(MemoryBackend::new(), &log, skip);
    let config = PersistConfig {
        checkpoint_every: CRASH_EVERY,
    };
    let (mut registry, _) = PersistentRegistry::open(store, config, Some(ontology())).unwrap();
    let mut states = vec![encode_state(registry.registry())];
    for i in 0..30 {
        registry.register(numbered(i)).unwrap();
        states.push(encode_state(registry.registry()));
        if i % 3 == 2 {
            let victim = registry.registry().iter().next().map(|(id, _)| id).unwrap();
            registry.deregister(victim).unwrap();
            states.push(encode_state(registry.registry()));
        }
        if i == 17 {
            registry.checkpoint().unwrap();
        }
    }
    assert!(
        registry.journal().unwrap().stats().checkpoints >= 3,
        "2 automatic + 1 explicit"
    );
    let log = log.lock().unwrap().clone();
    (log, states)
}

/// Replays `log` on a [`Disk`] and recovers every image it allows after
/// every call. Each must recover, to the never-crashed state at some
/// cursor `c` with last synced ≤ `c` ≤ last appended and at most
/// `checkpoint_every` events lost. Returns how many images were checked,
/// or the first failure.
fn check_power_loss_images(log: &[Call], states: &[Vec<u8>]) -> Result<usize, String> {
    // Recovery reads only these two names, so an image is what a power
    // loss leaves under them; a read of any other name fails recovery.
    const READ: [&str; 2] = [SNAP, WAL];
    let config = PersistConfig {
        checkpoint_every: CRASH_EVERY,
    };
    let mut disk = Disk::default();
    let (mut appended, mut synced, mut checked) = (0, 0, 0);
    for (at, call) in log.iter().enumerate() {
        disk.apply(call);
        match call {
            Call::Append(name, _) if name == WAL => appended += 1,
            Call::Sync(name) if name == WAL => synced = appended,
            _ => {}
        }
        for image in disk.images(&READ) {
            let store = MemoryBackend::new();
            for (name, content) in READ.iter().zip(&image) {
                if let Some(bytes) = content {
                    store.clone().create(name, bytes).unwrap();
                }
            }
            let guarded = Hooked::new(store, |call| match call {
                Call::Read(name) if !READ.contains(&name.as_str()) => Err(PersistError::Io(
                    format!("read {name}, which no image holds"),
                )),
                _ => Ok(true),
            });
            let failure = |what: String| {
                format!(
                    "after call {at} ({}), {appended} appended, {synced} synced: {what}",
                    call.op()
                )
            };
            let (recovered, _, _) = RegistryJournal::open(guarded, config, None)
                .map_err(|e| failure(format!("recovery failed: {e}")))?;
            let c = recovered.event_cursor();
            if c < synced || c > appended || appended - c > CRASH_EVERY {
                return Err(failure(format!("recovered cursor {c}")));
            }
            if encode_state(&recovered) != states[c] {
                return Err(failure(format!("state at cursor {c} differs")));
            }
            checked += 1;
        }
    }
    Ok(checked)
}

/// Item 17's witness: every disk image a power loss may leave at any
/// point of a journaled run recovers, loses at most `checkpoint_every`
/// events and nothing synced.
#[test]
fn every_power_loss_image_recovers_to_a_state_the_registry_went_through() {
    let (log, states) = scripted_run(None);
    let checked = check_power_loss_images(&log, &states).unwrap();
    assert!(
        checked > log.len(),
        "{checked} images for {} calls",
        log.len()
    );
}

/// The check above has teeth: without each of these barriers some image
/// fails. (Without the `sync` after a truncate it still passes: the next
/// `sync` of the same file makes the truncate durable, and the model
/// has no blocks a truncate could leave behind.)
#[test]
fn the_power_loss_check_fails_without_each_barrier() {
    let barriers: [(&str, Barrier); 4] = [
        ("sync_dir after the snapshot's rename", |previous, call| {
            matches!((previous, call), (Call::Rename(..), Call::SyncDir))
        }),
        ("the group commit", |previous, call| {
            matches!((previous, call), (Call::Append(..), Call::Sync(_)))
        }),
        (
            "sync of the snapshot before its rename",
            |previous, call| matches!((previous, call), (Call::Create(..), Call::Sync(_))),
        ),
        ("sync_dir after the WAL's creation", |previous, call| {
            matches!((previous, call), (Call::Create(..), Call::SyncDir))
        }),
    ];
    for (barrier, skip) in barriers {
        let (log, states) = scripted_run(Some(skip));
        assert!(
            check_power_loss_images(&log, &states).is_err(),
            "without {barrier} every image still recovers"
        );
    }
}
