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
//!   runs (`attach_journal`, `adopt_registry`, journaled `deploy` /
//!   `undeploy` / `checkpoint_registry`) meets the same oracle, and a
//!   failing store detaches the journal instead of stopping service;
//! * **the on-disk bytes** — a snapshot and both WAL record kinds
//!   encode exactly as `tests/fixtures/persist_format.hex` pins them,
//!   so a data directory written by an older `qasomd` still opens.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use qasom::{Environment, UserRequest};
use qasom_netsim::runtime::SyntheticService;
use qasom_obs::{keys, MemoryRecorder, Recorder};
use qasom_ontology::{Ontology, OntologyBuilder};
use qasom_qos::QosModel;
use qasom_registry::persist::wal::split_frames;
use qasom_registry::persist::{
    encode_state, MemoryBackend, PersistConfig, PersistError, Persistence, PersistentRegistry,
    RegistryJournal,
};
use qasom_registry::{Operation, ServiceDescription, ServiceId, ServiceRegistry};
use qasom_task::{Activity, TaskNode, UserTask};

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
        recovered.journal().wal_cursor(),
        oracle.journal().wal_cursor(),
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
    assert_eq!(backend.wal_len(), 0, "checkpoint truncates the WAL");
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
    assert!(oracle.journal().stats().checkpoints > 0);
    let (recovered, _) = open(backend.fork(), 4);
    assert_equivalent(&recovered, &oracle);
}

#[test]
fn truncation_at_every_byte_of_the_last_record_recovers_cleanly() {
    let backend = MemoryBackend::new();
    let (mut oracle, _) = open(backend.clone(), 0);
    churn(&mut oracle, 6);
    let wal = backend.fork().wal_bytes().unwrap();
    let (frames, torn) = split_frames(&wal);
    assert!(torn.is_none() && frames.len() >= 2);
    let boundary = wal.len() - (frames.last().unwrap().len() + 8);

    // The expected durable point: everything but the last record.
    let clean = backend.fork();
    clean.set_wal(wal[..boundary].to_vec());
    let (expected, _) = open(clean, 0);

    for cut in boundary + 1..wal.len() {
        let crash = backend.fork();
        crash.set_wal(wal[..cut].to_vec());
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
    let wal = backend.fork().wal_bytes().unwrap();
    let (frames, _) = split_frames(&wal);
    let boundary = wal.len() - (frames.last().unwrap().len() + 8);

    let clean = backend.fork();
    clean.set_wal(wal[..boundary].to_vec());
    let (expected, _) = open(clean, 0);

    for i in boundary..wal.len() {
        let mut bytes = wal.clone();
        bytes[i] ^= 0x40;
        let crash = backend.fork();
        crash.set_wal(bytes);
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
    let mut wal = crash.wal_bytes().unwrap();
    let last = wal.len() - 1;
    wal[last] ^= 0xFF;
    crash.set_wal(wal);
    let (first, report) = open(crash.clone(), 0);
    assert!(report.torn_tail);
    let (second, report2) = open(crash, 0);
    assert!(!report2.torn_tail, "the tear was trimmed on first recovery");
    assert_equivalent(&second, &first);
}

/// A store whose WAL appends fail once `appends_left` of them have
/// succeeded: a full disk, or — with none left — a crash before the
/// next write. Everything else goes through to `inner`.
struct FailingAppends {
    inner: MemoryBackend,
    appends_left: usize,
}

impl Persistence for FailingAppends {
    fn append_wal(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        if self.appends_left == 0 {
            return Err(PersistError::Io("injected append failure".into()));
        }
        self.appends_left -= 1;
        self.inner.append_wal(bytes)
    }

    fn sync_wal(&mut self) -> Result<(), PersistError> {
        self.inner.sync_wal()
    }

    fn wal_bytes(&self) -> Result<Vec<u8>, PersistError> {
        self.inner.wal_bytes()
    }

    fn truncate_wal(&mut self, len: u64) -> Result<(), PersistError> {
        self.inner.truncate_wal(len)
    }

    fn write_snapshot(&mut self, blob: &[u8]) -> Result<(), PersistError> {
        self.inner.write_snapshot(blob)
    }

    fn snapshot_bytes(&self) -> Result<Option<Vec<u8>>, PersistError> {
        self.inner.snapshot_bytes()
    }
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
    let mut wal = crash.wal_bytes().unwrap();
    let last = wal.len() - 1;
    wal[last] ^= 0xFF;
    crash.set_wal(wal);

    // Recovery runs over a store that dies at its next write: whatever
    // this attempt returns, it must not have cut away the four records
    // that were durable before it started.
    let dying = FailingAppends {
        inner: crash.clone(),
        appends_left: 0,
    };
    let _ = PersistentRegistry::open(dying, PersistConfig::default(), Some(ontology()));
    let (recovered, _) = open(crash, 0);
    assert_eq!(recovered.registry().len(), 4);
}

/// A [`MemoryBackend`] that counts the journal's WAL syncs and
/// snapshots, and keeps the last snapshot's size and the bytes of all
/// snapshots before it.
#[derive(Clone, Default)]
struct Counting {
    inner: MemoryBackend,
    syncs: Arc<AtomicUsize>,
    snapshots: Arc<AtomicUsize>,
    snapshot_len: Arc<AtomicUsize>,
    earlier_snapshot_bytes: Arc<AtomicUsize>,
}

impl Persistence for Counting {
    fn append_wal(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        self.inner.append_wal(bytes)
    }

    fn sync_wal(&mut self) -> Result<(), PersistError> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync_wal()
    }

    fn wal_bytes(&self) -> Result<Vec<u8>, PersistError> {
        self.inner.wal_bytes()
    }

    fn truncate_wal(&mut self, len: u64) -> Result<(), PersistError> {
        self.inner.truncate_wal(len)
    }

    fn write_snapshot(&mut self, blob: &[u8]) -> Result<(), PersistError> {
        self.snapshots.fetch_add(1, Ordering::Relaxed);
        let previous = self.snapshot_len.swap(blob.len(), Ordering::Relaxed);
        self.earlier_snapshot_bytes
            .fetch_add(previous, Ordering::Relaxed);
        self.inner.write_snapshot(blob)
    }

    fn snapshot_bytes(&self) -> Result<Option<Vec<u8>>, PersistError> {
        self.inner.snapshot_bytes()
    }
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
    let store = Counting::default();
    let (mut oracle, _) =
        PersistentRegistry::open(store.clone(), config, Some(ontology())).unwrap();

    let mut largest_frame = 0;
    let mut largest_wal = (0, 0);
    for i in 0..SERVICES {
        let before = oracle.journal().stats().wal_bytes;
        oracle.register(numbered(i)).unwrap();
        let frame = (oracle.journal().stats().wal_bytes - before) as usize;
        largest_frame = largest_frame.max(frame);
        // Replay bound: a boot replays no more than `EVERY` frames or
        // one snapshot's worth of WAL, whichever is larger.
        let wal = store.inner.wal_len();
        let snapshot = store.snapshot_len.load(Ordering::Relaxed);
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

    // Power-loss window: one sync per `EVERY` appends, on the dot.
    let stats = oracle.journal().stats();
    assert_eq!(stats.appends as usize, SERVICES);
    assert_eq!(store.syncs.load(Ordering::Relaxed), SERVICES / EVERY);

    // Snapshot writing is amortised O(1) per event: a snapshot is taken
    // only once the WAL has outgrown the one before it, so every
    // snapshot but the last was paid for by as many WAL bytes.
    let snapshots = store.snapshots.load(Ordering::Relaxed);
    assert_eq!(stats.checkpoints as usize, snapshots);
    let earlier = store.earlier_snapshot_bytes.load(Ordering::Relaxed);
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
    let (wal, at) = largest_wal;
    let store = MemoryBackend::new();
    let (mut oracle, _) =
        PersistentRegistry::open(store.clone(), config, Some(ontology())).unwrap();
    for i in 0..at {
        oracle.register(numbered(i)).unwrap();
    }
    assert_eq!(store.wal_len(), wal);
    let (recovered, report) =
        PersistentRegistry::open(store.fork(), config, Some(ontology())).unwrap();
    assert!(report.snapshot_loaded);
    assert!(report.wal_events_applied as usize >= EVERY);
    assert_equivalent(&recovered, &oracle);
}

fn environment() -> Environment {
    Environment::new(QosModel::standard(), taxonomy(), 7)
}

fn deploy(env: &mut Environment, name: String, function: &str) -> ServiceId {
    let desc = ServiceDescription::new(name, function);
    let nominal = desc.qos().clone();
    env.deploy(desc, SyntheticService::new(nominal))
}

/// Recovers `image` the way `qasomd --data-dir` boots: unbound, to be
/// re-bound by `adopt_registry`.
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
    env.attach_journal(recover(backend.clone(), config).1);
    assert!(env.journaling());
    let functions = ["p#Pay", "p#PayByCard", "p#Locate"];
    for i in 0..14 {
        deploy(&mut env, format!("s{i}"), functions[i % functions.len()]);
        assert_recoverable(&env);
        if i % 3 == 2 {
            let victim = env.registry().iter().next().map(|(id, _)| id).unwrap();
            env.undeploy(victim);
            assert_recoverable(&env);
        }
        if i == 9 {
            assert!(env.checkpoint_registry());
            assert_eq!(backend.wal_len(), 0, "checkpoint truncates the WAL");
            assert_recoverable(&env);
        }
    }
    let stats = env.journal_stats().unwrap();
    assert!(stats.checkpoints > 1, "automatic checkpoints fired too");

    // Warm boot on the same store: adopt what was recovered, continue
    // the same WAL.
    let epoch = env.epoch();
    drop(env);
    let mut env = environment();
    let (registry, journal) = recover(backend.clone(), config);
    env.adopt_registry(registry);
    env.attach_journal(journal);
    assert_eq!(env.epoch(), epoch);
    assert!(env.registry().index_matches_rebuild());
    for i in 14..20 {
        deploy(&mut env, format!("s{i}"), functions[i % functions.len()]);
        assert_recoverable(&env);
    }
}

/// Reputation feedback rewrites live advertisements, which the WAL does
/// not journal: after a pass that changed anything, a crash must still
/// recover the re-advertised registry.
#[test]
fn reputation_feedback_survives_a_crash() {
    let backend = MemoryBackend::new();
    let mut env = environment();
    env.attach_journal(recover(backend.clone(), PersistConfig::default()).1);
    for i in 0..3 {
        deploy(&mut env, format!("pay{i}"), "p#Pay");
    }
    let task = UserTask::new("t", TaskNode::activity(Activity::new("pay", "p#Pay"))).unwrap();
    for _ in 0..3 {
        let composition = env.compose(&UserRequest::new(task.clone())).unwrap();
        assert!(env.execute(composition).unwrap().success);
    }
    assert!(env.apply_reputation_feedback() > 0);

    let (recovered, _) = recover(backend.fork(), PersistConfig::default());
    assert_eq!(encode_state(&recovered), encode_state(env.registry()));
}

#[test]
fn a_failing_store_detaches_the_journal_and_service_continues() {
    let backend = MemoryBackend::new();
    let store = FailingAppends {
        inner: backend.clone(),
        appends_left: 2,
    };
    let (_, journal, _) = RegistryJournal::open(store, PersistConfig::default(), None).unwrap();
    let recorder = Arc::new(MemoryRecorder::new());
    let mut env = environment();
    env.set_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
    env.attach_journal(journal);

    for i in 0..2 {
        deploy(&mut env, format!("s{i}"), "p#Pay");
    }
    assert!(env.journaling());
    // The third append fails: counted once, journal detached, the
    // registration itself stands.
    deploy(&mut env, "s2".into(), "p#Pay");
    assert!(!env.journaling());
    deploy(&mut env, "s3".into(), "p#Pay");
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
    let wal = backend.fork().wal_bytes().unwrap();
    let snapshot = encode_state(oracle.registry());
    let crash = backend.fork();
    {
        let mut handle = crash.clone();
        handle.write_snapshot(&snapshot).unwrap();
    }
    crash.set_wal(wal);
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
    let register = backend.wal_bytes().unwrap();
    journaled.deregister(id).unwrap();
    let deregister = backend.wal_bytes().unwrap()[register.len()..].to_vec();

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
