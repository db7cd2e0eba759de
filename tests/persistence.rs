//! Crash-recovery guarantees of the registry persistence layer
//! (DESIGN.md §14):
//!
//! * **kill-and-replay oracle** — a registry recovered from any crash
//!   image is byte-identical to the never-crashed one (state encoding,
//!   capability index, epoch, WAL cursor);
//! * **torn tails** — a WAL whose last record is bit-flipped or
//!   truncated at *every possible byte* recovers cleanly to the last
//!   durable point, never panics, never replays a partial record;
//! * **checkpoint boundary** — a checkpoint compacts the in-memory
//!   event log exactly like a never-crashed registry that called
//!   `compact_events`, so replicas synced before the crash observe the
//!   same `EventLogGap` fallback after recovery.

use std::sync::Arc;

use qasom_ontology::{Ontology, OntologyBuilder};
use qasom_registry::persist::wal::split_frames;
use qasom_registry::persist::{
    encode_state, MemoryBackend, PersistConfig, Persistence, PersistentRegistry,
};
use qasom_registry::{ReplicaCursor, ServiceDescription, SyncResponse};

fn ontology() -> Arc<Ontology> {
    let mut b = OntologyBuilder::new("p");
    let pay = b.concept("Pay");
    b.subconcept("PayByCard", pay);
    b.concept("Locate");
    Arc::new(b.build().unwrap())
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
        "capability index (and interned ids) must match"
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

#[test]
fn checkpoint_compacts_the_event_log_like_a_never_crashed_registry() {
    let backend = MemoryBackend::new();
    let (mut persistent, _) = open(backend.clone(), 0);
    churn(&mut persistent, 9);
    let head = persistent.registry().event_cursor();
    persistent.checkpoint().unwrap();
    assert_eq!(
        persistent.registry().oldest_retained_event(),
        head,
        "checkpoint compacts up to the snapshot boundary"
    );

    let (recovered, _) = open(backend.fork(), 0);
    assert_eq!(recovered.registry().oldest_retained_event(), head);

    // A replica whose cursor predates the compaction boundary gets the
    // EventLogGap snapshot fallback from the recovered registry...
    match recovered.registry().sync_from(ReplicaCursor::ORIGIN) {
        SyncResponse::Snapshot(snap) => assert_eq!(snap.cursor, head),
        SyncResponse::Delta(d) => panic!("expected snapshot fallback, got delta of {}", d.len()),
    }
    // ...while one at the boundary keeps the incremental path.
    match recovered.registry().sync_from(ReplicaCursor::new(head)) {
        SyncResponse::Delta(events) => assert!(events.is_empty()),
        SyncResponse::Snapshot(_) => panic!("a caught-up replica needs no snapshot"),
    }
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
