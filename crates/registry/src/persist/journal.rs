//! The registry journal: WAL appends, snapshot checkpoints and boot
//! replay — the file layout and the one durability protocol (see
//! [`RegistryJournal`]), over any [`Fs`].
//!
//! # Recovery state machine
//!
//! ```text
//!          ┌───────────────┐ no snapshot ┌────────────────┐
//! boot ──▶ │ load snapshot │ ───────────▶│ empty registry │
//!          └──────┬────────┘             └───────┬────────┘
//!                 │ restore slots @cursor        │
//!                 ▼                              ▼
//!          ┌──────────────────────────────────────────┐
//!          │ split WAL frames; torn tail? discard it, │
//!          │ truncate WAL to the valid prefix         │
//!          └──────┬───────────────────────────────────┘
//!                 ▼
//!          ┌──────────────────────────────────────────┐
//!          │ replay records: seq < cursor → skip      │
//!          │ (stale, crash between snapshot & WAL     │
//!          │ truncate); seq = cursor → apply; gap or  │
//!          │ id mismatch → Corrupt                    │
//!          └──────┬───────────────────────────────────┘
//!                 ▼
//!          rebuilt index verified lazily via
//!          `ServiceRegistry::index_matches_rebuild`
//! ```

use std::sync::Arc;

use qasom_ontology::Ontology;

use crate::registry::{ServiceId, ServiceRegistry};
use crate::service::ServiceDescription;

use super::wal::{self, WalRecord};
use super::{Fs, PersistError};

const WAL: &str = "registry.wal";
const SNAP: &str = "registry.snap";
const SNAP_TMP: &str = "registry.snap.tmp";

/// Journal tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistConfig {
    /// The journal's one cadence, in journaled events: the group
    /// commit's period and the fewest events between two automatic
    /// checkpoints (see [`RegistryJournal`]). `0` disables both,
    /// leaving durability to explicit [`PersistentRegistry::checkpoint`]s.
    pub checkpoint_every: usize,
}

impl Default for PersistConfig {
    fn default() -> Self {
        PersistConfig {
            checkpoint_every: 1024,
        }
    }
}

/// Counters the journal maintains; surfaced as the `persistence.*`
/// observability family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// WAL records appended.
    pub appends: u64,
    /// WAL bytes written (frames included).
    pub wal_bytes: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Events replayed from the WAL tail on boot.
    pub replayed_events: u64,
    /// Torn tails detected and discarded on boot.
    pub torn_tails: u64,
    /// Snapshots loaded on boot.
    pub snapshot_loads: u64,
}

/// What boot replay found and did; returned by
/// [`RegistryJournal::open`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a snapshot was loaded.
    pub snapshot_loaded: bool,
    /// Event cursor of the loaded snapshot (0 when none).
    pub snapshot_cursor: u64,
    /// WAL records applied on top of the snapshot.
    pub wal_events_applied: u64,
    /// Stale WAL records skipped (crash between snapshot write and WAL
    /// truncation leaves records the snapshot already covers).
    pub wal_events_skipped: u64,
    /// Whether a torn tail was discarded.
    pub torn_tail: bool,
    /// Bytes the torn tail spanned (0 when none).
    pub torn_tail_bytes: u64,
}

impl RecoveryReport {
    /// Whether recovery found any durable state at all.
    pub fn recovered_anything(&self) -> bool {
        self.snapshot_loaded || self.wal_events_applied > 0
    }
}

/// Journals registry mutations through an [`Fs`].
///
/// The journal does not own the registry: [`PersistentRegistry`] pairs
/// each registry mutation with the matching `record_*` call and the
/// checkpoints, and the sequence numbers self-check: events must be
/// journaled in registry event order, with no mutation left
/// unjournaled.
///
/// # Layout and protocol
///
/// A data directory holds `registry.wal` and `registry.snap`, plus
/// `registry.snap.tmp` while a snapshot is being installed. Every
/// durability step is one of these sequences of [`Fs`] calls:
///
/// * **group commit**, every [`PersistConfig::checkpoint_every`]
///   appends: `sync(wal)`. A power loss therefore loses at most the last
///   `checkpoint_every` events;
/// * **checkpoint**: `create(tmp)` → `sync(tmp)` → `rename(tmp, snap)`
///   → `sync_dir` → `truncate(wal, 0)` → `sync(wal)`. The snapshot's
///   new name must be durable before the WAL is emptied: otherwise a
///   power loss boots the older snapshot over an empty WAL and drops
///   every event between the two. One is taken once at least
///   `checkpoint_every` events *and* at least the last snapshot's size
///   in WAL bytes have accumulated since the last, so a boot replays at
///   most one snapshot's worth of WAL (or `checkpoint_every` events,
///   whichever is more). The durable bytes (snapshot + WAL) at least
///   double between two snapshots, so a growing registry writes
///   logarithmically many rather than one per `checkpoint_every`
///   events;
/// * **torn-tail trim** on boot: `truncate(wal, valid prefix)` →
///   `sync(wal)`;
/// * **first boot**: `create(wal)` → `sync_dir`, so a synced WAL is
///   never reached through a name that a power loss can take.
pub struct RegistryJournal {
    fs: Box<dyn Fs + Send + Sync>,
    config: PersistConfig,
    stats: PersistStats,
    /// Sequence number the next journaled event must carry — equals the
    /// paired registry's event cursor.
    next_seq: u64,
    since_checkpoint: usize,
    /// Encoded size of the last snapshot written or loaded (0 when
    /// none): the WAL may grow to this many bytes before the next one.
    snapshot_len: u64,
    /// Valid WAL bytes since that snapshot, stale frames included.
    wal_since: u64,
    /// Reused buffer each WAL record is framed into before its append.
    frame: Vec<u8>,
}

impl std::fmt::Debug for RegistryJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegistryJournal")
            .field("next_seq", &self.next_seq)
            .field("since_checkpoint", &self.since_checkpoint)
            .field("snapshot_len", &self.snapshot_len)
            .field("wal_since", &self.wal_since)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl RegistryJournal {
    /// Recovers a registry from `backend` (snapshot + WAL tail) and
    /// returns it with the journal that continues writing to the same
    /// backend.
    ///
    /// The rebuilt registry is bound to `ontology` (pass the
    /// environment's own `Arc` — ontology stamps are per-instance, so a
    /// structurally equal rebuild would not match the capability
    /// index).
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] from the backend;
    /// [`PersistError::Corrupt`] when a *CRC-valid* record fails to
    /// decode, replays onto an unexpected id, or leaves a sequence gap.
    /// A torn tail is not an error: it is discarded, counted in the
    /// [`RecoveryReport`] and trimmed from the stored WAL.
    pub fn open(
        backend: impl Fs + Send + Sync + 'static,
        config: PersistConfig,
        ontology: Option<Arc<Ontology>>,
    ) -> Result<(ServiceRegistry, RegistryJournal, RecoveryReport), PersistError> {
        let mut fs: Box<dyn Fs + Send + Sync> = Box::new(backend);
        let mut stats = PersistStats::default();
        let mut report = RecoveryReport::default();

        let mut snapshot_len = 0;
        let mut registry = match fs.read(SNAP)? {
            Some(blob) => {
                let snap = wal::decode_snapshot(&blob)?;
                snapshot_len = blob.len() as u64;
                stats.snapshot_loads = 1;
                report.snapshot_loaded = true;
                report.snapshot_cursor = snap.cursor;
                ServiceRegistry::restore(snap.slots, snap.cursor as usize, ontology)
            }
            None => match ontology {
                Some(onto) => ServiceRegistry::with_ontology(onto),
                None => ServiceRegistry::new(),
            },
        };

        let wal_bytes = match fs.read(WAL)? {
            Some(bytes) => bytes,
            None => {
                fs.create(WAL, &[])?;
                fs.sync_dir()?;
                Vec::new()
            }
        };
        let (frames, torn) = wal::split_frames(&wal_bytes);
        let wal_since = torn.map_or(wal_bytes.len(), |tear| tear.offset) as u64;
        if let Some(tear) = torn {
            stats.torn_tails = 1;
            report.torn_tail = true;
            report.torn_tail_bytes = (wal_bytes.len() - tear.offset) as u64;
            // Later appends continue on a clean frame boundary.
            fs.truncate(WAL, tear.offset as u64)?;
            fs.sync(WAL)?;
        }

        let mut expected = registry.event_cursor() as u64;
        let mut applied_any = false;
        for payload in frames {
            let record = WalRecord::decode(payload)?;
            let seq = record.seq();
            if seq < expected {
                if applied_any {
                    return Err(PersistError::Corrupt(format!(
                        "WAL sequence went backwards: {seq} after {expected}"
                    )));
                }
                // Stale: the snapshot already covers this record (the
                // crash hit between snapshot write and WAL truncation).
                report.wal_events_skipped += 1;
                continue;
            }
            if seq > expected {
                return Err(PersistError::Corrupt(format!(
                    "WAL sequence gap: expected {expected}, found {seq}"
                )));
            }
            match record {
                WalRecord::Register {
                    id, description, ..
                } => {
                    let got = registry.register(*description);
                    if got != id {
                        return Err(PersistError::Corrupt(format!(
                            "replayed registration allocated {got}, WAL recorded {id}"
                        )));
                    }
                }
                WalRecord::Deregister { id, .. } => {
                    if registry.deregister(id).is_none() {
                        return Err(PersistError::Corrupt(format!(
                            "replayed departure of {id}, which is not live"
                        )));
                    }
                }
            }
            applied_any = true;
            expected += 1;
            report.wal_events_applied += 1;
        }
        stats.replayed_events = report.wal_events_applied;

        let journal = RegistryJournal {
            fs,
            config,
            stats,
            next_seq: expected,
            since_checkpoint: report.wal_events_applied as usize,
            snapshot_len,
            wal_since,
            frame: Vec::new(),
        };
        Ok((registry, journal, report))
    }

    /// Journals a registration. `id` is the id the registry allocated;
    /// the paired registry's cursor must now be one past the journal's.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the backend append fails; the journal
    /// and registry have then diverged and the caller should treat the
    /// store as lost (stop journaling or crash).
    pub fn record_registered(
        &mut self,
        id: ServiceId,
        description: &ServiceDescription,
    ) -> Result<(), PersistError> {
        let seq = self.next_seq;
        self.append(|out| wal::put_register(out, seq, id, description))
    }

    /// Journals a departure.
    ///
    /// # Errors
    ///
    /// As for [`RegistryJournal::record_registered`].
    pub fn record_deregistered(&mut self, id: ServiceId) -> Result<(), PersistError> {
        let seq = self.next_seq;
        self.append(|out| wal::put_deregister(out, seq, id))
    }

    /// Frames one record into the reused buffer and appends it; syncs
    /// the WAL every [`PersistConfig::checkpoint_every`] appends.
    fn append(&mut self, put_record: impl FnOnce(&mut Vec<u8>)) -> Result<(), PersistError> {
        self.frame.clear();
        put_record(&mut self.frame);
        self.fs.append(WAL, &self.frame)?;
        let len = self.frame.len() as u64;
        self.stats.appends += 1;
        self.stats.wal_bytes += len;
        self.wal_since += len;
        self.next_seq += 1;
        self.since_checkpoint += 1;
        let every = self.config.checkpoint_every as u64;
        if every > 0 && self.stats.appends.is_multiple_of(every) {
            self.fs.sync(WAL)?;
        }
        Ok(())
    }

    /// Takes a checkpoint: installs a snapshot of the registry at its
    /// current event cursor, then empties the WAL (see the type's docs
    /// for the order). On an error the previous snapshot stays in place.
    fn checkpoint(&mut self, registry: &ServiceRegistry) -> Result<(), PersistError> {
        let head = registry.event_cursor();
        debug_assert_eq!(head as u64, self.next_seq, "unjournaled registry mutation");
        let blob = wal::encode_snapshot(head as u64, registry.slots());
        self.fs.create(SNAP_TMP, &blob)?;
        self.fs.sync(SNAP_TMP)?;
        self.fs.rename(SNAP_TMP, SNAP)?;
        self.fs.sync_dir()?;
        self.fs.truncate(WAL, 0)?;
        self.fs.sync(WAL)?;
        self.stats.checkpoints += 1;
        self.since_checkpoint = 0;
        self.snapshot_len = blob.len() as u64;
        self.wal_since = 0;
        Ok(())
    }

    /// Checkpoints when one is due: at least
    /// [`PersistConfig::checkpoint_every`] events, and at least the last
    /// snapshot's size in WAL bytes, since the last snapshot.
    fn maybe_checkpoint(&mut self, registry: &ServiceRegistry) -> Result<(), PersistError> {
        let every = self.config.checkpoint_every;
        if every > 0 && self.since_checkpoint >= every && self.wal_since >= self.snapshot_len {
            self.checkpoint(registry)?;
        }
        Ok(())
    }

    /// The sequence number the next journaled event will carry.
    pub fn wal_cursor(&self) -> u64 {
        self.next_seq
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PersistStats {
        self.stats
    }
}

/// Canonical byte encoding of a registry's durable state (cursor + full
/// slot vector) — the oracle the kill-and-replay harness compares with:
/// recovered and never-crashed registries must encode identically.
pub fn encode_state(registry: &ServiceRegistry) -> Vec<u8> {
    wal::encode_snapshot(registry.event_cursor() as u64, registry.slots())
}

/// The registry and its optional journal: the one owner of every
/// registry mutation. Each registration and departure is journaled
/// before the call returns, and automatic checkpoints fire per
/// [`PersistConfig`]; without a journal the same calls only mutate the
/// registry. The environment, `qasomd`, the `persist-stress` harness
/// and the power-loss tests all mutate through it, so they all run one
/// sequence of journal calls.
#[derive(Debug)]
pub struct PersistentRegistry {
    registry: ServiceRegistry,
    journal: Option<RegistryJournal>,
}

/// A mutation that took effect in the registry but not in its journal:
/// the two have diverged, and the caller should treat the store as lost
/// (stop journaling or crash).
#[derive(Debug)]
pub struct Unjournaled<T> {
    /// What the mutation returned; it stands in memory.
    pub applied: T,
    /// Why journaling it failed.
    pub error: PersistError,
}

impl<T> std::fmt::Display for Unjournaled<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.error.fmt(f)
    }
}

impl PersistentRegistry {
    /// An unjournaled registry: mutations change memory only until a
    /// journal is [attached](PersistentRegistry::attach_journal).
    pub fn new(registry: ServiceRegistry) -> Self {
        PersistentRegistry {
            registry,
            journal: None,
        }
    }

    /// Recovers (or freshly creates) a journaled registry from
    /// `backend`.
    ///
    /// # Errors
    ///
    /// As for [`RegistryJournal::open`].
    pub fn open(
        backend: impl Fs + Send + Sync + 'static,
        config: PersistConfig,
        ontology: Option<Arc<Ontology>>,
    ) -> Result<(Self, RecoveryReport), PersistError> {
        let (registry, journal, report) = RegistryJournal::open(backend, config, ontology)?;
        let journal = Some(journal);
        Ok((PersistentRegistry { registry, journal }, report))
    }

    /// Attaches (or replaces) the journal. It must continue at the
    /// registry's event cursor: every later mutation is journaled to it.
    pub fn attach_journal(&mut self, journal: RegistryJournal) {
        self.journal = Some(journal);
    }

    /// Detaches the journal; later mutations change memory only.
    pub fn detach_journal(&mut self) {
        self.journal = None;
    }

    /// Registers a service, journaling the event.
    ///
    /// # Errors
    ///
    /// [`Unjournaled`] when journaling or checkpointing fails.
    pub fn register(
        &mut self,
        description: ServiceDescription,
    ) -> Result<ServiceId, Unjournaled<ServiceId>> {
        let id = self.registry.register(description);
        self.journaled(id, |journal, registry| {
            if let Some(desc) = registry.get(id) {
                journal.record_registered(id, desc)?;
            }
            journal.maybe_checkpoint(registry)
        })
    }

    /// Deregisters a service, journaling the event when it was live;
    /// returns whether it was.
    ///
    /// # Errors
    ///
    /// [`Unjournaled`] when journaling or checkpointing fails.
    pub fn deregister(&mut self, id: ServiceId) -> Result<bool, Unjournaled<bool>> {
        if self.registry.deregister(id).is_none() {
            return Ok(false);
        }
        self.journaled(true, |journal, registry| {
            journal.record_deregistered(id)?;
            journal.maybe_checkpoint(registry)
        })
    }

    /// Re-binds the registry to `ontology`, rebuilding the capability
    /// index. Nothing is journaled: the binding is not durable state.
    pub fn bind_ontology(&mut self, ontology: Arc<Ontology>) {
        self.registry.bind_ontology(ontology);
    }

    /// Takes an explicit checkpoint; returns whether a journal was
    /// attached to take it through.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] from the backend; the previous snapshot then
    /// stays in place.
    pub fn checkpoint(&mut self) -> Result<bool, PersistError> {
        match &mut self.journal {
            Some(journal) => journal.checkpoint(&self.registry).map(|()| true),
            None => Ok(false),
        }
    }

    /// Runs `record` on the journal, when one is attached, after a
    /// mutation that returned `applied`.
    fn journaled<T>(
        &mut self,
        applied: T,
        record: impl FnOnce(&mut RegistryJournal, &ServiceRegistry) -> Result<(), PersistError>,
    ) -> Result<T, Unjournaled<T>> {
        match &mut self.journal {
            Some(journal) => match record(journal, &self.registry) {
                Ok(()) => Ok(applied),
                Err(error) => Err(Unjournaled { applied, error }),
            },
            None => Ok(applied),
        }
    }

    /// The underlying registry.
    pub fn registry(&self) -> &ServiceRegistry {
        &self.registry
    }

    /// The journal (stats, WAL cursor), when one is attached.
    pub fn journal(&self) -> Option<&RegistryJournal> {
        self.journal.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::MemoryBackend;

    fn wal_len(backend: &MemoryBackend) -> usize {
        backend.file(WAL).map_or(0, |wal| wal.len())
    }

    fn desc(i: usize) -> ServiceDescription {
        ServiceDescription::new(format!("s{i}"), "d#F").with_provider("p")
    }

    fn open_mem(backend: &MemoryBackend, every: usize) -> (PersistentRegistry, RecoveryReport) {
        PersistentRegistry::open(
            backend.clone(),
            PersistConfig {
                checkpoint_every: every,
            },
            None,
        )
        .unwrap()
    }

    #[test]
    fn fresh_open_is_empty() {
        let backend = MemoryBackend::new();
        let (pr, report) = open_mem(&backend, 0);
        assert!(pr.registry().is_empty());
        assert_eq!(report, RecoveryReport::default());
        assert!(!report.recovered_anything());
    }

    #[test]
    fn wal_only_recovery_rebuilds_ids_and_cursor() {
        let backend = MemoryBackend::new();
        let (mut pr, _) = open_mem(&backend, 0);
        let a = pr.register(desc(0)).unwrap();
        let b = pr.register(desc(1)).unwrap();
        pr.deregister(a).unwrap();
        let oracle = encode_state(pr.registry());

        let (recovered, report) = open_mem(&backend, 0);
        assert_eq!(report.wal_events_applied, 3);
        assert!(!report.snapshot_loaded);
        assert_eq!(encode_state(recovered.registry()), oracle);
        assert!(recovered.registry().get(a).is_none());
        assert!(recovered.registry().get(b).is_some());
        // A post-recovery registration continues the id sequence.
        let (mut recovered, _) = open_mem(&backend, 0);
        let c = recovered.register(desc(2)).unwrap();
        assert_eq!(c.index(), 2);
    }

    #[test]
    fn checkpoint_truncates_wal() {
        let backend = MemoryBackend::new();
        let (mut pr, _) = open_mem(&backend, 2);
        pr.register(desc(0)).unwrap();
        assert!(wal_len(&backend) > 0);
        pr.register(desc(1)).unwrap(); // auto checkpoint at 2 events
        assert_eq!(wal_len(&backend), 0);
        assert_eq!(pr.journal().unwrap().stats().checkpoints, 1);

        pr.register(desc(2)).unwrap();
        let oracle = encode_state(pr.registry());
        let (recovered, report) = open_mem(&backend, 2);
        assert!(report.snapshot_loaded);
        assert_eq!(report.snapshot_cursor, 2);
        assert_eq!(report.wal_events_applied, 1);
        assert_eq!(encode_state(recovered.registry()), oracle);
        assert!(recovered.registry().index_eq(pr.registry()));
    }

    #[test]
    fn a_reopened_journal_keeps_the_snapshot_schedule() {
        let backend = MemoryBackend::new();
        let (mut live, _) = open_mem(&backend, 2);
        for i in 0..40 {
            live.register(desc(i)).unwrap();
            let (recovered, _) = open_mem(&backend.fork(), 2);
            let (a, b) = (live.journal().unwrap(), recovered.journal().unwrap());
            assert_eq!(
                (a.since_checkpoint, a.snapshot_len, a.wal_since),
                (b.since_checkpoint, b.snapshot_len, b.wal_since),
                "after {} registrations",
                i + 1
            );
        }
        assert!(live.journal().unwrap().stats().checkpoints > 1);
    }

    #[test]
    fn crash_between_snapshot_and_truncate_skips_stale_records() {
        let backend = MemoryBackend::new();
        let (mut pr, _) = open_mem(&backend, 0);
        pr.register(desc(0)).unwrap();
        pr.register(desc(1)).unwrap();
        // Simulate the torn checkpoint: snapshot written, WAL not yet
        // truncated.
        let blob = wal::encode_snapshot(pr.registry().event_cursor() as u64, pr.registry().slots());
        let mut handle = backend.clone();
        handle.create(SNAP, &blob).unwrap();
        let oracle = encode_state(pr.registry());

        let (recovered, report) = open_mem(&backend, 0);
        assert!(report.snapshot_loaded);
        assert_eq!(report.wal_events_skipped, 2);
        assert_eq!(report.wal_events_applied, 0);
        assert_eq!(encode_state(recovered.registry()), oracle);
    }

    #[test]
    fn torn_tail_is_discarded_counted_and_trimmed() {
        let backend = MemoryBackend::new();
        let (mut pr, _) = open_mem(&backend, 0);
        pr.register(desc(0)).unwrap();
        let keep = wal_len(&backend);
        pr.register(desc(1)).unwrap();
        let mut bytes = backend.file(WAL).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        backend.clone().create(WAL, &bytes).unwrap();

        let (recovered, report) = open_mem(&backend, 0);
        assert!(report.torn_tail);
        assert!(report.torn_tail_bytes > 0);
        assert_eq!(report.wal_events_applied, 1);
        assert_eq!(recovered.journal().unwrap().stats().torn_tails, 1);
        assert_eq!(recovered.registry().len(), 1);
        // The stored WAL was trimmed to the valid prefix.
        assert_eq!(wal_len(&backend), keep);
        // Reopening again is clean: no torn tail the second time.
        let (_, report2) = open_mem(&backend, 0);
        assert!(!report2.torn_tail);
        assert_eq!(report2.wal_events_applied, 1);
    }

    #[test]
    fn sequence_gap_is_corrupt_not_partial() {
        let backend = MemoryBackend::new();
        let mut handle = backend.clone();
        let mut frame = Vec::new();
        wal::put_register(&mut frame, 5, ServiceId::from_raw(0), &desc(0));
        handle.append(WAL, &frame).unwrap();
        let err = PersistentRegistry::open(backend, PersistConfig::default(), None)
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, PersistError::Corrupt(_)));
    }

    #[test]
    fn wal_cursor_tracks_event_cursor() {
        let backend = MemoryBackend::new();
        let (mut pr, _) = open_mem(&backend, 0);
        pr.register(desc(0)).unwrap();
        pr.register(desc(1)).unwrap();
        assert_eq!(
            pr.journal().unwrap().wal_cursor(),
            pr.registry().event_cursor() as u64
        );
    }

    #[test]
    fn without_a_journal_mutations_change_memory_only() {
        let mut pr = PersistentRegistry::new(ServiceRegistry::new());
        let id = pr.register(desc(0)).unwrap();
        assert_eq!(pr.checkpoint(), Ok(false));
        assert!(pr.deregister(id).unwrap());
        assert!(!pr.deregister(id).unwrap());
        assert_eq!(pr.registry().event_cursor(), 2);
        assert!(pr.journal().is_none());
    }
}
