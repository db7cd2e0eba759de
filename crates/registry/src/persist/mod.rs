//! Registry persistence & crash recovery: CRC-framed write-ahead log
//! plus snapshot checkpoints behind a [`Persistence`] trait.
//!
//! The paper assumes an always-on registry; a deployable middleware
//! cannot. This module makes the service directory durable without
//! touching its in-memory representation:
//!
//! * every registration/departure is journaled as a [`WalRecord`]
//!   (`crate::persist::wal`) framed `[len][crc32][payload]` and appended
//!   to a write-ahead log through a [`Persistence`] backend;
//! * every [`PersistConfig::checkpoint_every`] appends the WAL is
//!   synced ([`Persistence::sync_wal`]), which bounds what a power loss
//!   can take;
//! * once the WAL has grown past the last snapshot's size (and by at
//!   least `checkpoint_every` events), a full
//!   [snapshot](wal::encode_snapshot) of the slot vector is checkpointed
//!   and the WAL truncated ([`RegistryJournal::checkpoint`]), which
//!   bounds what a boot replays;
//! * on boot, replay = latest valid snapshot + WAL tail
//!   ([`RegistryJournal::open`]). A torn tail — short header, short
//!   payload or CRC mismatch — is detected, counted and discarded
//!   whole; valid records before it are kept, bytes after it are never
//!   replayed partially.
//!
//! Two backends ship: [`MemoryBackend`] (tests and the
//! `persist-stress` kill-and-replay harness — [`MemoryBackend::fork`]
//! is the crash image) and [`FileBackend`] (a data directory holding
//! `registry.wal` and `registry.snap`, used by `qasomd --data-dir`).

pub mod codec;
mod journal;
pub mod wal;

use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

pub use journal::{
    encode_state, PersistConfig, PersistStats, PersistentRegistry, RecoveryReport, RegistryJournal,
};
pub use wal::WalRecord;

/// Failure of a persistence operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The storage layer failed (filesystem error, rendered as text so
    /// the error stays `Clone`/`PartialEq` for tests).
    Io(String),
    /// Stored bytes do not decode to a consistent registry history:
    /// bad magic/version, a codec underrun inside a CRC-valid frame, a
    /// replay sequence gap or a replayed id mismatch. Torn *tails* are
    /// not errors — they are discarded and reported instead.
    Corrupt(String),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persistence I/O error: {e}"),
            PersistError::Corrupt(e) => write!(f, "persistent registry state corrupt: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl PersistError {
    fn io(e: std::io::Error) -> Self {
        PersistError::Io(e.to_string())
    }
}

/// Storage abstraction the registry journal writes through.
///
/// A backend owns two byte streams: an append-only WAL and a
/// single-slot snapshot.
///
/// Appends need not be durable on their own: the journal calls
/// `sync_wal` every [`PersistConfig::checkpoint_every`] appends, and
/// that is the power-loss window. Snapshots are independent of it:
/// the journal writes one when the WAL has outgrown the last.
///
/// Implementations must make `write_snapshot` atomic (readers see the
/// old snapshot or the new one, never a mix); the journal orders
/// operations so that a crash between `write_snapshot` and
/// `truncate_wal` is recoverable (stale WAL records are skipped by
/// sequence number on replay).
///
/// That ordering only holds if `write_snapshot` is durable before it
/// returns. A checkpoint is therefore, in this order: write and fsync
/// the new snapshot, install it (rename), make the installation durable
/// (fsync the directory), and only then `truncate_wal` (truncate and
/// fsync the WAL). If the WAL truncation could become durable while the
/// snapshot installation was not, a power loss would boot the older
/// snapshot over an empty WAL and silently drop every event in between.
pub trait Persistence {
    /// Appends raw bytes (one or more complete frames) to the WAL.
    fn append_wal(&mut self, bytes: &[u8]) -> Result<(), PersistError>;

    /// Makes every byte appended so far durable: a power loss after
    /// this returns `Ok` keeps them.
    fn sync_wal(&mut self) -> Result<(), PersistError>;

    /// Reads the entire WAL back, including any torn tail.
    fn wal_bytes(&self) -> Result<Vec<u8>, PersistError>;

    /// Durably cuts the WAL down to its first `len` bytes in one step:
    /// `0` after a durable snapshot, the valid prefix when recovery
    /// trims a torn tail. Later appends continue at the new end.
    fn truncate_wal(&mut self, len: u64) -> Result<(), PersistError>;

    /// Atomically and durably replaces the snapshot: when this returns
    /// `Ok`, a power loss can no longer bring the previous one back.
    fn write_snapshot(&mut self, blob: &[u8]) -> Result<(), PersistError>;

    /// Reads the current snapshot, `None` when none was ever written.
    fn snapshot_bytes(&self) -> Result<Option<Vec<u8>>, PersistError>;
}

#[derive(Debug, Default)]
struct MemoryState {
    wal: Vec<u8>,
    snapshot: Option<Vec<u8>>,
}

/// In-memory [`Persistence`] backend for tests and the kill-and-replay
/// stress harness.
///
/// `Clone` shares the underlying storage (like two handles on the same
/// data directory); [`MemoryBackend::fork`] deep-copies it, which is
/// how the harness captures a crash image at an arbitrary churn point.
#[derive(Debug, Clone, Default)]
pub struct MemoryBackend {
    state: Arc<Mutex<MemoryState>>,
}

impl MemoryBackend {
    /// Creates an empty backend.
    pub fn new() -> Self {
        MemoryBackend::default()
    }

    /// Deep-copies the stored bytes into an independent backend: the
    /// durable state an abrupt crash at this instant would leave behind.
    pub fn fork(&self) -> Self {
        let state = self.lock();
        MemoryBackend {
            state: Arc::new(Mutex::new(MemoryState {
                wal: state.wal.clone(),
                snapshot: state.snapshot.clone(),
            })),
        }
    }

    /// Replaces the raw WAL bytes — corruption injection for torn-tail
    /// tests (bit flips, truncation at arbitrary byte offsets).
    pub fn set_wal(&self, bytes: Vec<u8>) {
        self.lock().wal = bytes;
    }

    /// Current WAL length in bytes.
    pub fn wal_len(&self) -> usize {
        self.lock().wal.len()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemoryState> {
        // A panic mid-append leaves whole frames (appends are single
        // extends), so a poisoned lock is still readable state.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Persistence for MemoryBackend {
    fn append_wal(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        self.lock().wal.extend_from_slice(bytes);
        Ok(())
    }

    fn sync_wal(&mut self) -> Result<(), PersistError> {
        Ok(())
    }

    fn wal_bytes(&self) -> Result<Vec<u8>, PersistError> {
        Ok(self.lock().wal.clone())
    }

    fn truncate_wal(&mut self, len: u64) -> Result<(), PersistError> {
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        self.lock().wal.truncate(len);
        Ok(())
    }

    fn write_snapshot(&mut self, blob: &[u8]) -> Result<(), PersistError> {
        self.lock().snapshot = Some(blob.to_vec());
        Ok(())
    }

    fn snapshot_bytes(&self) -> Result<Option<Vec<u8>>, PersistError> {
        Ok(self.lock().snapshot.clone())
    }
}

/// File-system [`Persistence`] backend: a data directory holding
/// `registry.wal` (append-only) and `registry.snap` (replaced via
/// write-to-temporary + rename, so a crash mid-checkpoint leaves the
/// previous snapshot intact).
///
/// WAL appends are flushed but not fsynced per record: `sync_wal`
/// (`sync_data` on `registry.wal`) is the group commit, every
/// [`PersistConfig::checkpoint_every`] appends. A power loss can
/// therefore lose the unsynced events and tear the WAL tail — exactly
/// the case recovery discards cleanly. The directory itself is fsynced
/// after each rename and after the WAL is created, so the entries the
/// files are reached by are durable too.
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
    wal: fs::File,
}

impl FileBackend {
    /// Opens (creating if needed) the data directory `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError::Io`] when the directory or WAL file
    /// cannot be created or opened.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, PersistError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(PersistError::io)?;
        let wal = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(dir.join("registry.wal"))
            .map_err(PersistError::io)?;
        sync_dir(&dir)?;
        Ok(FileBackend { dir, wal })
    }

    /// The data directory this backend stores into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn snap_path(&self) -> PathBuf {
        self.dir.join("registry.snap")
    }
}

impl Persistence for FileBackend {
    fn append_wal(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        self.wal.write_all(bytes).map_err(PersistError::io)?;
        self.wal.flush().map_err(PersistError::io)
    }

    fn sync_wal(&mut self) -> Result<(), PersistError> {
        self.wal.sync_data().map_err(PersistError::io)
    }

    fn wal_bytes(&self) -> Result<Vec<u8>, PersistError> {
        fs::read(self.dir.join("registry.wal")).map_err(PersistError::io)
    }

    fn truncate_wal(&mut self, len: u64) -> Result<(), PersistError> {
        // The handle is in append mode, so later writes land at the new
        // end after the truncation.
        self.wal.set_len(len).map_err(PersistError::io)?;
        self.wal.sync_all().map_err(PersistError::io)
    }

    fn write_snapshot(&mut self, blob: &[u8]) -> Result<(), PersistError> {
        let tmp = self.dir.join("registry.snap.tmp");
        let mut file = fs::File::create(&tmp).map_err(PersistError::io)?;
        file.write_all(blob).map_err(PersistError::io)?;
        file.sync_all().map_err(PersistError::io)?;
        drop(file);
        fs::rename(&tmp, self.snap_path()).map_err(PersistError::io)?;
        sync_dir(&self.dir)
    }

    fn snapshot_bytes(&self) -> Result<Option<Vec<u8>>, PersistError> {
        match fs::read(self.snap_path()) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(PersistError::io(e)),
        }
    }
}

/// Fsyncs the directory `dir`, making the entries created or renamed
/// in it durable (a file's own fsync does not cover its name).
fn sync_dir(dir: &Path) -> Result<(), PersistError> {
    fs::File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(PersistError::io)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_clone_shares_fork_copies() {
        let mut a = MemoryBackend::new();
        a.append_wal(b"abc").unwrap();
        let mut shared = a.clone();
        shared.append_wal(b"def").unwrap();
        assert_eq!(a.wal_bytes().unwrap(), b"abcdef");

        let crash = a.fork();
        a.truncate_wal(2).unwrap();
        assert_eq!(crash.wal_bytes().unwrap(), b"abcdef");
        assert_eq!(a.wal_bytes().unwrap(), b"ab");
    }

    #[test]
    fn file_backend_round_trips_and_truncates() {
        let dir = std::env::temp_dir().join(format!("qasom-persist-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut b = FileBackend::open(&dir).unwrap();
        assert_eq!(b.snapshot_bytes().unwrap(), None);
        b.append_wal(b"one").unwrap();
        b.append_wal(b"two").unwrap();
        assert_eq!(b.wal_bytes().unwrap(), b"onetwo");
        b.write_snapshot(b"snap").unwrap();
        assert_eq!(b.snapshot_bytes().unwrap().as_deref(), Some(&b"snap"[..]));
        // A partial truncation keeps the prefix; appends continue after it.
        b.truncate_wal(4).unwrap();
        b.append_wal(b"+").unwrap();
        assert_eq!(b.wal_bytes().unwrap(), b"onet+");
        b.truncate_wal(0).unwrap();
        assert!(b.wal_bytes().unwrap().is_empty());
        b.append_wal(b"three").unwrap();
        // Reopen: appends continue where the file left off.
        drop(b);
        let mut b = FileBackend::open(&dir).unwrap();
        b.append_wal(b"!").unwrap();
        assert_eq!(b.wal_bytes().unwrap(), b"three!");
        let _ = fs::remove_dir_all(&dir);
    }
}
