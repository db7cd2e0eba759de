//! Registry persistence & crash recovery: CRC-framed write-ahead log
//! plus snapshot checkpoints, written through a policy-free [`Fs`].
//!
//! The paper assumes an always-on registry; a deployable middleware
//! cannot. This module makes the service directory durable without
//! touching its in-memory representation:
//!
//! * every registration/departure is journaled as a [`WalRecord`]
//!   (`crate::persist::wal`) framed `[len][crc32][payload]` and appended
//!   to a write-ahead log;
//! * every [`PersistConfig::checkpoint_every`] appends the WAL is
//!   synced, which bounds what a power loss can take;
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
//! The file layout and every ordering (which call is followed by which
//! `sync`) live in [`RegistryJournal`] alone. An [`Fs`] only stores
//! bytes; two ship: [`MemoryBackend`] (tests and the `persist-stress`
//! kill-and-replay harness — [`MemoryBackend::fork`] is the crash
//! image) and [`FileBackend`] (a data directory, used by `qasomd
//! --data-dir`).

pub mod codec;
mod journal;
pub mod wal;

use std::collections::BTreeMap;
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

/// The seven file calls the journal writes through, over the files of
/// one directory.
///
/// An implementation stores bytes and nothing else: no call implies
/// another, none is durable on its own. Durability is what `sync` and
/// `sync_dir` promise, and the journal decides when to call them.
/// `append`, `truncate` and `sync` create `name` when it is missing.
pub trait Fs {
    /// Reads the whole file, `None` when it does not exist.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, PersistError>;

    /// Appends `bytes` at the end of the file.
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), PersistError>;

    /// Creates the file holding exactly `bytes`, replacing any old one.
    fn create(&mut self, name: &str, bytes: &[u8]) -> Result<(), PersistError>;

    /// Cuts the file down to its first `len` bytes.
    fn truncate(&mut self, name: &str, len: u64) -> Result<(), PersistError>;

    /// Renames `from` to `to`, replacing `to`.
    fn rename(&mut self, from: &str, to: &str) -> Result<(), PersistError>;

    /// Makes every byte written to the file so far survive a power loss.
    fn sync(&mut self, name: &str) -> Result<(), PersistError>;

    /// Makes the names created and renamed so far survive a power loss.
    fn sync_dir(&mut self) -> Result<(), PersistError>;
}

/// In-memory [`Fs`]: a map from file name to bytes, for tests and the
/// kill-and-replay stress harness. Every call is durable at once.
///
/// `Clone` shares the underlying files (like two handles on the same
/// data directory); [`MemoryBackend::fork`] deep-copies them, which is
/// how the harness captures a crash image at an arbitrary churn point.
#[derive(Debug, Clone, Default)]
pub struct MemoryBackend {
    files: Arc<Mutex<BTreeMap<String, Vec<u8>>>>,
}

impl MemoryBackend {
    /// Creates an empty backend.
    pub fn new() -> Self {
        MemoryBackend::default()
    }

    /// Deep-copies the stored files into an independent backend: the
    /// durable state an abrupt crash at this instant would leave behind.
    pub fn fork(&self) -> Self {
        MemoryBackend {
            files: Arc::new(Mutex::new(self.lock().clone())),
        }
    }

    /// The bytes of file `name`, `None` when it does not exist.
    pub fn file(&self, name: &str) -> Option<Vec<u8>> {
        self.lock().get(name).cloned()
    }

    /// Applies `edit` to file `name`, creating it empty when missing.
    fn edit(&self, name: &str, edit: impl FnOnce(&mut Vec<u8>)) -> Result<(), PersistError> {
        edit(self.lock().entry(name.to_owned()).or_default());
        Ok(())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Vec<u8>>> {
        // Every call is a single map update, so a poisoned lock is still
        // readable state.
        self.files.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Fs for MemoryBackend {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, PersistError> {
        Ok(self.file(name))
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), PersistError> {
        self.edit(name, |file| file.extend_from_slice(bytes))
    }

    fn create(&mut self, name: &str, bytes: &[u8]) -> Result<(), PersistError> {
        self.edit(name, |file| *file = bytes.to_vec())
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), PersistError> {
        self.edit(name, |file| {
            file.truncate(usize::try_from(len).unwrap_or(usize::MAX))
        })
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), PersistError> {
        let mut files = self.lock();
        let bytes = files
            .remove(from)
            .ok_or_else(|| PersistError::Io(format!("{from}: no such file")))?;
        files.insert(to.to_owned(), bytes);
        Ok(())
    }

    fn sync(&mut self, name: &str) -> Result<(), PersistError> {
        self.edit(name, |_| ())
    }

    fn sync_dir(&mut self) -> Result<(), PersistError> {
        Ok(())
    }
}

/// [`Fs`] over a data directory on the local file system.
///
/// It keeps the last file it appended to, truncated or synced open in
/// append mode, so the journal's WAL appends are one `write` each and
/// open no file. Append mode also puts the writes after a truncation at
/// the new end. `create` truncates in place, so an open handle on the
/// same name still reaches the file; `rename` closes the handle, which
/// may be on either name. `sync` is `fdatasync`, which covers a
/// truncation's new length; `sync_dir` fsyncs the directory itself.
#[derive(Debug)]
pub struct FileBackend {
    dir: PathBuf,
    open: Option<(String, fs::File)>,
}

impl FileBackend {
    /// Opens (creating if needed) the data directory `dir`.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] when the directory cannot be created.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, PersistError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(PersistError::io)?;
        Ok(FileBackend { dir, open: None })
    }

    /// The open handle on `name`, opening it (and closing the previous
    /// one) when it is another file.
    fn handle(&mut self, name: &str) -> Result<&mut fs::File, PersistError> {
        let handle = match self.open.take() {
            Some(handle) if handle.0 == name => handle,
            _ => {
                let file = fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(self.dir.join(name))
                    .map_err(PersistError::io)?;
                (name.to_owned(), file)
            }
        };
        Ok(&mut self.open.insert(handle).1)
    }
}

impl Fs for FileBackend {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, PersistError> {
        match fs::read(self.dir.join(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(PersistError::io(e)),
        }
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), PersistError> {
        self.handle(name)?
            .write_all(bytes)
            .map_err(PersistError::io)
    }

    fn create(&mut self, name: &str, bytes: &[u8]) -> Result<(), PersistError> {
        fs::write(self.dir.join(name), bytes).map_err(PersistError::io)
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), PersistError> {
        self.handle(name)?.set_len(len).map_err(PersistError::io)
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), PersistError> {
        self.open = None;
        fs::rename(self.dir.join(from), self.dir.join(to)).map_err(PersistError::io)
    }

    fn sync(&mut self, name: &str) -> Result<(), PersistError> {
        self.handle(name)?.sync_data().map_err(PersistError::io)
    }

    fn sync_dir(&mut self) -> Result<(), PersistError> {
        fs::File::open(&self.dir)
            .and_then(|d| d.sync_all())
            .map_err(PersistError::io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_clone_shares_fork_copies() {
        let mut a = MemoryBackend::new();
        a.append("f", b"abc").unwrap();
        let mut shared = a.clone();
        shared.append("f", b"def").unwrap();
        assert_eq!(a.file("f").unwrap(), b"abcdef");

        let crash = a.fork();
        a.truncate("f", 2).unwrap();
        assert_eq!(crash.file("f").unwrap(), b"abcdef");
        assert_eq!(a.file("f").unwrap(), b"ab");
        a.rename("f", "g").unwrap();
        assert_eq!((a.file("f"), a.file("g").unwrap()), (None, b"ab".to_vec()));
    }

    #[test]
    fn file_backend_round_trips_and_truncates() {
        let dir = std::env::temp_dir().join(format!("qasom-persist-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut b = FileBackend::open(&dir).unwrap();
        assert_eq!(b.read("log").unwrap(), None);
        b.append("log", b"one").unwrap();
        b.append("log", b"two").unwrap();
        assert_eq!(b.read("log").unwrap().unwrap(), b"onetwo");
        b.create("new", b"snap").unwrap();
        b.sync("new").unwrap();
        b.rename("new", "old").unwrap();
        b.sync_dir().unwrap();
        assert_eq!(b.read("new").unwrap(), None);
        assert_eq!(b.read("old").unwrap().unwrap(), b"snap");
        // A partial truncation keeps the prefix; appends continue after it.
        b.truncate("log", 4).unwrap();
        b.append("log", b"+").unwrap();
        assert_eq!(b.read("log").unwrap().unwrap(), b"onet+");
        b.truncate("log", 0).unwrap();
        b.sync("log").unwrap();
        assert!(b.read("log").unwrap().unwrap().is_empty());
        b.append("log", b"three").unwrap();
        // Reopen: appends continue where the file left off.
        drop(b);
        let mut b = FileBackend::open(&dir).unwrap();
        b.append("log", b"!").unwrap();
        assert_eq!(b.read("log").unwrap().unwrap(), b"three!");
        let _ = fs::remove_dir_all(&dir);
    }
}
