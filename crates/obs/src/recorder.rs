//! The `Recorder` seam and its two standard implementations.
//!
//! Instrumented code never decides *how* telemetry is stored — it calls
//! [`Recorder::incr`] on a `&dyn Recorder` to bump a named monotone
//! counter. Counters are the one plane: a phase time or a per-provider
//! RTT belongs in the producer's own report section, where it is
//! already kept once, not restated here.
//!
//! Producers carry `Option<&dyn Recorder>`: the `None` path is a single
//! predictable branch, performs no allocation and no locking — that is
//! the "compiles to nothing when disabled" contract. [`NoopRecorder`]
//! exists for call sites that want a value rather than an `Option`.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use crate::json::JsonValue;

/// The instrumentation trait the pipeline is written against.
///
/// `Debug` is a supertrait so producers holding an
/// `Option<&dyn Recorder>` can keep deriving `Debug` themselves.
pub trait Recorder: Send + Sync + std::fmt::Debug {
    /// Adds `delta` to the counter `name` (creating it at zero).
    fn incr(&self, name: &str, delta: u64);

    /// A point-in-time copy of every counter so far, if this
    /// implementation retains data ([`MemoryRecorder`] does; the no-op
    /// recorder returns `None`).
    fn snapshot(&self) -> Option<MetricsSnapshot> {
        None
    }
}

/// A recorder that drops everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline]
    fn incr(&self, _name: &str, _delta: u64) {}
}

/// Every counter a [`MemoryRecorder`] has accumulated, sorted by name
/// (`BTreeMap`), so it serialises the same whatever the emission order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Monotone counters by name.
    pub counters: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// Counter value, defaulting to 0 when never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Serialises the snapshot with a stable field order (counters
    /// alphabetical).
    pub fn to_json(&self) -> JsonValue {
        let mut counters = JsonValue::object();
        for (name, value) in &self.counters {
            counters = counters.field(name, *value);
        }
        JsonValue::object().field("counters", counters)
    }
}

/// An in-memory [`Recorder`] suitable for tests, the CLI and the bench
/// binaries. Interior mutability is a single mutex; storage is ordered
/// and counters commute, so serialisation is deterministic whenever the
/// totals are.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    inner: Mutex<MetricsSnapshot>,
}

impl MemoryRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        MemoryRecorder::default()
    }

    fn lock(&self) -> MutexGuard<'_, MetricsSnapshot> {
        // A panic while holding the lock poisons it; the data itself is
        // still coherent (every verb is a single mutation), so recover.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Discards everything recorded so far.
    pub fn reset(&self) {
        *self.lock() = MetricsSnapshot::default();
    }
}

impl Recorder for MemoryRecorder {
    fn incr(&self, name: &str, delta: u64) {
        let mut inner = self.lock();
        // Not `entry`: that would allocate the key on every bump, and a
        // key is new only once.
        match inner.counters.get_mut(name) {
            Some(slot) => *slot = slot.saturating_add(delta),
            None => {
                inner.counters.insert(name.to_owned(), delta);
            }
        }
    }

    fn snapshot(&self) -> Option<MetricsSnapshot> {
        Some(self.lock().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_discards_and_reports_disabled() {
        let r = NoopRecorder;
        r.incr("a", 3);
        assert!(r.snapshot().is_none());
    }

    #[test]
    fn memory_recorder_accumulates() {
        let r = MemoryRecorder::new();
        r.incr("hits", 2);
        r.incr("hits", 3);
        r.incr("cap", u64::MAX);
        r.incr("cap", 1);
        let snap = r.snapshot().expect("memory recorder retains data");
        assert_eq!(snap.counter("hits"), 5);
        assert_eq!(snap.counter("cap"), u64::MAX, "counters saturate");
        assert_eq!(snap.counter("never"), 0);
    }

    #[test]
    fn snapshot_serialises_sorted_and_stable() {
        let r = MemoryRecorder::new();
        r.incr("z.second", 1);
        r.incr("a.first", 1);
        let json = r.snapshot().expect("snapshot").to_json().to_compact();
        assert_eq!(json, r#"{"counters":{"a.first":1,"z.second":1}}"#);
    }
}
