//! The `Recorder` seam and its two standard implementations.
//!
//! Instrumented code never decides *how* telemetry is stored — it calls
//! one of three verbs on a `&dyn Recorder`:
//!
//! * [`Recorder::incr`] — bump a named monotone counter,
//! * [`Recorder::observe`] — add a sample to a named fixed-bucket
//!   histogram,
//! * [`Recorder::span`] — record a named interval keyed on **logical or
//!   simulated time supplied by the caller** (activity counts, netsim
//!   microseconds). Wall-clock time never enters this crate, which is
//!   what lets its `clippy.toml` ban the wall clock.
//!
//! Producers carry `Option<&dyn Recorder>`: the `None` path is a single
//! predictable branch, performs no allocation and no locking — that is
//! the "compiles to nothing when disabled" contract. [`NoopRecorder`]
//! exists for call sites that want a value rather than an `Option`.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, MutexGuard};

use crate::json::JsonValue;
use crate::keys;

/// Default histogram bounds, in (simulated) milliseconds: a 1-2.5-5
/// ladder wide enough for both per-provider RTTs and end-to-end phase
/// durations. An implicit overflow bucket catches everything above.
pub const DEFAULT_BUCKETS_MS: [f64; 12] = [
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
];

/// Spans a [`MemoryRecorder`] retains: the most recent this many. A
/// daemon keeps one recorder for its whole life and every session emits
/// a span, so without a cap its memory (and every snapshot's clone)
/// grows with the number of sessions ever served. Evictions are counted
/// under [`keys::OBS_SPANS_DROPPED`].
pub const MAX_RETAINED_SPANS: usize = 1024;

/// The instrumentation trait the pipeline is written against.
///
/// `Debug` is a supertrait so producers holding an
/// `Option<&dyn Recorder>` can keep deriving `Debug` themselves.
pub trait Recorder: Send + Sync + std::fmt::Debug {
    /// Adds `delta` to the counter `name` (creating it at zero).
    fn incr(&self, name: &str, delta: u64);

    /// Adds one sample to the histogram `name`.
    fn observe(&self, name: &str, value: f64);

    /// Records the interval `[start, end]` for the span `name`. The
    /// unit is whatever logical clock the caller uses (simulated
    /// microseconds for netsim, evaluation counts for selection) —
    /// never wall-clock time.
    fn span(&self, name: &str, start: u64, end: u64);

    /// Whether this recorder retains anything. Producers may skip
    /// building expensive labels when `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// A point-in-time copy of everything recorded so far, if this
    /// implementation retains data ([`MemoryRecorder`] does; the no-op
    /// recorder returns `None`).
    fn snapshot(&self) -> Option<MetricsSnapshot> {
        None
    }
}

/// A recorder that drops everything. [`Recorder::enabled`] is `false`,
/// so instrumented code can skip work before even calling in.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline]
    fn incr(&self, _name: &str, _delta: u64) {}
    #[inline]
    fn observe(&self, _name: &str, _value: f64) {}
    #[inline]
    fn span(&self, _name: &str, _start: u64, _end: u64) {}
    #[inline]
    fn enabled(&self) -> bool {
        false
    }
}

/// A fixed-bucket histogram (Prometheus-style cumulative-free layout:
/// `counts[i]` is the number of samples `<= bounds[i]`, with one
/// overflow bucket at the end).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// A histogram over the given ascending upper bounds (plus an
    /// implicit overflow bucket).
    pub fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn record(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
        if value < self.min {
            self.min = value;
        }
        if value > self.max {
            self.max = value;
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean sample, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// The configured upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Serialises the histogram with a stable field order.
    pub fn to_json(&self) -> JsonValue {
        let buckets = self
            .bounds
            .iter()
            .map(|b| JsonValue::from(*b))
            .chain(std::iter::once(JsonValue::Null))
            .zip(self.counts.iter())
            .map(|(le, n)| JsonValue::object().field("le", le).field("count", *n))
            .collect::<Vec<_>>();
        JsonValue::object()
            .field("count", self.count)
            .field("sum", self.sum)
            .field("min", if self.count == 0 { 0.0 } else { self.min })
            .field("max", if self.count == 0 { 0.0 } else { self.max })
            .field("buckets", buckets)
    }
}

/// One recorded span: a named interval on the caller's logical clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span name (dotted, like counter names).
    pub name: String,
    /// Interval start on the caller's logical clock.
    pub start: u64,
    /// Interval end (`>= start` by convention, not enforced).
    pub end: u64,
}

impl SpanRecord {
    /// Interval length (saturating, so malformed spans read as 0).
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Serialises the span with a stable field order.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .field("name", self.name.as_str())
            .field("start", self.start)
            .field("end", self.end)
    }
}

/// Everything a [`MemoryRecorder`] has accumulated, in deterministic
/// order: counters and histograms sorted by name (`BTreeMap`), spans in
/// emission order (the most recent [`MAX_RETAINED_SPANS`] of them).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Monotone counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Fixed-bucket histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Spans in the order they were recorded.
    pub spans: VecDeque<SpanRecord>,
}

impl MetricsSnapshot {
    /// Counter value, defaulting to 0 when never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Serialises the snapshot with a stable field order (counters and
    /// histograms alphabetical, spans in emission order).
    pub fn to_json(&self) -> JsonValue {
        let mut counters = JsonValue::object();
        for (name, value) in &self.counters {
            counters = counters.field(name, *value);
        }
        let mut histograms = JsonValue::object();
        for (name, hist) in &self.histograms {
            histograms = histograms.field(name, hist.to_json());
        }
        let spans = self
            .spans
            .iter()
            .map(SpanRecord::to_json)
            .collect::<Vec<_>>();
        JsonValue::object()
            .field("counters", counters)
            .field("histograms", histograms)
            .field("spans", spans)
    }
}

/// An in-memory [`Recorder`] suitable for tests, the CLI and the bench
/// binaries. Interior mutability is a single mutex; all storage is
/// ordered, so serialisation is deterministic whenever the *totals* are
/// (counters commute; histogram sums require a deterministic emission
/// order, which the sequential orchestration paths guarantee).
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    inner: Mutex<MetricsSnapshot>,
}

impl MemoryRecorder {
    /// A recorder using [`DEFAULT_BUCKETS_MS`] for new histograms.
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
        let slot = inner.counters.entry(name.to_owned()).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    fn observe(&self, name: &str, value: f64) {
        let mut inner = self.lock();
        inner
            .histograms
            .entry(name.to_owned())
            .or_insert_with(|| Histogram::new(&DEFAULT_BUCKETS_MS))
            .record(value);
    }

    fn span(&self, name: &str, start: u64, end: u64) {
        let mut inner = self.lock();
        if inner.spans.len() == MAX_RETAINED_SPANS {
            inner.spans.pop_front();
            // Not `entry`: a full buffer evicts on every span, and the
            // key should be allocated once, not per eviction.
            match inner.counters.get_mut(keys::OBS_SPANS_DROPPED) {
                Some(dropped) => *dropped = dropped.saturating_add(1),
                None => {
                    inner.counters.insert(keys::OBS_SPANS_DROPPED.to_owned(), 1);
                }
            }
        }
        inner.spans.push_back(SpanRecord {
            name: name.to_owned(),
            start,
            end,
        });
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
        r.observe("b", 1.0);
        r.span("c", 0, 5);
        assert!(!r.enabled());
        assert!(r.snapshot().is_none());
    }

    #[test]
    fn memory_recorder_accumulates() {
        let r = MemoryRecorder::new();
        r.incr("hits", 2);
        r.incr("hits", 3);
        r.observe("rtt", 4.0);
        r.observe("rtt", 400.0);
        r.span("phase", 10, 30);
        let snap = r.snapshot().expect("memory recorder retains data");
        assert_eq!(snap.counter("hits"), 5);
        let h = &snap.histograms["rtt"];
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 404.0);
        assert_eq!(
            snap.spans,
            vec![SpanRecord {
                name: "phase".into(),
                start: 10,
                end: 30
            }]
        );
        assert_eq!(snap.spans[0].duration(), 20);
    }

    #[test]
    fn spans_beyond_the_cap_evict_the_oldest_and_are_counted() {
        let r = MemoryRecorder::new();
        for i in 0..MAX_RETAINED_SPANS as u64 {
            r.span("s", i, i);
        }
        let full = r.snapshot().expect("snapshot");
        assert_eq!(full.spans.len(), MAX_RETAINED_SPANS);
        assert!(
            !full.counters.contains_key(keys::OBS_SPANS_DROPPED),
            "the counter must not exist before the first eviction"
        );

        r.span("s", MAX_RETAINED_SPANS as u64, MAX_RETAINED_SPANS as u64);
        let over = r.snapshot().expect("snapshot");
        assert_eq!(over.spans.len(), MAX_RETAINED_SPANS);
        assert_eq!(over.spans[0].start, 1, "the oldest span went first");
        assert_eq!(
            over.spans[MAX_RETAINED_SPANS - 1].start,
            MAX_RETAINED_SPANS as u64
        );
        assert_eq!(over.counter(keys::OBS_SPANS_DROPPED), 1);
    }

    #[test]
    fn histogram_buckets_including_overflow() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.record(0.5);
        h.record(1.0); // boundary lands in the `<= 1.0` bucket
        h.record(5.0);
        h.record(100.0); // overflow
        assert_eq!(h.bucket_counts(), &[2, 1, 1]);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn snapshot_serialises_sorted_and_stable() {
        let r = MemoryRecorder::new();
        r.incr("z.second", 1);
        r.incr("a.first", 1);
        let json = r.snapshot().expect("snapshot").to_json().to_compact();
        let a = json.find("a.first").expect("a.first present");
        let z = json.find("z.second").expect("z.second present");
        assert!(a < z, "counters must serialise alphabetically");
    }

    #[test]
    fn empty_histogram_serialises_zero_min_max() {
        let h = Histogram::new(&[1.0]);
        let json = h.to_json().to_compact();
        assert!(json.contains("\"min\":0.0"));
        assert!(json.contains("\"max\":0.0"));
    }
}
