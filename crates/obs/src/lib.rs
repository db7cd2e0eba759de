//! # qasom-obs — deterministic observability for the QASOM middleware
//!
//! The thesis evaluates QASOM through per-phase timings and
//! protocol-level counts (selection latency, distributed message and
//! coverage figures). This crate is the instrumentation seam that makes
//! those quantities visible in the reproduction without ever touching a
//! wall clock: it keeps counters, and the simulated phase times and RTTs
//! stay in the producers' own report sections, so `clippy.toml` bans the
//! wall clock and unordered collections in this crate outright.
//!
//! Three layers:
//!
//! * [`Recorder`] — the trait the pipeline is instrumented against:
//!   `incr` a named counter, `snapshot` them all. Producers hold an
//!   `Option<&dyn Recorder>`; the disabled path is a single branch on
//!   `None` and allocates nothing. [`NoopRecorder`] exists for callers
//!   that want a value rather than an option.
//! * [`MemoryRecorder`] — an in-memory implementation backed by one
//!   ordered map (`BTreeMap`), so a [`MetricsSnapshot`] always
//!   serialises with a stable field order regardless of emission
//!   interleaving.
//! * [`report`] — the one envelope every consumer parses:
//!   [`report::RunReport`] stamps schema, seed and scenario, carries the
//!   counters, and places the `compose`, `execution` and `distributed`
//!   sections as the [`JsonValue`]s their producers write.
//!
//! Serialisation is hand-rolled ([`JsonValue`]) because the workspace
//! is offline and vendors no serde: objects keep insertion order,
//! floats render via Rust's shortest-roundtrip formatter, and the same
//! seed therefore yields a byte-identical report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod json;
pub mod keys;
mod recorder;
pub mod report;

pub use json::{key_paths, JsonValue};
pub use recorder::{MemoryRecorder, MetricsSnapshot, NoopRecorder, Recorder};
