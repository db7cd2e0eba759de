//! Facade crate for the QASOM reproduction workspace.
//!
//! This package hosts the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`). The actual middleware lives in
//! the [`qasom`] crate and its substrates; this facade re-exports them so
//! examples and tests can use a single import root.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub use qasom;
pub use qasom_adaptation as adaptation;
pub use qasom_netsim as netsim;
pub use qasom_ontology as ontology;
pub use qasom_qos as qos;
pub use qasom_registry as registry;
pub use qasom_selection as selection;
pub use qasom_task as task;
