//! Static analysis for the QASOM middleware.
//!
//! The domain analyzer ([`Analyzer`]) validates composition requests
//! and provider QoS specifications *before* discovery and selection,
//! emitting structured [`Diagnostic`]s with stable `QA0xx` codes. A
//! malformed task graph, a unit-mismatched constraint or an
//! unsatisfiable SLA is rejected at the front door instead of
//! surfacing as a runtime failure deep inside QASSA.
//!
//! The crate sits *below* `qasom-registry`, `qasom-selection` and the
//! core in the dependency graph (it depends only on the ontology, QoS,
//! task and obs crates), so both request composition and QSD ingestion
//! can call into it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod analyzer;
mod diag;

pub use analyzer::{Analyzer, OperationView, RequestSpec, ServiceView};
pub use diag::{has_errors, partition, Diagnostic, DiagnosticCode, Location, Severity};
