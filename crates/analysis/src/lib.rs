//! Static analysis for the QASOM middleware.
//!
//! Two coordinated layers (ISSUE 3):
//!
//! 1. **Domain analyzer** ([`Analyzer`]) — validates composition
//!    requests and provider QoS specifications *before* discovery and
//!    selection, emitting structured [`Diagnostic`]s with stable
//!    `QA0xx` codes. A malformed task graph, a unit-mismatched
//!    constraint or an unsatisfiable SLA is rejected at the front door
//!    instead of surfacing as a runtime failure deep inside QASSA.
//! 2. **Source lint** ([`lint`], plus the `qasom-lint` binary) — an
//!    offline token scanner enforcing workspace invariants: no
//!    wall-clock reads or iteration-order-randomised collections on
//!    simulated paths, and no new `.unwrap()` / `.expect(` in library
//!    code (existing debt is carried in `lint-baseline.txt`). ISSUE 8
//!    upgrades it with a scope-aware QA1xx lock-discipline family
//!    ([`locks`], driven by the [`lexer`] token stream).
//!
//! The crate sits *below* `qasom-registry`, `qasom-selection` and the
//! core in the dependency graph (it depends only on the ontology, QoS,
//! task and obs crates), so both request composition and QSD ingestion
//! can call into it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyzer;
mod diag;
pub mod lexer;
pub mod lint;
pub mod locks;

pub use analyzer::{Analyzer, ApproachKind, OperationView, RequestSpec, ServiceView};
pub use diag::{has_errors, partition, Diagnostic, DiagnosticCode, Location, Severity};
