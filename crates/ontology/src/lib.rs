//! Lightweight semantic substrate for the QASOM middleware.
//!
//! The original system expressed its QoS vocabularies as OWL ontologies and
//! relied on a description-logic reasoner for aligning the QoS *required* by
//! users with the QoS *offered* by service providers. The alignment the
//! middleware actually needs is subsumption-style reasoning over a concept
//! taxonomy plus cross-vocabulary equivalence links — which is exactly what
//! this crate provides, without dragging in a full OWL stack:
//!
//! * [`Iri`] — namespaced concept identifiers (`ns#local`).
//! * [`Ontology`] / [`OntologyBuilder`] — a concept taxonomy (a DAG of
//!   `subClassOf` edges) with labels, equivalence classes and fast
//!   reachability queries.
//! * [`MatchDegree`] — the classical semantic matching lattice
//!   (exact / plug-in / subsumes / intersection / fail) used by QoS-aware
//!   service discovery.
//! * Similarity measures (edge distance, Wu–Palmer) used to rank inexact
//!   matches.
//!
//! # Examples
//!
//! ```
//! use qasom_ontology::{MatchDegree, OntologyBuilder};
//!
//! let mut b = OntologyBuilder::new("qos");
//! let quality = b.concept("Quality");
//! let latency = b.subconcept("Latency", quality);
//! let rtt = b.subconcept("RoundTripTime", latency);
//! let onto = b.build().unwrap();
//!
//! assert!(onto.is_subconcept_of(rtt, latency));
//! assert_eq!(onto.match_degree(latency, rtt), MatchDegree::PlugIn);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod iri;
mod matching;
mod ontology;
mod similarity;

pub use iri::Iri;
pub use matching::MatchDegree;
pub use ontology::{ConceptId, Ontology, OntologyBuilder, OntologyError};
pub use similarity::Similarity;
