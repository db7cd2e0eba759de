//! Service model, repository and QoS-aware semantic discovery.
//!
//! Pervasive environments are *dynamic service environments*: providers
//! join and leave, and users have no prior knowledge of what is available.
//! This crate provides the middleware's view of that world:
//!
//! * [`ServiceDescription`] — a provider's advertisement: capability
//!   concept, consumed/produced data concepts, advertised QoS
//!   ([`QosVector`]), optional per-operation (*white-box*) QoS, and the
//!   hosting node;
//! * [`ServiceRegistry`] — the service directory, supporting dynamic
//!   registration and departure, each counted by the monotone
//!   [`ServiceRegistry::event_cursor`] (the environment's epoch and the
//!   WAL's sequence numbers);
//! * [`Discovery`] — QoS-aware service discovery: semantic functional
//!   matching (through a domain [`Ontology`]) combined with I/O
//!   compatibility. One entry point, [`Discovery::discover_rows`], takes
//!   a [`DiscoveryQuery`] (white-box matching, the linear-scan oracle)
//!   and writes the per-activity candidate set (`S_i`) the selection
//!   algorithm consumes, one caller-built row per [`Qualified`] service;
//!   [`Discovery::discover`] writes [`DiscoveredCandidate`]s. Registries
//!   [bound](ServiceRegistry::bind_ontology) to the ontology answer
//!   queries from an inverted capability index instead of a full scan.
//!
//! # Examples
//!
//! ```
//! use qasom_ontology::OntologyBuilder;
//! use qasom_qos::QosModel;
//! use qasom_registry::{Discovery, DiscoveryQuery, ServiceDescription, ServiceRegistry};
//! use qasom_task::Activity;
//! use std::sync::Arc;
//!
//! let mut onto = OntologyBuilder::new("shop");
//! let pay = onto.concept("Pay");
//! onto.subconcept("PayByCard", pay);
//! let onto = Arc::new(onto.build().unwrap());
//! let model = QosModel::standard();
//!
//! // Binding the ontology lets the registry maintain a capability index,
//! // so discovery probes the index instead of scanning every service.
//! let mut registry = ServiceRegistry::with_ontology(Arc::clone(&onto));
//! registry.register(ServiceDescription::new("visa", "shop#PayByCard"));
//!
//! let discovery = Discovery::new(&onto, &model);
//! let activity = Activity::new("pay", "shop#Pay");
//! let candidates = discovery.discover(&registry, &DiscoveryQuery::new(&activity));
//! assert_eq!(candidates.len(), 1); // PayByCard plugs into Pay
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod discovery;
pub mod persist;
pub mod qsd;
mod registry;
mod service;

pub use discovery::{DiscoveredCandidate, Discovery, DiscoveryQuery, MatchedVia, Qualified};
pub use registry::{ServiceId, ServiceRegistry};
pub use service::{Operation, ServiceDescription};

pub use qasom_qos::QosVector;

#[doc(no_inline)]
pub use qasom_ontology::Ontology;
