//! QoS-driven composition adaptation for the QASOM middleware.
//!
//! Compositions are selected from *advertised* QoS, but the QoS actually
//! delivered in a pervasive environment fluctuates — services fail, nodes
//! move, links degrade. This crate implements the adaptation pillar of the
//! middleware:
//!
//! * **Global and proactive monitoring** ([`QosMonitor`],
//!   [`CompositionMonitor`]) — sliding-window estimates of each bound
//!   service's delivered QoS plus EWMA trend prediction, aggregated over
//!   the whole running composition so violations are detected (and
//!   *predicted*, before they happen) against the user's global
//!   constraints;
//! * **Service substitution** ([`Substitution`]) — the first-line
//!   strategy: replace the degraded service with a ranked alternate kept
//!   from selection time, re-validating the aggregate;
//! * **Behavioural adaptation** ([`BehaviouralAdapter`], [`homeo`]) —
//!   the fallback when no substitute exists: realise the task through an
//!   *alternative behaviour* of its task class. Whether the executed part
//!   of the old behaviour can be resumed in the new one is decided by an
//!   **order embedding** ([`find_order_embedding`]) of its behavioural
//!   graph: every established precedence must hold in the new behaviour,
//!   with semantic vertex matching, data (I/O) constraints and pinned
//!   start/end vertices. The strict **extended vertex-disjoint subgraph
//!   homeomorphism** ([`find_homeomorphism`]) remains the behavioural
//!   equivalence check.
//!
//! # Examples
//!
//! ```
//! use qasom_adaptation::QosMonitor;
//! use qasom_qos::{QosModel, QosVector};
//! use qasom_registry::{ServiceDescription, ServiceRegistry};
//!
//! let model = QosModel::standard();
//! let rt = model.property("ResponseTime").unwrap();
//! let mut reg = ServiceRegistry::new();
//! let id = reg.register(ServiceDescription::new("s", "d#F"));
//!
//! let mut monitor = QosMonitor::new();
//! for v in [100.0, 110.0, 120.0] {
//!     let mut obs = QosVector::new();
//!     obs.set(rt, v);
//!     monitor.observe(id, &obs);
//! }
//! assert_eq!(monitor.estimate(id).unwrap().get(rt), Some(110.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod behavioural;
pub mod homeo;
mod monitor;
mod substitute;

pub use behavioural::{AdaptationPlan, BehaviouralAdapter};
pub use homeo::{find_homeomorphism, find_order_embedding, Homeomorphism};
pub use monitor::{overlay, CompositionMonitor, QosMonitor, Violation};
pub use substitute::{Substitution, SubstitutionPlan};
