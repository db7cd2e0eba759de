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
//!   constraints. A [`CompositionMonitor`] borrows the running
//!   composition, and each check returns one [`Assessment`]: the
//!   believed QoS per activity, its aggregate and the violations. Each
//!   service's window means and SLA compliance settle into one
//!   [`QosEstimate`], which every composition ranks it on and every
//!   check and substitution plan believes of it;
//! * **Service substitution**
//!   ([`CompositionMonitor::plan_substitution`]) — the first-line
//!   strategy: from a check's assessment, replace the degraded service
//!   with a ranked alternate kept from selection time, re-validating the
//!   aggregate;
//! * **Behavioural adaptation** ([`BehaviouralAdapter`], [`homeo`]) —
//!   the fallback when no substitute exists: realise the task through an
//!   *alternative behaviour* of its task class. Whether the executed part
//!   of the old behaviour can be resumed in the new one is decided by an
//!   **order embedding** ([`find_order_embedding`]) of its behavioural
//!   graph: every established precedence must hold in the new behaviour,
//!   with semantic vertex matching, data (I/O) constraints and pinned
//!   start/end vertices. The strict **extended vertex-disjoint subgraph
//!   homeomorphism** ([`find_homeomorphism`]), the thesis's behavioural
//!   equivalence check, is kept but has no caller outside its tests.
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
//!     monitor.observe(&model, id, &obs);
//! }
//! // Compose, the completion check and the substitution planner all
//! // read one estimate: the window mean from the first delivery on…
//! assert_eq!(monitor.qos_estimate(id).unwrap().get(rt), Some(110.0));
//! // …and the proactive check reads the trend, which predicts the next
//! // delivery above it.
//! assert!(monitor.predict(id).unwrap().get(rt).unwrap() > 110.0);
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
pub use monitor::{Assessment, CompositionMonitor, QosEstimate, QosMonitor, Violation};
pub use substitute::SubstitutionPlan;
