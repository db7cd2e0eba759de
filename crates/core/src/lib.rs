//! # QASOM — QoS-aware Service-Oriented Middleware for Pervasive
//! # Environments
//!
//! The facade crate of the middleware: it wires the semantic QoS model
//! ([`qasom_qos`]), the task model ([`qasom_task`]), service discovery
//! ([`qasom_registry`]), the QASSA selection algorithm
//! ([`qasom_selection`]) and the adaptation engine ([`qasom_adaptation`])
//! into the end-to-end pipeline of the original platform:
//!
//! ```text
//! user request ─▶ task lookup ─▶ QoS-aware discovery ─▶ QASSA selection
//!      ─▶ executable composition (dynamic binding)
//!      ─▶ execution + global/proactive monitoring
//!      ─▶ service substitution ─▶ behavioural adaptation
//! ```
//!
//! # Examples
//!
//! ```
//! use qasom::{Environment, UserRequest};
//! use qasom_netsim::runtime::SyntheticService;
//! use qasom_ontology::OntologyBuilder;
//! use qasom_qos::{QosModel, Unit};
//! use qasom_registry::ServiceDescription;
//! use qasom_task::{Activity, TaskNode, UserTask};
//!
//! // 1. A pervasive environment with one service.
//! let mut onto = OntologyBuilder::new("demo");
//! onto.concept("Echo");
//! let mut env = Environment::new(QosModel::standard(), onto.build().unwrap(), 42);
//! let rt = env.model().property("ResponseTime").unwrap();
//! let desc = ServiceDescription::new("echo", "demo#Echo").with_qos(rt, 50.0);
//! let nominal = desc.qos().clone();
//! env.deploy(desc, SyntheticService::new(nominal));
//!
//! // 2. A one-activity task and a request.
//! let task = UserTask::new(
//!     "hello",
//!     TaskNode::activity(Activity::new("echo", "demo#Echo")),
//! )
//! .unwrap();
//! let request = UserRequest::new(task)
//!     .constraint("ResponseTime", 1.0, Unit::Seconds)
//!     .unwrap();
//!
//! // 3. Compose and execute.
//! let composition = env.compose(&request).unwrap();
//! let report = env.execute(composition).unwrap();
//! assert!(report.success);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod composition;
pub mod demo;
mod environment;
mod events;
mod execution;
mod request;
mod shared;

pub use composition::{ComposeError, ExecutableComposition};
pub use environment::{Environment, EnvironmentConfig};
pub use events::{EventLog, EventSink, MiddlewareEvent};
pub use execution::{ExecutionError, ExecutionReport, InvocationRecord};
pub use request::UserRequest;
pub use shared::{ChurnReceipt, RegistryDelta, SharedEnvironment};
