//! Semantic end-to-end QoS model for pervasive environments.
//!
//! This crate implements the first contribution of the QASOM middleware: a
//! QoS model that gives users, service providers and the middleware itself a
//! *shared understanding* of quality in open pervasive environments. It is
//! organised exactly like the four linked ontologies of the original model:
//!
//! * **QoS core** — what a QoS *property* is: its [`Tendency`] (whether
//!   lower or higher values are better), its [`Unit`] and measurement
//!   dimension, its category and the default way it aggregates across a
//!   composition ([`AggregationOp`]).
//! * **Infrastructure QoS** — network- and device-level properties
//!   (latency, bandwidth, packet loss, battery, CPU load, …) that underpin
//!   every service delivered over a pervasive network.
//! * **Service QoS** — application-service properties (response time,
//!   throughput, availability, reliability, price, security, reputation).
//! * **User QoS** — the vocabulary users phrase their requirements in
//!   (delay, total price, …), aligned onto the provider vocabulary through
//!   ontology equivalences so heterogeneous actors still understand each
//!   other.
//!
//! On top of the vocabulary the crate provides the machinery every other
//! QASOM component consumes:
//!
//! * [`QosVector`] — a service's (or composition's) QoS values in canonical
//!   units;
//! * [`Constraint`] / [`ConstraintSet`] — user QoS requirements, with
//!   tendency-aware satisfaction checks;
//! * [`Preferences`] — normalised property weights;
//! * [`Normalizer`] and [`utility`] — min–max
//!   normalisation and the SAW (simple additive weighting) utility used to
//!   rank services and compositions;
//! * [`EndToEnd`] — rules composing service-level and infrastructure-level
//!   QoS into the QoS the user actually perceives.
//!
//! # Examples
//!
//! ```
//! use qasom_qos::{QosModel, QosVector};
//!
//! let model = QosModel::standard();
//! let rt = model.property("ResponseTime").unwrap();
//! let avail = model.property("Availability").unwrap();
//!
//! let mut offered = QosVector::new();
//! offered.set(rt, 120.0); // milliseconds
//! offered.set(avail, 0.98); // ratio
//!
//! // A user asking for "Delay" is understood through the ontology.
//! let delay = model.property("Delay").unwrap();
//! assert!(model.match_property(delay, rt).is_usable());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod constraint;
mod model;
mod normalize;
mod perceived;
mod property;
mod sla;
mod unit;
pub mod utility;
mod vector;

pub use constraint::{Constraint, ConstraintSet};
pub use model::{PropertySpec, QosModel, QosModelBuilder, QosModelError};
pub use normalize::{Normalizer, Scale};
pub use perceived::{EndToEnd, EndToEndRule};
pub use property::{
    AggregationApproach, AggregationOp, Category, Layer, PropertyDef, PropertyId, Tendency,
};
pub use sla::Sla;
pub use unit::{Dimension, ParseUnitError, Unit, UnitError};
pub use utility::Preferences;
pub use vector::QosVector;
