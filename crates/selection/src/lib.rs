//! QASSA — the QoS-aware service selection algorithm of QASOM — together
//! with its aggregation engine, baselines, workload generators and the
//! distributed variant for ad hoc environments.
//!
//! Selecting one concrete service per abstract activity such that the
//! *aggregated* QoS of the whole composition meets the user's global QoS
//! constraints is NP-hard. QASSA is the efficient heuristic the original
//! middleware contributes; it runs in two phases:
//!
//! 1. **Local selection** ([`local`]): per activity, candidate services
//!    are clustered per QoS property with 1-D K-means into ranked quality
//!    bands; band memberships are combined into **QoS levels** and **QoS
//!    classes**, producing a ranked hierarchy of candidates
//!    ([`QosLevels`]).
//! 2. **Global selection** ([`Qassa`]): a level-wise search assembles one
//!    service per activity starting from the best QoS level, checks the
//!    aggregated QoS ([`Aggregator`]) against the global constraints,
//!    repairs violations by utility-aware swaps, and descends to broader
//!    levels only when needed.
//!
//! The crate also provides:
//!
//! * [`baseline`] — exhaustive (exact optimum), greedy and random
//!   selectors, used for the optimality measurements of the evaluation;
//! * [`workload`] — the normally-distributed synthetic QoS workloads the
//!   figures are generated from;
//! * [`distributed`] — QASSA split across the nodes of a simulated ad hoc
//!   network (local selection on providers, global selection on the
//!   requesting device).
//!
//! # Examples
//!
//! ```
//! use qasom_qos::QosModel;
//! use qasom_selection::workload::WorkloadSpec;
//! use qasom_selection::{AggregationApproach, Qassa};
//!
//! let model = QosModel::standard();
//! let workload = WorkloadSpec::evaluation_default().build(&model, 42);
//! let qassa = Qassa::new(&model);
//! let outcome = qassa.select(&workload.problem()).unwrap();
//! assert!(outcome.feasible);
//! # let _ = AggregationApproach::MeanValue;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod aggregate;
pub mod baseline;
mod candidate;
pub mod distributed;
mod global;
mod kmeans;
pub mod local;
pub mod workload;

pub use aggregate::Aggregator;
pub use candidate::{SelectionProblem, ServiceCandidate};
pub use global::{Qassa, QassaConfig, SelectionError, SelectionOutcome};
pub use kmeans::{kmeans_1d_with, KmeansScratch, MAX_CLUSTERS};
pub use local::{LocalRank, LocalScratch, QosColumns, QosLevels, RankedCandidate};
pub use qasom_qos::AggregationApproach;
