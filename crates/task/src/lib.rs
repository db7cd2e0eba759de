//! User-task model of the QASOM middleware.
//!
//! A pervasive user phrases a request as an *abstract task*: a hierarchy of
//! [`Activity`] nodes composed by the four classical patterns — sequence,
//! parallel (BPEL `flow`), choice (`if`) and loop (`while`). This crate
//! provides:
//!
//! * the task AST ([`TaskNode`], [`UserTask`]) with validation and
//!   traversal;
//! * the **abstract BPEL** dialect the original platform used to specify
//!   tasks: an XML subset with a hand-written parser/printer
//!   ([`bpel::parse`], [`bpel::print`]) — no external XML stack;
//! * the transformation of a task into a **behavioural graph**
//!   ([`BehaviouralGraph::from_task`]): the labelled DAG (after loop
//!   simplification) on which behavioural adaptation performs its subgraph
//!   homeomorphism test;
//! * the **task class** concept ([`TaskClass`], [`TaskClassRepository`]):
//!   sets of behaviourally equivalent task structures the middleware can
//!   fall back on when a running composition can no longer be repaired by
//!   service substitution.
//!
//! # Examples
//!
//! ```
//! use qasom_task::{Activity, BehaviouralGraph, TaskNode, UserTask};
//!
//! let task = UserTask::new(
//!     "shopping",
//!     TaskNode::sequence([
//!         TaskNode::activity(Activity::new("browse", "shop#Browse")),
//!         TaskNode::parallel([
//!             TaskNode::activity(Activity::new("buy-book", "shop#BuyBook")),
//!             TaskNode::activity(Activity::new("buy-cd", "shop#BuyCd")),
//!         ]),
//!         TaskNode::activity(Activity::new("pay", "shop#Pay")),
//!     ]),
//! )
//! .unwrap();
//!
//! assert_eq!(task.activities().count(), 4);
//! let graph = BehaviouralGraph::from_task(&task);
//! assert!(graph.is_acyclic());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod activity;
mod ast;
pub mod bpel;
mod class;
mod graph;
pub mod xml;

pub use activity::Activity;
pub use ast::{ActivityRef, LoopBound, TaskError, TaskNode, UserTask};
pub use class::{TaskClass, TaskClassRepository};
pub use graph::{BehaviouralGraph, Vertex, VertexId, VertexKind};
