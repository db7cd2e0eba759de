//! Discrete-event simulation of ad hoc pervasive environments.
//!
//! The original system was evaluated on a physical testbed of mobile
//! devices on an ad hoc Wi-Fi network. This crate is the substitute
//! substrate: a deterministic (seeded) discrete-event simulator capturing
//! the two properties the evaluation depends on —
//!
//! 1. **message cost** — wireless links with configurable latency
//!    distributions, jitter and loss ([`LinkConfig`]), full-mesh by default
//!    with per-pair overrides and partitions;
//! 2. **heterogeneous compute** — per-node [`DeviceProfile`]s whose CPU
//!    factor scales local computation time, modelling resource-constrained
//!    devices.
//!
//! Protocols are written as [`NodeBehaviour`] implementations exchanging a
//! user-defined message type; [`Simulation::run`] drives the event queue.
//! Node churn (join/leave/crash) can be injected at any point.
//!
//! The [`runtime`] module adds the *synthetic service runtime*: services
//! whose per-invocation QoS is drawn from seeded distributions with drift
//! and failure injection — the observable world the monitoring and
//! adaptation layers react to.
//!
//! # Examples
//!
//! ```
//! use qasom_netsim::{
//!     DeviceProfile, LinkConfig, NodeBehaviour, NodeContext, NodeId, Simulation,
//! };
//!
//! struct Echo;
//! impl NodeBehaviour<String> for Echo {
//!     fn on_message(&mut self, ctx: &mut NodeContext<'_, String>, from: NodeId, msg: String) {
//!         if msg == "ping" {
//!             ctx.send(from, "pong".to_owned());
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(42);
//! let a = sim.add_node(DeviceProfile::default(), Echo);
//! let b = sim.add_node(DeviceProfile::default(), Echo);
//! sim.send_external(a, b, "ping".to_owned());
//! sim.run();
//! assert_eq!(sim.stats().delivered, 2); // ping + pong
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod dist;
mod link;
pub mod mobility;
pub mod runtime;
mod sim;
mod time;

pub use link::LinkConfig;
pub use sim::{
    DeviceProfile, EventCapExceeded, NetworkStats, NodeBehaviour, NodeContext, NodeId, Simulation,
};
pub use time::{SimDuration, SimTime};
