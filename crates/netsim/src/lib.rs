//! Discrete-event simulation of ad hoc pervasive environments.
//!
//! The original system was evaluated on a physical testbed of mobile
//! devices on an ad hoc Wi-Fi network. This crate is the substitute
//! substrate: a deterministic (seeded) discrete-event simulator capturing
//! the two properties the evaluation depends on —
//!
//! 1. **message cost** — one wireless link shared by every pair of nodes,
//!    with a configurable latency distribution, jitter and loss
//!    ([`LinkConfig`]), which may change at a scheduled instant (a
//!    transient outage clearing);
//! 2. **heterogeneous compute** — per-node [`DeviceProfile`]s whose CPU
//!    factor scales local computation time, modelling resource-constrained
//!    devices.
//!
//! Protocols are written as [`NodeBehaviour`] implementations exchanging a
//! user-defined message type; each starts from
//! [`NodeBehaviour::on_start`], and [`Simulation::run`] drives the event
//! queue until it drains or the event cap stops it.
//!
//! The [`runtime`] module adds the *synthetic service runtime*: services
//! whose per-invocation QoS is drawn from seeded distributions with drift
//! and failure injection — the observable world the monitoring and
//! adaptation layers react to.
//!
//! # Examples
//!
//! ```
//! use qasom_netsim::{DeviceProfile, NodeBehaviour, NodeContext, NodeId, Simulation};
//!
//! struct Echo {
//!     opener: bool,
//! }
//! impl NodeBehaviour<String> for Echo {
//!     fn on_start(&mut self, ctx: &mut NodeContext<'_, String>) {
//!         if self.opener {
//!             let peer = ctx.peers()[0];
//!             ctx.send(peer, "ping".to_owned());
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut NodeContext<'_, String>, from: NodeId, msg: String) {
//!         if msg == "ping" {
//!             ctx.send(from, "pong".to_owned());
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(42);
//! sim.add_node(DeviceProfile::default(), Echo { opener: true });
//! sim.add_node(DeviceProfile::default(), Echo { opener: false });
//! assert_eq!(sim.run(), Ok(4)); // two starts, ping, pong
//! assert_eq!(sim.stats().delivered, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod dist;
mod link;
pub mod runtime;
mod sim;
mod time;

pub use link::LinkConfig;
pub use sim::{
    DeviceProfile, EventCapExceeded, NetworkStats, NodeBehaviour, NodeContext, NodeId, Simulation,
};
pub use time::{SimDuration, SimTime};
