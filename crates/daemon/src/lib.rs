//! `qasom-daemon` — the daemonised serving front-end (`qasomd`).
//!
//! The library behind the `qasomd` binary: a long-running broker that
//! accepts composition sessions over a dependency-free, length-prefixed
//! binary frame protocol and multiplexes them onto one
//! [`qasom::SharedEnvironment`]. The pieces:
//!
//! - [`frame`] — the outer framing codec (`u32` length + type byte);
//! - [`wire`] — payload codecs, including a full-fidelity task-AST
//!   encoding and the batch *signature* (request-body bytes);
//! - [`session`] — the per-connection state machine
//!   (`AwaitingHello → Ready → Closed`) and the client-side decoder;
//! - [`admission`] — the bounded queue, per-client quotas and
//!   shared-signature batch extraction;
//! - [`broker`] — the transport-independent core: admission counters,
//!   ticks, and batched serving (one compose pass per batch, one
//!   execution per session);
//! - [`loopback`] — a byte-faithful in-process transport; hermetic
//!   tests and the scripted `qasom-cli daemon-stress` workload
//!   (`qasom_bench::scenarios`) run on it;
//! - [`tcp`] — the real transport: reader/router/writer threads over
//!   TCP sockets.
//!
//! Both transports share every byte of codec, session and broker logic;
//! the loopback transport is not a mock but the same machinery minus
//! sockets and threads, which is what makes its tests meaningful.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod broker;
pub mod frame;
pub mod loopback;
pub mod session;
pub mod tcp;
pub mod wire;

pub use admission::{AdmissionConfig, AdmissionDecision};
pub use broker::{Broker, BrokerConfig, BrokerResponse, SessionReply, Submission};
pub use frame::{Frame, FrameType, ProtocolError, MAX_FRAME_LEN, PROTOCOL_VERSION};
pub use loopback::{LoopbackClient, LoopbackDaemon};
pub use session::{ClientEvent, ClientOutcome, ConnectionSession, SessionEvent, SessionState};
pub use tcp::{spawn, TcpDaemonHandle};
