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
//! - [`broker`] — admission counters, ticks, and batched serving (one
//!   compose pass per batch, one execution per session);
//! - [`router`] — the one serving path: owns the broker and every
//!   connection's session, and decides how each session event is
//!   answered (`HELLO_ACK`, `BUSY`, `ERROR` + close, reply frames);
//! - [`loopback`] — a byte-faithful in-process transport; hermetic
//!   tests and the scripted `qasom-cli daemon-stress` workload
//!   (`qasom_bench::scenarios`) run on it;
//! - [`tcp`] — the real transport: reader/router/writer threads over
//!   TCP sockets.
//!
//! A transport only moves bytes: `tcp` is sockets, threads and
//! channels, `loopback` is byte buffers and a poll order, and neither
//! encodes a payload or looks at a session event. Frame codec, session
//! state machine, router and broker are the same code under both, which
//! is what makes the loopback tests meaningful — and
//! `tests/daemon_loopback.rs` holds the two to byte-identical replies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod admission;
pub mod broker;
pub mod frame;
pub mod loopback;
pub mod router;
pub mod session;
pub mod tcp;
pub mod wire;

pub use admission::{AdmissionConfig, AdmissionDecision};
pub use broker::{Broker, BrokerConfig, BrokerResponse, SessionReply, Submission};
pub use frame::{Frame, FrameType, ProtocolError, MAX_FRAME_LEN, PROTOCOL_VERSION};
pub use loopback::{LoopbackClient, LoopbackDaemon};
pub use router::Router;
pub use session::{ClientEvent, ClientOutcome, ConnectionSession, SessionEvent, SessionState};
pub use tcp::{spawn, TcpDaemonHandle};

/// The market the crate's unit tests serve from: three providers of the
/// one concept `d#A`.
#[cfg(test)]
mod testkit {
    use std::sync::Arc;

    use qasom::{Environment, SharedEnvironment, UserRequest};
    use qasom_netsim::runtime::SyntheticService;
    use qasom_obs::{MemoryRecorder, Recorder};
    use qasom_ontology::OntologyBuilder;
    use qasom_qos::{QosModel, Unit};
    use qasom_registry::ServiceDescription;
    use qasom_task::{Activity, TaskNode, UserTask};

    use crate::{wire, Frame, FrameType};

    fn market(seed: u64, recorder: Option<Arc<dyn Recorder>>) -> SharedEnvironment {
        let mut b = OntologyBuilder::new("d");
        b.concept("A");
        let mut env = Environment::new(QosModel::standard(), b.build().unwrap(), seed);
        if let Some(recorder) = recorder {
            env.set_recorder(recorder);
        }
        let rt = env.model().property("ResponseTime").unwrap();
        for i in 0..3 {
            let desc =
                ServiceDescription::new(format!("s{i}"), "d#A").with_qos(rt, 40.0 + f64::from(i));
            let nominal = desc.qos().clone();
            env.deploy(desc, SyntheticService::new(nominal));
        }
        SharedEnvironment::new(env)
    }

    /// The market, with its execution randomness seeded by `seed`.
    pub(crate) fn shared(seed: u64) -> SharedEnvironment {
        market(seed, None)
    }

    /// The market with a recorder attached from the first deployment on.
    pub(crate) fn shared_with_recorder() -> (SharedEnvironment, Arc<MemoryRecorder>) {
        let recorder = Arc::new(MemoryRecorder::new());
        let shared = market(7, Some(Arc::clone(&recorder) as Arc<dyn Recorder>));
        (shared, recorder)
    }

    /// A request the analyzer rejects with a diagnostic that quotes the
    /// constraint name — too long a name for the reply's string width.
    pub(crate) fn too_wide_to_reject() -> UserRequest {
        request("wide")
            .constraint("x".repeat(65_500), 1.0, Unit::Dimensionless)
            .unwrap()
    }

    /// A request the analyzer rejects (QA010): a constraint on a
    /// property the QoS model does not define.
    pub(crate) fn unknown_property() -> UserRequest {
        request("bogus")
            .constraint("Bogus", 1.0, Unit::Dimensionless)
            .unwrap()
    }

    /// A request that passes analysis but fails to compose: no provider
    /// serves `d#Nothing`.
    pub(crate) fn unserved() -> UserRequest {
        UserRequest::new(
            UserTask::new("t", TaskNode::activity(activity("x", "d#Nothing"))).unwrap(),
        )
    }

    /// A one-activity request for `d#A`; the task name sets the signature.
    pub(crate) fn request(task: &str) -> UserRequest {
        UserRequest::new(UserTask::new(task, TaskNode::activity(activity("a", "d#A"))).unwrap())
    }

    /// An activity; tests build theirs with the fallible constructor,
    /// as the daemon must.
    pub(crate) fn activity(name: &str, function: &str) -> Activity {
        Activity::try_new(name, function).unwrap()
    }

    /// A `COMPOSE` frame for [`request`] whose activity function `d#A`
    /// arrives as `dxA`: an IRI without `#`.
    pub(crate) fn malformed_compose() -> Frame {
        let mut payload = wire::encode_compose(1, &request("t")).unwrap();
        let at = payload.windows(3).position(|w| w == b"d#A").unwrap();
        payload[at + 1] = b'x';
        Frame {
            frame_type: FrameType::Compose,
            payload,
        }
    }
}
