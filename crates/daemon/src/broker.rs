//! The broker core: admission + batched serving, transport-independent.
//!
//! The [`Router`](crate::router::Router) drives it for both transports:
//! [`Broker::submit`] decides admission, [`Broker::tick`] drains the
//! queue batch by batch. A batch is a run of queued sessions whose wire
//! signatures are byte-equal — they ask for the *same* composition, so
//! the broker pays analysis, discovery and QASSA selection **once** per
//! batch (one compose, and the epoch it saw, under one read-lock
//! acquisition) and executes the shared composition once per session
//! under the write lock. Every decision is
//! counted through the environment's recorder (`daemon.*` keys), so a
//! `RunReport` shows admission behaviour next to discovery and serving
//! counters.

use std::sync::Arc;

use qasom::{ComposeError, ExecutionReport, SharedEnvironment};
use qasom_analysis::Diagnostic;
use qasom_obs::{keys, Recorder};

use crate::admission::{AdmissionConfig, AdmissionDecision, AdmissionQueue, QueuedSession};
use crate::frame::{Frame, FrameType, ProtocolError};
use crate::wire::{self, ExecutionSummary};

/// Broker tuning.
#[derive(Debug, Clone, Copy, Default)]
pub struct BrokerConfig {
    /// Admission limits (queue capacity, client quota, batch cap).
    pub admission: AdmissionConfig,
}

/// What [`Broker::submit`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submission {
    /// Queued; a response comes out of a later [`Broker::tick`].
    Admitted {
        /// The broker-assigned session id (admission order).
        session_id: u64,
    },
    /// Shed; answer the client with `BUSY` now.
    Shed {
        /// Deterministic back-off hint, in broker ticks.
        retry_after_ticks: u32,
    },
}

/// How one session ended, ready for response encoding: one variant per
/// reply frame, matching the client's
/// [`ClientOutcome`](crate::session::ClientOutcome) one to one.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionReply {
    /// The session composed and executed (`COMPLETED`).
    Completed(ExecutionReport),
    /// Admission shed the session: queue at capacity or client over
    /// quota (`BUSY`).
    Busy {
        /// Deterministic back-off hint, in broker ticks.
        retry_after_ticks: u32,
    },
    /// The static analyzer rejected the request before discovery ran
    /// (`REJECTED`).
    Rejected(Vec<Diagnostic>),
    /// Composition or execution failed (`ERROR`).
    Failed {
        /// Registry epoch the session's compose ran against.
        epoch: u64,
        /// Rendered error.
        message: String,
    },
}

/// One finished session: where to send it and what to say.
#[derive(Debug)]
pub struct BrokerResponse {
    /// The connection the session arrived on.
    pub conn_id: u64,
    /// The client's correlation id.
    pub corr_id: u64,
    /// The broker-assigned session id.
    pub session_id: u64,
    /// The outcome to encode.
    pub reply: SessionReply,
}

/// The transport-independent broker core.
pub struct Broker {
    shared: SharedEnvironment,
    recorder: Option<Arc<dyn Recorder>>,
    queue: AdmissionQueue,
    next_session_id: u64,
}

impl Broker {
    /// A broker over a shared environment. The environment's recorder
    /// (if any) receives all `daemon.*` counters.
    pub fn new(shared: SharedEnvironment, config: BrokerConfig) -> Self {
        let recorder = shared.with(|e| e.recorder().cloned());
        Broker {
            shared,
            recorder,
            queue: AdmissionQueue::new(config.admission),
            next_session_id: 0,
        }
    }

    /// The admission limits in force.
    pub fn admission_config(&self) -> AdmissionConfig {
        self.queue.config()
    }

    /// Registry epoch right now (for `HELLO_ACK`).
    pub fn epoch(&self) -> u64 {
        self.shared.with(|e| e.epoch())
    }

    fn count(&self, key: &str, delta: u64) {
        if let Some(rec) = &self.recorder {
            rec.incr(key, delta);
        }
    }

    /// The recorder cached from the environment (transports count
    /// frame traffic through it without touching the lock).
    pub fn recorder(&self) -> Option<&Arc<dyn Recorder>> {
        self.recorder.as_ref()
    }

    /// Decides admission for one session.
    pub fn submit(
        &mut self,
        conn_id: u64,
        corr_id: u64,
        client: &str,
        request: qasom::UserRequest,
        signature: Vec<u8>,
    ) -> Submission {
        let session_id = self.next_session_id;
        let session = QueuedSession {
            session_id,
            conn_id,
            corr_id,
            client: client.to_owned(),
            request,
            signature,
        };
        match self.queue.offer(session) {
            AdmissionDecision::Admitted => {
                self.next_session_id += 1;
                self.count(keys::DAEMON_ADMITTED, 1);
                Submission::Admitted { session_id }
            }
            AdmissionDecision::QueueFull => {
                self.count(keys::DAEMON_SHED, 1);
                Submission::Shed {
                    retry_after_ticks: self.queue.retry_after_ticks(),
                }
            }
            AdmissionDecision::OverQuota => {
                self.count(keys::DAEMON_QUOTA_DENIALS, 1);
                Submission::Shed {
                    retry_after_ticks: self.queue.retry_after_ticks(),
                }
            }
        }
    }

    /// One scheduling round: drains the whole queue, batch by batch.
    /// Responses come back in deterministic order — batches in queue
    /// order, sessions in admission order within a batch.
    pub fn tick(&mut self) -> Vec<BrokerResponse> {
        self.count(keys::DAEMON_TICKS, 1);
        let mut responses = Vec::new();
        while let Some(batch) = self.queue.take_batch() {
            self.serve_batch(batch, &mut responses);
        }
        responses
    }

    /// Serves one shared-signature batch: one compose, n executions.
    fn serve_batch(&mut self, batch: Vec<QueuedSession>, responses: &mut Vec<BrokerResponse>) {
        let n = batch.len() as u64;
        self.count(keys::DAEMON_BATCHES, 1);
        self.count(keys::DAEMON_BATCHED_SESSIONS, n);
        // The epoch is read under the compose's own guard, so a failed
        // compose is stamped with the registry it saw, not a later one.
        let (epoch, composed) = self
            .shared
            .with(|e| (e.epoch(), e.compose(&batch[0].request)));
        let failed = |error: &dyn std::fmt::Display| {
            let message = error.to_string();
            (keys::DAEMON_FAILED, SessionReply::Failed { epoch, message })
        };
        for session in batch {
            let (key, reply) = match &composed {
                Ok(composition) => match self.shared.execute(composition.clone()) {
                    Ok(report) => (keys::DAEMON_COMPLETED, SessionReply::Completed(report)),
                    Err(error) => failed(&error),
                },
                Err(ComposeError::Rejected(diags)) => {
                    (keys::DAEMON_REJECTED, SessionReply::Rejected(diags.clone()))
                }
                Err(error) => failed(error),
            };
            self.count(key, 1);
            responses.push(BrokerResponse {
                conn_id: session.conn_id,
                corr_id: session.corr_id,
                session_id: session.session_id,
                reply,
            });
        }
    }
}

/// Encodes a session reply as its response frame.
///
/// # Errors
///
/// Fails when a diagnostic exceeds the wire's string width.
pub fn reply_frame(corr_id: u64, reply: &SessionReply) -> Result<Frame, ProtocolError> {
    match reply {
        SessionReply::Completed(report) => Ok(Frame {
            frame_type: FrameType::Completed,
            payload: wire::encode_completed(corr_id, ExecutionSummary::from_report(report)),
        }),
        SessionReply::Busy { retry_after_ticks } => Ok(Frame {
            frame_type: FrameType::Busy,
            payload: wire::encode_busy(corr_id, *retry_after_ticks),
        }),
        SessionReply::Rejected(diags) => Ok(Frame {
            frame_type: FrameType::Rejected,
            payload: wire::encode_rejected(corr_id, diags)?,
        }),
        SessionReply::Failed { epoch, message } => Ok(Frame {
            frame_type: FrameType::Error,
            payload: wire::encode_error(corr_id, *epoch, message),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{request, shared_with_recorder, unserved};

    fn submit(broker: &mut Broker, conn: u64, corr: u64, client: &str, task: &str) -> Submission {
        let req = request(task);
        let sig = wire::encode_request_body(&req).unwrap();
        broker.submit(conn, corr, client, req, sig)
    }

    #[test]
    fn a_batch_composes_once_and_executes_per_session() {
        let (shared, recorder) = shared_with_recorder();
        let mut broker = Broker::new(shared, BrokerConfig::default());
        for i in 0..4 {
            assert!(matches!(
                submit(&mut broker, i, i, "c", "hot"),
                Submission::Admitted { .. }
            ));
        }
        let responses = broker.tick();
        assert_eq!(responses.len(), 4);
        assert!(responses
            .iter()
            .all(|r| matches!(&r.reply, SessionReply::Completed(_))));
        let snap = recorder.snapshot().unwrap();
        assert_eq!(snap.counter(keys::DAEMON_BATCHES), 1);
        assert_eq!(snap.counter(keys::DAEMON_BATCHED_SESSIONS), 4);
        assert_eq!(snap.counter(keys::DAEMON_COMPLETED), 4);
        // One discovery pass for the whole batch.
        assert_eq!(snap.counter(keys::DISCOVERY_INDEXED), 1);
    }

    #[test]
    fn batched_serving_matches_compose_then_execute() {
        let (shared, _recorder) = shared_with_recorder();
        let (_, composition) = shared.compose_with_epoch(&request("hot")).unwrap();
        let direct = shared.execute(composition).unwrap();
        let mut broker = Broker::new(shared, BrokerConfig::default());
        submit(&mut broker, 0, 0, "c", "hot");
        let responses = broker.tick();
        match &responses[0].reply {
            SessionReply::Completed(batched) => {
                assert_eq!(batched.success, direct.success);
                assert_eq!(batched.invocations.len(), direct.invocations.len());
            }
            other => panic!("expected a completion, got {other:?}"),
        }
    }

    #[test]
    fn shedding_and_quota_are_counted() {
        let (shared, recorder) = shared_with_recorder();
        let mut broker = Broker::new(
            shared,
            BrokerConfig {
                admission: AdmissionConfig {
                    queue_capacity: 2,
                    client_quota: 1,
                    batch_max: 8,
                },
            },
        );
        assert!(matches!(
            submit(&mut broker, 0, 0, "a", "hot"),
            Submission::Admitted { .. }
        ));
        // Same client again: quota.
        assert!(matches!(
            submit(&mut broker, 0, 1, "a", "hot"),
            Submission::Shed { .. }
        ));
        assert!(matches!(
            submit(&mut broker, 1, 2, "b", "hot"),
            Submission::Admitted { .. }
        ));
        // Queue full.
        assert!(matches!(
            submit(&mut broker, 2, 3, "c", "hot"),
            Submission::Shed { .. }
        ));
        let snap = recorder.snapshot().unwrap();
        assert_eq!(snap.counter(keys::DAEMON_ADMITTED), 2);
        assert_eq!(snap.counter(keys::DAEMON_QUOTA_DENIALS), 1);
        assert_eq!(snap.counter(keys::DAEMON_SHED), 1);
    }

    #[test]
    fn compose_failures_fail_every_session_in_the_batch() {
        let (shared, recorder) = shared_with_recorder();
        let mut broker = Broker::new(shared, BrokerConfig::default());
        submit(&mut broker, 0, 0, "a", "hot");
        let req = unserved();
        let sig = wire::encode_request_body(&req).unwrap();
        broker.submit(1, 1, "b", req.clone(), sig.clone());
        broker.submit(2, 2, "c", req, sig);
        let reads = || {
            recorder
                .snapshot()
                .unwrap()
                .counter(keys::SERVING_READ_LOCKS)
        };
        let reads_before = reads();
        let responses = broker.tick();
        // One read guard per batch: the failed compose's epoch is read
        // under its own guard, not a second one.
        assert_eq!(reads() - reads_before, 2);
        assert_eq!(responses.len(), 3);
        // No churn ran, so both failures carry the current epoch.
        let epoch = broker.epoch();
        let failed = responses
            .iter()
            .filter(|r| matches!(r.reply, SessionReply::Failed { epoch: e, .. } if e == epoch))
            .count();
        assert_eq!(failed, 2);
        let snap = recorder.snapshot().unwrap();
        assert_eq!(snap.counter(keys::DAEMON_FAILED), 2);
        assert_eq!(snap.counter(keys::DAEMON_COMPLETED), 1);
    }
}
