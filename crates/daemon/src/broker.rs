//! The broker core: admission + batched serving, transport-independent.
//!
//! The [`Router`](crate::router::Router) drives it for both transports:
//! [`Broker::submit`] decides admission, [`Broker::tick`] drains the
//! queue batch by batch. A batch is a run of queued sessions whose wire
//! signatures are byte-equal — they ask for the *same* composition, so
//! the broker pays analysis, discovery and QASSA selection **once** per
//! batch (one `compose_with_epoch` under one read-lock acquisition) and
//! executes the shared composition once per session. Every decision is
//! counted through the environment's recorder (`daemon.*` keys), so a
//! `RunReport` shows admission behaviour next to discovery and serving
//! counters.

use std::sync::Arc;

use qasom::{ComposeError, ServeOutcome, SharedEnvironment};
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

/// How one served session ended, ready for response encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionReply {
    /// A typed outcome (completed / busy / rejected).
    Outcome(ServeOutcome),
    /// An infrastructure failure, with the registry epoch at failure.
    Failed {
        /// Registry epoch when the session failed.
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
        // Same accounting as `SharedEnvironment::serve_session`: each
        // batched session is a serving session; the read lock below is
        // taken once for all of them.
        self.count(keys::SERVING_SESSIONS, n);
        match self.shared.compose_with_epoch(&batch[0].request) {
            Ok((epoch, composition)) => {
                for session in batch {
                    let reply = match self.shared.execute(composition.clone()) {
                        Ok(report) => {
                            self.count(keys::DAEMON_COMPLETED, 1);
                            SessionReply::Outcome(ServeOutcome::Completed(report))
                        }
                        Err(error) => {
                            self.count(keys::DAEMON_FAILED, 1);
                            SessionReply::Failed {
                                epoch,
                                message: error.to_string(),
                            }
                        }
                    };
                    responses.push(BrokerResponse {
                        conn_id: session.conn_id,
                        corr_id: session.corr_id,
                        session_id: session.session_id,
                        reply,
                    });
                }
            }
            Err(ComposeError::Rejected(diags)) => {
                for session in batch {
                    self.count(keys::DAEMON_REJECTED, 1);
                    responses.push(BrokerResponse {
                        conn_id: session.conn_id,
                        corr_id: session.corr_id,
                        session_id: session.session_id,
                        reply: SessionReply::Outcome(ServeOutcome::Rejected(diags.clone())),
                    });
                }
            }
            Err(error) => {
                let epoch = self.shared.with(|e| e.epoch());
                let message = error.to_string();
                for session in batch {
                    self.count(keys::DAEMON_FAILED, 1);
                    responses.push(BrokerResponse {
                        conn_id: session.conn_id,
                        corr_id: session.corr_id,
                        session_id: session.session_id,
                        reply: SessionReply::Failed {
                            epoch,
                            message: message.clone(),
                        },
                    });
                }
            }
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
        SessionReply::Outcome(ServeOutcome::Completed(report)) => Ok(Frame {
            frame_type: FrameType::Completed,
            payload: wire::encode_completed(corr_id, ExecutionSummary::from_report(report)),
        }),
        SessionReply::Outcome(ServeOutcome::Busy { retry_after_ticks }) => Ok(Frame {
            frame_type: FrameType::Busy,
            payload: wire::encode_busy(corr_id, *retry_after_ticks),
        }),
        SessionReply::Outcome(ServeOutcome::Rejected(diags)) => Ok(Frame {
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
    use crate::testkit::{request, shared_with_recorder};
    use qasom::{SessionRequest, UserRequest};
    use qasom_task::{Activity, TaskNode, UserTask};

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
            .all(|r| matches!(&r.reply, SessionReply::Outcome(ServeOutcome::Completed(_)))));
        let snap = recorder.snapshot().unwrap();
        assert_eq!(snap.counter(keys::DAEMON_BATCHES), 1);
        assert_eq!(snap.counter(keys::DAEMON_BATCHED_SESSIONS), 4);
        assert_eq!(snap.counter(keys::DAEMON_COMPLETED), 4);
        // One discovery pass for the whole batch.
        assert_eq!(snap.counter(keys::DISCOVERY_INDEXED), 1);
    }

    #[test]
    fn batched_serving_matches_the_library_path_outcome() {
        let (shared, _recorder) = shared_with_recorder();
        let direct = shared
            .serve_session(&SessionRequest::new(request("hot")))
            .unwrap();
        let mut broker = Broker::new(shared, BrokerConfig::default());
        submit(&mut broker, 0, 0, "c", "hot");
        let responses = broker.tick();
        match (&responses[0].reply, direct) {
            (
                SessionReply::Outcome(ServeOutcome::Completed(batched)),
                ServeOutcome::Completed(direct),
            ) => {
                assert_eq!(batched.success, direct.success);
                assert_eq!(batched.invocations.len(), direct.invocations.len());
            }
            other => panic!("expected two completions, got {other:?}"),
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
        // No provider serves d#Nothing.
        submit(&mut broker, 0, 0, "a", "hot");
        let req = UserRequest::new(
            UserTask::new("t", TaskNode::activity(Activity::new("x", "d#Nothing"))).unwrap(),
        );
        let sig = wire::encode_request_body(&req).unwrap();
        broker.submit(1, 1, "b", req.clone(), sig.clone());
        broker.submit(2, 2, "c", req, sig);
        let responses = broker.tick();
        assert_eq!(responses.len(), 3);
        let failed: Vec<_> = responses
            .iter()
            .filter(|r| matches!(r.reply, SessionReply::Failed { .. }))
            .collect();
        assert_eq!(failed.len(), 2);
        let snap = recorder.snapshot().unwrap();
        assert_eq!(snap.counter(keys::DAEMON_FAILED), 2);
        assert_eq!(snap.counter(keys::DAEMON_COMPLETED), 1);
    }
}
