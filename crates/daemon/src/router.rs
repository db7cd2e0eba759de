//! The connection router: how the daemon answers a session event.
//!
//! ```text
//!  tcp.rs   reader threads ─┐ (conn, frame)            (conn, frame) ┌─▶ writer threads
//!                           ├──────────────▶  Router  ───────────────┤
//!  loopback.rs  inbound buf ┘   on_inbound    + Broker      sink     └─▶ outbound buf
//!                                tick         + sessions
//! ```
//!
//! A transport moves bytes; everything the protocol *decides* is here:
//! what `HELLO_ACK` carries, `BUSY` when admission sheds, `ERROR` and a
//! closed session on a protocol error, the short `ERROR` that stands in
//! for a reply too wide to encode, which frames count as read and
//! written, and one [`Broker::tick`] turned into reply frames. The
//! router owns the [`Broker`] and every connection's
//! [`ConnectionSession`] and hands each outbound `(conn_id, Frame)` to
//! the sink its caller passes in.
//!
//! A connection that said `BYE` or broke protocol reads nothing more,
//! but stays addressable until the next [`Router::tick`] has drained the
//! queue, so sessions it submitted before closing are still answered.

use std::collections::BTreeMap;

use qasom::SharedEnvironment;
use qasom_obs::keys;

use crate::broker::{reply_frame, Broker, BrokerConfig, SessionReply, Submission};
use crate::frame::{Frame, FrameType, ProtocolError};
use crate::session::{ConnectionSession, SessionEvent, SessionState};
use crate::wire;

/// The serving core both transports drive.
pub struct Router {
    broker: Broker,
    sessions: BTreeMap<u64, ConnectionSession>,
    /// Connections closed since the last tick, in closing order.
    closing: Vec<u64>,
}

impl Router {
    /// A router serving `shared` under the given broker config.
    pub fn new(shared: SharedEnvironment, config: BrokerConfig) -> Self {
        Router {
            broker: Broker::new(shared, config),
            sessions: BTreeMap::new(),
            closing: Vec::new(),
        }
    }

    /// Registers a connection. The client still has to say `HELLO`.
    pub fn open(&mut self, conn_id: u64) {
        self.sessions.insert(conn_id, ConnectionSession::new());
    }

    /// Forgets a connection whose peer went away; replies still owed to
    /// it are dropped.
    pub fn disconnect(&mut self, conn_id: u64) {
        self.sessions.remove(&conn_id);
    }

    /// Whether the connection is registered and has neither said `BYE`
    /// nor broken protocol.
    pub fn is_open(&self, conn_id: u64) -> bool {
        self.sessions
            .get(&conn_id)
            .is_some_and(|s| s.state() != SessionState::Closed)
    }

    /// One inbound frame — or the framing error the transport hit in its
    /// place — on an open connection; anything for a closed or unknown
    /// connection is ignored.
    pub fn on_inbound(
        &mut self,
        conn_id: u64,
        inbound: Result<Frame, ProtocolError>,
        sink: &mut impl FnMut(u64, Frame),
    ) {
        let open = |s: &&mut ConnectionSession| s.state() != SessionState::Closed;
        let Some(session) = self.sessions.get_mut(&conn_id).filter(open) else {
            return;
        };
        let event = match inbound {
            Ok(frame) => {
                count(&self.broker, keys::DAEMON_FRAMES_READ);
                session.on_frame(&frame)
            }
            Err(e) => {
                session.close();
                Err(e)
            }
        };
        match event {
            Ok(SessionEvent::Hello { .. }) => {
                let ack = wire::HelloAck {
                    epoch: self.broker.epoch(),
                    batch_max: self.broker.admission_config().batch_max as u32,
                };
                let frame = Frame {
                    frame_type: FrameType::HelloAck,
                    payload: wire::encode_hello_ack(ack),
                };
                self.emit(conn_id, frame, sink);
            }
            Ok(SessionEvent::Submit {
                corr_id,
                request,
                signature,
            }) => {
                let client = session.client().unwrap_or("");
                let submission = self
                    .broker
                    .submit(conn_id, corr_id, client, *request, signature);
                // Shed now, in arrival order, not at the next tick.
                if let Submission::Shed { retry_after_ticks } = submission {
                    let busy = SessionReply::Busy { retry_after_ticks };
                    self.reply(conn_id, corr_id, &busy, sink);
                }
            }
            Ok(SessionEvent::Bye) => self.closing.push(conn_id),
            Err(e) => {
                self.closing.push(conn_id);
                let frame = error_frame(0, self.broker.epoch(), &e);
                self.emit(conn_id, frame, sink);
            }
        }
    }

    /// One scheduling round: ticks the broker, hands every reply to the
    /// sink in broker order, then forgets the connections closed since
    /// the last round and returns their ids.
    pub fn tick(&mut self, sink: &mut impl FnMut(u64, Frame)) -> Vec<u64> {
        for response in self.broker.tick() {
            self.reply(response.conn_id, response.corr_id, &response.reply, sink);
        }
        let closed = std::mem::take(&mut self.closing);
        for conn_id in &closed {
            self.sessions.remove(conn_id);
        }
        closed
    }

    /// Encodes a session reply; one that does not fit the wire (a
    /// diagnostic over the string width, a frame over the length cap) is
    /// answered with a short `ERROR` instead, so the session completes.
    fn reply(
        &self,
        conn_id: u64,
        corr_id: u64,
        reply: &SessionReply,
        sink: &mut impl FnMut(u64, Frame),
    ) {
        let frame = reply_frame(corr_id, reply)
            .and_then(|frame| frame.wire_len().map(|_| frame))
            .unwrap_or_else(|e| error_frame(corr_id, self.broker.epoch(), &e));
        self.emit(conn_id, frame, sink);
    }

    fn emit(&self, conn_id: u64, frame: Frame, sink: &mut impl FnMut(u64, Frame)) {
        if self.sessions.contains_key(&conn_id) {
            count(&self.broker, keys::DAEMON_FRAMES_WRITTEN);
            sink(conn_id, frame);
        }
    }
}

fn count(broker: &Broker, key: &str) {
    if let Some(rec) = broker.recorder() {
        rec.incr(key, 1);
    }
}

fn error_frame(corr_id: u64, epoch: u64, error: &ProtocolError) -> Frame {
    Frame {
        frame_type: FrameType::Error,
        payload: wire::encode_error(corr_id, epoch, &error.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::AdmissionConfig;
    use crate::session::{decode_client_event, ClientEvent, ClientOutcome};
    use crate::testkit::{
        request, shared_with_recorder, too_wide_to_reject, unknown_property, unserved,
    };
    use qasom::UserRequest;
    use qasom_obs::Recorder;

    fn hello() -> Result<Frame, ProtocolError> {
        Ok(Frame {
            frame_type: FrameType::Hello,
            payload: wire::encode_hello("c").unwrap(),
        })
    }

    fn compose(corr_id: u64, request: &UserRequest) -> Result<Frame, ProtocolError> {
        Ok(Frame {
            frame_type: FrameType::Compose,
            payload: wire::encode_compose(corr_id, request).unwrap(),
        })
    }

    fn bye() -> Result<Frame, ProtocolError> {
        Ok(Frame::bare(FrameType::Bye))
    }

    /// `ack`, or `<outcome>#<corr id>`.
    fn describe(frame: &Frame) -> String {
        match decode_client_event(frame).unwrap() {
            ClientEvent::HelloAck(_) => "ack".to_owned(),
            ClientEvent::Reply { corr_id, outcome } => {
                let kind = match outcome {
                    ClientOutcome::Completed(_) => "completed",
                    ClientOutcome::Busy { .. } => "busy",
                    ClientOutcome::Rejected(_) => "rejected",
                    ClientOutcome::Failed { .. } => "error",
                };
                format!("{kind}#{corr_id}")
            }
        }
    }

    /// A sink for connection 0 that notes what it is handed.
    fn record(into: &mut Vec<String>) -> impl FnMut(u64, Frame) + '_ {
        |conn_id, frame| {
            assert_eq!(conn_id, 0);
            into.push(describe(&frame));
        }
    }

    struct Case {
        name: &'static str,
        queue_capacity: usize,
        inbound: Vec<Result<Frame, ProtocolError>>,
        /// What the connection is sent, before the tick and by it.
        answered: (&'static [&'static str], &'static [&'static str]),
        /// Whether the tick reports the connection closed.
        closes: bool,
        frames_read: u64,
    }

    #[test]
    fn every_session_event_has_one_answer() {
        let cases = [
            Case {
                name: "hello",
                queue_capacity: 64,
                inbound: vec![hello()],
                answered: (&["ack"], &[]),
                closes: false,
                frames_read: 1,
            },
            Case {
                name: "compose before hello",
                queue_capacity: 64,
                inbound: vec![compose(1, &request("t")), hello()],
                answered: (&["error#0"], &[]),
                closes: true,
                frames_read: 1,
            },
            Case {
                name: "shed is answered busy at once, admitted at the tick",
                queue_capacity: 1,
                inbound: vec![
                    hello(),
                    compose(1, &request("t")),
                    compose(2, &request("t")),
                ],
                answered: (&["ack", "busy#2"], &["completed#1"]),
                closes: false,
                frames_read: 3,
            },
            Case {
                name: "bye still answers what was admitted before it",
                queue_capacity: 64,
                inbound: vec![
                    hello(),
                    compose(1, &request("t")),
                    bye(),
                    compose(2, &request("t")),
                ],
                answered: (&["ack"], &["completed#1"]),
                closes: true,
                frames_read: 3,
            },
            Case {
                name: "session protocol error",
                queue_capacity: 64,
                inbound: vec![hello(), hello()],
                answered: (&["ack", "error#0"], &[]),
                closes: true,
                frames_read: 2,
            },
            Case {
                name: "framing error",
                queue_capacity: 64,
                inbound: vec![hello(), Err(ProtocolError::UnknownType(0xEE)), bye()],
                answered: (&["ack", "error#0"], &[]),
                closes: true,
                frames_read: 1,
            },
            Case {
                name: "an analyzer rejection is answered at the tick",
                queue_capacity: 64,
                inbound: vec![hello(), compose(3, &unknown_property())],
                answered: (&["ack"], &["rejected#3"]),
                closes: false,
                frames_read: 2,
            },
            Case {
                name: "a compose failure is answered with an error at the tick",
                queue_capacity: 64,
                inbound: vec![hello(), compose(4, &unserved())],
                answered: (&["ack"], &["error#4"]),
                closes: false,
                frames_read: 2,
            },
            Case {
                name: "a reply too wide for the wire becomes a short error",
                queue_capacity: 64,
                inbound: vec![hello(), compose(7, &too_wide_to_reject())],
                answered: (&["ack"], &["error#7"]),
                closes: false,
                frames_read: 2,
            },
        ];
        for case in cases {
            let (shared, recorder) = shared_with_recorder();
            let config = BrokerConfig {
                admission: AdmissionConfig {
                    queue_capacity: case.queue_capacity,
                    ..AdmissionConfig::default()
                },
            };
            let mut router = Router::new(shared, config);
            router.open(0);
            let (mut before, mut at_tick) = (Vec::new(), Vec::new());
            for inbound in case.inbound {
                router.on_inbound(0, inbound, &mut record(&mut before));
            }
            let closed = router.tick(&mut record(&mut at_tick));
            assert_eq!(before, case.answered.0, "{}", case.name);
            assert_eq!(at_tick, case.answered.1, "{}", case.name);
            assert_eq!(closed, if case.closes { vec![0] } else { vec![] });
            assert_eq!(router.is_open(0), !case.closes, "{}", case.name);
            let snap = recorder.snapshot().unwrap();
            assert_eq!(
                snap.counter(keys::DAEMON_FRAMES_READ),
                case.frames_read,
                "{}",
                case.name
            );
            assert_eq!(
                snap.counter(keys::DAEMON_FRAMES_WRITTEN),
                (before.len() + at_tick.len()) as u64,
                "{}",
                case.name
            );
        }
    }

    #[test]
    fn replies_owed_to_a_vanished_peer_are_dropped() {
        let (shared, _recorder) = shared_with_recorder();
        let mut router = Router::new(shared, BrokerConfig::default());
        let mut sent = Vec::new();
        for conn_id in [0, 1] {
            router.open(conn_id);
            router.on_inbound(conn_id, hello(), &mut |_, _| {});
            router.on_inbound(conn_id, compose(conn_id, &request("t")), &mut |_, _| {});
        }
        router.disconnect(0);
        router.tick(&mut |conn_id, frame| sent.push((conn_id, describe(&frame))));
        assert_eq!(sent, [(1, "completed#1".to_owned())]);
    }
}
