//! The in-process loopback transport: byte-faithful, single-threaded,
//! deterministic.
//!
//! Loopback "connections" are pairs of byte buffers. Clients append
//! *real encoded frames* ([`crate::frame`]) to their connection's
//! inbound buffer; [`LoopbackDaemon::pump`] decodes them through the
//! same codec the TCP transport uses, hands them to the same
//! [`Router`] and appends the frames it answers with to the outbound
//! buffers. One `pump` is one deterministic scheduling round:
//!
//! 1. connections are polled in connection-id order, frames within a
//!    connection in arrival order — so admission order (and therefore
//!    shed order) is a pure function of the submission script;
//! 2. the router ticks once, draining the queue batch by batch;
//! 3. responses are written back in broker order.
//!
//! Hermetic tests drive this transport; nothing here touches a socket,
//! a clock or a thread.

use std::collections::BTreeMap;

use qasom::SharedEnvironment;

use crate::broker::BrokerConfig;
use crate::frame::{Frame, FrameType, ProtocolError};
use crate::router::Router;
use crate::session::{decode_client_event, ClientEvent};
use crate::wire;

#[derive(Default)]
struct LoopConn {
    inbound: Vec<u8>,
    outbound: Vec<u8>,
}

/// A client handle onto a loopback connection. All operations go
/// through the daemon (single-threaded determinism); the handle only
/// names the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopbackClient {
    conn_id: u64,
}

impl LoopbackClient {
    /// The connection id backing this handle.
    pub fn conn_id(&self) -> u64 {
        self.conn_id
    }
}

/// The loopback daemon: a router plus in-memory connections.
pub struct LoopbackDaemon {
    router: Router,
    conns: BTreeMap<u64, LoopConn>,
    next_conn: u64,
}

impl LoopbackDaemon {
    /// A daemon serving `shared` under the given broker config.
    pub fn new(shared: SharedEnvironment, config: BrokerConfig) -> Self {
        LoopbackDaemon {
            router: Router::new(shared, config),
            conns: BTreeMap::new(),
            next_conn: 0,
        }
    }

    /// Opens a connection. The client still has to say `HELLO`.
    pub fn connect(&mut self) -> LoopbackClient {
        let conn_id = self.next_conn;
        self.next_conn += 1;
        self.router.open(conn_id);
        self.conns.insert(conn_id, LoopConn::default());
        LoopbackClient { conn_id }
    }

    fn conn_mut(&mut self, client: LoopbackClient) -> Result<&mut LoopConn, ProtocolError> {
        self.conns
            .get_mut(&client.conn_id)
            .ok_or(ProtocolError::OutOfTurn("connection does not exist"))
    }

    /// Client side: appends raw bytes — whole frames, partial frames or
    /// garbage — to the connection's inbound buffer.
    ///
    /// # Errors
    ///
    /// Fails on unknown connections.
    pub fn send_bytes(
        &mut self,
        client: LoopbackClient,
        bytes: &[u8],
    ) -> Result<(), ProtocolError> {
        self.conn_mut(client)?.inbound.extend_from_slice(bytes);
        Ok(())
    }

    fn send_frame(&mut self, client: LoopbackClient, frame: &Frame) -> Result<(), ProtocolError> {
        frame.encode(&mut self.conn_mut(client)?.inbound)
    }

    /// Client side: sends a `HELLO` frame.
    ///
    /// # Errors
    ///
    /// Fails on unknown connections and over-wide client names.
    pub fn send_hello(&mut self, client: LoopbackClient, name: &str) -> Result<(), ProtocolError> {
        let frame = Frame {
            frame_type: FrameType::Hello,
            payload: wire::encode_hello(name)?,
        };
        self.send_frame(client, &frame)
    }

    /// Client side: sends a `COMPOSE` frame.
    ///
    /// # Errors
    ///
    /// Fails on unknown connections and over-wide requests.
    pub fn send_compose(
        &mut self,
        client: LoopbackClient,
        corr_id: u64,
        request: &qasom::UserRequest,
    ) -> Result<(), ProtocolError> {
        let frame = Frame {
            frame_type: FrameType::Compose,
            payload: wire::encode_compose(corr_id, request)?,
        };
        self.send_frame(client, &frame)
    }

    /// Client side: sends a `BYE` frame.
    ///
    /// # Errors
    ///
    /// Fails on unknown connections.
    pub fn send_bye(&mut self, client: LoopbackClient) -> Result<(), ProtocolError> {
        self.send_frame(client, &Frame::bare(FrameType::Bye))
    }

    /// Client side: takes every response frame buffered on the
    /// connection, in order.
    ///
    /// # Errors
    ///
    /// Fails on unknown connections.
    pub fn drain_frames(&mut self, client: LoopbackClient) -> Result<Vec<Frame>, ProtocolError> {
        let conn = self.conn_mut(client)?;
        let mut frames = Vec::new();
        while let Some(frame) = Frame::take(&mut conn.outbound)? {
            frames.push(frame);
        }
        Ok(frames)
    }

    /// Client side: decodes every response frame buffered on the
    /// connection, in order.
    ///
    /// # Errors
    ///
    /// Fails when the daemon wrote a frame the client codec rejects
    /// (a codec bug, not a runtime condition).
    pub fn drain_events(
        &mut self,
        client: LoopbackClient,
    ) -> Result<Vec<ClientEvent>, ProtocolError> {
        let frames = self.drain_frames(client)?;
        frames.iter().map(decode_client_event).collect()
    }

    /// One deterministic scheduling round (see the module docs).
    ///
    /// Protocol errors on a connection do not abort the round: the
    /// offender gets an `ERROR` frame (correlation id 0) and is closed;
    /// other connections proceed.
    pub fn pump(&mut self) {
        let LoopbackDaemon { router, conns, .. } = self;
        let conn_ids: Vec<u64> = conns.keys().copied().collect();
        for conn_id in conn_ids {
            // Detached while polled: the sink writes into `conns`.
            let mut inbound = conns
                .get_mut(&conn_id)
                .map(|c| std::mem::take(&mut c.inbound))
                .unwrap_or_default();
            // A closed connection reads nothing more.
            while router.is_open(conn_id) {
                let Some(frame) = Frame::take(&mut inbound).transpose() else {
                    break;
                };
                router.on_inbound(conn_id, frame, &mut |to, frame| append(conns, to, &frame));
            }
            if let Some(conn) = conns.get_mut(&conn_id) {
                conn.inbound = inbound;
            }
        }
        router.tick(&mut |to, frame| append(conns, to, &frame));
        // Closed connections whose buffers are drained can be dropped.
        conns
            .retain(|&id, c| router.is_open(id) || !c.inbound.is_empty() || !c.outbound.is_empty());
    }

    /// Whether the connection is closed (said `BYE` or hit a protocol
    /// error) or already dropped.
    pub fn is_closed(&self, client: LoopbackClient) -> bool {
        !self.router.is_open(client.conn_id)
    }
}

fn append(conns: &mut BTreeMap<u64, LoopConn>, conn_id: u64, frame: &Frame) {
    if let Some(conn) = conns.get_mut(&conn_id) {
        // The router only hands over frames that fit the length cap.
        let _ = frame.encode(&mut conn.outbound);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ClientOutcome;
    use crate::testkit::{request, shared};
    use qasom::UserRequest;
    use qasom_task::{Activity, TaskNode, UserTask};

    #[test]
    fn hello_compose_bye_roundtrip() {
        let mut d = LoopbackDaemon::new(shared(3), BrokerConfig::default());
        let c = d.connect();
        d.send_hello(c, "client-1").unwrap();
        d.send_compose(c, 42, &request("t")).unwrap();
        d.pump();
        let events = d.drain_events(c).unwrap();
        assert_eq!(events.len(), 2);
        assert!(matches!(events[0], ClientEvent::HelloAck(_)));
        assert!(matches!(
            &events[1],
            ClientEvent::Reply {
                corr_id: 42,
                outcome: ClientOutcome::Completed(s)
            } if s.success
        ));
        d.send_bye(c).unwrap();
        d.pump();
        assert!(d.is_closed(c));
    }

    #[test]
    fn garbage_bytes_get_an_error_frame_and_leave_other_connections_alone() {
        let mut d = LoopbackDaemon::new(shared(3), BrokerConfig::default());
        let (bad, good) = (d.connect(), d.connect());
        d.send_bytes(bad, &[0, 0, 0, 1, 0xEE]).unwrap();
        d.send_hello(good, "client-2").unwrap();
        d.pump();
        assert!(matches!(
            d.drain_events(bad).unwrap()[..],
            [ClientEvent::Reply {
                corr_id: 0,
                outcome: ClientOutcome::Failed { .. }
            }]
        ));
        assert!(d.is_closed(bad));
        assert!(matches!(
            d.drain_events(good).unwrap()[..],
            [ClientEvent::HelloAck(_)]
        ));
        assert!(!d.is_closed(good));
    }

    /// `NoServiceFor` quotes the activity name; either name below puts a
    /// two-byte character across byte 4096 of the message, whatever the
    /// parity of the text in front of it.
    #[test]
    fn multibyte_names_in_long_error_messages_do_not_stall_the_daemon() {
        let mut d = LoopbackDaemon::new(shared(3), BrokerConfig::default());
        let c = d.connect();
        d.send_hello(c, "client-1").unwrap();
        for (corr_id, lead) in [(1, ""), (2, "a")] {
            let name = format!("{lead}{}", "é".repeat(3000));
            let task =
                UserTask::new("t", TaskNode::activity(Activity::new(name, "d#Nothing"))).unwrap();
            d.send_compose(c, corr_id, &UserRequest::new(task)).unwrap();
        }
        d.pump();
        let events = d.drain_events(c).unwrap();
        assert_eq!(events.len(), 3);
        for (event, want) in events[1..].iter().zip([1, 2]) {
            match event {
                ClientEvent::Reply {
                    corr_id,
                    outcome: ClientOutcome::Failed { message, .. },
                } => {
                    assert_eq!(*corr_id, want);
                    assert!(message.len() <= 4096 && message.contains('é'), "{message}");
                }
                other => panic!("expected a typed failure, got {other:?}"),
            }
        }
    }
}
