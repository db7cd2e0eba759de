//! The per-connection session state machine.
//!
//! The [`Router`](crate::router::Router) feeds every decoded frame, from
//! either transport, through [`ConnectionSession::on_frame`]; the
//! machine enforces protocol order and turns valid frames into
//! [`SessionEvent`]s:
//!
//! ```text
//!              HELLO                 COMPOSE*
//! AwaitingHello ────▶ Ready ────────────────────▶ Ready
//!        │              │ BYE
//!        │              ▼
//!        └───────▶   Closed   (any out-of-turn frame ⇒ protocol error)
//! ```

use qasom::UserRequest;

use crate::frame::{Frame, FrameType, ProtocolError};
use crate::wire;

/// Where a connection stands in the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Nothing received yet; only `HELLO` is legal.
    AwaitingHello,
    /// Handshake done; `COMPOSE` and `BYE` are legal.
    Ready,
    /// `BYE` received (or a protocol error occurred); nothing is legal.
    Closed,
}

/// A valid inbound frame, interpreted.
#[derive(Debug)]
pub enum SessionEvent {
    /// The client introduced itself; answer with `HELLO_ACK`.
    Hello {
        /// The client's self-declared identity (quota key).
        client: String,
    },
    /// A composition session to admit.
    Submit {
        /// Client-chosen correlation id, echoed on the response frame.
        corr_id: u64,
        /// The decoded, re-validated request (boxed: it dwarfs the other
        /// variants, and events move through channels by value).
        request: Box<UserRequest>,
        /// The request-body bytes — the batch signature.
        signature: Vec<u8>,
    },
    /// Orderly goodbye; the connection is done.
    Bye,
}

/// The server side of one connection.
#[derive(Debug)]
pub struct ConnectionSession {
    state: SessionState,
    client: Option<String>,
}

impl Default for ConnectionSession {
    fn default() -> Self {
        ConnectionSession::new()
    }
}

impl ConnectionSession {
    /// A fresh connection awaiting its handshake.
    pub fn new() -> Self {
        ConnectionSession {
            state: SessionState::AwaitingHello,
            client: None,
        }
    }

    /// Current protocol state.
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// The client identity, once the handshake happened.
    pub fn client(&self) -> Option<&str> {
        self.client.as_deref()
    }

    /// Closes the session without a frame: the byte stream under it
    /// broke (oversized length prefix, unknown type byte, …).
    pub fn close(&mut self) {
        self.state = SessionState::Closed;
    }

    /// Feeds one decoded inbound frame.
    ///
    /// # Errors
    ///
    /// Protocol errors (out-of-turn frames, malformed payloads,
    /// client-only frame types) close the session: the caller should
    /// answer with an `ERROR` frame and drop the connection.
    pub fn on_frame(&mut self, frame: &Frame) -> Result<SessionEvent, ProtocolError> {
        let event = match (self.state, frame.frame_type) {
            (SessionState::AwaitingHello, FrameType::Hello) => {
                let client = wire::decode_hello(&frame.payload)?;
                self.state = SessionState::Ready;
                self.client = Some(client.clone());
                Ok(SessionEvent::Hello { client })
            }
            (SessionState::Ready, FrameType::Compose) => {
                let (corr_id, request, signature) = wire::decode_compose(&frame.payload)?;
                Ok(SessionEvent::Submit {
                    corr_id,
                    request: Box::new(request),
                    signature,
                })
            }
            (SessionState::Ready, FrameType::Bye) => {
                self.state = SessionState::Closed;
                Ok(SessionEvent::Bye)
            }
            (SessionState::AwaitingHello, _) => {
                Err(ProtocolError::OutOfTurn("expected HELLO first"))
            }
            (SessionState::Ready, FrameType::Hello) => {
                Err(ProtocolError::OutOfTurn("second HELLO"))
            }
            (SessionState::Closed, _) => Err(ProtocolError::OutOfTurn("session closed")),
            // Server-to-client frame types arriving inbound.
            (SessionState::Ready, _) => {
                Err(ProtocolError::OutOfTurn("server-only frame from client"))
            }
        };
        if event.is_err() {
            self.state = SessionState::Closed;
        }
        event
    }
}

/// The client-side view of a finished session, decoded from the
/// response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientOutcome {
    /// The session completed; the summary digests the execution.
    Completed(wire::ExecutionSummary),
    /// Admission control shed the session; retry after the hint.
    Busy {
        /// Deterministic back-off hint, in broker ticks.
        retry_after_ticks: u32,
    },
    /// Static analysis rejected the request.
    Rejected(Vec<wire::WireDiagnostic>),
    /// The daemon failed the session (compose/execute error).
    Failed {
        /// Registry epoch at failure time.
        epoch: u64,
        /// Rendered error.
        message: String,
    },
}

/// An event a client reads off its connection.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientEvent {
    /// The daemon accepted the handshake.
    HelloAck(wire::HelloAck),
    /// A session the client submitted finished.
    Reply {
        /// The correlation id the client chose at submit time.
        corr_id: u64,
        /// How the session ended.
        outcome: ClientOutcome,
    },
}

/// Decodes one server-to-client frame.
///
/// # Errors
///
/// Fails on malformed payloads and on client-to-server frame types.
pub fn decode_client_event(frame: &Frame) -> Result<ClientEvent, ProtocolError> {
    match frame.frame_type {
        FrameType::HelloAck => Ok(ClientEvent::HelloAck(wire::decode_hello_ack(
            &frame.payload,
        )?)),
        FrameType::Completed => {
            let (corr_id, summary) = wire::decode_completed(&frame.payload)?;
            Ok(ClientEvent::Reply {
                corr_id,
                outcome: ClientOutcome::Completed(summary),
            })
        }
        FrameType::Busy => {
            let (corr_id, retry_after_ticks) = wire::decode_busy(&frame.payload)?;
            Ok(ClientEvent::Reply {
                corr_id,
                outcome: ClientOutcome::Busy { retry_after_ticks },
            })
        }
        FrameType::Rejected => {
            let (corr_id, diags) = wire::decode_rejected(&frame.payload)?;
            Ok(ClientEvent::Reply {
                corr_id,
                outcome: ClientOutcome::Rejected(diags),
            })
        }
        FrameType::Error => {
            let (corr_id, epoch, message) = wire::decode_error(&frame.payload)?;
            Ok(ClientEvent::Reply {
                corr_id,
                outcome: ClientOutcome::Failed { epoch, message },
            })
        }
        FrameType::Hello | FrameType::Compose | FrameType::Bye => {
            Err(ProtocolError::OutOfTurn("client-only frame from server"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::request;

    fn compose_frame() -> Frame {
        let request = request("t");
        Frame {
            frame_type: FrameType::Compose,
            payload: wire::encode_compose(1, &request).unwrap(),
        }
    }

    #[test]
    fn happy_path_walks_the_state_machine() {
        let mut s = ConnectionSession::new();
        let hello = Frame {
            frame_type: FrameType::Hello,
            payload: wire::encode_hello("c1").unwrap(),
        };
        assert!(matches!(
            s.on_frame(&hello),
            Ok(SessionEvent::Hello { client }) if client == "c1"
        ));
        assert_eq!(s.state(), SessionState::Ready);
        assert!(matches!(
            s.on_frame(&compose_frame()),
            Ok(SessionEvent::Submit { corr_id: 1, .. })
        ));
        assert!(matches!(
            s.on_frame(&Frame::bare(FrameType::Bye)),
            Ok(SessionEvent::Bye)
        ));
        assert_eq!(s.state(), SessionState::Closed);
    }

    #[test]
    fn compose_before_hello_is_out_of_turn_and_closes() {
        let mut s = ConnectionSession::new();
        assert!(matches!(
            s.on_frame(&compose_frame()),
            Err(ProtocolError::OutOfTurn(_))
        ));
        assert_eq!(s.state(), SessionState::Closed);
        // Nothing is accepted after closure, not even a HELLO.
        let hello = Frame {
            frame_type: FrameType::Hello,
            payload: wire::encode_hello("late").unwrap(),
        };
        assert!(s.on_frame(&hello).is_err());
    }

    #[test]
    fn second_hello_is_rejected() {
        let mut s = ConnectionSession::new();
        let hello = Frame {
            frame_type: FrameType::Hello,
            payload: wire::encode_hello("c1").unwrap(),
        };
        s.on_frame(&hello).unwrap();
        assert!(matches!(
            s.on_frame(&hello),
            Err(ProtocolError::OutOfTurn("second HELLO"))
        ));
    }
}
