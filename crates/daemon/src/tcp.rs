//! The TCP transport: a reader/router/writer split over real sockets.
//!
//! ```text
//!             ┌────────────┐  RouterMsg   ┌────────────┐  Frame   ┌────────────┐
//! socket ───▶ │ reader     │ ───────────▶ │ router     │ ───────▶ │ writer     │ ───▶ socket
//!  (1/conn)   │ thread     │   (mpsc)     │ thread     │  (mpsc)  │ thread     │
//!             └────────────┘              │ + Router   │ (1/conn) └────────────┘
//!                                         └────────────┘
//! ```
//!
//! Reader threads block on [`Frame::read_from`] and forward what they
//! read — a frame, or the framing error that ended the stream; the
//! single router thread owns the [`Router`], so every protocol and
//! admission decision is made sequentially by the same core the
//! deterministic loopback drives. After draining every message
//! currently queued — the natural batch window: frames that arrived
//! while the broker was busy — the thread ticks the router once; frames
//! the router answers with go to the per-connection writer threads. No
//! thread sleeps or polls a clock; everything blocks on channels or
//! sockets.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

use qasom::SharedEnvironment;

use crate::broker::BrokerConfig;
use crate::frame::{Frame, ProtocolError};
use crate::router::Router;

enum RouterMsg {
    Connected {
        conn_id: u64,
        writer: Sender<Frame>,
    },
    Inbound {
        conn_id: u64,
        frame: Result<Frame, ProtocolError>,
    },
    Disconnected {
        conn_id: u64,
    },
    Shutdown,
}

/// A running TCP daemon; dropping the handle does not stop it — call
/// [`TcpDaemonHandle::stop`].
pub struct TcpDaemonHandle {
    addr: SocketAddr,
    router_tx: Sender<RouterMsg>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    router_thread: Option<JoinHandle<()>>,
}

impl TcpDaemonHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, shuts the router down and joins both threads.
    /// Open client sockets are not force-closed; their reader threads
    /// exit when the peers disconnect.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.router_tx.send(RouterMsg::Shutdown);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.router_thread.take() {
            let _ = t.join();
        }
    }
}

/// Binds `addr` and serves `shared` until [`TcpDaemonHandle::stop`].
///
/// # Errors
///
/// Fails when the listener cannot bind.
pub fn spawn(
    addr: &str,
    shared: SharedEnvironment,
    config: BrokerConfig,
) -> std::io::Result<TcpDaemonHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let (router_tx, router_rx) = mpsc::channel();

    let router_thread = {
        let router = Router::new(shared, config);
        std::thread::spawn(move || router_loop(router, &router_rx))
    };

    let accept_thread = {
        let stop = Arc::clone(&stop);
        let router_tx = router_tx.clone();
        std::thread::spawn(move || {
            let mut next_conn = 0u64;
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let conn_id = next_conn;
                next_conn += 1;
                if spawn_connection(conn_id, stream, &router_tx).is_err() {
                    continue;
                }
            }
        })
    };

    Ok(TcpDaemonHandle {
        addr: local,
        router_tx,
        stop,
        accept_thread: Some(accept_thread),
        router_thread: Some(router_thread),
    })
}

/// Spawns the reader and writer threads for one accepted socket.
fn spawn_connection(
    conn_id: u64,
    stream: TcpStream,
    router_tx: &Sender<RouterMsg>,
) -> std::io::Result<()> {
    // Replies are small frames written one per session: left to Nagle,
    // the second reply of a burst waits out the peer's delayed ACK.
    stream.set_nodelay(true)?;
    let reader_stream = stream.try_clone()?;
    let (writer_tx, writer_rx) = mpsc::channel::<Frame>();
    if router_tx
        .send(RouterMsg::Connected {
            conn_id,
            writer: writer_tx,
        })
        .is_err()
    {
        return Ok(());
    }

    // Writer: drains the frame channel onto the socket; exits when the
    // router drops the sender (disconnect/shutdown) or the write fails.
    let mut writer_stream = stream;
    std::thread::spawn(move || {
        while let Ok(frame) = writer_rx.recv() {
            if frame.write_to(&mut writer_stream).is_err() {
                break;
            }
        }
        let _ = writer_stream.shutdown(std::net::Shutdown::Both);
    });

    // Reader: blocks on frames, forwards them to the router. A framing
    // error goes to the router too (it answers `ERROR`) and ends the
    // stream: nothing after it can be trusted to start a frame.
    let router_tx = router_tx.clone();
    let mut reader = reader_stream;
    std::thread::spawn(move || loop {
        let inbound = Frame::read_from(&mut reader).transpose();
        let more = matches!(inbound, Some(Ok(_)));
        let msg = match inbound {
            Some(frame) => RouterMsg::Inbound { conn_id, frame },
            None => RouterMsg::Disconnected { conn_id },
        };
        if router_tx.send(msg).is_err() || !more {
            break;
        }
    });
    Ok(())
}

fn router_loop(mut router: Router, rx: &Receiver<RouterMsg>) {
    let mut writers: BTreeMap<u64, Sender<Frame>> = BTreeMap::new();
    // Block for the first message, then drain whatever else arrived
    // while the broker was busy — that backlog is the batch window.
    'serve: while let Ok(first) = rx.recv() {
        let mut backlog = vec![first];
        backlog.extend(rx.try_iter());
        for msg in backlog {
            match msg {
                RouterMsg::Connected { conn_id, writer } => {
                    router.open(conn_id);
                    writers.insert(conn_id, writer);
                }
                RouterMsg::Inbound { conn_id, frame } => {
                    router.on_inbound(conn_id, frame, &mut |to, frame| {
                        forward(&writers, to, frame)
                    });
                }
                RouterMsg::Disconnected { conn_id } => {
                    router.disconnect(conn_id);
                    writers.remove(&conn_id);
                }
                RouterMsg::Shutdown => break 'serve,
            }
        }
        // Dropping a closed connection's sender lets its writer thread
        // flush what is queued and shut the socket down.
        for conn_id in router.tick(&mut |to, frame| forward(&writers, to, frame)) {
            writers.remove(&conn_id);
        }
    }
}

fn forward(writers: &BTreeMap<u64, Sender<Frame>>, conn_id: u64, frame: Frame) {
    if let Some(writer) = writers.get(&conn_id) {
        // A dead writer thread means the peer is gone; its reader will
        // report the disconnect.
        let _ = writer.send(frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameType;
    use crate::session::{decode_client_event, ClientEvent, ClientOutcome};
    use crate::testkit::{request, shared, too_wide_to_reject};
    use crate::wire;

    fn connect(handle: &TcpDaemonHandle) -> TcpStream {
        let mut client = TcpStream::connect(handle.addr()).unwrap();
        Frame {
            frame_type: FrameType::Hello,
            payload: wire::encode_hello("tcp-test").unwrap(),
        }
        .write_to(&mut client)
        .unwrap();
        let ack = Frame::read_from(&mut client).unwrap().unwrap();
        assert!(matches!(
            decode_client_event(&ack).unwrap(),
            ClientEvent::HelloAck(_)
        ));
        client
    }

    fn session(client: &mut TcpStream, corr_id: u64, request: &qasom::UserRequest) -> ClientEvent {
        Frame {
            frame_type: FrameType::Compose,
            payload: wire::encode_compose(corr_id, request).unwrap(),
        }
        .write_to(client)
        .unwrap();
        let reply = Frame::read_from(client).unwrap().unwrap();
        decode_client_event(&reply).unwrap()
    }

    #[test]
    fn sessions_roundtrip_over_a_real_socket() {
        let handle = spawn("127.0.0.1:0", shared(11), BrokerConfig::default()).unwrap();
        let mut client = connect(&handle);
        match session(&mut client, 9, &request("t")) {
            ClientEvent::Reply {
                corr_id: 9,
                outcome: ClientOutcome::Completed(summary),
            } => assert!(summary.success),
            other => panic!("expected completion, got {other:?}"),
        }
        // BYE closes the connection from the daemon's side.
        Frame::bare(FrameType::Bye).write_to(&mut client).unwrap();
        assert_eq!(Frame::read_from(&mut client), Ok(None));
        handle.stop();
    }

    /// The rejection quotes a constraint name too long for the reply's
    /// `u16` string width; the session must still get an answer.
    #[test]
    fn a_reply_too_wide_to_encode_is_answered_with_an_error_frame() {
        let handle = spawn("127.0.0.1:0", shared(11), BrokerConfig::default()).unwrap();
        let mut client = connect(&handle);
        match session(&mut client, 5, &too_wide_to_reject()) {
            ClientEvent::Reply {
                corr_id: 5,
                outcome: ClientOutcome::Failed { message, .. },
            } => assert!(message.contains("64 KiB"), "{message}"),
            other => panic!("expected a typed failure, got {other:?}"),
        }
        // The connection stays usable.
        assert!(matches!(
            session(&mut client, 6, &request("t")),
            ClientEvent::Reply {
                corr_id: 6,
                outcome: ClientOutcome::Completed(_)
            }
        ));
        drop(client);
        handle.stop();
    }
}
