//! Integration tests for the `qasomd` broker over the deterministic
//! loopback transport: batched admission pays discovery once per batch,
//! overload sheds typed `Busy` replies in a deterministic order, the
//! scripted stress workload is byte-identical per seed, and a real TCP
//! socket answers a seeded frame script with the same bytes.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;

use qasom::{SharedEnvironment, UserRequest};
use qasom_bench::scenarios;
use qasom_daemon::{
    wire, AdmissionConfig, BrokerConfig, ClientEvent, ClientOutcome, Frame, FrameType,
    LoopbackClient, LoopbackDaemon,
};
use qasom_obs::{keys, MemoryRecorder};
use qasom_qos::Unit;
use qasom_task::{Activity, TaskNode, UserTask};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One concept, six providers, recorder installed.
fn market(seed: u64) -> SharedEnvironment {
    let mut env = scenarios::one_concept_market(6, seed).unwrap();
    env.set_recorder(Arc::new(MemoryRecorder::new()));
    SharedEnvironment::new(env)
}

fn request() -> UserRequest {
    scenarios::one_activity_request("t").unwrap()
}

fn counter(shared: &SharedEnvironment, key: &str) -> u64 {
    shared
        .with(|e| e.recorder().and_then(|r| r.snapshot()))
        .map_or(0, |snap| snap.counter(key))
}

fn connect_ready(daemon: &mut LoopbackDaemon, n: usize) -> Vec<LoopbackClient> {
    let clients: Vec<_> = (0..n)
        .map(|i| {
            let c = daemon.connect();
            daemon.send_hello(c, &format!("client-{i}")).unwrap();
            c
        })
        .collect();
    daemon.pump();
    for c in &clients {
        let events = daemon.drain_events(*c).unwrap();
        assert!(matches!(events[..], [ClientEvent::HelloAck(_)]));
    }
    clients
}

/// (a) A batch of same-signature sessions from distinct clients does
/// exactly ONE discovery pass — the tentpole's amortisation claim,
/// proven through the `discovery.*` counters.
#[test]
fn a_shared_activity_batch_runs_one_discovery_pass() {
    const N: usize = 6;
    let shared = market(7);
    let mut daemon = LoopbackDaemon::new(
        shared.clone(),
        BrokerConfig {
            admission: AdmissionConfig {
                queue_capacity: 64,
                client_quota: 8,
                batch_max: N,
            },
        },
    );
    let clients = connect_ready(&mut daemon, N);
    let before =
        counter(&shared, keys::DISCOVERY_INDEXED) + counter(&shared, keys::DISCOVERY_LINEAR);

    for (i, c) in clients.iter().enumerate() {
        daemon.send_compose(*c, i as u64 + 1, &request()).unwrap();
    }
    daemon.pump();

    for (i, c) in clients.iter().enumerate() {
        let events = daemon.drain_events(*c).unwrap();
        assert!(
            matches!(
                &events[..],
                [ClientEvent::Reply {
                    corr_id,
                    outcome: ClientOutcome::Completed(summary),
                }] if *corr_id == i as u64 + 1 && summary.success
            ),
            "client {i} events: {events:?}"
        );
    }

    let after =
        counter(&shared, keys::DISCOVERY_INDEXED) + counter(&shared, keys::DISCOVERY_LINEAR);
    assert_eq!(after - before, 1, "one discovery pass for {N} sessions");
    assert_eq!(counter(&shared, keys::DAEMON_BATCHES), 1);
    assert_eq!(counter(&shared, keys::DAEMON_BATCHED_SESSIONS), N as u64);
    assert_eq!(counter(&shared, keys::DAEMON_COMPLETED), N as u64);
    // Each batched session still executed individually.
    assert_eq!(counter(&shared, keys::SERVING_WRITE_LOCKS), N as u64);
}

/// (b) Submissions past queue capacity are shed with typed `Busy`
/// replies — no panic, no unbounded queue — and the Busy correlation
/// ids are exactly the tail of the submission script, in order.
#[test]
fn over_capacity_sessions_shed_busy_in_submission_order() {
    const CAPACITY: usize = 3;
    let shared = market(9);
    let mut daemon = LoopbackDaemon::new(
        shared.clone(),
        BrokerConfig {
            admission: AdmissionConfig {
                queue_capacity: CAPACITY,
                client_quota: 8,
                batch_max: 8,
            },
        },
    );
    let clients = connect_ready(&mut daemon, 1);
    let c = clients[0];

    for corr in 1..=7u64 {
        daemon.send_compose(c, corr, &request()).unwrap();
    }
    daemon.pump();

    let events = daemon.drain_events(c).unwrap();
    let mut completed = Vec::new();
    let mut busy = Vec::new();
    for event in events {
        match event {
            ClientEvent::Reply {
                corr_id,
                outcome: ClientOutcome::Completed(_),
            } => completed.push(corr_id),
            ClientEvent::Reply {
                corr_id,
                outcome: ClientOutcome::Busy { retry_after_ticks },
            } => {
                assert!(retry_after_ticks >= 1);
                busy.push(corr_id);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
    // First CAPACITY submissions admitted (and served), the rest shed
    // as Busy in exactly the order they were submitted.
    assert_eq!(completed, vec![1, 2, 3]);
    assert_eq!(busy, vec![4, 5, 6, 7]);
    assert_eq!(counter(&shared, keys::DAEMON_SHED), 4);
    assert_eq!(counter(&shared, keys::DAEMON_ADMITTED), CAPACITY as u64);

    // Re-running the same script against a fresh daemon sheds the same
    // correlation ids: the Busy ordering is deterministic.
    let shared2 = market(9);
    let mut daemon2 = LoopbackDaemon::new(
        shared2,
        BrokerConfig {
            admission: AdmissionConfig {
                queue_capacity: CAPACITY,
                client_quota: 8,
                batch_max: 8,
            },
        },
    );
    let c2 = connect_ready(&mut daemon2, 1)[0];
    for corr in 1..=7u64 {
        daemon2.send_compose(c2, corr, &request()).unwrap();
    }
    daemon2.pump();
    let busy2: Vec<u64> = daemon2
        .drain_events(c2)
        .unwrap()
        .into_iter()
        .filter_map(|e| match e {
            ClientEvent::Reply {
                corr_id,
                outcome: ClientOutcome::Busy { .. },
            } => Some(corr_id),
            _ => None,
        })
        .collect();
    assert_eq!(busy2, busy);
}

/// The `Busy` retry hint at the exact-capacity boundary: with the queue
/// full at `queue_capacity == 4` and `batch_max == 2`, the backlog plus
/// the retrying session itself is ceil(5/2) = 3 batch drains, plus the
/// tick that re-admits it — 4 ticks. The pre-fix rounding
/// (`ceil(len/batch)`) said 3 whenever the queue divided evenly into
/// batches, one tick short of when capacity actually frees up for the
/// retrier.
#[test]
fn busy_hint_covers_the_retrier_at_the_capacity_boundary() {
    let shared = market(11);
    let mut daemon = LoopbackDaemon::new(
        shared.clone(),
        BrokerConfig {
            admission: AdmissionConfig {
                queue_capacity: 4,
                client_quota: 8,
                batch_max: 2,
            },
        },
    );
    let c = connect_ready(&mut daemon, 1)[0];
    for corr in 1..=5u64 {
        daemon.send_compose(c, corr, &request()).unwrap();
    }
    daemon.pump();

    let events = daemon.drain_events(c).unwrap();
    let hints: Vec<(u64, u32)> = events
        .iter()
        .filter_map(|e| match e {
            ClientEvent::Reply {
                corr_id,
                outcome: ClientOutcome::Busy { retry_after_ticks },
            } => Some((*corr_id, *retry_after_ticks)),
            _ => None,
        })
        .collect();
    assert_eq!(hints, vec![(5, 4)], "events: {events:?}");
    assert_eq!(counter(&shared, keys::DAEMON_SHED), 1);
}

/// A client exceeding its per-identity quota is shed even while the
/// queue has room; other clients are unaffected.
#[test]
fn quota_sheds_only_the_greedy_client() {
    let shared = market(13);
    let mut daemon = LoopbackDaemon::new(
        shared.clone(),
        BrokerConfig {
            admission: AdmissionConfig {
                queue_capacity: 64,
                client_quota: 2,
                batch_max: 8,
            },
        },
    );
    let clients = connect_ready(&mut daemon, 2);

    // Client 0 submits four (two over quota); client 1 submits one.
    for corr in 1..=4u64 {
        daemon.send_compose(clients[0], corr, &request()).unwrap();
    }
    daemon.send_compose(clients[1], 9, &request()).unwrap();
    daemon.pump();

    let greedy = daemon.drain_events(clients[0]).unwrap();
    let busy: Vec<u64> = greedy
        .iter()
        .filter_map(|e| match e {
            ClientEvent::Reply {
                corr_id,
                outcome: ClientOutcome::Busy { .. },
            } => Some(*corr_id),
            _ => None,
        })
        .collect();
    assert_eq!(busy, vec![3, 4]);
    let polite = daemon.drain_events(clients[1]).unwrap();
    assert!(matches!(
        polite[..],
        [ClientEvent::Reply {
            corr_id: 9,
            outcome: ClientOutcome::Completed(_),
        }]
    ));
    assert_eq!(counter(&shared, keys::DAEMON_QUOTA_DENIALS), 2);
    assert_eq!(counter(&shared, keys::DAEMON_SHED), 0);
}

/// (c) The scripted daemon stress workload is byte-identical across
/// repeats of the same configuration — the determinism contract the CI
/// `cmp` check relies on — and differs across seeds.
#[test]
fn daemon_stress_reports_are_byte_identical_per_seed() {
    let stress = |seed: &str| qasom_bench::scenarios::run("daemon-stress", &["--seed", seed]);
    let a = stress("42").unwrap();
    let b = stress("42").unwrap();
    assert_eq!(a, b);
    assert!(
        a.contains(&format!("\"{}\": ", keys::DAEMON_BATCHES)),
        "report: {a}"
    );

    let other = stress("1729").unwrap();
    assert_ne!(a, other, "the seed must reach the synthetic substrate");
}

/// One step of a frame script: bytes a connection sends, and whether the
/// daemon answers them with a frame (`BYE` is answered by closing).
struct Step {
    conn: usize,
    bytes: Vec<u8>,
    answered: bool,
}

/// A seeded script over `conns` connections: mostly well-formed traffic
/// (handshakes, sessions that complete, fail, are rejected, or whose
/// rejection is too wide to encode), salted with everything that closes
/// a connection — `BYE`, out-of-turn and server-only frames, a bad
/// version, a truncated payload, and bytes that are not a frame at all.
fn frame_script(seed: u64, conns: usize, steps: usize) -> Vec<Step> {
    fn frame(frame_type: FrameType, payload: Vec<u8>) -> Vec<u8> {
        let mut bytes = Vec::new();
        Frame {
            frame_type,
            payload,
        }
        .encode(&mut bytes)
        .unwrap();
        bytes
    }
    fn task(name: &str, activity: &str, function: &str) -> UserRequest {
        let node = TaskNode::activity(Activity::new(activity, function));
        UserRequest::new(UserTask::new(name, node).unwrap()).weight("Delay", 1.0)
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut greeted = vec![false; conns];
    let mut script = Vec::new();
    for corr_id in 1..=steps as u64 {
        let conn = rng.gen_range(0..conns);
        let compose = |request: UserRequest| {
            frame(
                FrameType::Compose,
                wire::encode_compose(corr_id, &request).unwrap(),
            )
        };
        let hello = || frame(FrameType::Hello, wire::encode_hello("script").unwrap());
        let roll = rng.gen_range(0usize..100);
        let (bytes, answered) = if !greeted[conn] && roll < 85 {
            greeted[conn] = true;
            (hello(), true)
        } else {
            match roll {
                0..=39 => (compose(task(["t", "u"][roll % 2], "a", "d#A")), true),
                40..=49 => (compose(task("t", &"é".repeat(3000), "d#Nothing")), true),
                50..=59 => {
                    let bogus = task("t", "a", "d#A").constraint("Bogus", 1.0, Unit::Dimensionless);
                    (compose(bogus.unwrap()), true)
                }
                60..=64 => {
                    let wide = task("t", "a", "d#A").constraint(
                        "x".repeat(65_500),
                        1.0,
                        Unit::Dimensionless,
                    );
                    (compose(wide.unwrap()), true)
                }
                65..=74 => (frame(FrameType::Bye, Vec::new()), false),
                75..=79 => (hello(), true),
                80..=84 => (frame(FrameType::Busy, wire::encode_busy(corr_id, 1)), true),
                85..=89 => (frame(FrameType::Hello, vec![9, 0, 0]), true),
                90..=93 => (frame(FrameType::Compose, vec![0; 5]), true),
                94..=96 => (vec![0, 0, 0, 1, 0xEE], true),
                _ => (vec![0xFF; 4], true),
            }
        };
        script.push(Step {
            conn,
            bytes,
            answered,
        });
    }
    script
}

/// Whether the daemon closes the connection after this exchange: `BYE`
/// (no answer), or a connection-level `ERROR` (correlation id 0).
fn closes(answer: Option<&Frame>) -> bool {
    answer.is_none_or(|frame| {
        frame.frame_type == FrameType::Error
            && wire::decode_error(&frame.payload).is_ok_and(|(corr_id, ..)| corr_id == 0)
    })
}

type Answers = Vec<Vec<Frame>>;

/// Frames the daemon counted as read and as written.
fn frame_traffic(shared: &SharedEnvironment) -> [u64; 2] {
    [keys::DAEMON_FRAMES_READ, keys::DAEMON_FRAMES_WRITTEN].map(|key| counter(shared, key))
}

fn drive_loopback(script: &[Step], conns: usize, config: BrokerConfig) -> (Answers, [u64; 2]) {
    let shared = market(5);
    let mut daemon = LoopbackDaemon::new(shared.clone(), config);
    let clients: Vec<_> = (0..conns).map(|_| daemon.connect()).collect();
    let mut answers = vec![Vec::new(); conns];
    for step in script {
        let client = clients[step.conn];
        if daemon.is_closed(client) {
            continue;
        }
        daemon.send_bytes(client, &step.bytes).unwrap();
        daemon.pump();
        // An unanswered `BYE` leaves nothing to drain: the pump drops
        // the closed connection with its empty buffers.
        let mut frames = if step.answered {
            daemon.drain_frames(client).unwrap()
        } else {
            Vec::new()
        };
        assert_eq!(frames.len(), usize::from(step.answered));
        assert_eq!(daemon.is_closed(client), closes(frames.first()));
        answers[step.conn].append(&mut frames);
    }
    (answers, frame_traffic(&shared))
}

fn drive_tcp(script: &[Step], conns: usize, config: BrokerConfig) -> (Answers, [u64; 2]) {
    let shared = market(5);
    let handle = qasom_daemon::spawn("127.0.0.1:0", shared.clone(), config).unwrap();
    let mut sockets: Vec<Option<TcpStream>> = (0..conns)
        .map(|_| Some(TcpStream::connect(handle.addr()).unwrap()))
        .collect();
    let mut answers = vec![Vec::new(); conns];
    for step in script {
        let Some(socket) = &mut sockets[step.conn] else {
            continue;
        };
        // Lock step — one exchange in flight — so admission and batching
        // see the order the loopback run sees.
        socket.write_all(&step.bytes).unwrap();
        let answer = step
            .answered
            .then(|| Frame::read_from(socket).unwrap().expect("an answer"));
        if closes(answer.as_ref()) {
            assert_eq!(Frame::read_from(socket), Ok(None), "daemon closes");
            sockets[step.conn] = None;
        }
        answers[step.conn].extend(answer);
    }
    drop(sockets);
    handle.stop();
    (answers, frame_traffic(&shared))
}

/// (e) The oracle `tcp ≡ loopback`: one seeded frame script, driven
/// through the in-process transport and through a real socket, is
/// answered with byte-identical frames on every connection and counts
/// the same frame traffic — once with room in the queue and once with
/// none, so every session is shed `BUSY`.
#[test]
fn tcp_and_loopback_answer_a_seeded_script_byte_identically() {
    const CONNS: usize = 12;
    let script = frame_script(0x7c9, CONNS, 160);
    for queue_capacity in [64, 0] {
        let config = BrokerConfig {
            admission: AdmissionConfig {
                queue_capacity,
                ..AdmissionConfig::default()
            },
        };
        let (looped, looped_traffic) = drive_loopback(&script, CONNS, config);
        let (socketed, socketed_traffic) = drive_tcp(&script, CONNS, config);
        let kinds = |kind| {
            looped
                .iter()
                .flatten()
                .filter(|f| f.frame_type == kind)
                .count()
        };
        if queue_capacity > 0 {
            // The script reaches every kind of answer.
            assert!(kinds(FrameType::HelloAck) >= CONNS / 2);
            for kind in [FrameType::Completed, FrameType::Rejected, FrameType::Error] {
                assert!(kinds(kind) > 0, "{kind:?}");
            }
        } else {
            assert!(kinds(FrameType::Busy) > 0 && kinds(FrameType::Completed) == 0);
        }
        assert_eq!(looped, socketed, "queue capacity {queue_capacity}");
        assert_eq!(looped_traffic, socketed_traffic);
    }
}
