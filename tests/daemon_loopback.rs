//! Integration tests for the `qasomd` broker over the deterministic
//! loopback transport: batched admission pays discovery once per batch,
//! overload sheds typed `Busy` replies in a deterministic order, and
//! the scripted stress workload is byte-identical per seed.

use std::sync::Arc;

use qasom::{Environment, SharedEnvironment, UserRequest};
use qasom_daemon::{
    AdmissionConfig, BrokerConfig, ClientEvent, ClientOutcome, LoopbackClient, LoopbackDaemon,
};
use qasom_netsim::runtime::SyntheticService;
use qasom_obs::{keys, MemoryRecorder};
use qasom_ontology::OntologyBuilder;
use qasom_qos::QosModel;
use qasom_registry::ServiceDescription;
use qasom_task::{Activity, TaskNode, UserTask};

/// One concept, six providers, recorder installed.
fn market(seed: u64) -> SharedEnvironment {
    let mut b = OntologyBuilder::new("d");
    b.concept("A");
    let mut env = Environment::new(QosModel::standard(), b.build().unwrap(), seed);
    env.set_recorder(Arc::new(MemoryRecorder::new()));
    let rt = env.model().property("ResponseTime").unwrap();
    for i in 0..6 {
        let desc = ServiceDescription::new(format!("s{i}"), "d#A").with_qos(rt, 40.0 + i as f64);
        let nominal = desc.qos().clone();
        env.deploy(desc, SyntheticService::new(nominal));
    }
    SharedEnvironment::new(env)
}

fn request() -> UserRequest {
    UserRequest::new(UserTask::new("t", TaskNode::activity(Activity::new("a", "d#A"))).unwrap())
        .weight("Delay", 1.0)
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
    assert!(a.contains("\"daemon\": {"), "report: {a}");

    let other = stress("1729").unwrap();
    assert_ne!(a, other, "the seed must reach the synthetic substrate");
}
