//! Concurrent multi-session use of a shared middleware instance, with
//! churn injected from another thread.

use std::thread;

use qasom::{Environment, RegistryDelta, SharedEnvironment, UserRequest};
use qasom_bench::scenarios;
use qasom_netsim::runtime::SyntheticService;
use qasom_ontology::OntologyBuilder;
use qasom_qos::QosModel;
use qasom_registry::ServiceDescription;

fn shared_market(providers: usize) -> SharedEnvironment {
    let mut b = OntologyBuilder::new("d");
    b.concept("A");
    let mut env = Environment::new(QosModel::standard(), b.build().unwrap(), 21);
    let rt = env.model().property("ResponseTime").unwrap();
    for i in 0..providers {
        let desc = ServiceDescription::new(format!("s{i}"), "d#A").with_qos(rt, 40.0 + i as f64);
        let nominal = desc.qos().clone();
        env.deploy(desc, SyntheticService::new(nominal).with_noise(0.02));
    }
    SharedEnvironment::new(env)
}

fn request() -> UserRequest {
    scenarios::one_activity_request("t").unwrap()
}

#[test]
fn many_sessions_with_concurrent_churn() {
    let shared = shared_market(12);

    // A churn thread keeps adding a provider and removing the one it
    // added the round before (one typed delta per round) while eight
    // session threads serve requests. It never touches the 12 originals:
    // a churner that outruns a session parked between compose and
    // execute could otherwise retire every candidate that composition
    // ranked, and the session would rightly be abandoned.
    let churner = {
        let s = shared.clone();
        thread::spawn(move || {
            let rt = s.with(|e| e.model().property("ResponseTime").unwrap());
            let mut previous = None;
            for round in 0..20 {
                let mut delta = RegistryDelta::new();
                if let Some(id) = previous {
                    delta = delta.undeploy(id);
                }
                delta = delta.deploy_faithful(
                    ServiceDescription::new(format!("fresh{round}"), "d#A").with_qos(rt, 45.0),
                );
                let receipt = s.apply_churn(delta);
                assert_eq!(receipt.deployed.len(), 1);
                previous = receipt.deployed.first().copied();
            }
        })
    };

    let sessions: Vec<_> = (0..8)
        .map(|_| {
            let s = shared.clone();
            thread::spawn(move || {
                let mut successes = 0;
                for _ in 0..10 {
                    // The broker's sequence: compose, then execute.
                    let (_, composition) = s.compose_with_epoch(&request()).expect("composes");
                    let report = s.execute(composition).expect("executes");
                    assert!(report.success);
                    successes += 1;
                }
                successes
            })
        })
        .collect();

    churner.join().unwrap();
    let total: usize = sessions.into_iter().map(|h| h.join().unwrap()).sum();
    // A session composes under the read lock and executes under the
    // write lock; churn slipping between the phases is absorbed by
    // dynamic binding, so every session request must still complete.
    assert_eq!(total, 80);

    // SLA records exist for every provider that actually served.
    let tracked = shared.with(|e| {
        e.registry()
            .iter()
            .filter(|(id, _)| e.sla(*id).is_some())
            .count()
    });
    assert!(tracked >= 1);
}
