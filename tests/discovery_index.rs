//! Property tests of the registry's inverted capability index.
//!
//! Two invariants under arbitrary register/depart/re-register churn,
//! including re-binding the registry to a different taxonomy mid-script:
//!
//! * the incrementally-maintained index equals a from-scratch rebuild
//!   over the surviving services;
//! * indexed discovery returns exactly — same candidates, same order,
//!   same QoS — what the linear full-scan oracle returns, for black-box
//!   and white-box queries alike.

use std::sync::Arc;

use proptest::prelude::*;
use qasom_ontology::{Ontology, OntologyBuilder};
use qasom_qos::QosModel;
use qasom_registry::{
    Discovery, DiscoveryQuery, Operation, ServiceDescription, ServiceId, ServiceRegistry,
};
use qasom_task::Activity;

/// Function IRIs the churn script draws from: the whole taxonomy plus
/// IRIs unknown to the ontology (exercising the syntactic fallback
/// buckets of the index).
const FUNCTIONS: &[&str] = &[
    "d#Cap",
    "d#Cat0",
    "d#Cat1",
    "d#Cat2",
    "d#Cat0Leaf0",
    "d#Cat0Leaf1",
    "d#Cat1Leaf0",
    "d#Cat2Leaf1",
    "x#Unknown0",
    "x#Unknown1",
];

/// `Cap` over `Cat0..=2`, each over two leaves. `moved` hangs `Cat0Leaf0`
/// under `Cat1` instead of `Cat0`; `flat` makes every concept a root
/// (nothing plugs into anything).
fn taxonomy(flat: bool, moved: bool) -> Ontology {
    let mut b = OntologyBuilder::new("d");
    let root = b.concept("Cap");
    let mut child = |name: String, parent| {
        if flat {
            b.concept(&name)
        } else {
            b.subconcept(&name, parent)
        }
    };
    let mids: Vec<_> = (0..3).map(|i| child(format!("Cat{i}"), root)).collect();
    for i in 0..3 {
        for j in 0..2 {
            let parent = mids[if moved && (i, j) == (0, 0) { 1 } else { i }];
            child(format!("Cat{i}Leaf{j}"), parent);
        }
    }
    b.build().expect("tree taxonomy is acyclic")
}

/// The taxonomy every script starts bound to.
fn domain() -> Ontology {
    taxonomy(false, false)
}

/// One churn step. `operation == FUNCTIONS.len()` means "no operation";
/// departures pick among the currently live services by modulus (and are
/// no-ops on an empty registry). `Rebind(flat)` binds the registry to a
/// fresh taxonomy — flat, or with the moved leaf — and later steps
/// maintain the index under it.
#[derive(Debug, Clone, Copy)]
enum Op {
    Register { function: usize, operation: usize },
    Depart(usize),
    Rebind(bool),
}

fn arb_script() -> impl Strategy<Value = Vec<Op>> {
    let register =
        (0..FUNCTIONS.len(), 0..=FUNCTIONS.len()).prop_map(|(function, operation)| Op::Register {
            function,
            operation,
        });
    let depart = (0usize..64).prop_map(Op::Depart);
    let rebind = any::<bool>().prop_map(Op::Rebind);
    // Registrations twice as likely as departures, so registries grow;
    // a 60-step script rebinds about four times.
    prop::collection::vec(prop_oneof![8 => register, 4 => depart, 1 => rebind], 1..60)
}

/// Runs `script` against a registry bound to [`domain`].
fn churned(script: &[Op]) -> ServiceRegistry {
    let mut registry = ServiceRegistry::with_ontology(Arc::new(domain()));
    let mut live: Vec<ServiceId> = Vec::new();
    for (n, op) in script.iter().enumerate() {
        match *op {
            Op::Register {
                function,
                operation,
            } => {
                let mut desc = ServiceDescription::new(format!("s{n}"), FUNCTIONS[function]);
                if operation < FUNCTIONS.len() {
                    desc = desc.with_operation(Operation::new("op", FUNCTIONS[operation]));
                }
                live.push(registry.register(desc));
            }
            Op::Depart(k) => {
                if !live.is_empty() {
                    let id = live.remove(k % live.len());
                    registry.deregister(id);
                }
            }
            Op::Rebind(flat) => registry.bind_ontology(Arc::new(taxonomy(flat, true))),
        }
    }
    registry
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After any churn script the incremental index equals a rebuild.
    #[test]
    fn churned_index_equals_rebuild(script in arb_script()) {
        let registry = churned(&script);
        prop_assert!(registry.index_matches_rebuild());
    }

    /// Indexed discovery is byte-identical to the linear-scan oracle on
    /// every function in the pool, black-box and white-box.
    #[test]
    fn indexed_discovery_matches_linear_oracle(script in arb_script()) {
        let model = QosModel::standard();
        let registry = churned(&script);
        let onto = registry.ontology().expect("scripts never unbind");

        let discovery = Discovery::new(onto, &model);
        for function in FUNCTIONS {
            let activity = Activity::new("a", function);
            for white_box in [false, true] {
                let query = DiscoveryQuery::new(&activity).white_box(white_box);
                let indexed = discovery.discover(&registry, &query);
                let linear = discovery.discover(&registry, &query.linear_scan(true));
                prop_assert_eq!(&indexed, &linear, "function {}", function);
            }
        }
    }
}

/// Deterministic regression: register → depart → re-register the same
/// description keeps index and discovery consistent.
#[test]
fn reregistration_after_departure_is_consistent() {
    let onto = Arc::new(domain());
    let model = QosModel::standard();
    let mut registry = ServiceRegistry::with_ontology(Arc::clone(&onto));

    let desc = ServiceDescription::new("till", "d#Cat0Leaf0")
        .with_operation(Operation::new("op", "x#Unknown0"));
    let first = registry.register(desc.clone());
    registry.deregister(first);
    let second = registry.register(desc);
    assert_ne!(first, second, "service ids are never reused");
    assert!(registry.index_matches_rebuild());

    let discovery = Discovery::new(&onto, &model);
    let activity = Activity::new("a", "d#Cat0");
    let query = DiscoveryQuery::new(&activity);
    let found = discovery.discover(&registry, &query);
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].service, second);
    assert_eq!(
        found,
        discovery.discover(&registry, &query.linear_scan(true))
    );
}
