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
//!
//! A deterministic market whose match degrees interleave by id pins the
//! order both paths share against a reference built from the ontology.

use std::sync::Arc;

use proptest::prelude::*;
use qasom::Environment;
use qasom_netsim::runtime::SyntheticService;
use qasom_ontology::{Iri, MatchDegree, Ontology, OntologyBuilder};
use qasom_qos::QosModel;
use qasom_registry::{
    Discovery, DiscoveryQuery, MatchedVia, Operation, ServiceDescription, ServiceId,
    ServiceRegistry,
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

/// Discovery's order on a market mixing match degrees: for `d#Cat0`,
/// exact profiles, plug-in profiles, and white-box operations matching
/// exactly or by plug-in interleave by id, with services that do not
/// qualify between them. Both paths, and the environment's white-box
/// discovery, return the reference order: every live service evaluated
/// from the ontology directly, then sorted by degree (best first) and
/// ascending id.
#[test]
fn mixed_degrees_come_out_best_first_then_by_id() {
    let mut env = Environment::new(QosModel::standard(), domain(), 1);
    for i in 0..42 {
        let name = format!("s{i}");
        let desc = match i % 7 {
            0 => ServiceDescription::new(name, "d#Cat0Leaf1"),
            1 => ServiceDescription::new(name, "d#Cat0"),
            2 => ServiceDescription::new(name, "d#Cat1")
                .with_operation(Operation::new("op", "d#Cat0Leaf0")),
            3 => ServiceDescription::new(name, "d#Cat0Leaf0"),
            4 => ServiceDescription::new(name, "x#Unknown0")
                .with_operation(Operation::new("op", "d#Cat0")),
            5 => ServiceDescription::new(name, "d#Cat2"),
            _ => ServiceDescription::new(name, "d#Cat2Leaf1")
                .with_operation(Operation::new("op", "d#Cat0Leaf1"))
                .with_operation(Operation::new("op", "d#Cat0")),
        };
        let behaviour = SyntheticService::new(desc.qos().clone());
        env.deploy(desc, behaviour);
    }
    // Departures leave holes in the id sequence.
    for id in [5, 8, 22] {
        env.undeploy(ServiceId::from_raw(id));
    }

    let (onto, registry) = (env.ontology(), env.registry());
    let direct =
        |required: &Iri, offered: &Iri| match (onto.concept(required), onto.concept(offered)) {
            (Some(req), Some(off)) => onto.match_degree(req, off),
            _ if required == offered => MatchDegree::Exact,
            _ => MatchDegree::Fail,
        };
    let activity = Activity::new("a", "d#Cat0");
    let discovery = Discovery::new(onto, env.model());
    for white_box in [false, true] {
        let mut reference: Vec<(ServiceId, MatchDegree, MatchedVia)> = registry
            .iter()
            .filter_map(|(id, desc)| {
                let profile = direct(activity.function(), desc.function());
                if profile.is_usable() {
                    return Some((id, profile, MatchedVia::Profile));
                }
                if !white_box {
                    return None;
                }
                // The best operation; ties go to the last declared.
                let (op, degree) = desc
                    .operations()
                    .iter()
                    .map(|op| direct(activity.function(), op.function()))
                    .enumerate()
                    .filter(|&(_, degree)| degree.is_usable())
                    .max_by_key(|&(_, degree)| degree)?;
                Some((id, degree, MatchedVia::Operation(op)))
            })
            .collect();
        reference.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let has = |degree| reference.iter().any(|r| r.1 == degree);
        assert!(
            has(MatchDegree::Exact) && has(MatchDegree::PlugIn),
            "the market mixes degrees"
        );

        let query = DiscoveryQuery::new(&activity).white_box(white_box);
        for linear in [false, true] {
            let found: Vec<_> = discovery
                .discover(registry, &query.linear_scan(linear))
                .iter()
                .map(|c| (c.service, c.degree, c.matched_via))
                .collect();
            assert_eq!(found, reference, "white-box {white_box}, linear {linear}");
        }
        if white_box {
            let served: Vec<_> = env.discover(&activity).iter().map(|c| c.id()).collect();
            let expected: Vec<_> = reference.iter().map(|r| r.0).collect();
            assert_eq!(served, expected);
        }
    }
}
