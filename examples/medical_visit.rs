//! The pervasive-medical-visit scenario: the hospital information system
//! plans Bob's visit (registration → diagnosis → pharmacy → payment) over
//! the services currently on duty, selecting the desks with the best QoS.
//! When the assigned doctor becomes unavailable mid-visit, the system
//! dynamically re-assigns Bob to another doctor of the same specialty —
//! service substitution at work.
//!
//! ```text
//! cargo run --example medical_visit
//! ```

use std::sync::Arc;

use qasom::{Environment, EventLog, MiddlewareEvent, UserRequest};
use qasom_netsim::runtime::SyntheticService;
use qasom_ontology::OntologyBuilder;
use qasom_qos::{QosModel, Unit};
use qasom_registry::ServiceDescription;
use qasom_task::{Activity, TaskNode, UserTask};

fn main() {
    // The hospital's domain ontology: diagnosis specialties subsume the
    // generic Diagnosis capability.
    let mut b = OntologyBuilder::new("med");
    b.concept("Register");
    let diagnosis = b.concept("Diagnosis");
    b.subconcept("Cardiology", diagnosis);
    b.concept("Pharmacy");
    b.concept("Payment");
    let ontology = b.build().expect("well-formed ontology");

    let log = EventLog::new();
    let mut env = Environment::new(QosModel::standard(), ontology, 99);
    env.subscribe(Arc::new(log.clone()));
    let rt = env.model().property("ResponseTime").unwrap();
    let av = env.model().property("Availability").unwrap();

    let deploy = |env: &mut Environment, name: &str, f: &str, ms: f64, crash: Option<u64>| {
        let desc = ServiceDescription::new(name, f)
            .with_provider("hospital")
            .with_qos(rt, ms)
            .with_qos(av, 0.99);
        let nominal = desc.qos().clone();
        let mut svc = SyntheticService::new(nominal).with_noise(0.03);
        if let Some(n) = crash {
            svc = svc.with_crash_after(n);
        }
        env.deploy(desc, svc);
    };

    // Several desks per step; Dr. House is preferred but leaves for an
    // emergency right away.
    deploy(&mut env, "registration-desk-1", "med#Register", 120.0, None);
    deploy(&mut env, "registration-desk-2", "med#Register", 300.0, None);
    deploy(&mut env, "dr-house", "med#Cardiology", 600.0, Some(0));
    deploy(&mut env, "dr-cuddy", "med#Cardiology", 900.0, None);
    deploy(&mut env, "pharmacy-desk", "med#Pharmacy", 200.0, None);
    deploy(&mut env, "cashier", "med#Payment", 100.0, None);
    deploy(&mut env, "mobile-payment", "med#Payment", 60.0, None);

    // Bob's visit, requested in the generic vocabulary: the cardiology
    // doctors plug into the Diagnosis requirement.
    let visit = UserTask::new(
        "medical-visit",
        TaskNode::sequence([
            TaskNode::activity(Activity::new("register", "med#Register")),
            TaskNode::activity(Activity::new("diagnose", "med#Diagnosis")),
            TaskNode::activity(Activity::new("medicines", "med#Pharmacy")),
            TaskNode::activity(Activity::new("pay", "med#Payment")),
        ]),
    )
    .expect("valid task");

    let request = UserRequest::new(visit)
        .constraint("Delay", 3.0, Unit::Seconds)
        .expect("known property")
        .constraint("Availability", 0.9, Unit::Ratio)
        .expect("known property");

    let composition = env.compose(&request).expect("the hospital can serve Bob");
    println!("visit plan (feasible: {}):", composition.outcome().feasible);
    let names: Vec<&str> = ["register", "diagnose", "medicines", "pay"].to_vec();
    for (i, chosen) in composition.outcome().assignment.iter().enumerate() {
        println!(
            "  {:<10} -> {}",
            names[i],
            env.registry()
                .get(chosen.id())
                .map(|d| d.name().to_owned())
                .unwrap_or_default()
        );
    }

    let report = env.execute(composition).expect("the visit completes");
    println!(
        "\nvisit completed with {} substitution(s); delivered QoS {}",
        report.substitutions,
        env.model().format_vector(&report.delivered)
    );
    for event in &log.events() {
        if let MiddlewareEvent::Substituted { activity, from, to } = event {
            let name = |id: &qasom_registry::ServiceId| {
                env.registry()
                    .get(*id)
                    .map(|d| d.name().to_owned())
                    .unwrap_or_else(|| format!("{id} (departed)"))
            };
            println!("  re-assigned {activity}: {} -> {}", name(from), name(to));
        }
    }
}
