//! Quickstart: one service, one activity, one request — the smallest
//! end-to-end trip through the middleware.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use qasom::{Environment, EventLog, UserRequest};
use qasom_netsim::runtime::SyntheticService;
use qasom_ontology::OntologyBuilder;
use qasom_qos::{QosModel, Unit};
use qasom_registry::ServiceDescription;
use qasom_task::{Activity, TaskNode, UserTask};

fn main() {
    // 1. The shared QoS vocabulary and a tiny domain ontology.
    let model = QosModel::standard();
    let mut onto = OntologyBuilder::new("demo");
    onto.concept("Echo");
    let ontology = onto.build().expect("well-formed ontology");

    // 2. A pervasive environment with two competing providers, plus an
    //    event log subscribed to the middleware's event stream.
    let log = EventLog::new();
    let mut env = Environment::new(model, ontology, 42);
    env.subscribe(Arc::new(log.clone()));
    let rt = env.model().property("ResponseTime").unwrap();
    let av = env.model().property("Availability").unwrap();
    for (name, time) in [("echo-fast", 40.0), ("echo-slow", 400.0)] {
        let desc = ServiceDescription::new(name, "demo#Echo")
            .with_provider("demo-corp")
            .with_qos(rt, time)
            .with_qos(av, 0.99);
        let nominal = desc.qos().clone();
        env.deploy(desc, SyntheticService::new(nominal).with_noise(0.05));
    }

    // 3. A one-activity task and its QoS requirements.
    let task = UserTask::new(
        "hello",
        TaskNode::activity(Activity::new("echo", "demo#Echo")),
    )
    .expect("valid task");
    let request = UserRequest::new(task)
        .constraint("ResponseTime", 0.2, Unit::Seconds)
        .expect("known property")
        .weight("ResponseTime", 2.0)
        .weight("Availability", 1.0);

    // 4. Compose and execute.
    let composition = env.compose(&request).expect("a provider exists");
    println!(
        "selected composition promises {} (feasible: {})",
        env.model().format_vector(composition.promised_qos()),
        composition.outcome().feasible
    );

    let report = env.execute(composition).expect("execution completes");
    println!(
        "executed {} invocation(s); delivered QoS {}",
        report.invocations.len(),
        env.model().format_vector(&report.delivered)
    );
    println!("\nmiddleware trace:");
    for event in log.events() {
        println!("  {event:?}");
    }
}
