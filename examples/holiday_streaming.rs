//! The pervasive-entertainment scenario: in the holiday camp, campers'
//! devices offer 'Top 10' listings and audio/video streaming. Bob's
//! device selects the services with the best QoS; as he wanders away the
//! stream quality drifts, the proactive monitor predicts the violation,
//! and the middleware switches him to a stronger streaming peer before
//! the music stops.
//!
//! ```text
//! cargo run --example holiday_streaming
//! ```

use std::sync::Arc;

use qasom::{Environment, EventLog, MiddlewareEvent, UserRequest};
use qasom_netsim::runtime::SyntheticService;
use qasom_ontology::OntologyBuilder;
use qasom_qos::{QosModel, Unit};
use qasom_registry::ServiceDescription;
use qasom_task::{Activity, LoopBound, TaskNode, UserTask};

fn main() {
    let mut b = OntologyBuilder::new("camp");
    b.concept("TopTen");
    let streaming = b.concept("Streaming");
    b.subconcept("AudioStreaming", streaming);
    b.subconcept("VideoStreaming", streaming);
    let ontology = b.build().expect("well-formed ontology");

    let log = EventLog::new();
    let mut env = Environment::new(QosModel::standard(), ontology, 2024);
    env.subscribe(Arc::new(log.clone()));
    let rt = env.model().property("ResponseTime").unwrap();
    let av = env.model().property("Availability").unwrap();
    let enc = env.model().property("EncodingQuality").unwrap();

    // Campers' devices.
    let top10 = ServiceDescription::new("dj-phone", "camp#TopTen")
        .with_qos(rt, 80.0)
        .with_qos(av, 0.97)
        .with_qos(enc, 4.0);
    let nominal = top10.qos().clone();
    env.deploy(top10, SyntheticService::new(nominal).with_noise(0.05));

    // The nearby streamer degrades as Bob walks away (drift injection);
    // the one across the camp stays stable.
    let nearby = ServiceDescription::new("tent-12-audio", "camp#AudioStreaming")
        .with_qos(rt, 100.0)
        .with_qos(av, 0.99)
        .with_qos(enc, 4.5);
    let nominal = nearby.qos().clone();
    env.deploy(
        nearby,
        SyntheticService::new(nominal)
            .with_noise(0.05)
            .with_drift(2, rt, 6.0), // walking away: response time × 6
    );
    let far = ServiceDescription::new("lodge-video", "camp#VideoStreaming")
        .with_qos(rt, 180.0)
        .with_qos(av, 0.98)
        .with_qos(enc, 4.0);
    let nominal = far.qos().clone();
    env.deploy(far, SyntheticService::new(nominal).with_noise(0.05));

    // Bob's evening: fetch the charts, then stream the first song —
    // repeatedly, while he wanders around the camp.
    let task = UserTask::new(
        "camp-evening",
        TaskNode::sequence([
            TaskNode::activity(Activity::new("charts", "camp#TopTen")),
            TaskNode::repeat(
                TaskNode::activity(Activity::new("stream", "camp#Streaming")),
                LoopBound::new(6.0, 10),
            ),
        ]),
    )
    .expect("valid task");

    let request = UserRequest::new(task)
        .constraint("Delay", 2.5, Unit::Seconds)
        .expect("known property")
        .weight("EncodingQuality", 2.0)
        .weight("Delay", 1.0);

    let composition = env.compose(&request).expect("streaming peers exist");
    println!(
        "evening plan promises {} (feasible: {})",
        env.model().format_vector(composition.promised_qos()),
        composition.outcome().feasible
    );

    let report = env.execute(composition).expect("the evening completes");
    println!(
        "\nevening over: {} invocation(s), {} substitution(s)",
        report.invocations.len(),
        report.substitutions
    );
    println!(
        "delivered QoS: {}",
        env.model().format_vector(&report.delivered)
    );

    println!("\nadaptation trace:");
    for event in &log.events() {
        match event {
            MiddlewareEvent::ViolationDetected {
                property,
                proactive,
            } => println!(
                "  violation on {property} ({})",
                if *proactive { "predicted" } else { "observed" }
            ),
            MiddlewareEvent::Substituted { activity, from, to } => {
                println!("  switched {activity}: {from} -> {to}")
            }
            _ => {}
        }
    }
}
