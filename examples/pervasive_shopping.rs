//! The pervasive-shopping scenario of the original paper: Bob submits a
//! shopping task to the commercial centre's platform from the lounge
//! hall. Several shops compete per activity; the platform selects the
//! composition meeting his delay and total-price requirements, and — when
//! the chosen payment desk closes mid-task — adapts by substitution and,
//! failing that, by switching to an alternative behaviour of the shopping
//! task class.
//!
//! ```text
//! cargo run --example pervasive_shopping
//! ```

use std::sync::Arc;

use qasom::{Environment, EventLog, MiddlewareEvent, UserRequest};
use qasom_netsim::runtime::SyntheticService;
use qasom_ontology::OntologyBuilder;
use qasom_qos::{QosModel, Unit};
use qasom_registry::ServiceDescription;
use qasom_task::{bpel, Activity, TaskClass, TaskNode, UserTask};

const SHOPPING_BPEL: &str = r#"
<process name="shopping-v1">
  <sequence>
    <invoke name="browse" function="shop#Browse"/>
    <flow>
      <invoke name="buy-book" function="shop#BuyBook"/>
      <invoke name="buy-cd" function="shop#BuyCd"/>
    </flow>
    <invoke name="pay" function="shop#Pay"/>
  </sequence>
</process>"#;

fn main() {
    // Domain ontology of the commercial centre.
    let mut b = OntologyBuilder::new("shop");
    b.concept("Browse");
    b.concept("BuyBook");
    b.concept("BuyCd");
    let pay = b.concept("Pay");
    b.subconcept("PayByCard", pay);
    b.subconcept("PayCash", pay);
    let ontology = b.build().expect("well-formed ontology");

    let log = EventLog::new();
    let mut env = Environment::new(QosModel::standard(), ontology, 7);
    env.subscribe(Arc::new(log.clone()));
    let rt = env.model().property("ResponseTime").unwrap();
    let price = env.model().property("Price").unwrap();
    let av = env.model().property("Availability").unwrap();

    // The shops of the centre: (name, function, response ms, price EUR).
    let shops = [
        ("catalogue-kiosk", "shop#Browse", 60.0, 0.0),
        ("catalogue-mobile", "shop#Browse", 120.0, 0.0),
        ("fnac-books", "shop#BuyBook", 150.0, 18.0),
        ("used-books", "shop#BuyBook", 300.0, 9.0),
        ("music-store", "shop#BuyCd", 140.0, 15.0),
        ("discount-cds", "shop#BuyCd", 260.0, 8.0),
        ("till-2", "shop#PayCash", 220.0, 0.0),
    ];
    for (name, function, time, cost) in shops {
        let desc = ServiceDescription::new(name, function)
            .with_provider("centre")
            .with_qos(rt, time)
            .with_qos(price, cost)
            .with_qos(av, 0.98);
        let nominal = desc.qos().clone();
        env.deploy(desc, SyntheticService::new(nominal).with_noise(0.05));
    }
    // The card desk advertises great QoS… and closes after one customer.
    let card_desk = ServiceDescription::new("till-1", "shop#PayByCard")
        .with_provider("centre")
        .with_qos(rt, 90.0)
        .with_qos(price, 0.0)
        .with_qos(av, 0.99);
    let nominal = card_desk.qos().clone();
    env.deploy(
        card_desk,
        SyntheticService::new(nominal).with_crash_after(0),
    );

    // The task class: v1 buys in parallel; v2 buys sequentially (the
    // behavioural fallback).
    let v1 = bpel::parse(SHOPPING_BPEL).expect("valid abstract BPEL");
    let v2 = UserTask::new(
        "shopping-v2",
        TaskNode::sequence([
            TaskNode::activity(Activity::new("browse2", "shop#Browse")),
            TaskNode::activity(Activity::new("buy-book2", "shop#BuyBook")),
            TaskNode::activity(Activity::new("buy-cd2", "shop#BuyCd")),
            TaskNode::activity(Activity::new("pay2", "shop#Pay")),
        ]),
    )
    .expect("valid task");
    let mut class = TaskClass::new("shopping");
    class.add_behaviour(v1.clone());
    class.add_behaviour(v2);
    env.register_task_class(class);

    // Bob's request: user-layer vocabulary (Delay, TotalPrice).
    let request = UserRequest::new(v1)
        .constraint("Delay", 1.5, Unit::Seconds)
        .expect("known property")
        .constraint("TotalPrice", 60.0, Unit::Euro)
        .expect("known property")
        .weight("Delay", 1.0)
        .weight("TotalPrice", 2.0);

    let composition = env.compose(&request).expect("the centre can serve Bob");
    println!(
        "platform proposes a composition promising {} (feasible: {})",
        env.model().format_vector(composition.promised_qos()),
        composition.outcome().feasible
    );
    for (i, chosen) in composition.outcome().assignment.iter().enumerate() {
        let name = env.registry().get(chosen.id()).map(|d| d.name().to_owned());
        println!("  activity #{i} -> {}", name.unwrap_or_default());
    }

    let report = env.execute(composition).expect("shopping completes");
    println!(
        "\nshopping finished via behaviour {:?}: {} invocation(s), {} substitution(s), {} behavioural adaptation(s)",
        report.final_task,
        report.invocations.len(),
        report.substitutions,
        report.behavioural_adaptations
    );
    println!(
        "delivered QoS: {}",
        env.model().format_vector(&report.delivered)
    );

    println!("\nadaptation-relevant events:");
    for event in &log.events() {
        match event {
            MiddlewareEvent::InvocationFailed { .. }
            | MiddlewareEvent::Substituted { .. }
            | MiddlewareEvent::BehaviouralAdaptation { .. }
            | MiddlewareEvent::ViolationDetected { .. } => println!("  {event:?}"),
            _ => {}
        }
    }
}
