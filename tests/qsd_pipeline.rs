//! The specification pipeline end to end: an environment whose services,
//! task classes and user task are *all* loaded from XML documents — the
//! way the original platform was provisioned.

use qasom::{Environment, UserRequest};
use qasom_ontology::OntologyBuilder;
use qasom_qos::{QosModel, Unit};
use qasom_registry::qsd::QsdError;
use qasom_task::bpel;

const SERVICES: &str = r#"
<services>
  <service name="kiosk" provider="centre" function="shop#Browse">
    <qos property="ResponseTime" value="60" unit="ms"/>
    <qos property="Availability" value="99" unit="%"/>
    <qos property="Price" value="0" unit="EUR"/>
  </service>
  <service name="fnac" provider="fnac" function="shop#BuyBook">
    <qos property="ResponseTime" value="0.15" unit="s"/>
    <qos property="Availability" value="0.98"/>
    <qos property="Price" value="1800" unit="c"/>
  </service>
  <service name="till" provider="centre" function="shop#PayByCard">
    <qos property="ResponseTime" value="90" unit="ms"/>
    <qos property="Availability" value="0.99"/>
    <qos property="Price" value="0"/>
  </service>
</services>"#;

const CLASSES: &str = r#"
<taskclasses>
  <taskclass name="shopping">
    <process name="shop-v1">
      <sequence>
        <invoke name="browse" function="shop#Browse"/>
        <invoke name="book" function="shop#BuyBook"/>
        <invoke name="pay" function="shop#Pay"/>
      </sequence>
    </process>
    <process name="shop-v2">
      <sequence>
        <invoke name="browse2" function="shop#Browse"/>
        <invoke name="book2" function="shop#BuyBook"/>
      </sequence>
    </process>
  </taskclass>
</taskclasses>"#;

fn environment() -> Environment {
    let mut b = OntologyBuilder::new("shop");
    b.concept("Browse");
    b.concept("BuyBook");
    let pay = b.concept("Pay");
    b.subconcept("PayByCard", pay);
    let mut env = Environment::new(QosModel::standard(), b.build().unwrap(), 77);
    env.load_services(SERVICES).expect("valid QSD");
    env.load_task_classes(CLASSES).expect("valid task classes");
    env
}

#[test]
fn full_xml_provisioned_pipeline() {
    let mut env = environment();
    // The user task comes from the repository (looked up by name).
    let task = env
        .task_repository()
        .task("shop-v1")
        .expect("provisioned")
        .clone();
    let request = UserRequest::new(task)
        .constraint("Delay", 1.0, Unit::Seconds)
        .unwrap()
        .constraint("TotalPrice", 30.0, Unit::Euro)
        .unwrap();
    let comp = env.compose(&request).unwrap();
    assert!(comp.outcome().feasible);
    let rt = env.model().property("ResponseTime").unwrap();
    // 60 + 150 + 90 ms, all loaded through three different unit spellings.
    assert_eq!(comp.promised_qos().get(rt), Some(300.0));
    let price = env.model().property("Price").unwrap();
    assert_eq!(comp.promised_qos().get(price), Some(18.0));

    let report = env.execute(comp).unwrap();
    assert!(report.success);
    assert_eq!(report.invocations.len(), 3);
}

#[test]
fn provisioned_task_classes_support_adaptation() {
    let mut env = environment();
    let task = env.task_repository().task("shop-v1").unwrap().clone();
    // Remove every payment service: v1 becomes unservable at "pay" and
    // the class's v2 (no payment step) must take over.
    let pay_ids: Vec<_> = env
        .registry()
        .iter()
        .filter(|(_, d)| d.function().local_name() == "PayByCard")
        .map(|(id, _)| id)
        .collect();
    for id in pay_ids {
        env.undeploy(id);
    }
    let request = UserRequest::new(task);
    let comp = env.compose(&request);
    // Pay has no candidate at all → composition fails; the execution
    // engine can only adapt when composition succeeded first. Compose v2
    // directly instead, as the middleware's task lookup would.
    assert!(comp.is_err());
    let v2 = env.task_repository().task("shop-v2").unwrap().clone();
    let comp = env.compose(&UserRequest::new(v2)).unwrap();
    let report = env.execute(comp).unwrap();
    assert!(report.success);
}

#[test]
fn bpel_documents_round_trip_through_the_repository() {
    let env = environment();
    let v1 = env.task_repository().task("shop-v1").unwrap();
    let printed = bpel::print(v1);
    let reparsed = bpel::parse(&printed).unwrap();
    assert_eq!(*v1, reparsed);
}

/// A malformed operation IRI is a structure error, like a malformed
/// service IRI — not a panic in the middle of provisioning.
#[test]
fn a_malformed_operation_function_is_rejected_not_a_panic() {
    let mut env = environment();
    let before = env.registry().len();
    let err = env
        .load_services(
            r#"<services>
  <service name="kiosk" function="shop#Browse">
    <operation name="look" function="nohash"/>
  </service>
</services>"#,
        )
        .unwrap_err();
    assert!(
        matches!(err, QsdError::Structure(ref m) if m.contains("nohash")),
        "{err}"
    );
    assert_eq!(env.registry().len(), before, "nothing was deployed");
}
