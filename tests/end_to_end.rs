//! End-to-end scenarios through the whole middleware stack:
//! request → discovery → QASSA → execution → monitoring → adaptation.

use std::collections::BTreeMap;
use std::sync::Arc;

use qasom::{Environment, EventLog, ExecutionError, MiddlewareEvent, UserRequest};
use qasom_netsim::runtime::SyntheticService;
use qasom_ontology::{Ontology, OntologyBuilder};
use qasom_qos::{QosModel, Unit};
use qasom_registry::{ServiceDescription, ServiceId};
use qasom_task::{bpel, Activity, TaskClass, TaskNode, UserTask};

fn shop_ontology() -> Ontology {
    let mut b = OntologyBuilder::new("shop");
    b.concept("Browse");
    b.concept("BuyBook");
    b.concept("BuyCd");
    let pay = b.concept("Pay");
    b.subconcept("PayByCard", pay);
    b.subconcept("PayCash", pay);
    b.build().unwrap()
}

struct Deployer {
    rt: qasom_qos::PropertyId,
    av: qasom_qos::PropertyId,
    price: qasom_qos::PropertyId,
}

impl Deployer {
    fn new(env: &Environment) -> Self {
        Deployer {
            rt: env.model().property("ResponseTime").unwrap(),
            av: env.model().property("Availability").unwrap(),
            price: env.model().property("Price").unwrap(),
        }
    }

    fn deploy(
        &self,
        env: &mut Environment,
        name: &str,
        function: &str,
        rt_ms: f64,
        cost: f64,
    ) -> ServiceId {
        let desc = ServiceDescription::new(name, function)
            .with_qos(self.rt, rt_ms)
            .with_qos(self.av, 0.99)
            .with_qos(self.price, cost);
        let nominal = desc.qos().clone();
        env.deploy(desc, SyntheticService::new(nominal))
    }

    fn deploy_crashing(
        &self,
        env: &mut Environment,
        name: &str,
        function: &str,
        rt_ms: f64,
    ) -> ServiceId {
        let desc = ServiceDescription::new(name, function)
            .with_qos(self.rt, rt_ms)
            .with_qos(self.av, 0.99)
            .with_qos(self.price, 1.0);
        let nominal = desc.qos().clone();
        env.deploy(desc, SyntheticService::new(nominal).with_crash_after(0))
    }
}

fn shopping_task() -> UserTask {
    bpel::parse(
        r#"<process name="shopping">
             <sequence>
               <invoke name="browse" function="shop#Browse"/>
               <flow>
                 <invoke name="book" function="shop#BuyBook"/>
                 <invoke name="cd" function="shop#BuyCd"/>
               </flow>
               <invoke name="pay" function="shop#Pay"/>
             </sequence>
           </process>"#,
    )
    .unwrap()
}

fn full_environment(seed: u64) -> (Environment, Deployer) {
    let mut env = Environment::new(QosModel::standard(), shop_ontology(), seed);
    let d = Deployer::new(&env);
    d.deploy(&mut env, "kiosk", "shop#Browse", 60.0, 0.0);
    d.deploy(&mut env, "kiosk2", "shop#Browse", 200.0, 0.0);
    d.deploy(&mut env, "fnac", "shop#BuyBook", 150.0, 18.0);
    d.deploy(&mut env, "used-books", "shop#BuyBook", 300.0, 9.0);
    d.deploy(&mut env, "music", "shop#BuyCd", 140.0, 15.0);
    d.deploy(&mut env, "till-card", "shop#PayByCard", 90.0, 0.0);
    d.deploy(&mut env, "till-cash", "shop#PayCash", 220.0, 0.0);
    (env, d)
}

fn shopping_request() -> UserRequest {
    UserRequest::new(shopping_task())
        .constraint("Delay", 2.0, Unit::Seconds)
        .unwrap()
        .constraint("TotalPrice", 60.0, Unit::Euro)
        .unwrap()
        .weight("Delay", 1.0)
        .weight("TotalPrice", 1.0)
}

#[test]
fn shopping_happy_path() {
    let (mut env, _) = full_environment(1);
    let comp = env.compose(&shopping_request()).unwrap();
    assert!(comp.outcome().feasible);

    let report = env.execute(comp).unwrap();
    assert!(report.success);
    assert_eq!(report.invocations.len(), 4);
    assert_eq!(report.substitutions, 0);
    assert_eq!(report.behavioural_adaptations, 0);
    assert!(report.violations.is_empty());
}

#[test]
fn user_vocabulary_constraints_are_enforced() {
    let (env, _) = full_environment(2);
    // A delay bound of 250 ms is impossible (browse+buy+pay ≥ 290 ms
    // sequential minimum) — composition must be flagged infeasible.
    let request = UserRequest::new(shopping_task())
        .constraint("Delay", 0.25, Unit::Seconds)
        .unwrap();
    let comp = env.compose(&request).unwrap();
    assert!(!comp.outcome().feasible);
}

#[test]
fn semantic_discovery_binds_specialised_payment() {
    let (env, _) = full_environment(3);
    let comp = env.compose(&shopping_request()).unwrap();
    // The task asks for shop#Pay; both tills are subconcepts, so one of
    // them must be bound.
    let pay_binding = comp.outcome().assignment[3].id();
    let name = env.registry().get(pay_binding).unwrap().name().to_owned();
    assert!(name.starts_with("till-"), "bound {name}");
}

#[test]
fn failed_payment_is_substituted_by_the_other_till() {
    let mut env = Environment::new(QosModel::standard(), shop_ontology(), 4);
    let d = Deployer::new(&env);
    d.deploy(&mut env, "kiosk", "shop#Browse", 60.0, 0.0);
    d.deploy(&mut env, "fnac", "shop#BuyBook", 150.0, 18.0);
    d.deploy(&mut env, "music", "shop#BuyCd", 140.0, 15.0);
    let broken = d.deploy_crashing(&mut env, "till-card", "shop#PayByCard", 90.0);
    let backup = d.deploy(&mut env, "till-cash", "shop#PayCash", 220.0, 0.0);

    let comp = env.compose(&shopping_request()).unwrap();
    let report = env.execute(comp).unwrap();
    assert!(report.success);
    assert!(report.substitutions >= 1);
    let pay_invocations: Vec<_> = report
        .invocations
        .iter()
        .filter(|r| r.activity == "pay")
        .collect();
    assert!(pay_invocations
        .iter()
        .any(|r| r.service == broken && r.qos.is_none()));
    assert_eq!(pay_invocations.last().unwrap().service, backup);
}

#[test]
fn behavioural_adaptation_switches_to_alternative_shopping() {
    let mut env = Environment::new(QosModel::standard(), shop_ontology(), 5);
    let log = EventLog::new();
    env.subscribe(Arc::new(log.clone()));
    let d = Deployer::new(&env);
    d.deploy(&mut env, "kiosk", "shop#Browse", 60.0, 0.0);
    d.deploy(&mut env, "fnac", "shop#BuyBook", 150.0, 18.0);
    d.deploy(&mut env, "music", "shop#BuyCd", 140.0, 15.0);
    // Every payment service is broken.
    d.deploy_crashing(&mut env, "till-card", "shop#PayByCard", 90.0);

    // The alternative behaviour skips payment at the counter (pay on
    // delivery): browse + buy only.
    let v2 = UserTask::new(
        "shopping-cod",
        TaskNode::sequence([
            TaskNode::activity(Activity::new("browse2", "shop#Browse")),
            TaskNode::activity(Activity::new("book2", "shop#BuyBook")),
            TaskNode::activity(Activity::new("cd2", "shop#BuyCd")),
        ]),
    )
    .unwrap();
    let mut class = TaskClass::new("shopping-class");
    class.add_behaviour(shopping_task());
    class.add_behaviour(v2);
    env.register_task_class(class);

    let comp = env.compose(&shopping_request()).unwrap();
    let report = env.execute(comp).unwrap();
    assert!(report.success);
    assert_eq!(report.behavioural_adaptations, 1);
    assert_eq!(report.final_task, "shopping-cod");
    // The executed prefix was carried over: browse ran once, under the
    // old behaviour's name.
    let browse_count = report
        .invocations
        .iter()
        .filter(|r| r.qos.is_some() && (r.activity == "browse" || r.activity == "browse2"))
        .count();
    assert_eq!(browse_count, 1);
    assert!(log
        .events()
        .iter()
        .any(|e| matches!(e, MiddlewareEvent::BehaviouralAdaptation { .. })));
}

#[test]
fn execution_abandons_when_no_strategy_remains() {
    let mut env = Environment::new(QosModel::standard(), shop_ontology(), 6);
    let d = Deployer::new(&env);
    d.deploy(&mut env, "kiosk", "shop#Browse", 60.0, 0.0);
    d.deploy(&mut env, "fnac", "shop#BuyBook", 150.0, 18.0);
    d.deploy(&mut env, "music", "shop#BuyCd", 140.0, 15.0);
    d.deploy_crashing(&mut env, "till-card", "shop#PayByCard", 90.0);

    let comp = env.compose(&shopping_request()).unwrap();
    let err = env.execute(comp).unwrap_err();
    assert_eq!(
        err,
        ExecutionError::Abandoned {
            activity: "pay".to_owned()
        }
    );
}

#[test]
fn drifting_service_triggers_proactive_substitution() {
    let mut env = Environment::new(QosModel::standard(), shop_ontology(), 8);
    let log = EventLog::new();
    env.subscribe(Arc::new(log.clone()));
    let d = Deployer::new(&env);
    let rt = d.rt;
    d.deploy(&mut env, "kiosk", "shop#Browse", 60.0, 0.0);
    // A looping task browsing repeatedly; the preferred kiosk degrades.
    let drifting = {
        let desc = ServiceDescription::new("kiosk-near", "shop#Browse")
            .with_qos(rt, 40.0)
            .with_qos(d.av, 0.99)
            .with_qos(d.price, 0.0);
        let nominal = desc.qos().clone();
        env.deploy(desc, SyntheticService::new(nominal).with_drift(2, rt, 20.0))
    };
    let task = UserTask::new(
        "busy-browsing",
        TaskNode::repeat(
            TaskNode::activity(Activity::new("browse", "shop#Browse")),
            qasom_task::LoopBound::new(8.0, 10),
        ),
    )
    .unwrap();
    let request = UserRequest::new(task)
        .constraint("Delay", 1.0, Unit::Seconds)
        .unwrap();
    let comp = env.compose(&request).unwrap();
    let report = env.execute(comp).unwrap();
    assert!(report.success);
    assert!(
        report.substitutions >= 1,
        "the drifting kiosk must be switched away from"
    );
    assert!(report
        .invocations
        .iter()
        .any(|r| r.service != drifting && r.qos.is_some()));
    assert!(log
        .events()
        .iter()
        .any(|e| matches!(e, MiddlewareEvent::ViolationDetected { .. })));
}

/// A provider whose response time drifts ×3 keeps being bound while what
/// it is ranked on — its advertisement, then the mean of its last ten
/// deliveries from the first one on — beats every honest provider's.
/// The first compose after that passes the honest best binds an honest
/// provider instead, and no later compose binds it again.
#[test]
fn a_fresh_compose_drops_a_drifting_provider_once_its_estimate_passes_the_honest_best() {
    let mut env = Environment::new(QosModel::standard(), shop_ontology(), 12);
    let d = Deployer::new(&env);
    let rt = d.rt;
    let mut deploy = |name: String, rt_ms: f64, drifts: bool| {
        let desc = ServiceDescription::new(name, "shop#Browse")
            .with_qos(rt, rt_ms)
            .with_qos(d.av, 0.99);
        let mut behaviour = SyntheticService::new(desc.qos().clone()).with_noise(0.05);
        if drifts {
            behaviour = behaviour.with_drift(3, rt, 3.0);
        }
        env.deploy(desc, behaviour)
    };
    let honest: Vec<ServiceId> = (0..8)
        .map(|i| deploy(format!("kiosk{i}"), 60.0 + 10.0 * f64::from(i), false))
        .collect();
    let drifting = deploy("kiosk-fast".to_owned(), 40.0, true);
    let task = UserTask::new(
        "browse",
        TaskNode::activity(Activity::new("browse", "shop#Browse")),
    )
    .unwrap();
    let request = UserRequest::new(task)
        .constraint("Delay", 1.0, Unit::Seconds)
        .unwrap()
        .weight("Delay", 1.0);
    // Each provider's delivered response times, oldest first.
    let mut delivered: BTreeMap<ServiceId, Vec<f64>> = BTreeMap::new();
    // What compose should rank a provider on: the mean of its last ten
    // deliveries, its advertisement while it has none.
    let ranked_on = |env: &Environment, delivered: &BTreeMap<_, Vec<f64>>, id| {
        let Some(all) = delivered.get(&id) else {
            return env.registry().get(id).unwrap().qos().get(rt).unwrap();
        };
        let window = &all[all.len().saturating_sub(10)..];
        window.iter().sum::<f64>() / window.len() as f64
    };

    let mut bound = Vec::new();
    for session in 0..20 {
        let drift = ranked_on(&env, &delivered, drifting);
        let best = honest
            .iter()
            .map(|&id| ranked_on(&env, &delivered, id))
            .fold(f64::INFINITY, f64::min);
        let comp = env.compose(&request).unwrap();
        let id = comp.outcome().assignment[0].id();
        assert_eq!(
            id == drifting,
            drift < best,
            "session {session}: drifting at {drift} ms, honest best {best} ms"
        );
        bound.push(id);
        let report = env.execute(comp).unwrap();
        assert!(report.success);
        for r in &report.invocations {
            let ms = r.qos.as_ref().and_then(|q| q.get(rt)).unwrap();
            delivered.entry(r.service).or_default().push(ms);
        }
    }
    let dropped = bound
        .iter()
        .position(|&id| id != drifting)
        .expect("the drifting provider is dropped");
    assert!(dropped > 0, "bound while it ranks first: {bound:?}");
    assert!(
        bound[dropped..].iter().all(|&id| id != drifting),
        "{bound:?}"
    );
}

#[test]
fn events_trace_the_full_lifecycle() {
    let (mut env, _) = full_environment(9);
    let log = EventLog::new();
    env.subscribe(Arc::new(log.clone()));
    let comp = env.compose(&shopping_request()).unwrap();
    let _ = env.execute(comp).unwrap();
    let events = log.take();
    assert!(matches!(events[0], MiddlewareEvent::Composed { .. }));
    assert!(matches!(
        events.last().unwrap(),
        MiddlewareEvent::Completed { success: true, .. }
    ));
    let invoked = events
        .iter()
        .filter(|e| matches!(e, MiddlewareEvent::Invoked { .. }))
        .count();
    assert_eq!(invoked, 4);
    // Draining empties the sink's buffer.
    assert!(log.is_empty());
}

/// A bounded log retains only the newest events — the subscriber-side
/// replacement for the retired pull API's retention cap.
#[test]
fn bounded_event_log_keeps_only_the_newest_events() {
    let (mut env, _) = full_environment(9);
    let full = EventLog::new();
    let last = EventLog::bounded(1);
    env.subscribe(Arc::new(full.clone()));
    env.subscribe(Arc::new(last.clone()));
    let comp = env.compose(&shopping_request()).unwrap();
    let _ = env.execute(comp).unwrap();
    let all = full.events();
    assert!(all.len() > 1, "the run emits a full trace");
    // The bounded log holds exactly the newest event of that same
    // stream (the terminal Completed).
    assert_eq!(last.events(), all[all.len() - 1..]);
    assert!(matches!(
        last.events().as_slice(),
        [MiddlewareEvent::Completed { .. }]
    ));
}

#[test]
fn churn_between_compose_and_execute_is_handled() {
    let (mut env, _) = full_environment(10);
    let comp = env.compose(&shopping_request()).unwrap();
    // The bound browse service departs before execution starts.
    let bound = comp.outcome().assignment[0].id();
    env.undeploy(bound);
    let report = env.execute(comp).unwrap();
    assert!(report.success);
    // Dynamic binding picked another browse service.
    let browse = report
        .invocations
        .iter()
        .find(|r| r.activity == "browse" && r.qos.is_some())
        .unwrap();
    assert_ne!(browse.service, bound);
}
