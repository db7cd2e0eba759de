//! Chaos testing: randomised environments with churn, drift, transient
//! failures and crashes. The invariant under test is *graceful* handling:
//! the middleware either completes the task, reports a structured
//! composition error, or abandons with a structured execution error —
//! never panics, and every success report is internally consistent.

use proptest::prelude::*;
use qasom::{Environment, EventLog, ExecutionError, MiddlewareEvent, UserRequest};
use qasom_netsim::runtime::SyntheticService;
use qasom_ontology::OntologyBuilder;
use qasom_qos::{QosModel, QosVector, Unit};
use qasom_registry::ServiceDescription;
use qasom_task::{Activity, TaskClass, TaskNode, UserTask};

#[derive(Debug, Clone)]
struct ServiceSpec {
    function: usize,
    rt_ms: f64,
    noise: f64,
    failure_rate: f64,
    crash_after: Option<u64>,
}

fn arb_service() -> impl Strategy<Value = ServiceSpec> {
    (
        0usize..3,
        10.0f64..400.0,
        0.0f64..0.2,
        0.0f64..0.4,
        prop_oneof![Just(None), (0u64..4).prop_map(Some)],
    )
        .prop_map(
            |(function, rt_ms, noise, failure_rate, crash_after)| ServiceSpec {
                function,
                rt_ms,
                noise,
                failure_rate,
                crash_after,
            },
        )
}

fn build_env(services: &[ServiceSpec], seed: u64) -> (Environment, EventLog) {
    let mut b = OntologyBuilder::new("c");
    for f in 0..3 {
        b.concept(&format!("F{f}"));
    }
    let mut env = Environment::new(QosModel::standard(), b.build().unwrap(), seed);
    let log = EventLog::new();
    env.subscribe(std::sync::Arc::new(log.clone()));
    let rt = env.model().property("ResponseTime").unwrap();
    let av = env.model().property("Availability").unwrap();
    for (i, s) in services.iter().enumerate() {
        let desc = ServiceDescription::new(format!("s{i}"), &format!("c#F{}", s.function))
            .with_qos(rt, s.rt_ms)
            .with_qos(av, 0.95);
        let nominal = desc.qos().clone();
        let mut synthetic = SyntheticService::new(nominal)
            .with_noise(s.noise)
            .with_failure_rate(s.failure_rate);
        if let Some(n) = s.crash_after {
            synthetic = synthetic.with_crash_after(n);
        }
        env.deploy(desc, synthetic);
    }
    (env, log)
}

fn three_step_task() -> UserTask {
    UserTask::new(
        "chaos",
        TaskNode::sequence([
            TaskNode::activity(Activity::new("a", "c#F0")),
            TaskNode::activity(Activity::new("b", "c#F1")),
            TaskNode::activity(Activity::new("c", "c#F2")),
        ]),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn middleware_never_panics_under_chaos(
        services in prop::collection::vec(arb_service(), 1..12),
        seed in any::<u64>(),
    ) {
        let (mut env, log) = build_env(&services, seed);

        // A fallback behaviour that only needs F0 — behavioural
        // adaptation has somewhere to go when F1/F2 are unservable.
        let v2 = UserTask::new(
            "chaos-lite",
            TaskNode::activity(Activity::new("a2", "c#F0")),
        )
        .unwrap();
        let mut class = TaskClass::new("chaos-class");
        class.add_behaviour(three_step_task());
        class.add_behaviour(v2);
        env.register_task_class(class);

        let request = UserRequest::new(three_step_task())
            .constraint("Delay", 30.0, Unit::Seconds)
            .unwrap();

        match env.compose(&request) {
            Err(_) => {} // some function had no provider: structured error
            Ok(comp) => match env.execute(comp) {
                Ok(report) => {
                    prop_assert!(report.success);
                    // Every successful invocation carries QoS; failures
                    // don't.
                    for r in &report.invocations {
                        if let Some(q) = &r.qos {
                            prop_assert!(!q.is_empty());
                        }
                    }
                    // The event trace ends with a completion.
                    let completed = matches!(
                        log.events().last(),
                        Some(MiddlewareEvent::Completed { .. })
                    );
                    prop_assert!(completed, "trace must end with Completed");
                }
                Err(ExecutionError::Abandoned { .. }) => {} // acceptable under chaos
                Err(ExecutionError::Recompose(_)) => {}     // churn during adaptation
            },
        }
    }

    #[test]
    fn monitor_state_stays_consistent_under_chaos(
        services in prop::collection::vec(arb_service(), 3..10),
        seed in any::<u64>(),
    ) {
        let (mut env, _log) = build_env(&services, seed);
        let request = UserRequest::new(three_step_task());
        if let Ok(comp) = env.compose(&request) {
            let _ = env.execute(comp);
        }
        // Whatever happened, monitor estimates remain well-formed.
        let rt = env.model().property("ResponseTime").unwrap();
        for (id, _) in env.registry().iter() {
            if let Some(est) = env.monitor().qos_estimate(id) {
                if let Some(v) = est.get(rt) {
                    prop_assert!(v.is_finite() && v >= 0.0, "estimate {v}");
                }
            }
        }
        let _ = QosVector::new();
    }
}
