//! The adaptation loop's full script, pinned: a seeded market runs a
//! looping task over three sessions while one provider crashes and
//! another drifts. Every `MiddlewareEvent` and each `ExecutionReport`'s
//! counts are compared, line by line, against
//! `tests/fixtures/adaptation_trace.txt`, so a refactor of monitoring or
//! substitution that changes any decision, its order or its events shows
//! here.

use std::fmt::Write as _;
use std::sync::Arc;

use qasom::{Environment, EventLog, UserRequest};
use qasom_netsim::runtime::SyntheticService;
use qasom_ontology::OntologyBuilder;
use qasom_qos::{QosModel, Unit};
use qasom_registry::ServiceDescription;
use qasom_task::{Activity, LoopBound, TaskNode, UserTask};

const FIXTURE: &str = include_str!("fixtures/adaptation_trace.txt");

/// Runs the scripted market and renders its events and reports, one per
/// line.
fn trace() -> String {
    let mut b = OntologyBuilder::new("tour");
    b.concept("Locate");
    b.concept("Stream");
    b.concept("Pay");
    let mut env = Environment::new(QosModel::standard(), b.build().unwrap(), 31);
    let log = EventLog::new();
    env.subscribe(Arc::new(log.clone()));

    let rt = env.model().property("ResponseTime").unwrap();
    let av = env.model().property("Availability").unwrap();
    let mut deploy = |name: &str,
                      function: &str,
                      rt_ms: f64,
                      faults: &dyn Fn(SyntheticService) -> SyntheticService| {
        let desc = ServiceDescription::new(name, function)
            .with_qos(rt, rt_ms)
            .with_qos(av, 0.99);
        let behaviour = SyntheticService::new(desc.qos().clone()).with_noise(0.02);
        env.deploy(desc, faults(behaviour))
    };
    let faithful = |s: SyntheticService| s;
    // Ranked first for `locate`, and dead on arrival: dynamic binding
    // moves to the next candidate after the failure.
    deploy("locate-fast", "tour#Locate", 10.0, &|s| {
        s.with_crash_after(0)
    });
    deploy("locate", "tour#Locate", 20.0, &faithful);
    // Ranked first for `stream`, then slower by 30 % at every delivery:
    // first predicted to break the bound, then breaking it.
    deploy("stream-fast", "tour#Stream", 20.0, &|s| {
        s.with_drift(1, rt, 1.3)
            .with_drift(2, rt, 1.3)
            .with_drift(3, rt, 1.3)
            .with_drift(4, rt, 1.3)
    });
    deploy("stream", "tour#Stream", 25.0, &faithful);
    deploy("pay", "tour#Pay", 20.0, &faithful);

    let task = UserTask::new(
        "tour",
        TaskNode::sequence([
            TaskNode::activity(Activity::new("locate", "tour#Locate")),
            TaskNode::repeat(
                TaskNode::activity(Activity::new("stream", "tour#Stream")),
                LoopBound::new(6.0, 8),
            ),
            TaskNode::activity(Activity::new("pay", "tour#Pay")),
        ]),
    )
    .unwrap();
    let request = UserRequest::new(task)
        .constraint("ResponseTime", 200.0, Unit::Milliseconds)
        .unwrap();

    let mut out = String::new();
    for session in 0..3 {
        let comp = env.compose(&request).unwrap();
        let report = env.execute(comp).unwrap();
        for event in log.take() {
            writeln!(out, "{event:?}").unwrap();
        }
        let failed = report
            .invocations
            .iter()
            .filter(|r| r.qos.is_none())
            .count();
        writeln!(
            out,
            "session {session}: success={} final_task={} invocations={} failed={failed} \
             substitutions={} behavioural={} violations={} delivered={:?}",
            report.success,
            report.final_task,
            report.invocations.len(),
            report.substitutions,
            report.behavioural_adaptations,
            report.violations.len(),
            report.delivered,
        )
        .unwrap();
    }
    out
}

#[test]
fn the_adaptation_loop_replays_its_pinned_script() {
    let trace = trace();
    assert_eq!(
        trace, FIXTURE,
        "the adaptation script changed; the run printed:\n{trace}"
    );
}

/// The fixture exercises all three ways the loop rebinds or warns, so the
/// pin above covers each of them.
#[test]
fn the_pinned_script_covers_every_adaptation_path() {
    let lines: Vec<&str> = FIXTURE.lines().collect();
    assert!(lines
        .iter()
        .any(|l| l.starts_with("ViolationDetected") && l.contains("proactive: true")));
    // The planner substitutes after a check that follows a successful
    // invocation; dynamic binding substitutes after a failure.
    let after = |prefix: &str| {
        lines
            .windows(2)
            .any(|w| w[1].starts_with("Substituted") && w[0].starts_with(prefix))
    };
    assert!(after("ViolationDetected"), "a planner substitution");
    assert!(after("InvocationFailed"), "a dynamic-binding substitution");
}

/// Compose and the completion check believe one estimate of each
/// service. Once session 0 has seen `stream-fast` drift, later sessions
/// compose away from it, so none reports a reactive violation before its
/// first `stream` invocation.
#[test]
fn no_later_session_breaks_its_bound_before_it_streams() {
    let mut sessions: Vec<Vec<&str>> = vec![Vec::new()];
    for line in FIXTURE.lines() {
        sessions.last_mut().unwrap().push(line);
        if line.starts_with("session ") {
            sessions.push(Vec::new());
        }
    }
    sessions.pop();
    assert_eq!(sessions.len(), 3);
    for (n, lines) in sessions.iter().enumerate().skip(1) {
        let streamed = lines
            .iter()
            .position(|l| l.starts_with("Invoked { activity: \"stream\""))
            .expect("a stream invocation");
        assert!(
            !lines[..streamed]
                .iter()
                .any(|l| l.starts_with("ViolationDetected") && l.contains("proactive: false")),
            "session {n} breaks its bound before it streams:\n{}",
            lines.join("\n")
        );
    }
}
