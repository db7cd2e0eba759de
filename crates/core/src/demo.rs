//! The builtin seeded end-to-end scenario behind `qasom-cli report`,
//! the golden report tests and the CI observability job.
//!
//! One deterministic run exercises every pipeline stage the
//! [`RunReport`] covers: QoS-aware discovery (indexed queries), QASSA
//! selection, execution with a forced substitution, and a distributed
//! QASSA run over the network simulator. The report is a
//! pure function of the seed — identical seeds must produce
//! byte-identical JSON.

use std::sync::Arc;

use qasom_netsim::runtime::SyntheticService;
use qasom_obs::report::RunReport;
use qasom_obs::{MemoryRecorder, Recorder};
use qasom_ontology::OntologyBuilder;
use qasom_qos::{QosModel, Unit};
use qasom_registry::ServiceDescription;
use qasom_selection::distributed::{DistributedQassa, DistributedSetup};
use qasom_selection::workload::WorkloadSpec;
use qasom_task::{Activity, TaskNode, UserTask};

use crate::{Environment, EventLog, UserRequest};

/// Name of the scenario label stamped into the demo report.
pub const DEMO_SCENARIO: &str = "builtin-demo";

/// Builds the demo environment: a three-concept shopping ontology, nine
/// services with spread QoS (the best `Pay` provider crashes on first
/// invocation, forcing one substitution), an attached
/// [`MemoryRecorder`] and [`EventLog`].
fn demo_environment(
    seed: u64,
    recorder: Arc<MemoryRecorder>,
    log: &EventLog,
) -> Result<Environment, String> {
    let mut onto = OntologyBuilder::new("shop");
    onto.concept("Locate");
    onto.concept("Guide");
    onto.concept("Pay");
    let mut env = Environment::new(
        QosModel::standard(),
        onto.build().map_err(|e| e.to_string())?,
        seed,
    );
    env.set_recorder(recorder as Arc<dyn Recorder>);
    env.subscribe(Arc::new(log.clone()));

    let rt = env
        .model()
        .property("ResponseTime")
        .ok_or("the standard model defines ResponseTime")?;
    let av = env
        .model()
        .property("Availability")
        .ok_or("the standard model defines Availability")?;
    let services: &[(&str, &str, f64)] = &[
        ("locate-kiosk", "shop#Locate", 40.0),
        ("locate-phone", "shop#Locate", 90.0),
        ("locate-cloud", "shop#Locate", 250.0),
        ("guide-map", "shop#Guide", 60.0),
        ("guide-audio", "shop#Guide", 120.0),
        ("guide-avatar", "shop#Guide", 400.0),
        ("pay-nfc", "shop#Pay", 30.0),
        ("pay-card", "shop#Pay", 80.0),
        ("pay-gateway", "shop#Pay", 300.0),
    ];
    for &(name, function, rt_ms) in services {
        let desc = ServiceDescription::new(name, function)
            .with_qos(rt, rt_ms)
            .with_qos(av, 0.99);
        let nominal = desc.qos().clone();
        // The top-ranked payment provider dies on first contact so the
        // execution engine demonstrably substitutes (deterministically).
        let behaviour = if name == "pay-nfc" {
            SyntheticService::new(nominal).with_crash_after(0)
        } else {
            SyntheticService::new(nominal)
        };
        env.deploy(desc, behaviour);
    }
    Ok(env)
}

fn demo_task() -> Result<UserTask, String> {
    UserTask::new(
        "shopping-trip",
        TaskNode::sequence([
            TaskNode::activity(Activity::new("locate", "shop#Locate")),
            TaskNode::activity(Activity::new("guide", "shop#Guide")),
            TaskNode::activity(Activity::new("pay", "shop#Pay")),
        ]),
    )
    .map_err(|e| e.to_string())
}

/// Runs the builtin scenario and assembles the full [`RunReport`].
///
/// The report covers every section: compose + execution from the
/// centralized pipeline, the discovery/selection/event counters of the
/// attached recorder under `metrics`, and a distributed QASSA run (same
/// seed) over the network simulator.
///
/// # Errors
///
/// Only if the builtin scenario itself is broken (it is fixed at
/// compile time and covered by tests): the failing stage, rendered.
pub fn demo_run_report(seed: u64) -> Result<RunReport, String> {
    let recorder = Arc::new(MemoryRecorder::new());
    let log = EventLog::new();
    let mut env = demo_environment(seed, Arc::clone(&recorder), &log)?;

    let request = UserRequest::new(demo_task()?)
        .constraint("ResponseTime", 1.0, Unit::Seconds)
        .map_err(|e| e.to_string())?
        .weight("ResponseTime", 0.7)
        .weight("Availability", 0.3);
    let composition = env.compose(&request).map_err(|e| e.to_string())?;
    let compose = Environment::compose_section(&composition);
    let executed = env.execute(composition).map_err(|e| e.to_string())?;
    let execution = env.execution_section(&executed);

    // The distributed leg: the same seed drives a synthetic workload
    // sharded over seven simulated providers, flushing protocol counts
    // into the same recorder; phase times and RTTs land in its section.
    let model = env.model().clone();
    let workload = WorkloadSpec::evaluation_default()
        .activities(3)
        .services_per_activity(12)
        .build(&model, seed);
    let setup = DistributedSetup {
        providers: 7,
        ..DistributedSetup::default()
    };
    let distributed = DistributedQassa::new(&model)
        .run_recorded(&workload, &setup, seed, Some(recorder.as_ref()))
        .map_err(|e| e.to_string())?;

    let mut report = env.run_report(DEMO_SCENARIO);
    report.compose = Some(compose);
    report.execution = Some(execution);
    report.distributed = Some(distributed.to_json());
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qasom_obs::keys;

    #[test]
    fn demo_report_covers_every_section() {
        use qasom_obs::JsonValue;
        let report = demo_run_report(42).unwrap();
        assert_eq!(report.seed, 42);
        assert_eq!(report.scenario, DEMO_SCENARIO);
        let field = |section: &Option<JsonValue>, key: &str| {
            section.as_ref().and_then(|json| json.get(key)).cloned()
        };
        let at_least = |value: Option<JsonValue>, min: u64| matches!(value, Some(JsonValue::U64(n)) if n >= min);
        assert_eq!(
            field(&report.compose, "feasible"),
            Some(JsonValue::Bool(true))
        );
        assert_eq!(
            field(&report.execution, "success"),
            Some(JsonValue::Bool(true))
        );
        // pay-nfc crashes once: at least one failure and a substitution.
        assert!(at_least(field(&report.execution, "failures"), 1));
        assert!(at_least(field(&report.execution, "substitutions"), 1));
        assert!(report.metrics.counter(keys::DISCOVERY_INDEXED) >= 3);
        assert!(report.metrics.counter(keys::SELECTION_RUNS) >= 1);
        assert_eq!(
            field(&report.distributed, "providers"),
            Some(JsonValue::U64(7))
        );
        let net = field(&report.distributed, "net");
        assert!(at_least(net.and_then(|net| net.get("sent").cloned()), 1));
    }

    #[test]
    fn same_seed_is_byte_identical() {
        let a = demo_run_report(7).unwrap().to_compact_string();
        let b = demo_run_report(7).unwrap().to_compact_string();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = demo_run_report(7).unwrap().to_compact_string();
        let b = demo_run_report(8).unwrap().to_compact_string();
        assert_ne!(a, b);
    }
}
