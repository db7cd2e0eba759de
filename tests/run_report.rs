//! Observability guarantees of the unified `RunReport`:
//!
//! * **golden** — the builtin demo scenario is a pure function of its
//!   seed: two runs with the same seed serialise byte-identically;
//! * **schema** — the report's key-path set (arrays collapsed) matches
//!   the checked-in fixture, so accidental schema drift fails CI;
//! * **neutrality** — attaching a recorder never changes selection
//!   outcomes, protocol counts or execution results (property-tested
//!   across seeds).

use std::sync::Arc;

use proptest::prelude::*;
use qasom::demo::demo_run_report;
use qasom::{Environment, UserRequest};
use qasom_netsim::runtime::SyntheticService;
use qasom_obs::{key_paths, keys, JsonValue, MemoryRecorder, NoopRecorder, Recorder};
use qasom_ontology::{Ontology, OntologyBuilder};
use qasom_qos::{QosModel, Unit};
use qasom_registry::ServiceDescription;
use qasom_selection::distributed::{DistributedQassa, DistributedSetup};
use qasom_selection::workload::WorkloadSpec;
use qasom_task::{Activity, TaskNode, UserTask};

const SCHEMA_FIXTURE: &str = include_str!("fixtures/run_report_schema.txt");

#[test]
fn golden_same_seed_byte_identical() {
    let a = demo_run_report(1234).unwrap().to_pretty_string();
    let b = demo_run_report(1234).unwrap().to_pretty_string();
    assert_eq!(a, b, "RunReport must be a pure function of the seed");
}

#[test]
fn schema_matches_checked_in_fixture() {
    // What `qasom-cli report --schema` prints (the CLI regenerates the
    // fixture).
    let mut actual = key_paths(&demo_run_report(42).unwrap().to_json()).join("\n");
    actual.push('\n');
    assert_eq!(
        actual, SCHEMA_FIXTURE,
        "RunReport schema drifted; regenerate tests/fixtures/run_report_schema.txt \
         if the change is intentional"
    );
}

#[test]
fn demo_report_sections_are_all_populated() {
    let report = demo_run_report(42).unwrap();
    assert!(report.compose.is_some());
    assert!(report.execution.is_some());
    assert!(report.distributed.is_some());
    assert!(report.metrics.counter(keys::DISCOVERY_INDEXED) >= 3);
    assert!(report.metrics.counter(keys::SELECTION_RUNS) >= 1);
    // Counters are the one metrics plane.
    let JsonValue::Object(metrics) = report.metrics.to_json() else {
        panic!("metrics is an object");
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, ["counters"]);
}

fn tiny_ontology() -> Ontology {
    let mut b = OntologyBuilder::new("d");
    b.concept("A");
    b.concept("B");
    b.build().unwrap()
}

fn seeded_env(seed: u64, recorder: Option<Arc<dyn Recorder>>) -> Environment {
    let mut env = Environment::new(QosModel::standard(), tiny_ontology(), seed);
    if let Some(rec) = recorder {
        env.set_recorder(rec);
    }
    let rt = env.model().property("ResponseTime").unwrap();
    let av = env.model().property("Availability").unwrap();
    for (name, function, ms) in [
        ("a-fast", "d#A", 40.0),
        ("a-slow", "d#A", 300.0),
        ("b-fast", "d#B", 60.0),
        ("b-slow", "d#B", 500.0),
    ] {
        let desc = ServiceDescription::new(name, function)
            .with_qos(rt, ms)
            .with_qos(av, 0.99);
        let nominal = desc.qos().clone();
        env.deploy(desc, SyntheticService::new(nominal));
    }
    env
}

fn serve(seed: u64, recorder: Option<Arc<dyn Recorder>>) -> (Vec<usize>, usize, bool) {
    let mut env = seeded_env(seed, recorder);
    let task = UserTask::new(
        "t",
        TaskNode::sequence([
            TaskNode::activity(Activity::new("first", "d#A")),
            TaskNode::activity(Activity::new("second", "d#B")),
        ]),
    )
    .unwrap();
    let request = UserRequest::new(task)
        .constraint("ResponseTime", 1.0, Unit::Seconds)
        .unwrap();
    let comp = env.compose(&request).unwrap();
    let assignment: Vec<usize> = comp
        .outcome()
        .assignment
        .iter()
        .map(|c| c.id().index())
        .collect();
    let report = env.execute(comp).unwrap();
    (assignment, report.invocations.len(), report.success)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A recorder is observation-only for the centralized pipeline:
    /// selection and execution outcomes are unchanged whether no
    /// recorder, a no-op recorder or a retaining recorder is attached.
    #[test]
    fn recorder_neutrality_for_compose_and_execute(seed in 0u64..1_000) {
        let plain = serve(seed, None);
        let noop = serve(seed, Some(Arc::new(NoopRecorder)));
        let memory = serve(seed, Some(Arc::new(MemoryRecorder::new())));
        prop_assert_eq!(&plain, &noop);
        prop_assert_eq!(&plain, &memory);
    }

    /// The same holds for the distributed protocol: message, retry and
    /// event counts are bit-equal with and without a recorder.
    #[test]
    fn recorder_neutrality_for_distributed_runs(seed in 0u64..500) {
        let model = QosModel::standard();
        let workload = WorkloadSpec::evaluation_default()
            .activities(3)
            .services_per_activity(8)
            .build(&model, seed);
        let setup = DistributedSetup { providers: 5, ..DistributedSetup::default() };
        let driver = DistributedQassa::new(&model);
        let plain = driver.run(&workload, &setup, seed).unwrap();
        let recorder = MemoryRecorder::new();
        let recorded = driver
            .run_recorded(&workload, &setup, seed, Some(&recorder))
            .unwrap();
        prop_assert_eq!(plain.sim_events, recorded.sim_events);
        prop_assert_eq!(plain.sim_time_us, recorded.sim_time_us);
        prop_assert_eq!(plain.fault.retries_sent, recorded.fault.retries_sent);
        prop_assert_eq!(plain.fault.providers_heard, recorded.fault.providers_heard);
        prop_assert_eq!(plain.outcome.feasible, recorded.outcome.feasible);
        prop_assert_eq!(plain.net, recorded.net);
    }
}
