//! Golden diagnostics: one test per analyzer rule, pinning the QA0xx
//! code (and severity) each defect class is reported under.

use qasom_analysis::{Analyzer, Diagnostic, RequestSpec, ServiceView, Severity};
use qasom_ontology::{Iri, OntologyBuilder};
use qasom_qos::{
    AggregationApproach, Layer, PropertySpec, QosModel, QosModelBuilder, QosVector, Unit,
};
use qasom_task::{Activity, LoopBound, TaskNode, UserTask};

fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.code.code()).collect()
}

fn severity_of(diags: &[Diagnostic], code: &str) -> Severity {
    diags
        .iter()
        .find(|d| d.code.code() == code)
        .unwrap_or_else(|| panic!("no {code} among {:?}", codes(diags)))
        .severity
}

fn act(name: &str) -> TaskNode {
    TaskNode::activity(Activity::new(name, "x#A"))
}

fn request_diags(
    task: &UserTask,
    constraints: &[(String, f64, Unit)],
    weights: &[(String, f64)],
    approach: AggregationApproach,
) -> Vec<Diagnostic> {
    let model = QosModel::standard();
    Analyzer::new(&model).check_request(&RequestSpec {
        task,
        constraints,
        weights,
        approach,
    })
}

fn simple_task() -> UserTask {
    UserTask::new("t", act("a")).expect("valid task")
}

fn constrain(name: &str, bound: f64, unit: Unit) -> Vec<(String, f64, Unit)> {
    vec![(name.to_owned(), bound, unit)]
}

// ---- structural rules (QA00x) --------------------------------------

#[test]
fn qa005_negligible_branch() {
    let model = QosModel::standard();
    let root = TaskNode::choice([(1e-9, act("a")), (1.0, act("b"))]);
    let diags = Analyzer::new(&model).check_structure("t", &root);
    assert!(codes(&diags).contains(&"QA005"), "{diags:?}");
    assert_eq!(severity_of(&diags, "QA005"), Severity::Warning);
}

#[test]
fn qa006_loop_expectation_exceeds_cap() {
    let model = QosModel::standard();
    let root = TaskNode::repeat(act("a"), LoopBound::new(10.0, 2));
    let diags = Analyzer::new(&model).check_structure("t", &root);
    assert!(codes(&diags).contains(&"QA006"), "{diags:?}");
    assert_eq!(severity_of(&diags, "QA006"), Severity::Warning);
}

// ---- request rules (QA01x) -----------------------------------------

#[test]
fn qa010_unknown_property() {
    let task = simple_task();
    let diags = request_diags(
        &task,
        &constrain("Nope", 1.0, Unit::Dimensionless),
        &[],
        AggregationApproach::MeanValue,
    );
    assert_eq!(codes(&diags), vec!["QA010"]);
    assert_eq!(severity_of(&diags, "QA010"), Severity::Error);
}

#[test]
fn qa011_dimension_mismatch() {
    let task = simple_task();
    let diags = request_diags(
        &task,
        &constrain("ResponseTime", 2.0, Unit::Euro),
        &[],
        AggregationApproach::MeanValue,
    );
    assert_eq!(codes(&diags), vec!["QA011"]);
    assert_eq!(severity_of(&diags, "QA011"), Severity::Error);
}

#[test]
fn qa012_unsatisfiable_bound() {
    let task = simple_task();
    // A negative response-time bound: time is non-negative, so the
    // feasible set is empty.
    let diags = request_diags(
        &task,
        &constrain("ResponseTime", -5.0, Unit::Milliseconds),
        &[],
        AggregationApproach::MeanValue,
    );
    assert_eq!(codes(&diags), vec!["QA012"]);

    // An availability above one: probabilities cannot reach it.
    let diags = request_diags(
        &task,
        &constrain("Availability", 1.5, Unit::Ratio),
        &[],
        AggregationApproach::MeanValue,
    );
    assert_eq!(codes(&diags), vec!["QA012"]);
    assert_eq!(severity_of(&diags, "QA012"), Severity::Error);
}

#[test]
fn qa013_vacuous_bound() {
    let task = simple_task();
    // Every availability value is >= 0, so the bound excludes nothing.
    let diags = request_diags(
        &task,
        &constrain("Availability", 0.0, Unit::Ratio),
        &[],
        AggregationApproach::MeanValue,
    );
    assert_eq!(codes(&diags), vec!["QA013"]);
    assert_eq!(severity_of(&diags, "QA013"), Severity::Warning);
}

#[test]
fn qa014_duplicate_constraint() {
    let task = simple_task();
    // `Delay` (user vocabulary) re-anchors on `ResponseTime`: the second
    // constraint silently competes with the first.
    let constraints = vec![
        ("Delay".to_owned(), 2.0, Unit::Seconds),
        ("ResponseTime".to_owned(), 1000.0, Unit::Milliseconds),
    ];
    let diags = request_diags(&task, &constraints, &[], AggregationApproach::MeanValue);
    assert_eq!(codes(&diags), vec!["QA014"]);
    assert_eq!(severity_of(&diags, "QA014"), Severity::Warning);
}

#[test]
fn qa015_dropped_weight() {
    let task = simple_task();
    let weights = vec![
        ("ResponseTime".to_owned(), -1.0),
        ("Availability".to_owned(), 1.0),
    ];
    let diags = request_diags(&task, &[], &weights, AggregationApproach::MeanValue);
    assert_eq!(codes(&diags), vec!["QA015"]);
    assert_eq!(severity_of(&diags, "QA015"), Severity::Warning);
}

#[test]
fn qa016_unusable_weights() {
    let task = simple_task();
    let weights = vec![("ResponseTime".to_owned(), 0.0)];
    let diags = request_diags(&task, &[], &weights, AggregationApproach::MeanValue);
    assert!(codes(&diags).contains(&"QA016"), "{diags:?}");
    assert_eq!(severity_of(&diags, "QA016"), Severity::Error);
}

#[test]
fn qa017_unaligned_user_property() {
    // A user-layer property with no service-layer equivalent: providers
    // can never advertise it, so constraining it is a silent no-op.
    let mut b = QosModelBuilder::new();
    b.add(PropertySpec::new("WarmFeeling").layer(Layer::User));
    let model = b.build().expect("valid model");
    let task = simple_task();
    let constraints = vec![("WarmFeeling".to_owned(), 0.5, Unit::Dimensionless)];
    let diags = Analyzer::new(&model).check_request(&RequestSpec {
        task: &task,
        constraints: &constraints,
        weights: &[],
        approach: AggregationApproach::MeanValue,
    });
    assert!(codes(&diags).contains(&"QA017"), "{diags:?}");
    assert_eq!(severity_of(&diags, "QA017"), Severity::Warning);
}

#[test]
fn qa018_optimistic_guarantee() {
    let root = TaskNode::sequence([
        act("a"),
        TaskNode::choice([(0.6, act("b")), (0.4, act("c"))]),
    ]);
    let task = UserTask::new("t", root).expect("valid task");
    let diags = request_diags(
        &task,
        &constrain("ResponseTime", 1000.0, Unit::Milliseconds),
        &[],
        AggregationApproach::Optimistic,
    );
    assert_eq!(codes(&diags), vec!["QA018"]);
    assert_eq!(severity_of(&diags, "QA018"), Severity::Warning);

    // The same request folded pessimistically is clean.
    let diags = request_diags(
        &task,
        &constrain("ResponseTime", 1000.0, Unit::Milliseconds),
        &[],
        AggregationApproach::Pessimistic,
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// ---- ontology rules (QA02x) ----------------------------------------

#[test]
fn qa020_unknown_function_iri() {
    let mut onto = OntologyBuilder::new("shop");
    onto.concept("Pay");
    let onto = onto.build().expect("valid ontology");
    let model = QosModel::standard();
    let task = UserTask::new("t", TaskNode::activity(Activity::new("a", "shop#Teleport")))
        .expect("valid task");
    let diags = Analyzer::new(&model)
        .with_ontology(&onto)
        .check_request(&RequestSpec {
            task: &task,
            constraints: &[],
            weights: &[],
            approach: AggregationApproach::MeanValue,
        });
    assert_eq!(codes(&diags), vec!["QA020"]);
    assert_eq!(severity_of(&diags, "QA020"), Severity::Warning);
}

#[test]
fn qa021_unknown_data_iri() {
    let mut onto = OntologyBuilder::new("shop");
    onto.concept("Pay");
    let onto = onto.build().expect("valid ontology");
    let model = QosModel::standard();
    let activity = Activity::new("a", "shop#Pay").with_input("shop#Nonsense");
    let task = UserTask::new("t", TaskNode::activity(activity)).expect("valid task");
    let diags = Analyzer::new(&model)
        .with_ontology(&onto)
        .check_request(&RequestSpec {
            task: &task,
            constraints: &[],
            weights: &[],
            approach: AggregationApproach::MeanValue,
        });
    assert_eq!(codes(&diags), vec!["QA021"]);
    assert_eq!(severity_of(&diags, "QA021"), Severity::Warning);
}

// ---- provider-side rules (QA03x) -----------------------------------

#[test]
fn qa030_qos_value_out_of_range() {
    let model = QosModel::standard();
    let availability = model.property("Availability").expect("standard property");
    let mut qos = QosVector::new();
    qos.set(availability, 1.2);
    let function: Iri = "x#F".parse().expect("valid IRI");
    let diags = Analyzer::new(&model).check_service(&ServiceView {
        name: "overpromiser",
        function: &function,
        qos: &qos,
        operations: Vec::new(),
    });
    assert_eq!(codes(&diags), vec!["QA030"]);
    assert_eq!(severity_of(&diags, "QA030"), Severity::Error);
}

#[test]
fn qa031_unknown_service_function() {
    let mut onto = OntologyBuilder::new("shop");
    onto.concept("Pay");
    let onto = onto.build().expect("valid ontology");
    let model = QosModel::standard();
    let qos = QosVector::new();
    let function: Iri = "shop#Teleport".parse().expect("valid IRI");
    let diags = Analyzer::new(&model)
        .with_ontology(&onto)
        .check_service(&ServiceView {
            name: "svc",
            function: &function,
            qos: &qos,
            operations: Vec::new(),
        });
    assert_eq!(codes(&diags), vec!["QA031"]);
    assert_eq!(severity_of(&diags, "QA031"), Severity::Warning);
}

#[test]
fn qa032_self_reported_reputation() {
    let model = QosModel::standard();
    let reputation = model.property("Reputation").expect("standard property");
    let mut qos = QosVector::new();
    qos.set(reputation, 4.5);
    let function: Iri = "x#F".parse().expect("valid IRI");
    let diags = Analyzer::new(&model).check_service(&ServiceView {
        name: "flatterer",
        function: &function,
        qos: &qos,
        operations: Vec::new(),
    });
    assert_eq!(codes(&diags), vec!["QA032"]);
    assert_eq!(severity_of(&diags, "QA032"), Severity::Warning);
}

// ---- clean paths ----------------------------------------------------

#[test]
fn a_well_formed_request_produces_no_diagnostics() {
    let task = simple_task();
    let diags = request_diags(
        &task,
        &constrain("ResponseTime", 2.0, Unit::Seconds),
        &[("Availability".to_owned(), 1.0)],
        AggregationApproach::MeanValue,
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn a_well_formed_advertisement_produces_no_diagnostics() {
    let model = QosModel::standard();
    let rt = model.property("ResponseTime").expect("standard property");
    let mut qos = QosVector::new();
    qos.set(rt, 120.0);
    let function: Iri = "x#F".parse().expect("valid IRI");
    let diags = Analyzer::new(&model).check_service(&ServiceView {
        name: "svc",
        function: &function,
        qos: &qos,
        operations: Vec::new(),
    });
    assert!(diags.is_empty(), "{diags:?}");
}
