//! The domain analyzer: pre-selection validation of composition requests
//! and provider QoS specifications.

use std::collections::BTreeMap;

use qasom_ontology::{Iri, Ontology};
use qasom_qos::{
    AggregationApproach, Category, Dimension, Layer, PropertyId, QosModel, QosVector, Tendency,
    Unit,
};
use qasom_task::{TaskNode, UserTask};

use crate::diag::{Diagnostic, DiagnosticCode, Location};

/// A choice branch below this normalised probability is reported as
/// effectively unreachable (QA005).
const NEGLIGIBLE_PROBABILITY: f64 = 1e-6;

/// The analyzer's view of a composition request: the task plus the *raw*
/// (unresolved) QoS requirements, exactly as the user phrased them.
#[derive(Debug, Clone, Copy)]
pub struct RequestSpec<'a> {
    /// The requested task (already structurally valid).
    pub task: &'a UserTask,
    /// Raw global constraints: `(property name, bound, unit)`.
    pub constraints: &'a [(String, f64, Unit)],
    /// Raw preference weights: `(property name, weight)`.
    pub weights: &'a [(String, f64)],
    /// The aggregation approach constraints will be checked under.
    pub approach: AggregationApproach,
}

/// The analyzer's view of one white-box operation of a service.
#[derive(Debug, Clone, Copy)]
pub struct OperationView<'a> {
    /// Operation name.
    pub name: &'a str,
    /// Capability concept of the operation.
    pub function: &'a Iri,
    /// Advertised operation-level QoS.
    pub qos: &'a QosVector,
}

/// The analyzer's view of a provider's service advertisement (kept free
/// of `qasom-registry` types so the registry itself can depend on this
/// crate for QSD ingestion).
#[derive(Debug, Clone)]
pub struct ServiceView<'a> {
    /// Service name.
    pub name: &'a str,
    /// Capability concept of the service.
    pub function: &'a Iri,
    /// Advertised service-level QoS.
    pub qos: &'a QosVector,
    /// White-box operations.
    pub operations: Vec<OperationView<'a>>,
}

/// Static validator of composition requests and provider QoS specs.
///
/// All checks run *before* discovery and selection: a request that would
/// fail deep inside QASSA or be silently mis-ranked is rejected (or
/// flagged) here with structured [`Diagnostic`]s instead.
///
/// # Examples
///
/// ```
/// use qasom_analysis::{Analyzer, RequestSpec};
/// use qasom_qos::{AggregationApproach, QosModel, Unit};
/// use qasom_task::{Activity, TaskNode, UserTask};
///
/// let model = QosModel::standard();
/// let task = UserTask::new(
///     "t",
///     TaskNode::activity(Activity::new("a", "x#A")),
/// )
/// .unwrap();
/// // A response-time bound phrased in euros: dimension mismatch.
/// let constraints = vec![("ResponseTime".to_owned(), 2.0, Unit::Euro)];
/// let spec = RequestSpec {
///     task: &task,
///     constraints: &constraints,
///     weights: &[],
///     approach: AggregationApproach::MeanValue,
/// };
/// let diags = Analyzer::new(&model).check_request(&spec);
/// assert!(diags.iter().any(|d| d.code.code() == "QA011"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Analyzer<'a> {
    model: &'a QosModel,
    ontology: Option<&'a Ontology>,
}

impl<'a> Analyzer<'a> {
    /// Creates an analyzer over the QoS model in force.
    pub fn new(model: &'a QosModel) -> Self {
        Analyzer {
            model,
            ontology: None,
        }
    }

    /// Also checks concept IRIs against the domain ontology (QA020,
    /// QA021, QA031).
    pub fn with_ontology(mut self, ontology: &'a Ontology) -> Self {
        self.ontology = Some(ontology);
        self
    }

    /// Warns about composition patterns that are well-formed but
    /// misleading (QA005, QA006). Well-formedness itself — no empty
    /// pattern, positive finite probabilities, unique activity names, at
    /// least one activity — is [`UserTask::new`]'s to enforce.
    pub fn check_structure(&self, task_name: &str, root: &TaskNode) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        check_node(task_name, root, &mut out);
        out
    }

    /// Validates a composition request end to end: task structure, QoS
    /// dimensional analysis, constraint satisfiability, preference
    /// weights, aggregation-approach soundness and (when an ontology is
    /// bound) concept-IRI sanity.
    pub fn check_request(&self, spec: &RequestSpec<'_>) -> Vec<Diagnostic> {
        let task_name = spec.task.name();
        let mut out = self.check_structure(task_name, spec.task.root());
        self.check_constraints(spec, &mut out);
        self.check_weights(spec, &mut out);
        self.check_approach(spec, &mut out);
        if self.ontology.is_some() {
            self.check_task_iris(spec.task, &mut out);
        }
        out
    }

    /// Validates a provider's service advertisement (QSD ingestion):
    /// advertised values against each property's feasible range (QA030),
    /// self-reported reputation (QA032) and, when an ontology is bound,
    /// function IRIs (QA031).
    pub fn check_service(&self, service: &ServiceView<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let at = Location::service(service.name);
        self.check_qos_values(service.qos, &at, &mut out);
        if let Some(onto) = self.ontology {
            if onto.concept(service.function).is_none() {
                out.push(Diagnostic::new(
                    DiagnosticCode::UnknownServiceFunction,
                    at.clone().with_iri(service.function),
                    format!(
                        "function {} is unknown to the domain ontology; \
                         only exact textual matches will discover this service",
                        service.function
                    ),
                ));
            }
        }
        for op in &service.operations {
            let at = at.clone().with_operation(op.name);
            self.check_qos_values(op.qos, &at, &mut out);
            if let Some(onto) = self.ontology {
                if onto.concept(op.function).is_none() {
                    out.push(Diagnostic::new(
                        DiagnosticCode::UnknownServiceFunction,
                        at.clone().with_iri(op.function),
                        format!(
                            "operation function {} is unknown to the ontology",
                            op.function
                        ),
                    ));
                }
            }
        }
        out
    }

    fn check_qos_values(&self, qos: &QosVector, at: &Location, out: &mut Vec<Diagnostic>) {
        for (p, v) in qos.iter() {
            let def = self.model.def(p);
            let at = at.clone().with_property(def.name());
            if !v.is_finite() {
                out.push(Diagnostic::new(
                    DiagnosticCode::QosValueOutOfRange,
                    at,
                    format!("advertised {} value {v} is not finite", def.name()),
                ));
                continue;
            }
            let dim = def.unit().dimension();
            if dim == Dimension::Probability && !(0.0..=1.0).contains(&v) {
                out.push(Diagnostic::new(
                    DiagnosticCode::QosValueOutOfRange,
                    at,
                    format!(
                        "advertised {} = {v} lies outside the probability range [0, 1]",
                        def.name()
                    ),
                ));
            } else if non_negative(dim) && v < 0.0 {
                out.push(Diagnostic::new(
                    DiagnosticCode::QosValueOutOfRange,
                    at,
                    format!("advertised {} = {v} is negative", def.name()),
                ));
            } else if def.category() == Category::Reputation {
                out.push(Diagnostic::new(
                    DiagnosticCode::SelfReportedReputation,
                    at,
                    format!(
                        "{} is derived from SLA compliance by the middleware; \
                         the self-reported value will be overwritten",
                        def.name()
                    ),
                ));
            }
        }
    }

    fn check_constraints(&self, spec: &RequestSpec<'_>, out: &mut Vec<Diagnostic>) {
        // Service-layer anchor of each constrained property → the name the
        // user first constrained it under (QA014 duplicate detection).
        let mut anchored: BTreeMap<PropertyId, &str> = BTreeMap::new();
        for (name, bound, unit) in spec.constraints {
            let Some(id) = self.model.property(name) else {
                out.push(Diagnostic::new(
                    DiagnosticCode::UnknownProperty,
                    Location::property(name),
                    format!("constraint names QoS property {name:?}, unknown to the model"),
                ));
                continue;
            };
            let def = self.model.def(id);
            let at = Location::property(name);
            if unit.dimension() != def.unit().dimension() {
                out.push(Diagnostic::new(
                    DiagnosticCode::DimensionMismatch,
                    at.clone(),
                    format!(
                        "bound on {} given in {} ({:?}), but {} is measured in {} ({:?}); \
                         the bound cannot be converted",
                        def.name(),
                        unit,
                        unit.dimension(),
                        def.name(),
                        def.unit(),
                        def.unit().dimension()
                    ),
                ));
                continue;
            }
            let canonical = unit.convert(*bound, def.unit()).unwrap_or(*bound);
            self.check_bound(
                def.name(),
                canonical,
                def.tendency(),
                def.unit().dimension(),
                out,
            );

            if def.layer() == Layer::User
                && self.model.resolve_to_layer(id, Layer::Service).is_none()
            {
                out.push(Diagnostic::new(
                    DiagnosticCode::UnalignedUserProperty,
                    at.clone(),
                    format!(
                        "user-layer property {} has no service-layer equivalent; \
                         provider advertisements can never carry it",
                        def.name()
                    ),
                ));
            }

            let anchor = self
                .model
                .resolve_to_layer(id, Layer::Service)
                .unwrap_or(id);
            if let Some(first) = anchored.get(&anchor) {
                if *first != name.as_str()
                    || spec
                        .constraints
                        .iter()
                        .filter(|(n, _, _)| n == name)
                        .count()
                        > 1
                {
                    out.push(Diagnostic::new(
                        DiagnosticCode::DuplicateConstraint,
                        at,
                        format!(
                            "constraint on {name:?} resolves to the same service-layer \
                             property as the earlier constraint on {first:?}; \
                             the stricter bound silently wins"
                        ),
                    ));
                }
            } else {
                anchored.insert(anchor, name.as_str());
            }
        }
    }

    fn check_bound(
        &self,
        property: &str,
        bound: f64,
        tendency: Tendency,
        dim: Dimension,
        out: &mut Vec<Diagnostic>,
    ) {
        let at = Location::property(property);
        if bound.is_nan() {
            out.push(Diagnostic::new(
                DiagnosticCode::UnsatisfiableBound,
                at,
                format!("bound on {property} is NaN; no value satisfies it"),
            ));
            return;
        }
        match tendency {
            // Satisfaction is `value <= bound`.
            Tendency::LowerBetter => {
                if non_negative(dim) && bound < 0.0 {
                    out.push(Diagnostic::new(
                        DiagnosticCode::UnsatisfiableBound,
                        at,
                        format!(
                            "{property} is non-negative ({dim:?}) but the bound is {bound}; \
                             the feasible intersection is empty"
                        ),
                    ));
                } else if bound == f64::INFINITY || (dim == Dimension::Probability && bound >= 1.0)
                {
                    out.push(Diagnostic::new(
                        DiagnosticCode::VacuousBound,
                        at,
                        format!("every possible {property} value satisfies the bound {bound}"),
                    ));
                }
            }
            // Satisfaction is `value >= bound`.
            Tendency::HigherBetter => {
                if dim == Dimension::Probability && bound > 1.0 {
                    out.push(Diagnostic::new(
                        DiagnosticCode::UnsatisfiableBound,
                        at,
                        format!(
                            "{property} is a probability but the bound is {bound} > 1; \
                             the feasible intersection is empty"
                        ),
                    ));
                } else if bound == f64::INFINITY {
                    out.push(Diagnostic::new(
                        DiagnosticCode::UnsatisfiableBound,
                        at,
                        format!("no finite {property} value reaches the bound {bound}"),
                    ));
                } else if non_negative(dim) && bound <= 0.0 {
                    out.push(Diagnostic::new(
                        DiagnosticCode::VacuousBound,
                        at,
                        format!("every possible {property} value satisfies the bound {bound}"),
                    ));
                }
            }
        }
    }

    fn check_weights(&self, spec: &RequestSpec<'_>, out: &mut Vec<Diagnostic>) {
        let mut usable = 0usize;
        for (name, weight) in spec.weights {
            let Some(id) = self.model.property(name) else {
                out.push(Diagnostic::new(
                    DiagnosticCode::UnknownProperty,
                    Location::property(name),
                    format!("preference weight names QoS property {name:?}, unknown to the model"),
                ));
                continue;
            };
            if !(weight.is_finite() && *weight > 0.0) {
                out.push(Diagnostic::new(
                    DiagnosticCode::DroppedWeight,
                    Location::property(name),
                    format!(
                        "weight {weight} on {name} is not positive and finite; \
                         normalisation drops it"
                    ),
                ));
                continue;
            }
            usable += 1;
            let def = self.model.def(id);
            if def.layer() == Layer::User
                && self.model.resolve_to_layer(id, Layer::Service).is_none()
            {
                out.push(Diagnostic::new(
                    DiagnosticCode::UnalignedUserProperty,
                    Location::property(name),
                    format!(
                        "user-layer property {} has no service-layer equivalent; \
                         its weight can never influence ranking",
                        def.name()
                    ),
                ));
            }
        }
        if !spec.weights.is_empty() && usable == 0 {
            out.push(Diagnostic::new(
                DiagnosticCode::UnusableWeights,
                Location::none(),
                "preference weights were given but none is positive and finite; \
                 the weight vector cannot be normalised",
            ));
        }
    }

    fn check_approach(&self, spec: &RequestSpec<'_>, out: &mut Vec<Diagnostic>) {
        if spec.approach == AggregationApproach::Optimistic
            && !spec.constraints.is_empty()
            && has_nondeterministic_pattern(spec.task.root())
        {
            out.push(Diagnostic::new(
                DiagnosticCode::OptimisticGuarantee,
                Location::task(spec.task.name()),
                "global constraints are checked under the optimistic approach on a task \
                 with choice/loop patterns: the aggregate is a best case, not a guarantee",
            ));
        }
    }

    fn check_task_iris(&self, task: &UserTask, out: &mut Vec<Diagnostic>) {
        let Some(onto) = self.ontology else {
            return;
        };
        for a in task.activities() {
            let activity = a.activity();
            let at = Location::task(task.name()).with_activity(activity.name());
            if onto.concept(activity.function()).is_none() {
                out.push(Diagnostic::new(
                    DiagnosticCode::UnknownFunctionIri,
                    at.clone().with_iri(activity.function()),
                    format!(
                        "function {} is unknown to the domain ontology; only services \
                         advertising the exact same IRI can be discovered",
                        activity.function()
                    ),
                ));
            }
            for iri in activity.inputs().iter().chain(activity.outputs()) {
                if onto.concept(iri).is_none() {
                    out.push(Diagnostic::new(
                        DiagnosticCode::UnknownDataIri,
                        at.clone().with_iri(iri),
                        format!("data concept {iri} is unknown to the domain ontology"),
                    ));
                }
            }
        }
    }
}

/// Dimensions whose values are non-negative by construction.
fn non_negative(dim: Dimension) -> bool {
    matches!(
        dim,
        Dimension::Time
            | Dimension::Rate
            | Dimension::DataRate
            | Dimension::Probability
            | Dimension::Money
            | Dimension::Energy
    )
}

fn has_nondeterministic_pattern(node: &TaskNode) -> bool {
    match node {
        TaskNode::Activity(_) => false,
        TaskNode::Sequence(cs) | TaskNode::Parallel(cs) => {
            cs.iter().any(has_nondeterministic_pattern)
        }
        TaskNode::Choice(_) | TaskNode::Loop { .. } => true,
    }
}

fn first_activity_name(node: &TaskNode) -> Option<&str> {
    let mut name = None;
    node.for_each_activity(&mut |a| {
        if name.is_none() {
            name = Some(a.name());
        }
    });
    name
}

/// Pattern-local structural checks (QA005, QA006).
fn check_node(task_name: &str, node: &TaskNode, out: &mut Vec<Diagnostic>) {
    match node {
        TaskNode::Activity(_) => {}
        TaskNode::Sequence(cs) | TaskNode::Parallel(cs) => {
            for c in cs {
                check_node(task_name, c, out);
            }
        }
        TaskNode::Choice(bs) => {
            let total: f64 = bs.iter().map(|&(p, _)| p.max(0.0)).sum();
            for (p, branch) in bs {
                let at = match first_activity_name(branch) {
                    Some(a) => Location::task(task_name).with_activity(a),
                    None => Location::task(task_name),
                };
                if total > 0.0 && p / total < NEGLIGIBLE_PROBABILITY {
                    out.push(Diagnostic::new(
                        DiagnosticCode::NegligibleBranch,
                        at,
                        format!(
                            "choice branch probability normalises to {:.2e}; \
                             its activities are effectively unreachable",
                            p / total
                        ),
                    ));
                }
                check_node(task_name, branch, out);
            }
        }
        TaskNode::Loop { body, bound } => {
            if bound.expected() > f64::from(bound.max()) {
                let at = match first_activity_name(body) {
                    Some(a) => Location::task(task_name).with_activity(a),
                    None => Location::task(task_name),
                };
                out.push(Diagnostic::new(
                    DiagnosticCode::LoopExpectationExceedsCap,
                    at,
                    format!(
                        "loop expects {} iterations but execution caps at {}; \
                         mean-value aggregation will overstate the loop's QoS cost",
                        bound.expected(),
                        bound.max()
                    ),
                ));
            }
            check_node(task_name, body, out);
        }
    }
}
