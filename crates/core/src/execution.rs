//! The execution engine: dynamic binding, monitoring, substitution and
//! behavioural adaptation at run time.

use std::collections::{HashMap, HashSet};
use std::fmt;

use qasom_adaptation::{BehaviouralAdapter, CompositionMonitor, Violation};
use qasom_qos::{PropertyId, QosModel, QosVector};
use qasom_registry::ServiceId;
use qasom_selection::{Aggregator, ServiceCandidate};
use qasom_task::{TaskNode, UserTask};

use crate::{ComposeError, Environment, ExecutableComposition, MiddlewareEvent};

/// One activity invocation, as recorded in the execution report.
#[derive(Debug, Clone, PartialEq)]
pub struct InvocationRecord {
    /// Activity name (in the behaviour that was executing at the time).
    pub activity: String,
    /// The invoked service.
    pub service: ServiceId,
    /// The delivered QoS (`None` for failed invocations).
    pub qos: Option<QosVector>,
}

/// Outcome of executing a composition.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Whether every planned activity was eventually served.
    pub success: bool,
    /// Name of the behaviour that actually completed (differs from the
    /// requested one after behavioural adaptation).
    pub final_task: String,
    /// Every invocation attempted, in order.
    pub invocations: Vec<InvocationRecord>,
    /// Number of service substitutions performed.
    pub substitutions: usize,
    /// Number of behavioural adaptations performed.
    pub behavioural_adaptations: usize,
    /// Constraint violations outstanding at completion (on believed QoS).
    pub violations: Vec<Violation>,
    /// Aggregated delivered QoS (observed values where available,
    /// advertised ones elsewhere).
    pub delivered: QosVector,
}

/// Terminal execution failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecutionError {
    /// An activity could not be served and no adaptation remained.
    Abandoned {
        /// The activity that could not be served.
        activity: String,
    },
    /// Behavioural adaptation chose an alternative that then failed to
    /// compose.
    Recompose(ComposeError),
}

impl fmt::Display for ExecutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionError::Abandoned { activity } => {
                write!(
                    f,
                    "activity {activity:?} could not be served by any strategy"
                )
            }
            ExecutionError::Recompose(e) => write!(f, "re-composition failed: {e}"),
        }
    }
}

impl std::error::Error for ExecutionError {}

impl From<ComposeError> for ExecutionError {
    fn from(e: ComposeError) -> Self {
        ExecutionError::Recompose(e)
    }
}

/// Invocation attempts per activity (across substitutions) before
/// escalating to behavioural adaptation.
const MAX_ATTEMPTS_PER_ACTIVITY: usize = 5;

/// Behavioural-adaptation budget per execution.
const MAX_BEHAVIOURAL_ADAPTATIONS: usize = 2;

/// Deterministic execution order of a task: activity indices in the order
/// they run. Choices take their most probable branch (ties: first); loops
/// run `round(expected)` clamped to `[1, max]` times.
fn execution_order(task: &UserTask) -> Vec<usize> {
    fn walk(node: &TaskNode, emit: bool, idx: &mut usize, out: &mut Vec<usize>) {
        match node {
            TaskNode::Activity(_) => {
                if emit {
                    out.push(*idx);
                }
                *idx += 1;
            }
            TaskNode::Sequence(cs) | TaskNode::Parallel(cs) => {
                for c in cs {
                    walk(c, emit, idx, out);
                }
            }
            TaskNode::Choice(bs) => {
                // First maximal branch (ties go to the earliest one).
                let mut chosen = 0;
                for (i, (p, _)) in bs.iter().enumerate().skip(1) {
                    if *p > bs[chosen].0 {
                        chosen = i;
                    }
                }
                for (i, (_, c)) in bs.iter().enumerate() {
                    walk(c, emit && i == chosen, idx, out);
                }
            }
            TaskNode::Loop { body, bound } => {
                let rounds = (bound.expected().round() as u32).clamp(1, bound.max());
                let mut body_plan = Vec::new();
                walk(body, emit, idx, &mut body_plan);
                if emit {
                    for _ in 1..rounds {
                        out.extend(body_plan.iter().copied());
                    }
                    out.extend(body_plan);
                }
            }
        }
    }
    let mut out = Vec::new();
    let mut idx = 0;
    walk(task.root(), true, &mut idx, &mut out);
    out
}

impl Environment {
    /// Executes a composition to completion, adapting as needed.
    ///
    /// The engine invokes activities in execution order with *dynamic
    /// binding* (the best live candidate at invocation time). Delivered
    /// QoS feeds the global/proactive monitor; violations trigger
    /// *service substitution* of not-yet-executed activities, and
    /// repeated failures without substitutes escalate to *behavioural
    /// adaptation* through the task-class repository. Every rebind
    /// overwrites the composition's own binding of the activity
    /// (`outcome.assignment`), which the monitor reads.
    ///
    /// # Errors
    ///
    /// Fails when an activity cannot be served by any strategy, or a
    /// behavioural adaptation cannot be re-composed.
    pub fn execute(
        &mut self,
        composition: ExecutableComposition,
    ) -> Result<ExecutionReport, ExecutionError> {
        let mut comp = composition;
        let mut invocations = Vec::new();
        let mut substitutions = 0usize;
        let mut adaptations = 0usize;
        // Observed QoS per executed activity *of the current behaviour*
        // (loops overwrite with the latest observation).
        let mut executed: HashMap<String, QosVector> = HashMap::new();
        // Activities already served in a *previous* behaviour, carried
        // over by behavioural adaptation: each is skipped exactly once
        // (loop re-invocations within a behaviour must still run).
        let mut carried_over: HashSet<String> = HashSet::new();

        'behaviour: loop {
            let names: Vec<String> = comp
                .task
                .activities()
                .map(|r| r.activity().name().to_owned())
                .collect();
            let order = execution_order(&comp.task);
            for pos in 0..order.len() {
                let idx = order[pos];
                let name = names[idx].clone();
                if carried_over.remove(&name) {
                    continue;
                }
                let mut tried: HashSet<ServiceId> = HashSet::new();
                let mut attempts = 0usize;
                loop {
                    let binding = (attempts < MAX_ATTEMPTS_PER_ACTIVITY)
                        .then(|| self.dynamic_bind(&comp, idx, &tried))
                        .flatten();
                    let Some(binding) = binding else {
                        // Out of attempts or of live candidates: escalate.
                        match self.adapt_behaviour(
                            &mut comp,
                            &mut executed,
                            &mut carried_over,
                            &mut adaptations,
                        )? {
                            true => continue 'behaviour,
                            false => return Err(ExecutionError::Abandoned { activity: name }),
                        }
                    };
                    attempts += 1;
                    let service = match binding {
                        Binding::Kept(service) => service,
                        Binding::Moved(to) => {
                            self.substitute(&mut comp, idx, &to, &name);
                            substitutions += 1;
                            to.id()
                        }
                    };
                    tried.insert(service);

                    // A successful outcome always carries delivered QoS
                    // (`qos()` is `Some` iff `is_success()`), so matching
                    // on the QoS itself covers both checks at once.
                    match self.invoke(service).and_then(|o| o.qos().cloned()) {
                        Some(qos) => {
                            self.record_invocation(service, Some(&qos));
                            self.emit(MiddlewareEvent::Invoked {
                                activity: name.clone(),
                                service,
                            });
                            invocations.push(InvocationRecord {
                                activity: name.clone(),
                                service,
                                qos: Some(qos.clone()),
                            });
                            executed.insert(name.clone(), qos);

                            // Global + proactive check, then pre-emptive
                            // substitution of activities that still have
                            // upcoming invocations (loop bodies included).
                            substitutions +=
                                self.check_and_substitute(&mut comp, &order[pos + 1..], &names);
                            break;
                        }
                        None => {
                            self.record_invocation(service, None);
                            self.emit(MiddlewareEvent::InvocationFailed {
                                activity: name.clone(),
                                service,
                            });
                            invocations.push(InvocationRecord {
                                activity: name.clone(),
                                service,
                                qos: None,
                            });
                            // Loop: dynamic_bind will skip `tried`.
                        }
                    }
                }
            }

            // Every activity of this behaviour served.
            let delivered = self.delivered_qos(&comp, &executed, &names);
            let violations = comp
                .monitor(&self.model().clone())
                .check(&self.monitor)
                .violations;
            let final_task = comp.task.name().to_owned();
            self.emit(MiddlewareEvent::Completed {
                task: final_task.clone(),
                success: true,
            });
            return Ok(ExecutionReport {
                success: true,
                final_task,
                invocations,
                substitutions,
                behavioural_adaptations: adaptations,
                violations,
                delivered,
            });
        }
    }

    /// Picks the service to invoke for activity `idx`: the bound service
    /// when it is live and untried, otherwise the best ranked live
    /// untried alternate.
    fn dynamic_bind(
        &self,
        comp: &ExecutableComposition,
        idx: usize,
        tried: &HashSet<ServiceId>,
    ) -> Option<Binding> {
        let bindable = |id: ServiceId| self.registry().get(id).is_some() && !tried.contains(&id);
        let bound = comp.outcome.assignment[idx].id();
        if bindable(bound) {
            return Some(Binding::Kept(bound));
        }
        let levels = comp.outcome.levels.get(idx)?;
        let row = levels.best_first().iter().find(|r| bindable(r.id()))?;
        Some(Binding::Moved(levels.candidate(row)))
    }

    /// Rebinds `activity` to the ranked alternate `to`, overwriting its
    /// binding with the QoS `to` is bound with, and reports it.
    fn substitute(
        &self,
        comp: &mut ExecutableComposition,
        activity: usize,
        to: &ServiceCandidate,
        name: &str,
    ) {
        let qos = comp
            .task
            .activities()
            .nth(activity)
            .map_or_else(|| to.qos().clone(), |a| self.complete(a.activity(), to));
        let bound = ServiceCandidate::new(to.id(), qos);
        let from = std::mem::replace(&mut comp.outcome.assignment[activity], bound).id();
        self.emit(MiddlewareEvent::Substituted {
            activity: name.to_owned(),
            from,
            to: to.id(),
        });
    }

    /// Checks the global constraints and, on violation, rebinds a future
    /// activity to a restoring alternate. Returns the number of
    /// substitutions performed.
    fn check_and_substitute(
        &mut self,
        comp: &mut ExecutableComposition,
        upcoming: &[usize],
        names: &[String],
    ) -> usize {
        let model = self.model().clone();
        let cm = comp.monitor(&model);
        let assessment = cm.check(&self.monitor);
        if assessment.violations.is_empty() {
            return 0;
        }
        for v in &assessment.violations {
            self.emit(MiddlewareEvent::ViolationDetected {
                property: model.def(v.constraint.property()).name().to_owned(),
                proactive: v.proactive,
            });
        }
        // Activities with no upcoming invocation cannot be rebound: offer
        // no alternates for them, so the planner only proposes viable
        // plans.
        let alternates = |i: usize| {
            upcoming
                .contains(&i)
                .then(|| comp.outcome.alternates(i))
                .into_iter()
                .flatten()
        };
        let Some(plan) = cm.plan_substitution(assessment, &self.monitor, alternates) else {
            return 0;
        };
        self.substitute(comp, plan.activity, &plan.to, &names[plan.activity]);
        1
    }

    /// Attempts behavioural adaptation; `Ok(true)` when a new behaviour
    /// was composed into `comp`.
    fn adapt_behaviour(
        &mut self,
        comp: &mut ExecutableComposition,
        executed: &mut HashMap<String, QosVector>,
        carried_over: &mut HashSet<String>,
        adaptations: &mut usize,
    ) -> Result<bool, ExecutionError> {
        if *adaptations >= MAX_BEHAVIOURAL_ADAPTATIONS {
            return Ok(false);
        }
        let task = &comp.task;
        let executed_names: Vec<&str> = task
            .activities()
            .map(|r| r.activity().name())
            .filter(|n| executed.contains_key(*n))
            .collect();
        let plan = {
            let this: &Environment = &*self;
            let adapter = BehaviouralAdapter::new(this.ontology());
            // A remaining activity is realisable when a live service can
            // be discovered for it.
            adapter.plan(this.task_repository(), task, &executed_names, &mut |a| {
                this.realisable(a)
            })
        };
        let Some(plan) = plan else {
            return Ok(false);
        };
        *adaptations += 1;
        self.emit(MiddlewareEvent::BehaviouralAdaptation {
            from: task.name().to_owned(),
            to: plan.behaviour.name().to_owned(),
        });

        // Carry the executed activities over into the new behaviour's
        // namespace.
        let mut carried = HashMap::new();
        for (old, new) in &plan.executed_map {
            if let Some(q) = executed.get(old) {
                carried.insert(new.clone(), q.clone());
            }
        }
        *carried_over = carried.keys().cloned().collect();
        *executed = carried;

        *comp = self.compose_task(
            plan.behaviour,
            comp.constraints.clone(),
            comp.preferences.clone(),
            comp.approach,
        )?;
        Ok(true)
    }

    /// Aggregated delivered QoS: observed values for executed activities,
    /// advertised ones elsewhere.
    fn delivered_qos(
        &self,
        comp: &ExecutableComposition,
        executed: &HashMap<String, QosVector>,
        names: &[String],
    ) -> QosVector {
        let bindings = &comp.outcome.assignment;
        // Report every property the bindings advertise, not only the
        // constrained ones — an unconstrained request still wants to know
        // what it got.
        let mut props: Vec<PropertyId> = comp.constraints.properties().collect();
        for bound in bindings {
            props.extend(bound.qos().properties());
        }
        props.sort();
        props.dedup();
        let vectors: Vec<QosVector> = names
            .iter()
            .zip(bindings)
            .map(|(n, bound)| executed.get(n).unwrap_or(bound.qos()).clone())
            .collect();
        Aggregator::new(self.model(), comp.approach).aggregate(&comp.task, &vectors, &props)
    }
}

/// What dynamic binding picked for an activity.
enum Binding {
    /// The bound service, still live and untried.
    Kept(ServiceId),
    /// A ranked alternate taking over.
    Moved(ServiceCandidate),
}

impl ExecutableComposition {
    /// The running composition as the monitor sees it.
    fn monitor<'a>(&'a self, model: &'a QosModel) -> CompositionMonitor<'a> {
        CompositionMonitor::new(
            model,
            &self.task,
            &self.outcome.assignment,
            &self.constraints,
            self.approach,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UserRequest;
    use qasom_netsim::runtime::SyntheticService;
    use qasom_ontology::OntologyBuilder;
    use qasom_qos::{QosModel, Unit};
    use qasom_registry::ServiceDescription;
    use qasom_task::{Activity, LoopBound, TaskClass};

    fn env() -> Environment {
        let mut b = OntologyBuilder::new("d");
        b.concept("A");
        b.concept("B");
        b.concept("C");
        Environment::new(QosModel::standard(), b.build().unwrap(), 11)
    }

    fn describe(e: &Environment, name: &str, function: &str, rt_ms: f64) -> ServiceDescription {
        let rt = e.model().property("ResponseTime").unwrap();
        let av = e.model().property("Availability").unwrap();
        ServiceDescription::new(name, function)
            .with_qos(rt, rt_ms)
            .with_qos(av, 0.99)
    }

    fn deploy_ok(e: &mut Environment, name: &str, function: &str, rt_ms: f64) -> ServiceId {
        let d = describe(e, name, function, rt_ms);
        let nominal = d.qos().clone();
        e.deploy(d, SyntheticService::new(nominal))
    }

    fn deploy_crashing(e: &mut Environment, name: &str, function: &str, rt_ms: f64) -> ServiceId {
        let d = describe(e, name, function, rt_ms);
        let nominal = d.qos().clone();
        e.deploy(d, SyntheticService::new(nominal).with_crash_after(0))
    }

    fn seq_task(pairs: &[(&str, &str)]) -> UserTask {
        UserTask::new(
            "t",
            TaskNode::sequence(
                pairs
                    .iter()
                    .map(|(n, f)| TaskNode::activity(Activity::new(*n, f))),
            ),
        )
        .unwrap()
    }

    #[test]
    fn happy_path_executes_all_activities() {
        let mut e = env();
        deploy_ok(&mut e, "a1", "d#A", 50.0);
        deploy_ok(&mut e, "b1", "d#B", 60.0);
        let req = UserRequest::new(seq_task(&[("first", "d#A"), ("second", "d#B")]))
            .constraint("ResponseTime", 1.0, Unit::Seconds)
            .unwrap();
        let comp = e.compose(&req).unwrap();
        let report = e.execute(comp).unwrap();
        assert!(report.success);
        assert_eq!(report.invocations.len(), 2);
        assert_eq!(report.substitutions, 0);
        let rt = e.model().property("ResponseTime").unwrap();
        assert_eq!(report.delivered.get(rt), Some(110.0));
    }

    #[test]
    fn failed_service_is_substituted() {
        let mut e = env();
        let bad = deploy_crashing(&mut e, "a-bad", "d#A", 10.0); // ranked best
        let good = deploy_ok(&mut e, "a-good", "d#A", 50.0);
        let req = UserRequest::new(seq_task(&[("only", "d#A")]));
        let comp = e.compose(&req).unwrap();
        let report = e.execute(comp).unwrap();
        assert!(report.success);
        assert!(report.substitutions >= 1);
        let last = report.invocations.last().unwrap();
        assert_eq!(last.service, good);
        assert!(report
            .invocations
            .iter()
            .any(|r| r.service == bad && r.qos.is_none()));
    }

    #[test]
    fn behavioural_adaptation_rescues_execution() {
        let mut e = env();
        // v1 needs d#B which only has a crashing provider; v2 realises the
        // same class via d#C which is healthy.
        deploy_ok(&mut e, "a1", "d#A", 50.0);
        deploy_crashing(&mut e, "b1", "d#B", 50.0);
        deploy_ok(&mut e, "c1", "d#C", 50.0);

        let v1 = UserTask::new(
            "v1",
            TaskNode::sequence([
                TaskNode::activity(Activity::new("start", "d#A")),
                TaskNode::activity(Activity::new("broken", "d#B")),
            ]),
        )
        .unwrap();
        let v2 = UserTask::new(
            "v2",
            TaskNode::sequence([
                TaskNode::activity(Activity::new("start2", "d#A")),
                TaskNode::activity(Activity::new("alt", "d#C")),
            ]),
        )
        .unwrap();
        let mut class = TaskClass::new("demo");
        class.add_behaviour(v1.clone());
        class.add_behaviour(v2);
        e.register_task_class(class);

        let req = UserRequest::new(v1);
        let comp = e.compose(&req).unwrap();
        let report = e.execute(comp).unwrap();
        assert!(report.success);
        assert_eq!(report.behavioural_adaptations, 1);
        assert_eq!(report.final_task, "v2");
        // The executed prefix (start) was not re-invoked.
        assert_eq!(
            report
                .invocations
                .iter()
                .filter(|r| r.activity.starts_with("start") && r.qos.is_some())
                .count(),
            1
        );
    }

    #[test]
    fn execution_fails_when_nothing_can_serve() {
        let mut e = env();
        deploy_crashing(&mut e, "a1", "d#A", 50.0);
        let req = UserRequest::new(seq_task(&[("only", "d#A")]));
        let comp = e.compose(&req).unwrap();
        let err = e.execute(comp).unwrap_err();
        assert!(matches!(err, ExecutionError::Abandoned { .. }));
    }

    #[test]
    fn loops_reinvoke_their_body() {
        let mut e = env();
        deploy_ok(&mut e, "a1", "d#A", 10.0);
        let task = UserTask::new(
            "loop",
            TaskNode::repeat(
                TaskNode::activity(Activity::new("body", "d#A")),
                LoopBound::new(3.0, 5),
            ),
        )
        .unwrap();
        let comp = e.compose(&UserRequest::new(task)).unwrap();
        let report = e.execute(comp).unwrap();
        assert!(report.success);
        // expected=3 rounds → the body is invoked three times.
        assert_eq!(
            report
                .invocations
                .iter()
                .filter(|r| r.activity == "body" && r.qos.is_some())
                .count(),
            3
        );
    }

    #[test]
    fn choice_takes_most_probable_branch() {
        let task = UserTask::new(
            "c",
            TaskNode::choice([
                (0.2, TaskNode::activity(Activity::new("rare", "d#A"))),
                (0.8, TaskNode::activity(Activity::new("likely", "d#B"))),
            ]),
        )
        .unwrap();
        let order = execution_order(&task);
        assert_eq!(order, vec![1]);
    }

    #[test]
    fn execution_order_resolves_nested_structures() {
        let task = UserTask::new(
            "n",
            TaskNode::sequence([
                TaskNode::activity(Activity::new("a", "d#A")),
                TaskNode::parallel([
                    TaskNode::activity(Activity::new("b", "d#B")),
                    TaskNode::activity(Activity::new("c", "d#C")),
                ]),
                TaskNode::repeat(
                    TaskNode::activity(Activity::new("d", "d#A")),
                    LoopBound::new(2.0, 3),
                ),
            ]),
        )
        .unwrap();
        assert_eq!(execution_order(&task), vec![0, 1, 2, 3, 3]);
    }
}
