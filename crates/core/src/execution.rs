//! The execution engine: dynamic binding, monitoring, substitution and
//! behavioural adaptation at run time.

use std::collections::{HashMap, HashSet};
use std::fmt;

use qasom_adaptation::{BehaviouralAdapter, CompositionMonitor, Substitution, Violation};
use qasom_qos::{PropertyId, QosVector};
use qasom_registry::ServiceId;
use qasom_selection::{Aggregator, RankedCandidate};
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
    /// Logical execution timeline derived from the task structure and
    /// the observed per-activity response times: sequential activities
    /// follow each other, parallel branches overlap, loop rounds repeat.
    pub timeline: Vec<TimelineEntry>,
}

/// One activity occurrence on the execution timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEntry {
    /// Activity name.
    pub activity: String,
    /// Logical start, in milliseconds from composition start.
    pub start_ms: f64,
    /// Logical end (`start + observed response time`).
    pub end_ms: f64,
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

/// A relative schedule: entries `(activity index, start, end)` plus the
/// total makespan, all in milliseconds from the schedule's own origin.
struct Schedule {
    entries: Vec<(usize, f64, f64)>,
    duration: f64,
}

/// Builds the logical timeline of an executed task: observed response
/// times (`rt_of(activity index)`) laid out over the task structure.
/// Activities that never ran (skipped choice branches) produce no entry
/// and contribute no time.
fn build_timeline(task: &UserTask, rt_of: &dyn Fn(usize) -> Option<f64>) -> Schedule {
    fn walk(node: &TaskNode, idx: &mut usize, rt_of: &dyn Fn(usize) -> Option<f64>) -> Schedule {
        match node {
            TaskNode::Activity(_) => {
                let i = *idx;
                *idx += 1;
                match rt_of(i) {
                    Some(rt) => Schedule {
                        entries: vec![(i, 0.0, rt)],
                        duration: rt,
                    },
                    None => Schedule {
                        entries: Vec::new(),
                        duration: 0.0,
                    },
                }
            }
            TaskNode::Sequence(cs) => {
                let mut entries = Vec::new();
                let mut offset = 0.0;
                for c in cs {
                    let s = walk(c, idx, rt_of);
                    entries.extend(
                        s.entries
                            .into_iter()
                            .map(|(i, a, b)| (i, a + offset, b + offset)),
                    );
                    offset += s.duration;
                }
                Schedule {
                    entries,
                    duration: offset,
                }
            }
            TaskNode::Parallel(cs) => {
                let mut entries = Vec::new();
                let mut duration: f64 = 0.0;
                for c in cs {
                    let s = walk(c, idx, rt_of);
                    duration = duration.max(s.duration);
                    entries.extend(s.entries);
                }
                Schedule { entries, duration }
            }
            TaskNode::Choice(bs) => {
                // Only the branch that actually executed produces entries.
                let mut chosen = Schedule {
                    entries: Vec::new(),
                    duration: 0.0,
                };
                for (_, c) in bs {
                    let s = walk(c, idx, rt_of);
                    if !s.entries.is_empty() {
                        chosen = s;
                    }
                }
                chosen
            }
            TaskNode::Loop { body, bound } => {
                let rounds = (bound.expected().round() as u32).clamp(1, bound.max());
                let once = walk(body, idx, rt_of);
                let mut entries = Vec::new();
                for r in 0..rounds {
                    let shift = f64::from(r) * once.duration;
                    entries.extend(
                        once.entries
                            .iter()
                            .map(|&(i, a, b)| (i, a + shift, b + shift)),
                    );
                }
                Schedule {
                    entries,
                    duration: f64::from(rounds) * once.duration,
                }
            }
        }
    }
    let mut idx = 0;
    walk(task.root(), &mut idx, rt_of)
}

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
    /// adaptation* through the task-class repository.
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
            let task = comp.task.clone();
            let names: Vec<String> = task
                .activities()
                .map(|r| r.activity().name().to_owned())
                .collect();
            let bindings: Vec<ServiceId> = comp.outcome.assignment.iter().map(|c| c.id()).collect();
            let advertised: Vec<QosVector> = comp
                .outcome
                .assignment
                .iter()
                .map(|c| c.qos().clone())
                .collect();
            let mut cm = CompositionMonitor::new(
                task.clone(),
                bindings,
                advertised,
                comp.constraints.clone(),
                comp.approach,
            );

            let order = execution_order(&task);
            for pos in 0..order.len() {
                let idx = order[pos];
                let name = names[idx].clone();
                if carried_over.remove(&name) {
                    continue;
                }
                let mut tried: HashSet<ServiceId> = HashSet::new();
                let mut attempts = 0usize;
                loop {
                    if attempts >= MAX_ATTEMPTS_PER_ACTIVITY {
                        match self.adapt_behaviour(
                            &mut comp,
                            &task,
                            &mut executed,
                            &mut carried_over,
                            &mut adaptations,
                        )? {
                            true => continue 'behaviour,
                            false => return Err(ExecutionError::Abandoned { activity: name }),
                        }
                    }
                    attempts += 1;

                    let Some(service) = self.dynamic_bind(&cm, &comp, idx, &tried) else {
                        // Nothing left to bind: escalate immediately.
                        match self.adapt_behaviour(
                            &mut comp,
                            &task,
                            &mut executed,
                            &mut carried_over,
                            &mut adaptations,
                        )? {
                            true => continue 'behaviour,
                            false => return Err(ExecutionError::Abandoned { activity: name }),
                        }
                    };
                    if service != cm.bindings()[idx] {
                        let from = cm.bindings()[idx];
                        let advertised_qos = comp
                            .outcome
                            .alternates(idx)
                            .find(|c| c.id() == service)
                            .zip(task.activities().nth(idx))
                            .map(|(c, a)| self.complete(a.activity(), &c))
                            .unwrap_or_default();
                        cm.rebind(idx, service, advertised_qos);
                        substitutions += 1;
                        self.emit(MiddlewareEvent::Substituted {
                            activity: name.clone(),
                            from,
                            to: service,
                        });
                    }
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
                            substitutions += self.check_and_substitute(
                                &mut cm,
                                &comp,
                                &order[pos + 1..],
                                &names,
                            );
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
            let delivered = self.delivered_qos(&cm, &executed, &names);
            let violations = cm.check(&self.model().clone(), &self.monitor);
            let timeline = {
                let rt_property = self.model().property("ResponseTime");
                let rt_of = |i: usize| -> Option<f64> {
                    let q = executed.get(&names[i])?;
                    Some(rt_property.and_then(|p| q.get(p)).unwrap_or(0.0))
                };
                build_timeline(&task, &rt_of)
                    .entries
                    .into_iter()
                    .map(|(i, start_ms, end_ms)| TimelineEntry {
                        activity: names[i].clone(),
                        start_ms,
                        end_ms,
                    })
                    .collect()
            };
            self.emit(MiddlewareEvent::Completed {
                task: task.name().to_owned(),
                success: true,
            });
            return Ok(ExecutionReport {
                success: true,
                final_task: task.name().to_owned(),
                invocations,
                substitutions,
                behavioural_adaptations: adaptations,
                violations,
                delivered,
                timeline,
            });
        }
    }

    /// Picks the service to invoke for activity `idx`: the currently
    /// bound service when it is live and untried, otherwise the best
    /// ranked live alternate.
    fn dynamic_bind(
        &self,
        cm: &CompositionMonitor,
        comp: &ExecutableComposition,
        idx: usize,
        tried: &HashSet<ServiceId>,
    ) -> Option<ServiceId> {
        let alive = |id: ServiceId| self.registry().get(id).is_some();
        let current = cm.bindings()[idx];
        if alive(current) && !tried.contains(&current) {
            return Some(current);
        }
        comp.outcome
            .levels
            .get(idx)
            .into_iter()
            .flat_map(|l| l.best_first())
            .map(RankedCandidate::id)
            .find(|&id| alive(id) && !tried.contains(&id))
    }

    /// Checks the global constraints and, on violation, rebinds a future
    /// activity to a restoring alternate. Returns the number of
    /// substitutions performed.
    fn check_and_substitute(
        &mut self,
        cm: &mut CompositionMonitor,
        comp: &ExecutableComposition,
        upcoming: &[usize],
        names: &[String],
    ) -> usize {
        let model = self.model().clone();
        let violations = cm.check(&model, &self.monitor);
        if violations.is_empty() {
            return 0;
        }
        for v in &violations {
            self.emit(MiddlewareEvent::ViolationDetected {
                property: model.def(v.constraint.property()).name().to_owned(),
                proactive: v.proactive,
            });
        }
        let planner = Substitution::new(&model);
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
        if let Some(plan) = planner.plan(cm, &self.monitor, alternates) {
            if upcoming.contains(&plan.activity) {
                let qos = comp.task.activities().nth(plan.activity).map_or_else(
                    || plan.to.qos().clone(),
                    |a| self.complete(a.activity(), &plan.to),
                );
                cm.rebind(plan.activity, plan.to.id(), qos);
                self.emit(MiddlewareEvent::Substituted {
                    activity: names[plan.activity].clone(),
                    from: plan.from,
                    to: plan.to.id(),
                });
                return 1;
            }
        }
        0
    }

    /// Attempts behavioural adaptation; `Ok(true)` when a new behaviour
    /// was composed into `comp`.
    fn adapt_behaviour(
        &mut self,
        comp: &mut ExecutableComposition,
        task: &UserTask,
        executed: &mut HashMap<String, QosVector>,
        carried_over: &mut HashSet<String>,
        adaptations: &mut usize,
    ) -> Result<bool, ExecutionError> {
        if *adaptations >= MAX_BEHAVIOURAL_ADAPTATIONS {
            return Ok(false);
        }
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
        cm: &CompositionMonitor,
        executed: &HashMap<String, QosVector>,
        names: &[String],
    ) -> QosVector {
        let model = self.model();
        // Report every property the bindings advertise, not only the
        // constrained ones — an unconstrained request still wants to know
        // what it got.
        let mut props: Vec<PropertyId> = cm.constraints().properties().collect();
        for advertised in cm.advertised() {
            props.extend(advertised.properties());
        }
        props.sort();
        props.dedup();
        let vectors: Vec<QosVector> = names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                executed
                    .get(n)
                    .cloned()
                    .unwrap_or_else(|| cm.advertised()[i].clone())
            })
            .collect();
        Aggregator::new(model, cm.approach()).aggregate(cm.task(), &vectors, &props)
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
    fn timeline_sequences_and_overlaps() {
        let mut e = env();
        deploy_ok(&mut e, "a1", "d#A", 100.0);
        deploy_ok(&mut e, "b1", "d#B", 50.0);
        deploy_ok(&mut e, "c1", "d#C", 80.0);
        let task = UserTask::new(
            "tl",
            TaskNode::sequence([
                TaskNode::activity(Activity::new("first", "d#A")),
                TaskNode::parallel([
                    TaskNode::activity(Activity::new("left", "d#B")),
                    TaskNode::activity(Activity::new("right", "d#C")),
                ]),
            ]),
        )
        .unwrap();
        let comp = e.compose(&UserRequest::new(task)).unwrap();
        let report = e.execute(comp).unwrap();
        let by_name = |n: &str| {
            report
                .timeline
                .iter()
                .find(|t| t.activity == n)
                .unwrap()
                .clone()
        };
        let first = by_name("first");
        let left = by_name("left");
        let right = by_name("right");
        assert_eq!(first.start_ms, 0.0);
        assert_eq!(first.end_ms, 100.0);
        // The parallel branches both start when `first` ends and overlap.
        assert_eq!(left.start_ms, 100.0);
        assert_eq!(right.start_ms, 100.0);
        assert_eq!(left.end_ms, 150.0);
        assert_eq!(right.end_ms, 180.0);
    }

    #[test]
    fn timeline_repeats_loop_rounds() {
        let mut e = env();
        deploy_ok(&mut e, "a1", "d#A", 10.0);
        let task = UserTask::new(
            "tl",
            TaskNode::repeat(
                TaskNode::activity(Activity::new("body", "d#A")),
                LoopBound::new(3.0, 5),
            ),
        )
        .unwrap();
        let comp = e.compose(&UserRequest::new(task)).unwrap();
        let report = e.execute(comp).unwrap();
        let body_entries: Vec<_> = report
            .timeline
            .iter()
            .filter(|t| t.activity == "body")
            .collect();
        assert_eq!(body_entries.len(), 3);
        assert_eq!(body_entries[0].start_ms, 0.0);
        assert_eq!(body_entries[1].start_ms, 10.0);
        assert_eq!(body_entries[2].start_ms, 20.0);
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
