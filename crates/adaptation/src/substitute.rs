//! Service substitution — the first-line adaptation strategy.

use qasom_qos::{PropertyId, QosModel, QosVector};
use qasom_registry::ServiceId;
use qasom_selection::{Aggregator, ServiceCandidate};

use crate::{overlay, CompositionMonitor, QosMonitor};

/// A planned substitution: replace the service bound to `activity`.
#[derive(Debug, Clone, PartialEq)]
pub struct SubstitutionPlan {
    /// DFS index of the activity being rebound.
    pub activity: usize,
    /// The service currently bound there.
    pub from: ServiceId,
    /// The ranked alternate taking over.
    pub to: ServiceCandidate,
    /// The aggregated QoS expected after the substitution (believed
    /// values for untouched activities, the alternate's QoS for the
    /// rebound one).
    pub expected: QosVector,
}

/// Plans single-service substitutions that restore global-constraint
/// satisfaction.
///
/// Alternates come from selection time: QASSA keeps every activity's
/// candidates ranked best-first precisely so that substitution (and
/// dynamic binding) can pick replacements without re-running discovery.
#[derive(Debug, Clone, Copy)]
pub struct Substitution<'a> {
    model: &'a QosModel,
}

impl<'a> Substitution<'a> {
    /// Creates a substitution planner.
    pub fn new(model: &'a QosModel) -> Self {
        Substitution { model }
    }

    /// Finds the first substitution that makes the believed aggregate
    /// satisfy every constraint again.
    ///
    /// Activities are tried most-blamed-first (worst believed value on
    /// the most violated property); within an activity, alternates are
    /// tried in their selection-time rank order, as `alternates(activity)`
    /// yields them — an activity that must not be rebound yields none.
    /// Returns `None` when no single substitution suffices — the caller
    /// then escalates to behavioural adaptation.
    pub fn plan<'c, I>(
        &self,
        composition: &CompositionMonitor,
        monitor: &QosMonitor,
        alternates: impl Fn(usize) -> I,
    ) -> Option<SubstitutionPlan>
    where
        I: IntoIterator<Item = &'c ServiceCandidate>,
    {
        let believed = composition.believed_qos(monitor);
        let properties: Vec<PropertyId> = composition.constraints().properties().collect();
        let aggregator = Aggregator::new(self.model, composition.approach());

        // Most violated constraint decides the blame order.
        let aggregate = aggregator.aggregate(composition.task(), &believed, &properties);
        let violated = composition
            .constraints()
            .iter()
            .filter(|c| !c.satisfied_by(&aggregate))
            .max_by(|a, b| {
                let va = violation_magnitude(a, &aggregate);
                let vb = violation_magnitude(b, &aggregate);
                // total_cmp: a NaN magnitude (corrupt advertised QoS)
                // must not panic the adaptation loop mid-violation.
                va.total_cmp(&vb)
            });
        // A healthy composition needs no substitution.
        violated?;

        let mut activity_order: Vec<usize> = (0..believed.len()).collect();
        if let Some(c) = violated {
            let tendency = c.tendency();
            activity_order.sort_by(|&i, &j| {
                let vi = believed[i].get(c.property());
                let vj = believed[j].get(c.property());
                match (vi, vj) {
                    (Some(a), Some(b)) => {
                        if tendency.at_least_as_good(b, a) {
                            std::cmp::Ordering::Less // i is worse → first
                        } else {
                            std::cmp::Ordering::Greater
                        }
                    }
                    (None, Some(_)) => std::cmp::Ordering::Less,
                    (Some(_), None) => std::cmp::Ordering::Greater,
                    (None, None) => std::cmp::Ordering::Equal,
                }
            });
        }

        for activity in activity_order {
            let bound = composition.bindings()[activity];
            for alternate in alternates(activity) {
                if alternate.id() == bound {
                    continue;
                }
                // Believe the monitor about the alternate too where it has
                // history; trust its advertisement for the rest.
                let alternate_qos = overlay(monitor.estimate(alternate.id()), alternate.qos());
                let mut trial = believed.clone();
                trial[activity] = alternate_qos;
                let expected = aggregator.aggregate(composition.task(), &trial, &properties);
                if composition.constraints().satisfied_by(&expected) {
                    return Some(SubstitutionPlan {
                        activity,
                        from: bound,
                        to: alternate.clone(),
                        expected,
                    });
                }
            }
        }
        None
    }
}

fn violation_magnitude(c: &qasom_qos::Constraint, aggregate: &QosVector) -> f64 {
    match aggregate.get(c.property()) {
        Some(v) => (-c.slack(v) / c.bound().abs().max(1e-9)).max(0.0),
        None => f64::INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qasom_qos::{Constraint, ConstraintSet, Tendency};
    use qasom_registry::{ServiceDescription, ServiceRegistry};
    use qasom_selection::AggregationApproach;
    use qasom_task::{Activity, TaskNode, UserTask};

    struct Fx {
        model: QosModel,
        rt: PropertyId,
        ids: Vec<ServiceId>,
        alternates: Vec<Vec<ServiceCandidate>>,
    }

    fn qv(p: PropertyId, v: f64) -> QosVector {
        [(p, v)].into_iter().collect()
    }

    /// Two-activity sequence; per activity: bound service + one alternate.
    fn fx(alt_rt: [f64; 2]) -> (Fx, CompositionMonitor) {
        let model = QosModel::standard();
        let rt = model.property("ResponseTime").unwrap();
        let mut reg = ServiceRegistry::new();
        let ids: Vec<ServiceId> = (0..4)
            .map(|i| reg.register(ServiceDescription::new(format!("s{i}"), "d#F")))
            .collect();
        let alternates = vec![
            vec![
                ServiceCandidate::new(ids[0], qv(rt, 100.0)),
                ServiceCandidate::new(ids[2], qv(rt, alt_rt[0])),
            ],
            vec![
                ServiceCandidate::new(ids[1], qv(rt, 100.0)),
                ServiceCandidate::new(ids[3], qv(rt, alt_rt[1])),
            ],
        ];
        let task = UserTask::new(
            "t",
            TaskNode::sequence([
                TaskNode::activity(Activity::new("a", "x#A")),
                TaskNode::activity(Activity::new("b", "x#B")),
            ]),
        )
        .unwrap();
        let constraints: ConstraintSet = [Constraint::new(rt, Tendency::LowerBetter, 250.0)]
            .into_iter()
            .collect();
        let comp = CompositionMonitor::new(
            task,
            vec![ids[0], ids[1]],
            vec![qv(rt, 100.0), qv(rt, 100.0)],
            constraints,
            AggregationApproach::MeanValue,
        );
        (
            Fx {
                model,
                rt,
                ids,
                alternates,
            },
            comp,
        )
    }

    #[test]
    fn substitutes_the_degraded_service() {
        let (f, comp) = fx([90.0, 90.0]);
        let mut m = QosMonitor::new();
        // Service 0 degrades badly: believed 300 + 100 > 250.
        for _ in 0..3 {
            m.observe(f.ids[0], &qv(f.rt, 300.0));
        }
        let plan = Substitution::new(&f.model)
            .plan(&comp, &m, |i| f.alternates.get(i).into_iter().flatten())
            .expect("a substitute exists");
        assert_eq!(plan.activity, 0);
        assert_eq!(plan.from, f.ids[0]);
        assert_eq!(plan.to.id(), f.ids[2]);
        assert!(comp.constraints().satisfied_by(&plan.expected));
    }

    #[test]
    fn no_plan_when_no_alternate_helps() {
        let (f, comp) = fx([400.0, 400.0]); // alternates are even worse
        let mut m = QosMonitor::new();
        for _ in 0..3 {
            m.observe(f.ids[0], &qv(f.rt, 300.0));
        }
        assert!(Substitution::new(&f.model)
            .plan(&comp, &m, |i| f.alternates.get(i).into_iter().flatten())
            .is_none());
    }

    #[test]
    fn monitored_history_of_alternate_overrides_its_advertisement() {
        let (f, comp) = fx([90.0, 90.0]);
        let mut m = QosMonitor::new();
        for _ in 0..3 {
            m.observe(f.ids[0], &qv(f.rt, 300.0));
            // The advertised-good alternate is known to be bad.
            m.observe(f.ids[2], &qv(f.rt, 500.0));
        }
        // Activity 0's alternate is untrustworthy; the planner must fix
        // the violation elsewhere (activity 1's alternate at 90 keeps the
        // total at 300 + 90 = 390 > 250, so no plan at all).
        assert!(Substitution::new(&f.model)
            .plan(&comp, &m, |i| f.alternates.get(i).into_iter().flatten())
            .is_none());
    }

    #[test]
    fn nan_qos_does_not_panic_the_planner() {
        // A corrupt provider advertisement (NaN response time) reaching
        // the violation ranking used to panic via
        // `partial_cmp().expect("finite")`; the planner must instead
        // keep ranking (total_cmp) and still produce a plan from the
        // healthy alternate.
        let (f, comp) = fx([90.0, f64::NAN]);
        let mut m = QosMonitor::new();
        for _ in 0..3 {
            m.observe(f.ids[0], &qv(f.rt, 300.0));
            // The violated composition believes a NaN value too.
            m.observe(f.ids[1], &qv(f.rt, f64::NAN));
        }
        let plan = Substitution::new(&f.model)
            .plan(&comp, &m, |i| f.alternates.get(i).into_iter().flatten());
        // No particular plan is promised for poisoned inputs — only that
        // the adaptation loop survives to report one or none.
        if let Some(p) = plan {
            assert!(f.ids.contains(&p.to.id()));
        }
    }

    #[test]
    fn an_observed_alternate_keeps_its_unobserved_advertised_properties() {
        // One activity. The bound service is observed slow; the
        // alternate is observed fast on ResponseTime only, so its
        // advertised Availability is all there is to judge it by.
        let model = QosModel::standard();
        let rt = model.property("ResponseTime").unwrap();
        let av = model.property("Availability").unwrap();
        let mut reg = ServiceRegistry::new();
        let bound = reg.register(ServiceDescription::new("bound", "d#F"));
        let alt = reg.register(ServiceDescription::new("alt", "d#F"));
        let advertised =
            |ms: f64, a: f64| -> QosVector { [(rt, ms), (av, a)].into_iter().collect() };
        let alternates = [vec![
            ServiceCandidate::new(bound, advertised(100.0, 0.99)),
            ServiceCandidate::new(alt, advertised(90.0, 0.95)),
        ]];
        let task = UserTask::new("t", TaskNode::activity(Activity::new("a", "x#A"))).unwrap();
        let constraints: ConstraintSet = [
            Constraint::new(rt, Tendency::LowerBetter, 250.0),
            Constraint::new(av, Tendency::HigherBetter, 0.9),
        ]
        .into_iter()
        .collect();
        let comp = CompositionMonitor::new(
            task,
            vec![bound],
            vec![advertised(100.0, 0.99)],
            constraints,
            AggregationApproach::MeanValue,
        );
        let mut m = QosMonitor::new();
        for _ in 0..3 {
            m.observe(bound, &qv(rt, 300.0));
            m.observe(alt, &qv(rt, 90.0));
        }
        let plan = Substitution::new(&model)
            .plan(&comp, &m, |i| alternates.get(i).into_iter().flatten())
            .expect("the alternate meets both constraints");
        assert_eq!(plan.to.id(), alt);
        assert_eq!(plan.expected.get(av), Some(0.95));
    }

    #[test]
    fn healthy_composition_yields_no_plan() {
        let (f, comp) = fx([90.0, 90.0]);
        let m = QosMonitor::new();
        // No violation: the planner must not churn healthy bindings.
        let plan = Substitution::new(&f.model)
            .plan(&comp, &m, |i| f.alternates.get(i).into_iter().flatten());
        assert!(plan.is_none());
    }
}
