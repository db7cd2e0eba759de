//! Service substitution — the first-line adaptation strategy.

use qasom_qos::QosVector;
use qasom_registry::ServiceId;
use qasom_selection::ServiceCandidate;

use crate::{Assessment, CompositionMonitor, QosMonitor};

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

impl CompositionMonitor<'_> {
    /// Plans the first single-service substitution that makes the
    /// believed aggregate satisfy every constraint again, from the
    /// `assessment` this monitor's [`CompositionMonitor::check`] made.
    ///
    /// Only a constraint the believed aggregate breaks now is repaired:
    /// a proactive violation alone plans nothing. Activities are tried
    /// most-blamed-first (worst believed value on the most violated
    /// property); within an activity, alternates are tried in their
    /// selection-time rank order, as `alternates(activity)` yields them —
    /// an activity that must not be rebound yields none. Alternates come
    /// from selection time: QASSA keeps every activity's candidates
    /// ranked best-first so that substitution (and dynamic binding) can
    /// pick replacements without re-running discovery. Returns `None`
    /// when no single substitution suffices — the caller then escalates
    /// to behavioural adaptation.
    pub fn plan_substitution<I>(
        &self,
        assessment: Assessment,
        monitor: &QosMonitor,
        alternates: impl Fn(usize) -> I,
    ) -> Option<SubstitutionPlan>
    where
        I: IntoIterator<Item = ServiceCandidate>,
    {
        let Assessment {
            mut believed,
            aggregate,
            properties,
            ..
        } = assessment;
        // Most violated constraint decides the blame order; a healthy
        // composition needs no substitution.
        let c = self.constraints.worst_violation(&aggregate)?;

        let tendency = c.tendency();
        let mut activity_order: Vec<usize> = (0..believed.len()).collect();
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

        for activity in activity_order {
            let bound = self.bindings[activity].id();
            for alternate in alternates(activity) {
                if alternate.id() == bound {
                    continue;
                }
                // Believe the alternate's estimate, as the check believes
                // the bound service's. Tried in the activity's own slot,
                // which is then put back.
                let alternate_qos = monitor.believed(&alternate);
                let own = std::mem::replace(&mut believed[activity], alternate_qos);
                let expected = self.aggregator.aggregate(self.task, &believed, &properties);
                believed[activity] = own;
                if self.constraints.satisfied_by(&expected) {
                    return Some(SubstitutionPlan {
                        activity,
                        from: bound,
                        to: alternate,
                        expected,
                    });
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qasom_qos::{Constraint, ConstraintSet, PropertyId, QosModel, Tendency};
    use qasom_registry::{ServiceDescription, ServiceRegistry};
    use qasom_selection::AggregationApproach;
    use qasom_task::{Activity, TaskNode, UserTask};

    /// A running composition with its ranked alternates.
    struct Fx {
        model: QosModel,
        rt: PropertyId,
        ids: Vec<ServiceId>,
        task: UserTask,
        bindings: Vec<ServiceCandidate>,
        constraints: ConstraintSet,
        alternates: Vec<Vec<ServiceCandidate>>,
    }

    impl Fx {
        fn monitor(&self) -> CompositionMonitor<'_> {
            let approach = AggregationApproach::MeanValue;
            CompositionMonitor::new(
                &self.model,
                &self.task,
                &self.bindings,
                &self.constraints,
                approach,
            )
        }

        /// Checks, then plans from that check.
        fn plan(&self, m: &QosMonitor) -> Option<SubstitutionPlan> {
            let composition = self.monitor();
            composition.plan_substitution(composition.check(m), m, |i| {
                self.alternates.get(i).into_iter().flatten().cloned()
            })
        }
    }

    fn qv(p: PropertyId, v: f64) -> QosVector {
        [(p, v)].into_iter().collect()
    }

    /// Two-activity sequence under `ResponseTime ≤ 250`; per activity:
    /// the bound service advertising 100 ms, and one alternate.
    fn fx(alt_rt: [f64; 2]) -> Fx {
        let model = QosModel::standard();
        let rt = model.property("ResponseTime").unwrap();
        let mut reg = ServiceRegistry::new();
        let ids: Vec<ServiceId> = (0..4)
            .map(|i| reg.register(ServiceDescription::new(format!("s{i}"), "d#F")))
            .collect();
        let bindings = vec![
            ServiceCandidate::new(ids[0], qv(rt, 100.0)),
            ServiceCandidate::new(ids[1], qv(rt, 100.0)),
        ];
        let alternates = vec![
            vec![
                bindings[0].clone(),
                ServiceCandidate::new(ids[2], qv(rt, alt_rt[0])),
            ],
            vec![
                bindings[1].clone(),
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
        let constraints = [Constraint::new(rt, Tendency::LowerBetter, 250.0)]
            .into_iter()
            .collect();
        Fx {
            model,
            rt,
            ids,
            task,
            bindings,
            constraints,
            alternates,
        }
    }

    #[test]
    fn substitutes_the_degraded_service() {
        let f = fx([90.0, 90.0]);
        let mut m = QosMonitor::new();
        // Service 0 degrades badly: believed 300 + 100 > 250.
        for _ in 0..3 {
            m.observe(&f.model, f.ids[0], &qv(f.rt, 300.0));
        }
        let plan = f.plan(&m).expect("a substitute exists");
        assert_eq!(plan.activity, 0);
        assert_eq!(plan.from, f.ids[0]);
        assert_eq!(plan.to.id(), f.ids[2]);
        assert!(f.constraints.satisfied_by(&plan.expected));
    }

    #[test]
    fn no_plan_when_no_alternate_helps() {
        let f = fx([400.0, 400.0]); // alternates are even worse
        let mut m = QosMonitor::new();
        for _ in 0..3 {
            m.observe(&f.model, f.ids[0], &qv(f.rt, 300.0));
        }
        assert!(f.plan(&m).is_none());
    }

    #[test]
    fn monitored_history_of_alternate_overrides_its_advertisement() {
        let f = fx([90.0, 90.0]);
        let mut m = QosMonitor::new();
        for _ in 0..3 {
            m.observe(&f.model, f.ids[0], &qv(f.rt, 300.0));
            // The advertised-good alternate is known to be bad.
            m.observe(&f.model, f.ids[2], &qv(f.rt, 500.0));
        }
        // Activity 0's alternate is untrustworthy; the planner must fix
        // the violation elsewhere (activity 1's alternate at 90 keeps the
        // total at 300 + 90 = 390 > 250, so no plan at all).
        assert!(f.plan(&m).is_none());
    }

    #[test]
    fn nan_qos_does_not_panic_the_planner() {
        // A corrupt provider advertisement (NaN response time) reaching
        // the violation ranking used to panic via
        // `partial_cmp().expect("finite")`; the planner must instead
        // keep ranking (total_cmp) and still produce a plan from the
        // healthy alternate.
        let f = fx([90.0, f64::NAN]);
        let mut m = QosMonitor::new();
        for _ in 0..3 {
            m.observe(&f.model, f.ids[0], &qv(f.rt, 300.0));
            // The violated composition believes a NaN value too.
            m.observe(&f.model, f.ids[1], &qv(f.rt, f64::NAN));
        }
        // No particular plan is promised for poisoned inputs — only that
        // the adaptation loop survives to report one or none.
        if let Some(p) = f.plan(&m) {
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
        let bindings = vec![ServiceCandidate::new(bound, advertised(100.0, 0.99))];
        let f = Fx {
            alternates: vec![vec![
                bindings[0].clone(),
                ServiceCandidate::new(alt, advertised(90.0, 0.95)),
            ]],
            task: UserTask::new("t", TaskNode::activity(Activity::new("a", "x#A"))).unwrap(),
            bindings,
            constraints: [
                Constraint::new(rt, Tendency::LowerBetter, 250.0),
                Constraint::new(av, Tendency::HigherBetter, 0.9),
            ]
            .into_iter()
            .collect(),
            model,
            rt,
            ids: vec![bound, alt],
        };
        let mut m = QosMonitor::new();
        for _ in 0..3 {
            m.observe(&f.model, bound, &qv(rt, 300.0));
            m.observe(&f.model, alt, &qv(rt, 90.0));
        }
        let plan = f.plan(&m).expect("the alternate meets both constraints");
        assert_eq!(plan.to.id(), alt);
        assert_eq!(plan.expected.get(av), Some(0.95));
    }

    #[test]
    fn healthy_composition_yields_no_plan() {
        let f = fx([90.0, 90.0]);
        // No violation: the planner must not churn healthy bindings.
        assert!(f.plan(&QosMonitor::new()).is_none());
    }

    /// Today's rule: only a constraint the believed aggregate breaks now
    /// is repaired. Service 0's window of 100/130/160 ms believes
    /// 130 + 100 = 230 ms against 250, while its trend predicts about
    /// 154 + 100 ≈ 254 ms, so the check flags the bound proactively —
    /// and, although a 10 ms alternate would restore a wide margin, no
    /// plan is made. ROADMAP item 7 (acting on the trend) is the change
    /// that makes this case plan the alternate.
    #[test]
    fn a_proactive_violation_alone_plans_nothing() {
        let f = fx([10.0, 10.0]);
        let mut m = QosMonitor::new();
        for v in [100.0, 130.0, 160.0] {
            m.observe(&f.model, f.ids[0], &qv(f.rt, v));
        }
        let assessment = f.monitor().check(&m);
        assert_eq!(assessment.aggregate.get(f.rt), Some(230.0));
        let [violation] = &assessment.violations[..] else {
            panic!("one violation: {:?}", assessment.violations);
        };
        assert!(violation.proactive);
        let predicted = violation.value.unwrap();
        assert!((254.0..255.0).contains(&predicted), "{predicted}");
        assert!(f.plan(&m).is_none());
    }
}
