//! Global and proactive QoS monitoring.

use std::collections::{HashMap, VecDeque};

use qasom_qos::{Constraint, ConstraintSet, PropertyId, QosModel, QosVector};
use qasom_registry::ServiceId;
use qasom_selection::{AggregationApproach, Aggregator};
use qasom_task::UserTask;

/// Sliding-window length (observations per property).
const WINDOW: usize = 10;
/// EWMA smoothing factor in `(0, 1]` — weight of the newest sample.
const EWMA_ALPHA: f64 = 0.3;

#[derive(Debug, Clone, Default)]
struct PropertyWindow {
    samples: VecDeque<f64>,
    ewma: Option<f64>,
}

impl PropertyWindow {
    fn push(&mut self, value: f64) {
        if self.samples.len() == WINDOW {
            self.samples.pop_front();
        }
        self.samples.push_back(value);
        self.ewma = Some(match self.ewma {
            Some(prev) => EWMA_ALPHA * value + (1.0 - EWMA_ALPHA) * prev,
            None => value,
        });
    }

    fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
    }

    /// One-step-ahead prediction: EWMA plus the linear trend of the
    /// window (least-squares slope). This is what makes monitoring
    /// *proactive* — a degrading trend is flagged before the mean itself
    /// crosses the bound.
    fn predict(&self) -> Option<f64> {
        let ewma = self.ewma?;
        let n = self.samples.len();
        if n < 2 {
            return Some(ewma);
        }
        let xs = (0..n).map(|i| i as f64);
        let mean_x = (n as f64 - 1.0) / 2.0;
        let mean_y = self.mean()?;
        let mut num = 0.0;
        let mut den = 0.0;
        for (x, &y) in xs.zip(self.samples.iter()) {
            num += (x - mean_x) * (y - mean_y);
            den += (x - mean_x) * (x - mean_x);
        }
        let slope = if den == 0.0 { 0.0 } else { num / den };
        Some(ewma + slope)
    }
}

/// Per-service QoS monitor: sliding windows of delivered QoS with EWMA
/// trend prediction.
#[derive(Debug, Clone, Default)]
pub struct QosMonitor {
    windows: HashMap<ServiceId, HashMap<PropertyId, PropertyWindow>>,
}

impl QosMonitor {
    /// Creates a monitor that has observed nothing.
    pub fn new() -> Self {
        QosMonitor::default()
    }

    /// Records one successful invocation's delivered QoS.
    pub fn observe(&mut self, service: ServiceId, delivered: &QosVector) {
        let per_service = self.windows.entry(service).or_default();
        for (p, v) in delivered.iter() {
            per_service.entry(p).or_default().push(v);
        }
    }

    /// Drops everything observed of a service (it departed; ids are never
    /// reused, so nothing would read its windows again).
    pub fn forget(&mut self, service: ServiceId) {
        self.windows.remove(&service);
    }

    /// Window-mean estimate of a service's delivered QoS (`None` when the
    /// service was never observed).
    pub fn estimate(&self, service: ServiceId) -> Option<QosVector> {
        let per_service = self.windows.get(&service)?;
        let v: QosVector = per_service
            .iter()
            .filter_map(|(&p, w)| w.mean().map(|m| (p, m)))
            .collect();
        (!v.is_empty()).then_some(v)
    }

    /// Trend-adjusted one-step-ahead prediction of a service's QoS.
    pub fn predict(&self, service: ServiceId) -> Option<QosVector> {
        let per_service = self.windows.get(&service)?;
        let v: QosVector = per_service
            .iter()
            .filter_map(|(&p, w)| w.predict().map(|m| (p, m)))
            .collect();
        (!v.is_empty()).then_some(v)
    }

    /// Number of observations recorded for a service/property.
    pub fn sample_count(&self, service: ServiceId, property: PropertyId) -> usize {
        self.windows
            .get(&service)
            .and_then(|m| m.get(&property))
            .map_or(0, |w| w.samples.len())
    }
}

/// A detected (or predicted) violation of a global constraint.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The violated constraint.
    pub constraint: Constraint,
    /// The aggregated value that breaks (or will break) the bound.
    pub value: Option<f64>,
    /// `true` when only the *predicted* aggregate violates (the current
    /// estimate still holds) — the proactive case.
    pub proactive: bool,
}

/// Global monitoring of a running composition: combines the per-service
/// estimates of every bound service, aggregates them over the task
/// structure and checks the user's global constraints — both on current
/// estimates (reactive) and on trend predictions (proactive).
#[derive(Debug, Clone)]
pub struct CompositionMonitor {
    task: UserTask,
    bindings: Vec<ServiceId>,
    advertised: Vec<QosVector>,
    constraints: ConstraintSet,
    approach: AggregationApproach,
}

impl CompositionMonitor {
    /// Creates a monitor for a composition binding `bindings[i]` (with
    /// advertised QoS `advertised[i]`) to activity `i`.
    ///
    /// # Panics
    ///
    /// Panics when the binding/advertised arities don't match the task.
    pub fn new(
        task: UserTask,
        bindings: Vec<ServiceId>,
        advertised: Vec<QosVector>,
        constraints: ConstraintSet,
        approach: AggregationApproach,
    ) -> Self {
        assert_eq!(
            task.activity_count(),
            bindings.len(),
            "one binding per activity"
        );
        assert_eq!(
            bindings.len(),
            advertised.len(),
            "one advertised vector per binding"
        );
        CompositionMonitor {
            task,
            bindings,
            advertised,
            constraints,
            approach,
        }
    }

    /// The monitored task.
    pub fn task(&self) -> &UserTask {
        &self.task
    }

    /// Current bindings (activity index → service).
    pub fn bindings(&self) -> &[ServiceId] {
        &self.bindings
    }

    /// The advertised QoS of the current bindings.
    pub fn advertised(&self) -> &[QosVector] {
        &self.advertised
    }

    /// The monitored global constraints.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    /// The aggregation approach violations are evaluated under.
    pub fn approach(&self) -> AggregationApproach {
        self.approach
    }

    /// Rebinds one activity (after a substitution).
    pub fn rebind(&mut self, activity: usize, service: ServiceId, advertised: QosVector) {
        self.bindings[activity] = service;
        self.advertised[activity] = advertised;
    }

    /// Per-activity QoS as currently believed: monitored estimate where
    /// available, advertised value otherwise.
    pub fn believed_qos(&self, monitor: &QosMonitor) -> Vec<QosVector> {
        self.per_activity(monitor, QosMonitor::estimate)
    }

    /// Aggregated QoS of the composition from current estimates.
    pub fn aggregate_estimate(&self, model: &QosModel, monitor: &QosMonitor) -> QosVector {
        let vectors = self.believed_qos(monitor);
        let props: Vec<PropertyId> = self.constraints.properties().collect();
        Aggregator::new(model, self.approach).aggregate(&self.task, &vectors, &props)
    }

    /// Checks the global constraints against the current estimates and
    /// against trend predictions; returns every violation found, reactive
    /// ones first.
    pub fn check(&self, model: &QosModel, monitor: &QosMonitor) -> Vec<Violation> {
        let props: Vec<PropertyId> = self.constraints.properties().collect();
        let aggregator = Aggregator::new(model, self.approach);

        let current = aggregator.aggregate(&self.task, &self.believed_qos(monitor), &props);
        let predicted = aggregator.aggregate(
            &self.task,
            &self.per_activity(monitor, QosMonitor::predict),
            &props,
        );

        let mut out = Vec::new();
        for c in self.constraints.iter() {
            if !c.satisfied_by(&current) {
                out.push(Violation {
                    constraint: *c,
                    value: current.get(c.property()),
                    proactive: false,
                });
            } else if !c.satisfied_by(&predicted) {
                out.push(Violation {
                    constraint: *c,
                    value: predicted.get(c.property()),
                    proactive: true,
                });
            }
        }
        out
    }

    fn per_activity(
        &self,
        monitor: &QosMonitor,
        read: impl Fn(&QosMonitor, ServiceId) -> Option<QosVector>,
    ) -> Vec<QosVector> {
        self.bindings
            .iter()
            .zip(&self.advertised)
            .map(|(&svc, advertised)| overlay(read(monitor, svc), advertised))
            .collect()
    }
}

/// What is believed of one service: every property in `observed` (a
/// monitor estimate or prediction), and its advertised value for every
/// property the monitor never saw delivered.
pub fn overlay(observed: Option<QosVector>, advertised: &QosVector) -> QosVector {
    let Some(mut observed) = observed else {
        return advertised.clone();
    };
    for (p, v) in advertised.iter() {
        if !observed.contains(p) {
            observed.set(p, v);
        }
    }
    observed
}

#[cfg(test)]
mod tests {
    use super::*;
    use qasom_qos::Tendency;
    use qasom_registry::{ServiceDescription, ServiceRegistry};
    use qasom_task::{Activity, TaskNode};

    struct Fx {
        model: QosModel,
        rt: PropertyId,
        ids: Vec<ServiceId>,
    }

    fn fx(n: usize) -> Fx {
        let model = QosModel::standard();
        let rt = model.property("ResponseTime").unwrap();
        let mut reg = ServiceRegistry::new();
        let ids = (0..n)
            .map(|i| reg.register(ServiceDescription::new(format!("s{i}"), "d#F")))
            .collect();
        Fx { model, rt, ids }
    }

    fn obs(p: PropertyId, v: f64) -> QosVector {
        [(p, v)].into_iter().collect()
    }

    #[test]
    fn estimate_is_window_mean() {
        let f = fx(1);
        let mut m = QosMonitor::new();
        for v in [100.0, 200.0, 300.0] {
            m.observe(f.ids[0], &obs(f.rt, v));
        }
        assert_eq!(m.estimate(f.ids[0]).unwrap().get(f.rt), Some(200.0));
    }

    #[test]
    fn window_slides() {
        let f = fx(1);
        let mut m = QosMonitor::new();
        m.observe(f.ids[0], &obs(f.rt, 1000.0));
        for _ in 0..WINDOW {
            m.observe(f.ids[0], &obs(f.rt, 200.0));
        }
        // The first sample has left the window.
        assert_eq!(m.estimate(f.ids[0]).unwrap().get(f.rt), Some(200.0));
        assert_eq!(m.sample_count(f.ids[0], f.rt), WINDOW);
    }

    #[test]
    fn prediction_extrapolates_trends() {
        let f = fx(1);
        let mut m = QosMonitor::new();
        for v in [100.0, 120.0, 140.0, 160.0] {
            m.observe(f.ids[0], &obs(f.rt, v));
        }
        let predicted = m.predict(f.ids[0]).unwrap().get(f.rt).unwrap();
        let estimated = m.estimate(f.ids[0]).unwrap().get(f.rt).unwrap();
        assert!(
            predicted > estimated,
            "worsening trend must predict above the mean: {predicted} vs {estimated}"
        );
    }

    #[test]
    fn unobserved_service_has_no_estimate() {
        let f = fx(1);
        let m = QosMonitor::new();
        assert!(m.estimate(f.ids[0]).is_none());
        assert!(m.predict(f.ids[0]).is_none());
    }

    fn composition(f: &Fx, bound: f64) -> CompositionMonitor {
        let task = UserTask::new(
            "t",
            TaskNode::sequence([
                TaskNode::activity(Activity::new("a", "x#A")),
                TaskNode::activity(Activity::new("b", "x#B")),
            ]),
        )
        .unwrap();
        let constraints: ConstraintSet = [Constraint::new(f.rt, Tendency::LowerBetter, bound)]
            .into_iter()
            .collect();
        CompositionMonitor::new(
            task,
            f.ids[..2].to_vec(),
            vec![obs(f.rt, 100.0), obs(f.rt, 100.0)],
            constraints,
            AggregationApproach::MeanValue,
        )
    }

    #[test]
    fn advertised_qos_is_used_before_observations() {
        let f = fx(2);
        let comp = composition(&f, 250.0);
        let m = QosMonitor::new();
        let agg = comp.aggregate_estimate(&f.model, &m);
        assert_eq!(agg.get(f.rt), Some(200.0));
        assert!(comp.check(&f.model, &m).is_empty());
    }

    #[test]
    fn reactive_violation_detected_on_estimates() {
        let f = fx(2);
        let comp = composition(&f, 250.0);
        let mut m = QosMonitor::new();
        for _ in 0..3 {
            m.observe(f.ids[0], &obs(f.rt, 220.0)); // degraded service
        }
        let violations = comp.check(&f.model, &m);
        assert_eq!(violations.len(), 1);
        assert!(!violations[0].proactive);
        assert_eq!(violations[0].value, Some(320.0));
    }

    #[test]
    fn proactive_violation_detected_on_trend() {
        let f = fx(2);
        let comp = composition(&f, 250.0);
        let mut m = QosMonitor::new();
        // Currently fine (mean 130 + 100 advertised < 250) but worsening
        // steeply: EWMA + slope crosses the per-activity budget.
        for v in [100.0, 130.0, 160.0] {
            m.observe(f.ids[0], &obs(f.rt, v));
        }
        let violations = comp.check(&f.model, &m);
        assert_eq!(violations.len(), 1, "trend must be flagged proactively");
        assert!(violations[0].proactive);
    }

    #[test]
    fn rebind_switches_the_monitored_service() {
        let f = fx(3);
        let mut comp = composition(&f, 250.0);
        let mut m = QosMonitor::new();
        for _ in 0..3 {
            m.observe(f.ids[0], &obs(f.rt, 400.0));
        }
        assert_eq!(comp.check(&f.model, &m).len(), 1);
        comp.rebind(0, f.ids[2], obs(f.rt, 90.0));
        assert!(comp.check(&f.model, &m).is_empty());
    }
}
