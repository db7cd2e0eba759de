//! Global and proactive QoS monitoring, and what it teaches selection.

use std::collections::VecDeque;

use qasom_qos::{Category, Constraint, ConstraintSet, PropertyId, QosModel, QosVector, Sla};
use qasom_registry::ServiceId;
use qasom_selection::{AggregationApproach, Aggregator, ServiceCandidate};
use qasom_task::UserTask;

/// Sliding-window length (observations per property).
const WINDOW: usize = 10;
/// EWMA smoothing factor in `(0, 1]` — weight of the newest sample.
const EWMA_ALPHA: f64 = 0.3;
/// How much worse than advertised a delivery may be before it counts as
/// a contract breach (fraction, `0.2` = 20 %).
const SLA_TOLERANCE: f64 = 0.2;
/// Reputation earned by full SLA compliance: the top of the standard
/// model's 0–5 scale.
const REPUTATION_SCALE: f64 = 5.0;

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

    /// The mean of the samples the window holds (at least one).
    fn mean(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
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
        let mean_y = self.mean();
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

/// What the middleware has learnt of one service's QoS, per property:
///
/// * a property the service has delivered takes the mean of its window
///   (the last `WINDOW` deliveries, or as many as there were);
/// * a Reputation-category property the service advertises takes
///   `5 × compliance` of the service's SLA once the SLA has checked a
///   delivery — and only that: delivered Reputation values are never
///   windowed;
/// * every other property keeps its advertised value.
///
/// The estimate holds only the learnt values; [`QosEstimate::apply`]
/// lays them over an advertisement. Composition, the completion check
/// and the substitution planner all read it, so it is kept settled by
/// the writes that change it ([`QosMonitor::observe`],
/// [`QosMonitor::record_delivery`]) rather than recomputed by the read.
#[derive(Debug, Clone, Default)]
pub struct QosEstimate {
    settled: QosVector,
}

impl QosEstimate {
    /// The learnt value of `property`; `None` while the advertised value
    /// stands.
    pub fn get(&self, property: PropertyId) -> Option<f64> {
        self.settled.get(property)
    }

    /// Overwrites, in place, every property of `qos` that has a learnt
    /// value. Properties `qos` does not carry are left out, so applying
    /// an estimate never grows (or allocates) the vector.
    pub fn apply(&self, qos: &mut QosVector) {
        qos.overwrite(&self.settled);
    }
}

/// Everything the monitor keeps of one service.
#[derive(Debug, Clone, Default)]
struct ServiceRecord {
    /// Delivery windows, sorted by property.
    windows: Vec<(PropertyId, PropertyWindow)>,
    /// Created from the advertisement at the first recorded delivery.
    sla: Option<Sla>,
    estimate: QosEstimate,
}

impl ServiceRecord {
    fn window(&self, property: PropertyId) -> Option<&PropertyWindow> {
        self.windows
            .binary_search_by_key(&property, |&(p, _)| p)
            .ok()
            .map(|i| &self.windows[i].1)
    }
}

/// Whether `property` is community feedback about a provider, which the
/// middleware learns from SLAs instead of from deliveries.
fn is_reputation(model: &QosModel, property: PropertyId) -> bool {
    model.def(property).category() == Category::Reputation
}

/// Per-service QoS monitor: sliding windows of delivered QoS with EWMA
/// trend prediction, each service's SLA record, and the [`QosEstimate`]
/// both settle into.
///
/// Records live in a slot table indexed by [`ServiceId::index`], like
/// the registry's own rows: a service never observed costs one empty
/// slot, and reading its estimate one bounds-checked index.
#[derive(Debug, Clone, Default)]
pub struct QosMonitor {
    services: Vec<Option<Box<ServiceRecord>>>,
}

impl QosMonitor {
    /// Creates a monitor that has observed nothing.
    pub fn new() -> Self {
        QosMonitor::default()
    }

    fn record(&self, service: ServiceId) -> Option<&ServiceRecord> {
        self.services.get(service.index())?.as_deref()
    }

    fn record_mut(&mut self, service: ServiceId) -> &mut ServiceRecord {
        let slot = service.index();
        if slot >= self.services.len() {
            self.services.resize_with(slot + 1, || None);
        }
        self.services[slot].get_or_insert_with(Box::default)
    }

    /// Records one successful invocation's delivered QoS in the
    /// service's windows. Reputation-category values are not windowed
    /// (see [`QosEstimate`]).
    pub fn observe(&mut self, model: &QosModel, service: ServiceId, delivered: &QosVector) {
        let record = self.record_mut(service);
        for (p, v) in delivered.iter() {
            if is_reputation(model, p) {
                continue;
            }
            let i = match record.windows.binary_search_by_key(&p, |&(q, _)| q) {
                Ok(i) => i,
                Err(i) => {
                    record.windows.insert(i, (p, PropertyWindow::default()));
                    i
                }
            };
            let window = &mut record.windows[i].1;
            window.push(v);
            record.estimate.settled.set(p, window.mean());
        }
    }

    /// Records one invocation against the service's SLA: `delivered` is
    /// its QoS, `None` a failure (always a breach). The SLA is derived
    /// from `advertised` at the first record, widened by a 20 %
    /// tolerance; Reputation-category properties never become contract
    /// terms, and every one `advertised` carries is re-estimated as
    /// `5 × compliance`.
    pub fn record_delivery(
        &mut self,
        model: &QosModel,
        service: ServiceId,
        advertised: &QosVector,
        delivered: Option<&QosVector>,
    ) {
        let ServiceRecord { sla, estimate, .. } = self.record_mut(service);
        let sla = sla.get_or_insert_with(|| {
            let agreed: QosVector = advertised
                .iter()
                .filter(|&(p, _)| !is_reputation(model, p))
                .collect();
            Sla::from_agreed(model, &agreed, SLA_TOLERANCE)
        });
        match delivered {
            Some(qos) => {
                sla.record(qos);
            }
            None => sla.record_failure(),
        }
        let reputation = REPUTATION_SCALE * sla.compliance();
        for p in advertised.properties().filter(|&p| is_reputation(model, p)) {
            estimate.settled.set(p, reputation);
        }
    }

    /// Drops everything recorded of a service (it departed; ids are
    /// never reused, so nothing would read its record again).
    pub fn forget(&mut self, service: ServiceId) {
        if let Some(slot) = self.services.get_mut(service.index()) {
            *slot = None;
        }
    }

    /// The service's [`QosEstimate`]; `None` when nothing was recorded of
    /// it, so its advertisement stands as it is.
    pub fn qos_estimate(&self, service: ServiceId) -> Option<&QosEstimate> {
        self.record(service).map(|r| &r.estimate)
    }

    /// The service's SLA record (created at its first recorded delivery).
    pub fn sla(&self, service: ServiceId) -> Option<&Sla> {
        self.record(service)?.sla.as_ref()
    }

    /// What is believed of a candidate: its QoS vector with the service's
    /// [`QosEstimate`] laid over it. The completion check reads each
    /// bound service this way, and the substitution planner each
    /// alternate, as compose reads each discovered service.
    pub(crate) fn believed(&self, candidate: &ServiceCandidate) -> QosVector {
        let mut qos = candidate.qos().clone();
        if let Some(estimate) = self.qos_estimate(candidate.id()) {
            estimate.apply(&mut qos);
        }
        qos
    }

    /// Trend-adjusted one-step-ahead prediction of a service's QoS.
    pub fn predict(&self, service: ServiceId) -> Option<QosVector> {
        let v: QosVector = self
            .record(service)?
            .windows
            .iter()
            .filter_map(|(p, w)| w.predict().map(|m| (*p, m)))
            .collect();
        (!v.is_empty()).then_some(v)
    }

    /// Number of observations recorded for a service/property.
    pub fn sample_count(&self, service: ServiceId, property: PropertyId) -> usize {
        self.record(service)
            .and_then(|r| r.window(property))
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

/// What one [`CompositionMonitor::check`] found: the QoS believed of
/// each activity, its aggregate and the constraints it breaks. The
/// substitution planner ([`CompositionMonitor::plan_substitution`])
/// starts from it.
#[derive(Debug, Clone, PartialEq)]
pub struct Assessment {
    /// Per-activity QoS as believed: the bound service's vector with its
    /// [`QosEstimate`] laid over it ([`QosMonitor::believed`]).
    pub(crate) believed: Vec<QosVector>,
    /// `believed` aggregated over the task, on the constrained
    /// properties.
    pub(crate) aggregate: QosVector,
    /// One entry per broken constraint, in constraint order: reactive
    /// when `aggregate` breaks it, else proactive when the aggregate of
    /// the trend predictions does.
    pub violations: Vec<Violation>,
    /// The constrained properties `aggregate` was taken over.
    pub(crate) properties: Vec<PropertyId>,
}

/// Global monitoring of a running composition: combines the per-service
/// estimates of every bound service, aggregates them over the task
/// structure and checks the user's global constraints — both on current
/// estimates (reactive) and on trend predictions (proactive).
///
/// It borrows the running composition: `bindings[i]` is the service
/// bound to activity `i` with the QoS it was bound with, so a rebind is
/// an overwrite of that entry and the next check reads it.
#[derive(Debug, Clone, Copy)]
pub struct CompositionMonitor<'a> {
    pub(crate) aggregator: Aggregator<'a>,
    pub(crate) task: &'a UserTask,
    pub(crate) bindings: &'a [ServiceCandidate],
    pub(crate) constraints: &'a ConstraintSet,
}

impl<'a> CompositionMonitor<'a> {
    /// Creates a monitor for a composition binding `bindings[i]` to
    /// activity `i`, its constraints aggregated under `approach`.
    ///
    /// # Panics
    ///
    /// Panics when the binding count doesn't match the task.
    pub fn new(
        model: &'a QosModel,
        task: &'a UserTask,
        bindings: &'a [ServiceCandidate],
        constraints: &'a ConstraintSet,
        approach: AggregationApproach,
    ) -> Self {
        assert_eq!(
            task.activity_count(),
            bindings.len(),
            "one binding per activity"
        );
        CompositionMonitor {
            aggregator: Aggregator::new(model, approach),
            task,
            bindings,
            constraints,
        }
    }

    /// Checks the global constraints against the current estimates and
    /// against trend predictions.
    pub fn check(&self, monitor: &QosMonitor) -> Assessment {
        let properties: Vec<PropertyId> = self.constraints.properties().collect();
        let believed: Vec<QosVector> = self.bindings.iter().map(|b| monitor.believed(b)).collect();
        let aggregate = self.aggregator.aggregate(self.task, &believed, &properties);
        let trend: Vec<QosVector> = self
            .bindings
            .iter()
            .zip(&believed)
            .map(|(bound, qos)| with_trend(monitor, bound.id(), qos))
            .collect();
        let predicted = self.aggregator.aggregate(self.task, &trend, &properties);

        let mut violations = Vec::new();
        for c in self.constraints.iter() {
            if !c.satisfied_by(&aggregate) {
                violations.push(Violation {
                    constraint: *c,
                    value: aggregate.get(c.property()),
                    proactive: false,
                });
            } else if !c.satisfied_by(&predicted) {
                violations.push(Violation {
                    constraint: *c,
                    value: predicted.get(c.property()),
                    proactive: true,
                });
            }
        }
        Assessment {
            believed,
            aggregate,
            violations,
            properties,
        }
    }
}

/// `believed` with the trend prediction of every property the service
/// has delivered laid over it: what the proactive check aggregates.
fn with_trend(monitor: &QosMonitor, service: ServiceId, believed: &QosVector) -> QosVector {
    let mut qos = believed.clone();
    if let Some(prediction) = monitor.predict(service) {
        qos.overwrite(&prediction);
    }
    qos
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

    /// The learnt ResponseTime of service `i`.
    fn learnt(f: &Fx, m: &QosMonitor, i: usize) -> Option<f64> {
        m.qos_estimate(f.ids[i])?.get(f.rt)
    }

    #[test]
    fn estimate_is_window_mean() {
        let f = fx(1);
        let mut m = QosMonitor::new();
        for v in [100.0, 200.0, 300.0] {
            m.observe(&f.model, f.ids[0], &obs(f.rt, v));
        }
        assert_eq!(learnt(&f, &m, 0), Some(200.0));
    }

    #[test]
    fn window_slides() {
        let f = fx(1);
        let mut m = QosMonitor::new();
        m.observe(&f.model, f.ids[0], &obs(f.rt, 1000.0));
        for _ in 0..WINDOW {
            m.observe(&f.model, f.ids[0], &obs(f.rt, 200.0));
        }
        // The first sample has left the window.
        assert_eq!(learnt(&f, &m, 0), Some(200.0));
        assert_eq!(m.sample_count(f.ids[0], f.rt), WINDOW);
    }

    #[test]
    fn prediction_extrapolates_trends() {
        let f = fx(1);
        let mut m = QosMonitor::new();
        for v in [100.0, 120.0, 140.0, 160.0] {
            m.observe(&f.model, f.ids[0], &obs(f.rt, v));
        }
        let predicted = m.predict(f.ids[0]).unwrap().get(f.rt).unwrap();
        let estimated = learnt(&f, &m, 0).unwrap();
        assert!(
            predicted > estimated,
            "worsening trend must predict above the mean: {predicted} vs {estimated}"
        );
    }

    #[test]
    fn unobserved_service_has_no_estimate() {
        let f = fx(1);
        let m = QosMonitor::new();
        assert!(m.qos_estimate(f.ids[0]).is_none());
        assert!(m.predict(f.ids[0]).is_none());
    }

    /// One rule from the first delivery on: a delivered property's
    /// estimate is the mean of its window, full or not; delivered
    /// Reputation is never windowed, and a property never delivered
    /// keeps its advertisement.
    #[test]
    fn the_estimate_is_the_window_mean_from_the_first_delivery() {
        let f = fx(2);
        let av = f.model.property("Availability").unwrap();
        let rep = f.model.property("Reputation").unwrap();
        let advertised: QosVector = [(f.rt, 100.0), (av, 0.99), (rep, 2.5)]
            .into_iter()
            .collect();
        let estimated =
            |m: &QosMonitor, id| m.believed(&ServiceCandidate::new(id, advertised.clone()));
        let mut m = QosMonitor::new();
        assert!(m.qos_estimate(f.ids[0]).is_none());
        assert_eq!(estimated(&m, f.ids[0]), advertised);

        // One delivery moves the estimate, of the delivered property only;
        // the Reputation it reports is dropped.
        let delivered: QosVector = [(f.rt, 300.0), (rep, 0.0)].into_iter().collect();
        m.observe(&f.model, f.ids[0], &delivered);
        let learnt: QosVector = [(f.rt, 300.0), (av, 0.99), (rep, 2.5)]
            .into_iter()
            .collect();
        assert_eq!(estimated(&m, f.ids[0]), learnt);
        assert_eq!(m.sample_count(f.ids[0], rep), 0);

        // A partial window's mean.
        for _ in 2..WINDOW {
            m.observe(&f.model, f.ids[0], &obs(f.rt, 300.0));
        }
        m.observe(&f.model, f.ids[0], &obs(f.rt, 1_300.0));
        assert_eq!(m.sample_count(f.ids[0], f.rt), WINDOW);
        assert_eq!(estimated(&m, f.ids[0]).get(f.rt), Some(400.0));
        // A full window drops its oldest sample as it takes a new one.
        m.observe(&f.model, f.ids[0], &obs(f.rt, 1_300.0));
        assert_eq!(estimated(&m, f.ids[0]).get(f.rt), Some(500.0));
        assert_eq!(m.sample_count(f.ids[0], f.rt), WINDOW);

        assert_eq!(estimated(&m, f.ids[1]), advertised);
        m.forget(f.ids[0]);
        assert_eq!(estimated(&m, f.ids[0]), advertised);
    }

    #[test]
    fn reputation_is_learnt_from_the_sla_alone() {
        let f = fx(1);
        let rep = f.model.property("Reputation").unwrap();
        let advertised: QosVector = [(f.rt, 100.0), (rep, 2.5)].into_iter().collect();
        // A delivery that reports a reputation of its own.
        let delivered: QosVector = [(f.rt, 100.0), (rep, 0.0)].into_iter().collect();
        let mut m = QosMonitor::new();
        for _ in 0..WINDOW {
            m.observe(&f.model, f.ids[0], &delivered);
        }
        assert_eq!(m.sample_count(f.ids[0], rep), 0, "never windowed");
        assert_eq!(m.qos_estimate(f.ids[0]).unwrap().get(rep), None);
        assert!(m.sla(f.ids[0]).is_none());

        // Three compliant deliveries and a failure: 5 × 3/4. Reputation
        // is no contract term, so delivering 0.0 of it breaches nothing.
        for _ in 0..3 {
            m.record_delivery(&f.model, f.ids[0], &advertised, Some(&delivered));
        }
        m.record_delivery(&f.model, f.ids[0], &advertised, None);
        let sla = m.sla(f.ids[0]).unwrap();
        assert_eq!((sla.checks(), sla.breaches()), (4, 1));
        assert_eq!(m.qos_estimate(f.ids[0]).unwrap().get(rep), Some(3.75));
    }

    /// A running two-activity sequence: services 0 and 1, each bound
    /// advertising 100 ms, under `ResponseTime ≤ bound`.
    struct Running {
        task: UserTask,
        bindings: Vec<ServiceCandidate>,
        constraints: ConstraintSet,
    }

    impl Running {
        fn check(&self, f: &Fx, m: &QosMonitor) -> Assessment {
            let approach = AggregationApproach::MeanValue;
            CompositionMonitor::new(
                &f.model,
                &self.task,
                &self.bindings,
                &self.constraints,
                approach,
            )
            .check(m)
        }
    }

    fn composition(f: &Fx, bound: f64) -> Running {
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
        let bindings = f.ids[..2]
            .iter()
            .map(|&id| ServiceCandidate::new(id, obs(f.rt, 100.0)))
            .collect();
        Running {
            task,
            bindings,
            constraints,
        }
    }

    #[test]
    fn advertised_qos_is_used_before_observations() {
        let f = fx(2);
        let comp = composition(&f, 250.0);
        let assessment = comp.check(&f, &QosMonitor::new());
        assert_eq!(assessment.believed, [obs(f.rt, 100.0), obs(f.rt, 100.0)]);
        assert_eq!(assessment.aggregate, obs(f.rt, 200.0));
        assert!(assessment.violations.is_empty());
    }

    #[test]
    fn reactive_violation_detected_on_estimates() {
        let f = fx(2);
        let comp = composition(&f, 250.0);
        let mut m = QosMonitor::new();
        for _ in 0..3 {
            m.observe(&f.model, f.ids[0], &obs(f.rt, 220.0)); // degraded service
        }
        let violations = comp.check(&f, &m).violations;
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
            m.observe(&f.model, f.ids[0], &obs(f.rt, v));
        }
        let violations = comp.check(&f, &m).violations;
        assert_eq!(violations.len(), 1, "trend must be flagged proactively");
        assert!(violations[0].proactive);
    }

    /// The check believes a bound service's learnt Reputation, not the
    /// value it was bound with: two compliant deliveries and two failures
    /// lower an advertised 4.0 to `5 × 2/4`.
    #[test]
    fn the_check_reads_the_reputation_the_sla_has_learnt() {
        let f = fx(1);
        let rep = f.model.property("Reputation").unwrap();
        let advertised: QosVector = [(f.rt, 100.0), (rep, 4.0)].into_iter().collect();
        let task = UserTask::new("t", TaskNode::activity(Activity::new("a", "x#A"))).unwrap();
        let bindings = [ServiceCandidate::new(f.ids[0], advertised.clone())];
        let constraints: ConstraintSet = [Constraint::new(rep, Tendency::HigherBetter, 3.0)]
            .into_iter()
            .collect();
        let approach = AggregationApproach::MeanValue;
        let comp = CompositionMonitor::new(&f.model, &task, &bindings, &constraints, approach);
        let mut m = QosMonitor::new();
        assert!(comp.check(&m).violations.is_empty());
        for delivered in [Some(&advertised), Some(&advertised), None, None] {
            m.record_delivery(&f.model, f.ids[0], &advertised, delivered);
        }
        let assessment = comp.check(&m);
        assert_eq!(assessment.believed[0].get(rep), Some(2.5));
        let [violation] = &assessment.violations[..] else {
            panic!("one violation: {:?}", assessment.violations);
        };
        assert!(!violation.proactive);
        assert_eq!(violation.value, Some(2.5));
    }

    #[test]
    fn a_rebind_is_an_overwrite_the_next_check_reads() {
        let f = fx(3);
        let mut comp = composition(&f, 250.0);
        let mut m = QosMonitor::new();
        for _ in 0..3 {
            m.observe(&f.model, f.ids[0], &obs(f.rt, 400.0));
        }
        assert_eq!(comp.check(&f, &m).violations.len(), 1);
        comp.bindings[0] = ServiceCandidate::new(f.ids[2], obs(f.rt, 90.0));
        assert!(comp.check(&f, &m).violations.is_empty());
    }
}
