//! End-to-end QoS composition: service-level × infrastructure-level →
//! user-perceived QoS.
//!
//! The model treats QoS *end to end*: what the user perceives is the QoS of
//! the application service degraded by the network path and the hosting
//! device. [`EndToEnd`] encodes that relationship as a small rule system,
//! mirroring the formulations of end-to-end models such as QoPS
//! (user-perceived delay = service delay + network delay, user-perceived
//! availability = service availability × path delivery ratio, …).

use crate::{PropertyId, QosModel, QosVector};

/// One end-to-end composition rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EndToEndRule {
    /// `target += factor × source` — additive degradation (latency).
    AddScaled {
        /// Service-layer property being degraded.
        target: PropertyId,
        /// Infrastructure-layer property causing the degradation.
        source: PropertyId,
        /// Multiplier applied to the source (e.g. `2.0` for a
        /// request/response round trip over one link).
        factor: f64,
    },
    /// `target ×= (1 − source)` — multiplicative degradation by a failure
    /// probability (packet loss degrading availability).
    MulComplement {
        /// Service-layer property being degraded.
        target: PropertyId,
        /// Infrastructure-layer probability of failure.
        source: PropertyId,
    },
    /// `target ×= source` — multiplicative composition of success
    /// probabilities.
    Mul {
        /// Service-layer property being degraded.
        target: PropertyId,
        /// Infrastructure-layer success probability.
        source: PropertyId,
    },
    /// `target = min(target, source)` — the infrastructure caps the
    /// service (bandwidth capping throughput expressed in the same unit).
    Min {
        /// Service-layer property being capped.
        target: PropertyId,
        /// Infrastructure-layer cap.
        source: PropertyId,
    },
}

impl EndToEndRule {
    /// The service-layer property the rule degrades.
    fn target(self) -> PropertyId {
        match self {
            EndToEndRule::AddScaled { target, .. }
            | EndToEndRule::MulComplement { target, .. }
            | EndToEndRule::Mul { target, .. }
            | EndToEndRule::Min { target, .. } => target,
        }
    }

    /// The target's value `t` after the rule: unchanged when `infra`
    /// does not carry the rule's source.
    fn degrade(self, t: f64, infra: &QosVector) -> f64 {
        let source = match self {
            EndToEndRule::AddScaled { source, .. }
            | EndToEndRule::MulComplement { source, .. }
            | EndToEndRule::Mul { source, .. }
            | EndToEndRule::Min { source, .. } => source,
        };
        let Some(s) = infra.get(source) else {
            return t;
        };
        match self {
            EndToEndRule::AddScaled { factor, .. } => t + factor * s,
            EndToEndRule::MulComplement { .. } => t * (1.0 - s),
            EndToEndRule::Mul { .. } => t * s,
            EndToEndRule::Min { .. } => t.min(s),
        }
    }
}

/// A rule system deriving user-perceived QoS from service QoS and the QoS
/// of the infrastructure path delivering it.
///
/// # Examples
///
/// ```
/// use qasom_qos::{EndToEnd, QosModel, QosVector};
///
/// let model = QosModel::standard();
/// let rt = model.property("ResponseTime").unwrap();
/// let lat = model.property("NetworkLatency").unwrap();
///
/// let mut service = QosVector::new();
/// service.set(rt, 100.0);
/// let mut infra = QosVector::new();
/// infra.set(lat, 25.0);
///
/// let e2e = EndToEnd::standard(&model);
/// let perceived = e2e.perceive(&service, &infra);
/// // 100 ms service time + 2 × 25 ms network round trip.
/// assert_eq!(perceived.get(rt), Some(150.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    rules: Vec<EndToEndRule>,
}

impl EndToEnd {
    /// An empty rule system (perceived QoS = service QoS).
    pub fn new() -> Self {
        EndToEnd::default()
    }

    /// The standard rules over [`QosModel::standard`]:
    ///
    /// * `ResponseTime += 2 × NetworkLatency` (request + response hop);
    /// * `Availability ×= (1 − PacketLoss)`;
    /// * `Reliability ×= (1 − PacketLoss)`.
    pub fn standard(model: &QosModel) -> Self {
        let mut rules = Vec::new();
        let p = |name: &str| model.property(name);
        if let (Some(rt), Some(lat)) = (p("ResponseTime"), p("NetworkLatency")) {
            rules.push(EndToEndRule::AddScaled {
                target: rt,
                source: lat,
                factor: 2.0,
            });
        }
        if let Some(loss) = p("PacketLoss") {
            for target in ["Availability", "Reliability"].iter().filter_map(|n| p(n)) {
                rules.push(EndToEndRule::MulComplement {
                    target,
                    source: loss,
                });
            }
        }
        EndToEnd { rules }
    }

    /// Appends a rule; rules apply in insertion order.
    pub fn push(&mut self, rule: EndToEndRule) -> &mut Self {
        self.rules.push(rule);
        self
    }

    /// The registered rules.
    pub fn rules(&self) -> &[EndToEndRule] {
        &self.rules
    }

    /// Computes the perceived QoS of `service` when delivered over a path
    /// with infrastructure QoS `infra`.
    ///
    /// Rules whose target is absent from `service` or whose source is
    /// absent from `infra` are skipped: unknown infrastructure degrades
    /// nothing (it is accounted for by the monitoring layer instead).
    pub fn perceive(&self, service: &QosVector, infra: &QosVector) -> QosVector {
        service
            .iter()
            .map(|(p, v)| (p, self.perceive_value(p, v, infra)))
            .collect()
    }

    /// The perceived value of one property the service delivers at
    /// `value`: the rules targeting `property`, in insertion order. A
    /// rule reads only its own target and the path, so this is the
    /// value [`EndToEnd::perceive`] gives that property.
    pub fn perceive_value(&self, property: PropertyId, value: f64, infra: &QosVector) -> f64 {
        self.rules
            .iter()
            .filter(|rule| rule.target() == property)
            .fold(value, |t, rule| rule.degrade(t, infra))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (QosModel, EndToEnd) {
        let m = QosModel::standard();
        let e = EndToEnd::standard(&m);
        (m, e)
    }

    #[test]
    fn latency_adds_round_trip() {
        let (m, e) = setup();
        let rt = m.property("ResponseTime").unwrap();
        let lat = m.property("NetworkLatency").unwrap();
        let mut svc = QosVector::new();
        svc.set(rt, 100.0);
        let mut infra = QosVector::new();
        infra.set(lat, 10.0);
        assert_eq!(e.perceive(&svc, &infra).get(rt), Some(120.0));
    }

    #[test]
    fn packet_loss_degrades_availability_and_reliability() {
        let (m, e) = setup();
        let av = m.property("Availability").unwrap();
        let rel = m.property("Reliability").unwrap();
        let loss = m.property("PacketLoss").unwrap();
        let mut svc = QosVector::new();
        svc.set(av, 0.99);
        svc.set(rel, 0.98);
        let mut infra = QosVector::new();
        infra.set(loss, 0.1);
        let perceived = e.perceive(&svc, &infra);
        assert!((perceived.get(av).unwrap() - 0.891).abs() < 1e-9);
        assert!((perceived.get(rel).unwrap() - 0.882).abs() < 1e-9);
    }

    #[test]
    fn missing_infra_leaves_service_qos_untouched() {
        let (m, e) = setup();
        let rt = m.property("ResponseTime").unwrap();
        let mut svc = QosVector::new();
        svc.set(rt, 100.0);
        let perceived = e.perceive(&svc, &QosVector::new());
        assert_eq!(perceived.get(rt), Some(100.0));
    }

    #[test]
    fn min_rule_caps_target() {
        let m = QosModel::standard();
        let thr = m.property("Throughput").unwrap();
        let bw = m.property("Bandwidth").unwrap();
        let mut e = EndToEnd::new();
        e.push(EndToEndRule::Min {
            target: thr,
            source: bw,
        });
        let mut svc = QosVector::new();
        svc.set(thr, 50.0);
        let mut infra = QosVector::new();
        infra.set(bw, 20.0);
        assert_eq!(e.perceive(&svc, &infra).get(thr), Some(20.0));
    }

    #[test]
    fn mul_rule_composes_probabilities() {
        let m = QosModel::standard();
        let av = m.property("Availability").unwrap();
        let bat = m.property("BatteryLevel").unwrap();
        let mut e = EndToEnd::new();
        e.push(EndToEndRule::Mul {
            target: av,
            source: bat,
        });
        let mut svc = QosVector::new();
        svc.set(av, 0.9);
        let mut infra = QosVector::new();
        infra.set(bat, 0.5);
        assert_eq!(e.perceive(&svc, &infra).get(av), Some(0.45));
    }

    #[test]
    fn rules_apply_in_order() {
        let m = QosModel::standard();
        let rt = m.property("ResponseTime").unwrap();
        let lat = m.property("NetworkLatency").unwrap();
        let mut e = EndToEnd::new();
        e.push(EndToEndRule::AddScaled {
            target: rt,
            source: lat,
            factor: 1.0,
        });
        e.push(EndToEndRule::AddScaled {
            target: rt,
            source: lat,
            factor: 1.0,
        });
        let mut svc = QosVector::new();
        svc.set(rt, 10.0);
        let mut infra = QosVector::new();
        infra.set(lat, 5.0);
        assert_eq!(e.perceive(&svc, &infra).get(rt), Some(20.0));
    }
}
