//! Synthetic service runtime: the observable, fluctuating world the
//! monitoring and adaptation layers react to.
//!
//! The original evaluation ran against live services whose delivered QoS
//! drifted away from the advertised one (load, mobility, failures). The
//! synthetic runtime reproduces those phenomena deterministically:
//! per-invocation QoS is the advertised (nominal) value perturbed by
//! multiplicative Gaussian noise, optionally *drifting* after a configured
//! number of invocations, with both transient failures (per-invocation
//! probability) and permanent crashes (after N invocations).

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qasom_qos::{PropertyId, QosVector};

use crate::dist::Normal;

/// Outcome of one service invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum InvocationOutcome {
    /// The invocation succeeded with the observed QoS.
    Success(QosVector),
    /// The invocation failed (transient fault or crashed service).
    Failure,
}

impl InvocationOutcome {
    /// The observed QoS of a successful invocation.
    pub fn qos(&self) -> Option<&QosVector> {
        match self {
            InvocationOutcome::Success(q) => Some(q),
            InvocationOutcome::Failure => None,
        }
    }

    /// Whether the invocation succeeded.
    pub fn is_success(&self) -> bool {
        matches!(self, InvocationOutcome::Success(_))
    }
}

/// A QoS drift: from invocation `after` onwards, `property` is multiplied
/// by `factor`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Drift {
    after: u64,
    property: PropertyId,
    factor: f64,
}

/// A synthetic service with parametrised QoS behaviour.
///
/// # Examples
///
/// ```
/// use qasom_netsim::runtime::SyntheticService;
/// use qasom_qos::{QosModel, QosVector};
/// use rand::SeedableRng;
///
/// let model = QosModel::standard();
/// let rt = model.property("ResponseTime").unwrap();
/// let mut nominal = QosVector::new();
/// nominal.set(rt, 100.0);
///
/// let mut svc = SyntheticService::new(nominal).with_noise(0.05);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let outcome = svc.invoke(&mut rng);
/// assert!(outcome.is_success());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticService {
    nominal: QosVector,
    noise: f64,
    failure_rate: f64,
    crash_after: Option<u64>,
    drifts: Vec<Drift>,
    invocations: u64,
}

impl SyntheticService {
    /// A service delivering exactly its advertised (nominal) QoS.
    pub fn new(nominal: QosVector) -> Self {
        SyntheticService {
            nominal,
            noise: 0.0,
            failure_rate: 0.0,
            crash_after: None,
            drifts: Vec::new(),
            invocations: 0,
        }
    }

    /// Relative standard deviation of the multiplicative per-invocation
    /// noise (`0.05` = ±5 % typical deviation).
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite value.
    pub fn with_noise(mut self, noise: f64) -> Self {
        assert!(noise.is_finite() && noise >= 0.0, "noise must be >= 0");
        self.noise = noise;
        self
    }

    /// Per-invocation transient-failure probability.
    ///
    /// # Panics
    ///
    /// Panics unless the rate is in `[0, 1]`.
    pub fn with_failure_rate(mut self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "failure rate must be in [0,1]");
        self.failure_rate = rate;
        self
    }

    /// The service crashes permanently after `n` invocations, failed
    /// ones included: every invocation from the `n + 1`-th on fails.
    pub fn with_crash_after(mut self, n: u64) -> Self {
        self.crash_after = Some(n);
        self
    }

    /// From invocation `after` onwards, multiplies `property` by `factor`
    /// (e.g. `2.0` on response time models growing load).
    pub fn with_drift(mut self, after: u64, property: PropertyId, factor: f64) -> Self {
        self.drifts.push(Drift {
            after,
            property,
            factor,
        });
        self
    }

    /// The advertised QoS.
    pub fn nominal(&self) -> &QosVector {
        &self.nominal
    }

    /// Number of invocations so far (including failures).
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Whether the service has permanently crashed.
    pub fn is_crashed(&self) -> bool {
        self.crash_after.is_some_and(|n| self.invocations >= n)
    }

    /// Invokes the service once.
    pub fn invoke(&mut self, rng: &mut impl Rng) -> InvocationOutcome {
        if self.is_crashed() {
            self.invocations += 1;
            return InvocationOutcome::Failure;
        }
        self.invocations += 1;
        if self.failure_rate > 0.0 && rng.gen::<f64>() < self.failure_rate {
            return InvocationOutcome::Failure;
        }
        let mut observed = QosVector::new();
        for (p, nominal) in self.nominal.iter() {
            let mut value = nominal;
            for d in &self.drifts {
                if d.property == p && self.invocations > d.after {
                    value *= d.factor;
                }
            }
            if self.noise > 0.0 {
                let factor = Normal::new(1.0, self.noise).sample_clamped(rng, 0.0, f64::MAX);
                value *= factor;
            }
            // Values that are ratios by construction stay ratios.
            if (0.0..=1.0).contains(&nominal) {
                value = value.clamp(0.0, 1.0);
            }
            observed.set(p, value);
        }
        InvocationOutcome::Success(observed)
    }
}

/// A keyed collection of synthetic services with a shared deterministic
/// RNG — the "environment side" of the middleware's execution engine.
#[derive(Debug)]
pub struct ServiceRuntime<K> {
    services: BTreeMap<K, SyntheticService>,
    rng: StdRng,
}

impl<K: Ord + Clone> ServiceRuntime<K> {
    /// Creates an empty runtime with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        ServiceRuntime {
            services: BTreeMap::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Deploys (or replaces) a service under `key`.
    pub fn deploy(&mut self, key: K, service: SyntheticService) {
        self.services.insert(key, service);
    }

    /// Removes a service (provider departure).
    pub fn undeploy(&mut self, key: &K) -> Option<SyntheticService> {
        self.services.remove(key)
    }

    /// Invokes the service under `key`; `None` when no such service is
    /// deployed.
    pub fn invoke(&mut self, key: &K) -> Option<InvocationOutcome> {
        let svc = self.services.get_mut(key)?;
        Some(svc.invoke(&mut self.rng))
    }

    /// The deployed service under `key`.
    pub fn get(&self, key: &K) -> Option<&SyntheticService> {
        self.services.get(key)
    }

    /// Mutable access (inject drift/crash mid-run).
    pub fn get_mut(&mut self, key: &K) -> Option<&mut SyntheticService> {
        self.services.get_mut(key)
    }

    /// Number of deployed services.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// Whether no service is deployed.
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qasom_qos::QosModel;

    fn nominal(rt_val: f64) -> (QosVector, PropertyId) {
        let m = QosModel::standard();
        let rt = m.property("ResponseTime").unwrap();
        let mut v = QosVector::new();
        v.set(rt, rt_val);
        (v, rt)
    }

    #[test]
    fn noiseless_service_delivers_nominal() {
        let (v, rt) = nominal(100.0);
        let mut svc = SyntheticService::new(v);
        let mut rng = StdRng::seed_from_u64(1);
        let out = svc.invoke(&mut rng);
        assert_eq!(out.qos().unwrap().get(rt), Some(100.0));
    }

    #[test]
    fn noise_perturbs_but_stays_close() {
        let (v, rt) = nominal(100.0);
        let mut svc = SyntheticService::new(v).with_noise(0.05);
        let mut rng = StdRng::seed_from_u64(2);
        let mut sum = 0.0;
        for _ in 0..1000 {
            sum += svc.invoke(&mut rng).qos().unwrap().get(rt).unwrap();
        }
        let mean = sum / 1000.0;
        assert!((mean - 100.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn drift_kicks_in_after_threshold() {
        let (v, rt) = nominal(100.0);
        let mut svc = SyntheticService::new(v).with_drift(5, rt, 3.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5 {
            assert_eq!(svc.invoke(&mut rng).qos().unwrap().get(rt), Some(100.0));
        }
        assert_eq!(svc.invoke(&mut rng).qos().unwrap().get(rt), Some(300.0));
    }

    #[test]
    fn crash_is_permanent() {
        let (v, _) = nominal(10.0);
        let mut svc = SyntheticService::new(v).with_crash_after(2);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(svc.invoke(&mut rng).is_success());
        assert!(svc.invoke(&mut rng).is_success());
        assert!(!svc.invoke(&mut rng).is_success());
        assert!(!svc.invoke(&mut rng).is_success());
        assert!(svc.is_crashed());

        // Failed invocations count towards the crash too.
        let (v, _) = nominal(10.0);
        let mut svc = SyntheticService::new(v)
            .with_crash_after(2)
            .with_failure_rate(1.0);
        assert!(!svc.invoke(&mut rng).is_success());
        assert!(!svc.is_crashed());
        assert!(!svc.invoke(&mut rng).is_success());
        assert!(svc.is_crashed());
    }

    #[test]
    fn failure_rate_is_roughly_respected() {
        let (v, _) = nominal(10.0);
        let mut svc = SyntheticService::new(v).with_failure_rate(0.25);
        let mut rng = StdRng::seed_from_u64(5);
        let fails = (0..10_000)
            .filter(|_| !svc.invoke(&mut rng).is_success())
            .count();
        let rate = fails as f64 / 10_000.0;
        assert!((rate - 0.25).abs() < 0.02, "failure rate {rate}");
    }

    #[test]
    fn ratio_values_stay_in_unit_interval() {
        let m = QosModel::standard();
        let av = m.property("Availability").unwrap();
        let mut v = QosVector::new();
        v.set(av, 0.98);
        let mut svc = SyntheticService::new(v).with_noise(0.5);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..500 {
            let q = svc.invoke(&mut rng);
            let val = q.qos().unwrap().get(av).unwrap();
            assert!((0.0..=1.0).contains(&val));
        }
    }

    #[test]
    fn runtime_routes_by_key() {
        let (v, rt) = nominal(42.0);
        let mut runtime: ServiceRuntime<&str> = ServiceRuntime::new(9);
        runtime.deploy("a", SyntheticService::new(v));
        assert!(runtime.invoke(&"missing").is_none());
        let out = runtime.invoke(&"a").unwrap();
        assert_eq!(out.qos().unwrap().get(rt), Some(42.0));
        assert!(runtime.undeploy(&"a").is_some());
        assert!(runtime.invoke(&"a").is_none());
    }
}
