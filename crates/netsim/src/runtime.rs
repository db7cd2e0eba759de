//! Synthetic service runtime: the observable, fluctuating world the
//! monitoring and adaptation layers react to.
//!
//! The original evaluation ran against live services whose delivered QoS
//! drifted away from the advertised one (load, mobility, failures). The
//! synthetic runtime reproduces those phenomena deterministically:
//! per-invocation QoS is the advertised (nominal) value perturbed by
//! multiplicative Gaussian noise (for a property whose unit is a ratio,
//! noise on its distance to the nearer of 0 and 1, so it stays a ratio
//! with its mean intact),
//! optionally *drifting* after a configured
//! number of invocations, with both transient failures (per-invocation
//! probability) and permanent crashes (after N invocations).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qasom_qos::{PropertyId, QosModel, QosVector, Unit};

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
/// let av = model.property("Availability").unwrap();
/// let mut nominal = QosVector::new();
/// nominal.set(rt, 100.0);
/// nominal.set(av, 0.99);
///
/// let mut svc = SyntheticService::new(nominal).with_noise(0.05);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// // Availability is a ratio: noise keeps it in [0, 1].
/// let outcome = svc.invoke(&mut rng, &[av]);
/// assert!(outcome.is_success());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticService {
    nominal: QosVector,
    invocations: u64,
    // `None` for a faithful service, so a market of them carries one
    // pointer per service instead of the fault parameters.
    faults: Option<Box<Faults>>,
}

/// The fault parameters of an unfaithful service.
#[derive(Debug, Clone, Default, PartialEq)]
struct Faults {
    noise: f64,
    failure_rate: f64,
    crash_after: Option<u64>,
    drifts: Vec<Drift>,
}

impl Faults {
    /// The faults to store: `None`, not a box, when every parameter is at
    /// its default.
    fn boxed(self) -> Option<Box<Faults>> {
        let default = self.noise == 0.0
            && self.failure_rate == 0.0
            && self.crash_after.is_none()
            && self.drifts.is_empty();
        (!default).then(|| Box::new(self))
    }
}

impl SyntheticService {
    /// A service delivering exactly its advertised (nominal) QoS.
    pub fn new(nominal: QosVector) -> Self {
        SyntheticService {
            nominal,
            invocations: 0,
            faults: None,
        }
    }

    /// Applies `edit` to the fault parameters, boxing them only when
    /// one is left at a non-default value.
    fn edit_faults(mut self, edit: impl FnOnce(&mut Faults)) -> Self {
        let mut faults = self.faults.take().map_or_else(Faults::default, |f| *f);
        edit(&mut faults);
        self.faults = faults.boxed();
        self
    }

    /// Relative standard deviation of the multiplicative per-invocation
    /// noise (`0.05` = ±5 % typical deviation). A ratio (a property
    /// [`SyntheticService::invoke`] is told has [`Unit::Ratio`])
    /// above one half is noisy in its shortfall from 1 instead, so that
    /// `0.99` delivers `0.99` on average, not less.
    ///
    /// # Panics
    ///
    /// Panics on a negative or non-finite value.
    pub fn with_noise(self, noise: f64) -> Self {
        assert!(noise.is_finite() && noise >= 0.0, "noise must be >= 0");
        self.edit_faults(|f| f.noise = noise)
    }

    /// Per-invocation transient-failure probability.
    ///
    /// # Panics
    ///
    /// Panics unless the rate is in `[0, 1]`.
    pub fn with_failure_rate(self, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "failure rate must be in [0,1]");
        self.edit_faults(|f| f.failure_rate = rate)
    }

    /// The service crashes permanently after `n` invocations, failed
    /// ones included: every invocation from the `n + 1`-th on fails.
    pub fn with_crash_after(self, n: u64) -> Self {
        self.edit_faults(|f| f.crash_after = Some(n))
    }

    /// From invocation `after` onwards, multiplies `property` by `factor`
    /// (e.g. `2.0` on response time models growing load).
    pub fn with_drift(self, after: u64, property: PropertyId, factor: f64) -> Self {
        self.edit_faults(|f| {
            f.drifts.push(Drift {
                after,
                property,
                factor,
            })
        })
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
        self.faults
            .as_ref()
            .and_then(|f| f.crash_after)
            .is_some_and(|n| self.invocations >= n)
    }

    /// Invokes the service once; the properties in `ratios` are ratios
    /// (their unit is [`Unit::Ratio`]), so noise keeps them in `[0, 1]`
    /// with their mean, and a drift is clamped to `[0, 1]`. Every other
    /// property takes plain multiplicative noise and drift. A
    /// [`ServiceRuntime`] passes its model's ratios.
    pub fn invoke(&mut self, rng: &mut impl Rng, ratios: &[PropertyId]) -> InvocationOutcome {
        let crashed = self.is_crashed();
        self.invocations += 1;
        if crashed {
            return InvocationOutcome::Failure;
        }
        let (noise, failure_rate, drifts) = match self.faults.as_deref() {
            Some(f) => (f.noise, f.failure_rate, &f.drifts[..]),
            None => (0.0, 0.0, &[][..]),
        };
        if failure_rate > 0.0 && rng.gen::<f64>() < failure_rate {
            return InvocationOutcome::Failure;
        }
        let mut observed = QosVector::new();
        for (p, nominal) in self.nominal.iter() {
            let mut value = nominal;
            for d in drifts {
                if d.property == p && self.invocations > d.after {
                    value *= d.factor;
                }
            }
            // Ratios stay ratios.
            let ratio = ratios.contains(&p);
            if noise > 0.0 {
                let factor = Normal::new(1.0, noise).sample_clamped(rng, 0.0, f64::MAX);
                if ratio && value > 0.5 {
                    // Noise scales a ratio's distance to the nearer bound,
                    // so the clamp below almost never binds and the
                    // delivered mean stays the advertised one.
                    value = 1.0 - (1.0 - value) * factor;
                } else {
                    value *= factor;
                }
            }
            if ratio {
                value = value.clamp(0.0, 1.0);
            }
            observed.set(p, value);
        }
        InvocationOutcome::Success(observed)
    }
}

/// A slot table of synthetic services with a shared deterministic RNG —
/// the "environment side" of the middleware's execution engine. Slots
/// are dense indices (the middleware uses the registry's own
/// `ServiceId::index`), so the table is a `Vec` rather than a map.
#[derive(Debug)]
pub struct ServiceRuntime {
    services: Vec<Option<SyntheticService>>,
    rng: StdRng,
    /// The properties every invocation treats as ratios.
    ratios: Vec<PropertyId>,
}

impl ServiceRuntime {
    /// Creates an empty runtime with a deterministic seed. It takes from
    /// `model` which properties are ratios ([`Unit::Ratio`]): every
    /// service it invokes keeps those in `[0, 1]`, and only those,
    /// whatever value a service advertises.
    pub fn new(seed: u64, model: &QosModel) -> Self {
        ServiceRuntime {
            services: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            ratios: model
                .iter()
                .filter(|&p| model.def(p).unit() == Unit::Ratio)
                .collect(),
        }
    }

    /// Deploys (or replaces) a service in `slot`.
    pub fn deploy(&mut self, slot: usize, service: SyntheticService) {
        if slot >= self.services.len() {
            self.services.resize_with(slot + 1, || None);
        }
        self.services[slot] = Some(service);
    }

    /// Removes a service (provider departure).
    pub fn undeploy(&mut self, slot: usize) -> Option<SyntheticService> {
        self.services.get_mut(slot)?.take()
    }

    /// Invokes the service in `slot`; `None` when no service is
    /// deployed there.
    pub fn invoke(&mut self, slot: usize) -> Option<InvocationOutcome> {
        let svc = self.services.get_mut(slot)?.as_mut()?;
        Some(svc.invoke(&mut self.rng, &self.ratios))
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
        let out = svc.invoke(&mut rng, &[]);
        assert_eq!(out.qos().unwrap().get(rt), Some(100.0));
    }

    #[test]
    fn noise_perturbs_but_stays_close() {
        let (v, rt) = nominal(100.0);
        let mut svc = SyntheticService::new(v).with_noise(0.05);
        let mut rng = StdRng::seed_from_u64(2);
        let mut sum = 0.0;
        for _ in 0..1000 {
            sum += svc.invoke(&mut rng, &[]).qos().unwrap().get(rt).unwrap();
        }
        let mean = sum / 1000.0;
        assert!((mean - 100.0).abs() < 2.0, "mean {mean}");
    }

    /// Noise keeps a ratio's mean: over 10 000 invocations at 10 %
    /// noise, the delivered mean is within 0.5 % of the advertised
    /// ratio, near either bound, and every value stays in `[0, 1]`.
    #[test]
    fn noisy_ratios_keep_their_mean() {
        let av = QosModel::standard().property("Availability").unwrap();
        for (seed, advertised) in [0.05, 0.90, 0.95, 0.99].into_iter().enumerate() {
            let mut nominal = QosVector::new();
            nominal.set(av, advertised);
            let mut svc = SyntheticService::new(nominal).with_noise(0.10);
            let mut rng = StdRng::seed_from_u64(seed as u64);
            let mut sum = 0.0;
            for _ in 0..10_000 {
                let value = svc.invoke(&mut rng, &[av]).qos().unwrap().get(av).unwrap();
                assert!(
                    (0.0..=1.0).contains(&value),
                    "{advertised} delivered {value}"
                );
                sum += value;
            }
            let mean = sum / 10_000.0;
            assert!(
                (mean - advertised).abs() <= 0.005 * advertised,
                "{advertised} delivered a mean of {mean}"
            );
        }
    }

    #[test]
    fn drift_kicks_in_after_threshold() {
        let (v, rt) = nominal(100.0);
        let mut svc = SyntheticService::new(v).with_drift(5, rt, 3.0);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5 {
            assert_eq!(
                svc.invoke(&mut rng, &[]).qos().unwrap().get(rt),
                Some(100.0)
            );
        }
        assert_eq!(
            svc.invoke(&mut rng, &[]).qos().unwrap().get(rt),
            Some(300.0)
        );
    }

    #[test]
    fn crash_is_permanent() {
        let (v, _) = nominal(10.0);
        let mut svc = SyntheticService::new(v).with_crash_after(2);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(svc.invoke(&mut rng, &[]).is_success());
        assert!(svc.invoke(&mut rng, &[]).is_success());
        assert!(!svc.invoke(&mut rng, &[]).is_success());
        assert!(!svc.invoke(&mut rng, &[]).is_success());
        assert!(svc.is_crashed());

        // Failed invocations count towards the crash too.
        let (v, _) = nominal(10.0);
        let mut svc = SyntheticService::new(v)
            .with_crash_after(2)
            .with_failure_rate(1.0);
        assert!(!svc.invoke(&mut rng, &[]).is_success());
        assert!(!svc.is_crashed());
        assert!(!svc.invoke(&mut rng, &[]).is_success());
        assert!(svc.is_crashed());
    }

    #[test]
    fn failure_rate_is_roughly_respected() {
        let (v, _) = nominal(10.0);
        let mut svc = SyntheticService::new(v).with_failure_rate(0.25);
        let mut rng = StdRng::seed_from_u64(5);
        let fails = (0..10_000)
            .filter(|_| !svc.invoke(&mut rng, &[]).is_success())
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
            let q = svc.invoke(&mut rng, &[av]);
            let val = q.qos().unwrap().get(av).unwrap();
            assert!((0.0..=1.0).contains(&val));
        }
    }

    /// `(response time, availability)` of the first 64 invocations of
    /// [`mixed_runtime`], round-robin over its slots; `None` is a failure.
    /// Pinned because a change in which RNG draws a service makes, or in
    /// their order, shifts every later outcome of every seeded run.
    const MIXED_OUTCOMES: [Option<[f64; 2]>; 64] = [
        Some([100.0, 0.99]),
        Some([90.1998636521604, 0.9520162293341159]),
        None,
        Some([39.681848136887766, 0.9680856082260285]),
        Some([118.31816963649118, 0.9990445533339884]),
        Some([100.0, 0.99]),
        Some([83.60723243237423, 0.9506136720868862]),
        None,
        Some([42.57513547088149, 0.9736559483742947]),
        Some([122.55086652750519, 0.998994851583554]),
        Some([100.0, 0.99]),
        Some([72.41008560853479, 0.9576603857324304]),
        None,
        Some([39.33299909011166, 0.9731610588299011]),
        Some([119.27158006726887, 0.9990162147473852]),
        Some([100.0, 0.99]),
        Some([76.94124980567365, 0.9492166737243874]),
        None,
        Some([33.69907510677854, 0.9693682373932567]),
        Some([121.91360819709033, 0.9989937187697214]),
        Some([100.0, 0.99]),
        Some([83.31148613258205, 0.9497594829442275]),
        None,
        Some([39.92233595045471, 0.971052838215041]),
        None,
        Some([100.0, 0.99]),
        Some([75.94078584976968, 0.9524881279187254]),
        Some([60.0, 0.9]),
        Some([41.76901121700611, 0.9678951709328253]),
        Some([300.42938395792953, 0.9990277964575678]),
        Some([100.0, 0.99]),
        Some([81.42782831860339, 0.9575337006391882]),
        None,
        None,
        Some([303.4513354386516, 0.9990067032048281]),
        Some([100.0, 0.99]),
        Some([92.76265205336459, 0.9549798567326551]),
        Some([60.0, 0.9]),
        None,
        Some([282.11062663335633, 0.9990183124020752]),
        Some([100.0, 0.99]),
        Some([94.01045072444322, 0.9440876590533502]),
        None,
        None,
        Some([305.7500997943689, 0.999011394823086]),
        Some([100.0, 0.99]),
        Some([82.26891900926418, 0.9433454445969894]),
        Some([60.0, 0.9]),
        None,
        Some([305.7494678386044, 0.9989783857087134]),
        Some([100.0, 0.99]),
        Some([70.6245718367938, 0.9544279998549421]),
        Some([60.0, 0.9]),
        None,
        None,
        Some([100.0, 0.99]),
        Some([71.71408121539088, 0.9580723494270055]),
        Some([60.0, 0.9]),
        None,
        Some([303.5854588439194, 0.9989713863563462]),
        Some([100.0, 0.99]),
        Some([85.70770090480322, 0.95363286196425]),
        Some([60.0, 0.9]),
        None,
    ];

    /// Faithful, noisy, failing, crashing and drifting services, with
    /// empty slots between them.
    fn mixed_runtime() -> (ServiceRuntime, [usize; 5], PropertyId, PropertyId) {
        let m = QosModel::standard();
        let rt = m.property("ResponseTime").unwrap();
        let av = m.property("Availability").unwrap();
        let nominal = |r: f64, a: f64| -> QosVector { [(rt, r), (av, a)].into_iter().collect() };
        let mut runtime = ServiceRuntime::new(0x5eed, &m);
        runtime.deploy(0, SyntheticService::new(nominal(100.0, 0.99)));
        runtime.deploy(
            2,
            SyntheticService::new(nominal(80.0, 0.95)).with_noise(0.1),
        );
        runtime.deploy(
            3,
            SyntheticService::new(nominal(60.0, 0.9)).with_failure_rate(0.5),
        );
        runtime.deploy(
            5,
            SyntheticService::new(nominal(40.0, 0.97))
                .with_noise(0.05)
                .with_crash_after(6),
        );
        runtime.deploy(
            6,
            SyntheticService::new(nominal(120.0, 0.999))
                .with_noise(0.02)
                .with_failure_rate(0.1)
                .with_drift(4, rt, 2.5),
        );
        (runtime, [0, 2, 3, 5, 6], rt, av)
    }

    #[test]
    fn a_mixed_runtime_repeats_its_pinned_outcomes() {
        let (mut runtime, slots, rt, av) = mixed_runtime();
        for (i, expected) in MIXED_OUTCOMES.iter().enumerate() {
            let out = runtime.invoke(slots[i % slots.len()]).unwrap();
            let got = out.qos().map(|q| [q.get(rt).unwrap(), q.get(av).unwrap()]);
            assert_eq!(got.as_ref(), expected.as_ref(), "invocation {i}");
        }
    }

    /// A ratio is told by its unit, not its value: a 0.5 ms response
    /// time drifting threefold delivers 1.5 ms, while a 0.99
    /// availability under heavy noise stays in `[0, 1]`.
    #[test]
    fn ratios_come_from_the_model_not_the_value() {
        let m = QosModel::standard();
        let rt = m.property("ResponseTime").unwrap();
        let av = m.property("Availability").unwrap();
        let mut runtime = ServiceRuntime::new(7, &m);
        let fast: QosVector = [(rt, 0.5)].into_iter().collect();
        runtime.deploy(0, SyntheticService::new(fast).with_drift(0, rt, 3.0));
        let available: QosVector = [(av, 0.99)].into_iter().collect();
        runtime.deploy(1, SyntheticService::new(available).with_noise(0.5));
        let delivered = runtime.invoke(0).unwrap();
        assert_eq!(delivered.qos().unwrap().get(rt), Some(1.5));
        for _ in 0..500 {
            let delivered = runtime.invoke(1).unwrap();
            let value = delivered.qos().unwrap().get(av).unwrap();
            assert!((0.0..=1.0).contains(&value), "{value}");
        }
    }

    #[test]
    fn default_fault_parameters_allocate_nothing() {
        let (v, _) = nominal(10.0);
        let plain = SyntheticService::new(v.clone());
        let zeroed = SyntheticService::new(v)
            .with_noise(0.0)
            .with_failure_rate(0.0);
        assert_eq!(zeroed, plain);
        assert!(zeroed.faults.is_none());
        assert_eq!(plain.clone().with_noise(0.1).with_noise(0.0), plain);
    }

    #[test]
    fn runtime_routes_by_slot() {
        let (v, rt) = nominal(42.0);
        let mut runtime = ServiceRuntime::new(9, &QosModel::standard());
        runtime.deploy(3, SyntheticService::new(v));
        // Slots below the highest one are empty, not deployed.
        assert!(runtime.invoke(1).is_none());
        assert!(runtime.invoke(7).is_none());
        let out = runtime.invoke(3).unwrap();
        assert_eq!(out.qos().unwrap().get(rt), Some(42.0));
        assert_eq!(runtime.undeploy(3).unwrap().invocations(), 1);
        assert!(runtime.undeploy(3).is_none());
        assert!(runtime.undeploy(9).is_none());
        assert!(runtime.invoke(3).is_none());
    }
}
