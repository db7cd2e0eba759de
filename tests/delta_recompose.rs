//! Delta-QASSA re-selection against the full-recompose oracle.
//!
//! 256 seeded scenarios, each a random interleaving of provider churn
//! (arrivals, departures — including the chosen provider), monitored
//! QoS violations (degraded behaviours observed through execution) and
//! perceived-QoS perturbations (infrastructure overlays, which
//! disqualify cached levels and force the fallback). After every
//! sequence, [`qasom::Environment::recompose`] — which re-ranks only
//! the affected activities — must produce exactly the outcome of
//! `recompose_full`, the from-scratch oracle.

use qasom::{Environment, UserRequest};
use qasom_netsim::runtime::SyntheticService;
use qasom_ontology::OntologyBuilder;
use qasom_qos::{QosModel, QosVector, Unit};
use qasom_registry::{ServiceDescription, ServiceId};
use qasom_task::{Activity, TaskNode, UserTask};

/// Minimal deterministic generator (splitmix-style) — the scenarios
/// must not depend on an external RNG crate or platform entropy.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(2_685_821_657_736_338_717).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn unit(&mut self) -> f64 {
        (self.next() % 10_000) as f64 / 10_000.0
    }
}

struct Scenario {
    env: Environment,
    rt: qasom_qos::PropertyId,
    av: qasom_qos::PropertyId,
    live: Vec<ServiceId>,
    activities: usize,
}

impl Scenario {
    fn build(rng: &mut Lcg) -> (Self, UserRequest) {
        let activities = 2 + rng.below(3) as usize;
        let mut b = OntologyBuilder::new("dr");
        for i in 0..activities {
            b.concept(&format!("F{i}"));
        }
        let ontology = b.build().unwrap();
        let mut env = Environment::new(QosModel::standard(), ontology, rng.next());
        let rt = env.model().property("ResponseTime").unwrap();
        let av = env.model().property("Availability").unwrap();
        let mut live = Vec::new();
        for ci in 0..activities {
            for i in 0..(3 + rng.below(5) as usize) {
                let desc =
                    ServiceDescription::new(format!("s{ci}-{i}"), format!("dr#F{ci}").as_str())
                        .with_qos(rt, 20.0 + rng.below(400) as f64)
                        .with_qos(av, 0.90 + rng.unit() * 0.099);
                let nominal = desc.qos().clone();
                live.push(env.deploy(desc, SyntheticService::new(nominal)));
            }
        }
        let task = UserTask::new(
            "delta",
            TaskNode::sequence((0..activities).map(|i| {
                TaskNode::activity(Activity::new(format!("a{i}"), format!("dr#F{i}").as_str()))
            })),
        )
        .unwrap();
        let mut request = UserRequest::new(task)
            .weight("ResponseTime", 0.7)
            .weight("Availability", 0.3);
        if rng.below(4) != 0 {
            request = request
                .constraint("ResponseTime", 0.1 + rng.unit(), Unit::Seconds)
                .unwrap();
        }
        let scenario = Scenario {
            env,
            rt,
            av,
            live,
            activities,
        };
        (scenario, request)
    }

    /// One random churn/violation/perturbation step against `comp`.
    fn step(&mut self, rng: &mut Lcg, comp: &qasom::ExecutableComposition) {
        match rng.below(4) {
            0 => {
                // Arrival: a competitive newcomer on a random function.
                let ci = rng.below(self.activities as u64);
                let n = self.live.len();
                let desc =
                    ServiceDescription::new(format!("late{n}"), format!("dr#F{ci}").as_str())
                        .with_qos(self.rt, 10.0 + rng.below(100) as f64)
                        .with_qos(self.av, 0.95 + rng.unit() * 0.049);
                let nominal = desc.qos().clone();
                self.live
                    .push(self.env.deploy(desc, SyntheticService::new(nominal)));
            }
            1 => {
                // Departure of a random live provider — sometimes one the
                // composition currently binds.
                if !self.live.is_empty() {
                    let victim = self
                        .live
                        .swap_remove(rng.below(self.live.len() as u64) as usize);
                    self.env.undeploy(victim);
                }
            }
            2 => {
                // Violation: the bound provider of a random activity turns
                // slow; executing feeds the degradation to the monitor.
                let slot = rng.below(self.activities as u64) as usize;
                let chosen = comp.outcome().assignment[slot].id();
                if let Some(svc) = self.env.runtime_mut(chosen) {
                    let mut degraded = svc.nominal().clone();
                    degraded.set(self.rt, 2_000.0 + rng.below(3_000) as f64);
                    *svc = SyntheticService::new(degraded);
                    let _ = self.env.execute(comp.clone());
                }
            }
            _ => {
                // Perceived-QoS perturbation outside the event log: cached
                // levels are stale, delta must fall back to the oracle.
                self.env.set_infrastructure(rng.below(4), QosVector::new());
            }
        }
    }
}

/// The acceptance property of the delta path: for 256 seeded
/// churn/violation sequences, `recompose` (delta-first) and
/// `recompose_full` (from scratch) agree exactly — same assignment,
/// same ranked hierarchies (level, class and utility of every
/// candidate), same utility and feasibility, or the same
/// error.
#[test]
fn delta_recompose_matches_full_oracle_over_256_seeded_scenarios() {
    for seed in 0..256u64 {
        let mut rng = Lcg::new(seed);
        let (mut scenario, request) = Scenario::build(&mut rng);
        let comp = scenario
            .env
            .compose(&request)
            .unwrap_or_else(|e| panic!("seed {seed}: compose failed: {e}"));
        for _ in 0..(1 + rng.below(5)) {
            scenario.step(&mut rng, &comp);
        }
        let delta = scenario.env.recompose(&comp);
        let full = scenario.env.recompose_full(&comp);
        match (delta, full) {
            (Ok(d), Ok(f)) => {
                assert_eq!(
                    d.outcome().assignment,
                    f.outcome().assignment,
                    "seed {seed}: assignments diverge"
                );
                assert_eq!(
                    d.outcome().levels,
                    f.outcome().levels,
                    "seed {seed}: ranked hierarchies diverge"
                );
                assert_eq!(
                    d.outcome().utility,
                    f.outcome().utility,
                    "seed {seed}: utilities diverge"
                );
                assert_eq!(
                    d.outcome().feasible,
                    f.outcome().feasible,
                    "seed {seed}: feasibility diverges"
                );
            }
            (Err(d), Err(f)) => {
                assert_eq!(
                    format!("{d}"),
                    format!("{f}"),
                    "seed {seed}: errors diverge"
                );
            }
            (d, f) => panic!("seed {seed}: delta {d:?} vs full {f:?}"),
        }
    }
}

/// Recompose results are themselves recomposable: chaining delta steps
/// (each against the previous delta result) stays on the oracle's
/// trajectory.
#[test]
fn chained_delta_recomposes_track_the_oracle() {
    for seed in 0..32u64 {
        let mut rng = Lcg::new(0xD0_0000 + seed);
        let (mut scenario, request) = Scenario::build(&mut rng);
        let mut comp = scenario
            .env
            .compose(&request)
            .unwrap_or_else(|e| panic!("seed {seed}: compose failed: {e}"));
        for round in 0..4 {
            scenario.step(&mut rng, &comp);
            let full = scenario.env.recompose_full(&comp);
            match (scenario.env.recompose(&comp), full) {
                (Ok(d), Ok(f)) => {
                    assert_eq!(
                        d.outcome().assignment,
                        f.outcome().assignment,
                        "seed {seed} round {round}"
                    );
                    comp = d;
                }
                (Err(d), Err(f)) => {
                    assert_eq!(format!("{d}"), format!("{f}"), "seed {seed} round {round}");
                    break;
                }
                (d, f) => panic!("seed {seed} round {round}: delta {d:?} vs full {f:?}"),
            }
        }
    }
}
