//! Synthetic evaluation workloads.
//!
//! The original experiments generate per-service QoS values from normal
//! laws `N(m, σ)` (Fig. VI.9) and derive global QoS requirements from the
//! same statistics — fixed at `m` (tight: about half of the services meet
//! the per-activity bound) or at one standard deviation looser (Fig.
//! VI.10/VI.11). This module reproduces that methodology deterministically.

use rand::rngs::StdRng;
use rand::SeedableRng;

use qasom_netsim::dist::Normal;
use qasom_qos::{Constraint, ConstraintSet, Preferences, PropertyId, QosModel, QosVector};
use qasom_registry::ServiceId;
use qasom_task::{Activity, LoopBound, TaskNode, UserTask};

use crate::{AggregationApproach, SelectionProblem, ServiceCandidate};

/// Task shapes used by the figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskShape {
    /// All activities in sequence.
    Sequence,
    /// A sequence with a parallel block in the middle.
    Mixed,
    /// Sequence + parallel + choice + loop (exercises every aggregation
    /// rule; used by the aggregation-approach figures).
    Full,
}

/// How tight the generated global constraints are relative to the QoS
/// value distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tightness {
    /// No constraints at all.
    Unconstrained,
    /// Per-activity bound at the distribution mean `m` (tight — Fig.
    /// VI.10a/VI.11a).
    AtMean,
    /// Per-activity bound one σ *looser* than the mean (Fig.
    /// VI.10b/VI.11b).
    AtMeanPlusSigma,
    /// Per-activity bound `k` standard deviations looser than the mean.
    LooserBySigmas(f64),
}

/// Statistical profile of one generated property.
#[derive(Debug, Clone)]
struct PropertyProfile {
    property: PropertyId,
    mean: f64,
    std_dev: f64,
    clamp: (f64, f64),
}

/// Declarative description of a synthetic selection workload.
///
/// # Examples
///
/// ```
/// use qasom_qos::QosModel;
/// use qasom_selection::workload::WorkloadSpec;
///
/// let model = QosModel::standard();
/// let w = WorkloadSpec::evaluation_default()
///     .services_per_activity(50)
///     .build(&model, 123);
/// assert_eq!(w.problem().candidates()[0].len(), 50);
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    activities: usize,
    services_per_activity: usize,
    properties: Vec<String>,
    shape: TaskShape,
    tightness: Tightness,
    approach: AggregationApproach,
}

impl WorkloadSpec {
    /// The default set-up of the original evaluation: 5 activities, 100
    /// services per activity, 4 QoS properties (response time,
    /// availability, price, throughput), sequential task, constraints one
    /// σ looser than the mean, mean-value aggregation.
    pub fn evaluation_default() -> Self {
        WorkloadSpec {
            activities: 5,
            services_per_activity: 100,
            properties: vec![
                "ResponseTime".to_owned(),
                "Availability".to_owned(),
                "Price".to_owned(),
                "Throughput".to_owned(),
            ],
            shape: TaskShape::Sequence,
            tightness: Tightness::AtMeanPlusSigma,
            approach: AggregationApproach::MeanValue,
        }
    }

    /// Sets the number of abstract activities.
    pub fn activities(mut self, n: usize) -> Self {
        assert!(n > 0, "a task needs at least one activity");
        self.activities = n;
        self
    }

    /// Sets the number of candidate services per activity.
    pub fn services_per_activity(mut self, n: usize) -> Self {
        assert!(n > 0, "each activity needs at least one candidate");
        self.services_per_activity = n;
        self
    }

    /// Restricts the generated QoS properties (names from the standard
    /// model); the order controls which are kept when trimming.
    pub fn properties(mut self, names: &[&str]) -> Self {
        assert!(!names.is_empty(), "at least one property is required");
        self.properties = names.iter().map(|s| (*s).to_owned()).collect();
        self
    }

    /// Keeps only the first `n` of the configured properties (the
    /// "#QoS constraints" axis of Fig. VI.5b/VI.6b), extending them with
    /// further standard properties when more axes are requested.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or exceeds the configured properties plus the
    /// six extras.
    pub fn property_count(mut self, n: usize) -> Self {
        assert!(n > 0, "at least one property is required");
        for extra in [
            "Reliability",
            "Reputation",
            "EnergyCost",
            "SecurityLevel",
            "Accuracy",
            "EncodingQuality",
        ] {
            if self.properties.len() >= n {
                break;
            }
            if !self.properties.iter().any(|p| p == extra) {
                self.properties.push(extra.to_owned());
            }
        }
        assert!(
            self.properties.len() >= n,
            "at most {} properties are available, {n} requested",
            self.properties.len()
        );
        self.properties.truncate(n);
        self
    }

    /// Sets the task shape.
    pub fn shape(mut self, shape: TaskShape) -> Self {
        self.shape = shape;
        self
    }

    /// Sets the constraint tightness.
    pub fn tightness(mut self, tightness: Tightness) -> Self {
        self.tightness = tightness;
        self
    }

    /// Sets the aggregation approach.
    pub fn approach(mut self, approach: AggregationApproach) -> Self {
        self.approach = approach;
        self
    }

    /// Materialises the workload deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if a property name is unknown to `model`.
    pub fn build(&self, model: &QosModel, seed: u64) -> Workload {
        let mut rng = StdRng::seed_from_u64(seed);
        let profiles: Vec<PropertyProfile> = self
            .properties
            .iter()
            .map(|name| profile_for(model, name))
            .collect();

        let task = build_task(self.shape, self.activities);

        // Ids are dense across the whole workload, in generation order.
        let mut next_id = 0u32;
        let candidates: Vec<Vec<ServiceCandidate>> = (0..self.activities)
            .map(|_| {
                (0..self.services_per_activity)
                    .map(|_| {
                        let mut qos = QosVector::new();
                        for p in &profiles {
                            let v = Normal::new(p.mean, p.std_dev)
                                .sample_clamped(&mut rng, p.clamp.0, p.clamp.1);
                            qos.set(p.property, v);
                        }
                        let id = ServiceId::from_raw(next_id);
                        next_id += 1;
                        ServiceCandidate::new(id, qos)
                    })
                    .collect()
            })
            .collect();

        let constraints = self.build_constraints(model, &task, &profiles);
        let preferences = Preferences::uniform(profiles.iter().map(|p| p.property));

        Workload {
            task,
            candidates,
            constraints,
            preferences,
            approach: self.approach,
        }
    }

    /// Derives global constraints by aggregating the per-activity bound
    /// over the task structure (e.g. a per-activity response-time bound of
    /// `b` over `n` sequential activities yields a global bound of `n·b`).
    fn build_constraints(
        &self,
        model: &QosModel,
        task: &UserTask,
        profiles: &[PropertyProfile],
    ) -> ConstraintSet {
        let sigmas = match self.tightness {
            Tightness::Unconstrained => return ConstraintSet::new(),
            Tightness::AtMean => 0.0,
            Tightness::AtMeanPlusSigma => 1.0,
            Tightness::LooserBySigmas(k) => k,
        };
        let aggregator = crate::Aggregator::new(model, self.approach);
        let n = task.activity_count();
        profiles
            .iter()
            .map(|p| {
                let tendency = model.tendency(p.property);
                let per_activity = match tendency {
                    qasom_qos::Tendency::LowerBetter => p.mean + sigmas * p.std_dev,
                    qasom_qos::Tendency::HigherBetter => p.mean - sigmas * p.std_dev,
                };
                let per_activity = per_activity.clamp(p.clamp.0, p.clamp.1);
                let uniform: Vec<QosVector> = (0..n)
                    .map(|_| {
                        let mut v = QosVector::new();
                        v.set(p.property, per_activity);
                        v
                    })
                    .collect();
                let bound = aggregator
                    .aggregate(task, &uniform, &[p.property])
                    .get(p.property)
                    .unwrap_or_else(|| {
                        panic!("uniform assignment always aggregates the constrained property")
                    });
                Constraint::new(p.property, tendency, bound)
            })
            .collect()
    }
}

/// The QoS statistics each standard property is generated with (the
/// `N(m, σ)` of Fig. VI.9).
fn profile_for(model: &QosModel, name: &str) -> PropertyProfile {
    let property = model
        .property(name)
        .unwrap_or_else(|| panic!("unknown workload property {name:?}"));
    let (mean, std_dev, clamp) = match name {
        "ResponseTime" => (100.0, 30.0, (1.0, f64::MAX)),
        "Availability" | "Reliability" | "Accuracy" => (0.95, 0.03, (0.0, 1.0)),
        "Price" => (5.0, 2.0, (0.01, f64::MAX)),
        "Throughput" => (50.0, 15.0, (1.0, f64::MAX)),
        "Reputation" | "SecurityLevel" | "EncodingQuality" => (3.5, 1.0, (0.0, 5.0)),
        "EnergyCost" => (200.0, 60.0, (1.0, f64::MAX)),
        _ => (50.0, 10.0, (0.0, f64::MAX)),
    };
    PropertyProfile {
        property,
        mean,
        std_dev,
        clamp,
    }
}

fn build_task(shape: TaskShape, n: usize) -> UserTask {
    let act =
        |i: usize| TaskNode::activity(Activity::new(format!("a{i}"), &format!("wl#Activity{i}")));
    let root = match shape {
        TaskShape::Sequence => TaskNode::sequence((0..n).map(act)),
        TaskShape::Mixed => {
            if n < 3 {
                TaskNode::sequence((0..n).map(act))
            } else {
                // a0 ; (a1 || … || a_{n-2}) ; a_{n-1}
                let mut nodes = vec![act(0)];
                nodes.push(TaskNode::parallel((1..n - 1).map(act)));
                nodes.push(act(n - 1));
                TaskNode::sequence(nodes)
            }
        }
        TaskShape::Full => {
            if n < 4 {
                TaskNode::sequence((0..n).map(act))
            } else {
                // a0 ; (a1 ? a2) ; loop(a3) ; a4… — exercises every rule.
                let mut nodes = vec![act(0)];
                nodes.push(TaskNode::choice([(0.6, act(1)), (0.4, act(2))]));
                nodes.push(TaskNode::repeat(act(3), LoopBound::new(2.0, 4)));
                if n > 4 {
                    nodes.push(TaskNode::parallel((4..n).map(act)));
                }
                TaskNode::sequence(nodes)
            }
        }
    };
    UserTask::new("workload", root)
        .unwrap_or_else(|e| panic!("generated tasks are well-formed: {e}"))
}

/// A materialised workload: owns the task, candidate sets and constraints.
#[derive(Debug, Clone)]
pub struct Workload {
    task: UserTask,
    candidates: Vec<Vec<ServiceCandidate>>,
    constraints: ConstraintSet,
    preferences: Preferences,
    approach: AggregationApproach,
}

impl Workload {
    /// The generated user task.
    pub fn task(&self) -> &UserTask {
        &self.task
    }

    /// The generated per-activity candidate sets.
    pub fn candidates(&self) -> &[Vec<ServiceCandidate>] {
        &self.candidates
    }

    /// The derived global constraints.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    /// Assembles the [`SelectionProblem`] view of this workload.
    pub fn problem(&self) -> SelectionProblem<'_> {
        SelectionProblem::new(&self.task)
            .with_candidates(self.candidates.clone())
            .with_constraints(self.constraints.clone())
            .with_preferences(self.preferences.clone())
            .with_approach(self.approach)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_workload_has_expected_dimensions() {
        let m = QosModel::standard();
        let w = WorkloadSpec::evaluation_default().build(&m, 1);
        assert_eq!(w.task().activity_count(), 5);
        assert_eq!(w.candidates().len(), 5);
        assert_eq!(w.candidates()[0].len(), 100);
        assert_eq!(w.constraints().len(), 4);
    }

    #[test]
    fn generation_is_deterministic() {
        let m = QosModel::standard();
        let a = WorkloadSpec::evaluation_default().build(&m, 9);
        let b = WorkloadSpec::evaluation_default().build(&m, 9);
        assert_eq!(a.candidates(), b.candidates());
    }

    #[test]
    fn seeds_change_the_values() {
        let m = QosModel::standard();
        let a = WorkloadSpec::evaluation_default().build(&m, 1);
        let b = WorkloadSpec::evaluation_default().build(&m, 2);
        assert_ne!(a.candidates(), b.candidates());
    }

    #[test]
    fn sampled_means_match_the_profile() {
        let m = QosModel::standard();
        let rt = m.property("ResponseTime").unwrap();
        let w = WorkloadSpec::evaluation_default()
            .services_per_activity(2000)
            .activities(1)
            .build(&m, 5);
        let mean: f64 = w.candidates()[0]
            .iter()
            .map(|c| c.qos().get(rt).unwrap())
            .sum::<f64>()
            / 2000.0;
        assert!((mean - 100.0).abs() < 3.0, "mean {mean}");
    }

    #[test]
    fn availability_stays_in_unit_interval() {
        let m = QosModel::standard();
        let av = m.property("Availability").unwrap();
        let w = WorkloadSpec::evaluation_default().build(&m, 3);
        for cands in w.candidates() {
            for c in cands {
                let v = c.qos().get(av).unwrap();
                assert!((0.0..=1.0).contains(&v));
            }
        }
    }

    #[test]
    fn constraints_scale_with_task_size() {
        let m = QosModel::standard();
        let rt = m.property("ResponseTime").unwrap();
        let small = WorkloadSpec::evaluation_default()
            .activities(2)
            .tightness(Tightness::AtMean)
            .build(&m, 1);
        let large = WorkloadSpec::evaluation_default()
            .activities(8)
            .tightness(Tightness::AtMean)
            .build(&m, 1);
        let b_small = small.constraints().get(rt).unwrap().bound();
        let b_large = large.constraints().get(rt).unwrap().bound();
        assert_eq!(b_small, 200.0);
        assert_eq!(b_large, 800.0);
    }

    #[test]
    fn mean_plus_sigma_is_looser_than_mean() {
        let m = QosModel::standard();
        let rt = m.property("ResponseTime").unwrap();
        let av = m.property("Availability").unwrap();
        let tight = WorkloadSpec::evaluation_default()
            .tightness(Tightness::AtMean)
            .build(&m, 1);
        let loose = WorkloadSpec::evaluation_default()
            .tightness(Tightness::AtMeanPlusSigma)
            .build(&m, 1);
        // Lower-better: looser bound is larger.
        assert!(
            loose.constraints().get(rt).unwrap().bound()
                > tight.constraints().get(rt).unwrap().bound()
        );
        // Higher-better: looser bound is smaller.
        assert!(
            loose.constraints().get(av).unwrap().bound()
                < tight.constraints().get(av).unwrap().bound()
        );
    }

    #[test]
    fn property_count_extends_beyond_default_four() {
        let m = QosModel::standard();
        let w = WorkloadSpec::evaluation_default()
            .property_count(7)
            .build(&m, 1);
        assert_eq!(w.constraints().len(), 7);
    }

    #[test]
    #[should_panic(expected = "at most 10 properties are available, 11 requested")]
    fn property_count_beyond_the_extras_panics() {
        let _ = WorkloadSpec::evaluation_default().property_count(11);
    }

    #[test]
    fn full_shape_contains_choice_and_loop() {
        let m = QosModel::standard();
        let w = WorkloadSpec::evaluation_default()
            .shape(TaskShape::Full)
            .build(&m, 1);
        let mut has_choice = false;
        let mut has_loop = false;
        fn walk(n: &TaskNode, c: &mut bool, l: &mut bool) {
            match n {
                TaskNode::Choice(bs) => {
                    *c = true;
                    bs.iter().for_each(|(_, b)| walk(b, c, l));
                }
                TaskNode::Loop { body, .. } => {
                    *l = true;
                    walk(body, c, l);
                }
                TaskNode::Sequence(cs) | TaskNode::Parallel(cs) => {
                    cs.iter().for_each(|x| walk(x, c, l))
                }
                TaskNode::Activity(_) => {}
            }
        }
        walk(w.task().root(), &mut has_choice, &mut has_loop);
        assert!(has_choice && has_loop);
    }

    #[test]
    fn unconstrained_workload_has_no_constraints() {
        let m = QosModel::standard();
        let w = WorkloadSpec::evaluation_default()
            .tightness(Tightness::Unconstrained)
            .build(&m, 1);
        assert!(w.constraints().is_empty());
    }
}
