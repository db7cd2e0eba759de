//! Property-based tests of QASSA and its building blocks over random
//! workloads.

use proptest::prelude::*;
use qasom_qos::QosModel;
use qasom_selection::baseline::Baselines;
use qasom_selection::workload::{TaskShape, Tightness, WorkloadSpec};
use qasom_selection::{
    kmeans_1d, AggregationApproach, Aggregator, LocalRank, Qassa, QosLevels, SelectionProblem,
    ServiceCandidate,
};

fn model() -> QosModel {
    QosModel::standard()
}

fn arb_spec() -> impl Strategy<Value = (WorkloadSpec, u64)> {
    (
        1usize..5,  // activities
        1usize..30, // services per activity
        1usize..5,  // properties
        prop_oneof![
            Just(TaskShape::Sequence),
            Just(TaskShape::Mixed),
            Just(TaskShape::Full)
        ],
        prop_oneof![
            Just(Tightness::Unconstrained),
            Just(Tightness::AtMean),
            Just(Tightness::AtMeanPlusSigma)
        ],
        any::<u64>(),
    )
        .prop_map(|(a, s, p, shape, tightness, seed)| {
            (
                WorkloadSpec::evaluation_default()
                    .activities(a)
                    .services_per_activity(s)
                    .property_count(p)
                    .shape(shape)
                    .tightness(tightness),
                seed,
            )
        })
}

/// The layout every hierarchy must have: one table in best-first order
/// (level, class, utility descending, id), cut into consecutive level
/// slices whose entries carry that level.
fn check_best_first_table(levels: &QosLevels) -> TestCaseResult {
    for pair in levels.best_first().windows(2) {
        let key = |r: &qasom_selection::RankedCandidate| (r.level(), r.class());
        let (a, b) = (&pair[0], &pair[1]);
        prop_assert!(
            key(a) < key(b)
                || (key(a) == key(b)
                    && (a.utility() > b.utility()
                        || (a.utility() == b.utility()
                            && a.candidate().id() < b.candidate().id()))),
            "out of order: {a:?} before {b:?}"
        );
    }
    let mut seen = 0;
    for r in 0..levels.level_count() {
        let level = levels.level(r);
        prop_assert!(
            level.iter().all(|c| c.level() == r),
            "level {r} holds a stranger"
        );
        prop_assert_eq!(level, &levels.best_first()[seen..seen + level.len()]);
        seen += level.len();
    }
    prop_assert_eq!(seen, levels.total());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// QASSA soundness: a composition flagged feasible satisfies every
    /// global constraint; utilities are always valid scores.
    #[test]
    fn qassa_is_sound((spec, seed) in arb_spec()) {
        let m = model();
        let w = spec.build(&m, seed);
        let problem = w.problem();
        let out = Qassa::new(&m).select(&problem).expect("well-formed");
        if out.feasible {
            prop_assert!(problem.constraints().satisfied_by(&out.aggregated));
        }
        prop_assert!((0.0..=1.0).contains(&out.utility), "utility {}", out.utility);
        prop_assert_eq!(out.assignment.len(), w.task().activity_count());
    }

    /// QASSA completeness (against the exact optimum) on exhaustive-
    /// tractable instances: whenever a feasible composition exists, QASSA
    /// finds one.
    #[test]
    fn qassa_is_complete_when_exhaustive_is_feasible(
        activities in 1usize..4,
        services in 1usize..8,
        seed in any::<u64>(),
    ) {
        let m = model();
        let w = WorkloadSpec::evaluation_default()
            .activities(activities)
            .services_per_activity(services)
            .tightness(Tightness::AtMean)
            .build(&m, seed);
        let problem = w.problem();
        let exact = Baselines::new(&m).exhaustive(&problem).expect("within cap");
        let ours = Qassa::new(&m).select(&problem).expect("well-formed");
        if exact.feasible {
            prop_assert!(ours.feasible, "QASSA missed a feasible composition");
            prop_assert!(ours.utility <= exact.utility + 1e-9);
        } else {
            prop_assert!(!ours.feasible, "QASSA claims feasibility the optimum lacks");
        }
    }

    /// The ranked alternates cover exactly the candidate sets, and they
    /// are the outcome's hierarchies read in order — one list, laid out
    /// as a best-first table of level slices.
    #[test]
    fn ranked_lists_are_complete((spec, seed) in arb_spec()) {
        let m = model();
        let w = spec.build(&m, seed);
        let problem = w.problem();
        let out = Qassa::new(&m).select(&problem).expect("well-formed");
        prop_assert_eq!(out.levels.len(), problem.candidates().len());
        for (i, levels) in out.levels.iter().enumerate() {
            prop_assert_eq!(levels.total(), problem.candidates()[i].len());
            check_best_first_table(levels)?;
            let alternates: Vec<&ServiceCandidate> = out.alternates(i).collect();
            let table: Vec<&ServiceCandidate> =
                levels.best_first().iter().map(|r| r.candidate()).collect();
            prop_assert_eq!(alternates, table);
        }
        prop_assert_eq!(out.alternates(out.levels.len()).count(), 0);
    }

    /// Merging two hierarchies (distributed QASSA's coordinator step)
    /// keeps the layout: every candidate of both sides, in the order
    /// ranking itself produces, with the level slices re-derived.
    #[test]
    fn merged_hierarchies_stay_best_first((spec, seed) in arb_spec(), cut in 0usize..30) {
        let m = model();
        let w = spec.build(&m, seed);
        let problem = w.problem();
        let properties = problem.properties();
        let rank = |cands: &[ServiceCandidate]| {
            LocalRank::default().rank(&m, cands, &properties, problem.preferences())
        };
        for cands in problem.candidates() {
            let (left, right) = cands.split_at(cut.min(cands.len()));
            let (mut a, b) = (rank(left), rank(right));
            let (size, deepest) = (a.total() + b.total(), a.level_count().max(b.level_count()));
            a.merge(b);
            prop_assert_eq!(a.total(), size);
            prop_assert_eq!(a.level_count(), deepest);
            check_best_first_table(&a)?;
        }
    }

    /// Selection is deterministic.
    #[test]
    fn selection_is_deterministic((spec, seed) in arb_spec()) {
        let m = model();
        let w = spec.build(&m, seed);
        let problem = w.problem();
        let a = Qassa::new(&m).select(&problem).expect("ok");
        let b = Qassa::new(&m).select(&problem).expect("ok");
        prop_assert_eq!(a, b);
    }

    /// Aggregation-approach ordering: for every property, the pessimistic
    /// aggregate is never better than mean-value, which is never better
    /// than optimistic.
    #[test]
    fn aggregation_approaches_are_ordered((spec, seed) in arb_spec()) {
        let m = model();
        let w = spec.build(&m, seed);
        let problem = w.problem();
        let props = problem.properties();
        let assignment: Vec<qasom_qos::QosVector> = problem
            .candidates()
            .iter()
            .map(|c| c[0].qos().clone())
            .collect();
        let pess = Aggregator::new(&m, AggregationApproach::Pessimistic)
            .aggregate(w.task(), &assignment, &props);
        let mean = Aggregator::new(&m, AggregationApproach::MeanValue)
            .aggregate(w.task(), &assignment, &props);
        let opt = Aggregator::new(&m, AggregationApproach::Optimistic)
            .aggregate(w.task(), &assignment, &props);
        for &p in &props {
            let t = m.tendency(p);
            if let (Some(a), Some(b), Some(c)) = (pess.get(p), mean.get(p), opt.get(p)) {
                prop_assert!(t.at_least_as_good(b, a) || approx(a, b),
                    "mean {b} worse than pessimistic {a} for {p:?}");
                prop_assert!(t.at_least_as_good(c, b) || approx(b, c),
                    "optimistic {c} worse than mean {b} for {p:?}");
            }
        }
    }

    /// Degenerate value ranges — every candidate of an activity
    /// advertising identical QoS — must not poison normalisation:
    /// `min == max` per property used to divide by a zero range and
    /// leak NaN ranks. Selection must stay finite, sound and
    /// deterministic.
    #[test]
    fn qassa_survives_degenerate_qos_ranges((spec, seed) in arb_spec()) {
        let m = model();
        let w = spec.build(&m, seed);
        let base = w.problem();
        let constant: Vec<Vec<ServiceCandidate>> = base
            .candidates()
            .iter()
            .map(|cands| {
                let template = cands[0].qos().clone();
                cands
                    .iter()
                    .map(|c| ServiceCandidate::new(c.id(), template.clone()))
                    .collect()
            })
            .collect();
        let problem = SelectionProblem::new(w.task())
            .with_candidates(constant)
            .with_constraints(base.constraints().clone())
            .with_preferences(base.preferences().clone())
            .with_approach(base.approach());
        let out = Qassa::new(&m).select(&problem).expect("well-formed");
        prop_assert!(out.utility.is_finite(), "utility {}", out.utility);
        prop_assert!((0.0..=1.0).contains(&out.utility), "utility {}", out.utility);
        prop_assert_eq!(out.assignment.len(), w.task().activity_count());
        if out.feasible {
            prop_assert!(problem.constraints().satisfied_by(&out.aggregated));
        }
        let again = Qassa::new(&m).select(&problem).expect("well-formed");
        prop_assert_eq!(out, again);
    }

    /// Constant inputs (all values identical) used to starve K-means
    /// clusters and emit NaN centroids; they must collapse into
    /// non-empty bands with finite centroids.
    #[test]
    fn kmeans_handles_constant_values(value in 0.0f64..1e4, n in 1usize..100, k in 1usize..8) {
        let values = vec![value; n];
        let c = kmeans_1d(&values, k, 50);
        prop_assert_eq!(c.assignments().len(), n);
        for label in 0..c.k() {
            prop_assert!(c.assignments().contains(&label));
            prop_assert!(c.centroid(label).is_finite(), "centroid {label} not finite");
        }
    }

    /// K-means invariants on random value sets: total partition, labels
    /// in range, non-empty clusters.
    #[test]
    fn kmeans_partitions_its_input(values in prop::collection::vec(0.0f64..1e4, 1..200), k in 1usize..8) {
        let c = kmeans_1d(&values, k, 50);
        prop_assert_eq!(c.assignments().len(), values.len());
        for &a in c.assignments() {
            prop_assert!(a < c.k());
        }
        for label in 0..c.k() {
            prop_assert!(c.assignments().contains(&label));
        }
        // Centroids strictly increase.
        for i in 1..c.k() {
            prop_assert!(c.centroid(i - 1) <= c.centroid(i));
        }
    }
}

fn approx(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}
