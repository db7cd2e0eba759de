//! Property-based tests of QASSA and its building blocks over random
//! workloads.

use proptest::prelude::*;
use qasom_qos::utility::utility;
use qasom_qos::{Normalizer, Preferences, PropertyId, QosModel, QosVector, Tendency};
use qasom_registry::{ServiceDescription, ServiceId, ServiceRegistry};
use qasom_selection::baseline::Baselines;
use qasom_selection::workload::{TaskShape, Tightness, WorkloadSpec};
use qasom_selection::{
    kmeans_1d_with, AggregationApproach, Aggregator, KmeansScratch, LocalRank, LocalScratch, Qassa,
    QosColumns, QosLevels, RankedCandidate, SelectionProblem, ServiceCandidate,
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
                        || (a.utility() == b.utility() && a.id() < b.id()))),
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
            let alternates: Vec<ServiceCandidate> = out.alternates(i).collect();
            let table: Vec<ServiceCandidate> =
                levels.best_first().iter().map(|r| levels.candidate(r)).collect();
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
        let mut scratch = KmeansScratch::new();
        let kc = kmeans_1d_with(&values, k, 50, &mut scratch);
        prop_assert_eq!(scratch.assignments().len(), n);
        prop_assert_eq!(scratch.centroids().len(), kc);
        for label in 0..kc {
            prop_assert!(scratch.assignments().contains(&(label as u8)));
            prop_assert!(scratch.centroids()[label].is_finite(), "centroid {label} not finite");
        }
    }

    /// K-means invariants on random value sets: total partition, labels
    /// in range, non-empty clusters.
    #[test]
    fn kmeans_partitions_its_input(values in prop::collection::vec(0.0f64..1e4, 1..200), k in 1usize..8) {
        let mut scratch = KmeansScratch::new();
        let kc = kmeans_1d_with(&values, k, 50, &mut scratch);
        prop_assert_eq!(scratch.assignments().len(), values.len());
        prop_assert_eq!(scratch.centroids().len(), kc);
        for &a in scratch.assignments() {
            prop_assert!(usize::from(a) < kc);
        }
        for label in 0..kc {
            prop_assert!(scratch.assignments().contains(&(label as u8)));
        }
        // Centroids strictly increase.
        for i in 1..kc {
            prop_assert!(scratch.centroids()[i - 1] <= scratch.centroids()[i]);
        }
    }
}

/// The two-pass Lloyd routine `kmeans_1d_with` ran before it fused its
/// assignment and update passes, kept as the oracle of the fused one:
/// `(labels, centroids)`.
fn reference_kmeans(values: &[f64], k: usize, max_iters: usize) -> (Vec<usize>, Vec<f64>) {
    if values.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    sorted.dedup();
    let k = k.min(sorted.len());
    let mut centroids = Vec::new();
    for i in 0..k {
        let pos = (i as f64 + 0.5) / k as f64 * (sorted.len() as f64 - 1.0);
        centroids.push(sorted[pos.round() as usize]);
    }
    centroids.dedup();
    let mut assignments = vec![0; values.len()];
    let kc = centroids.len();
    let mut sums = vec![0.0; kc];
    let mut counts = vec![0usize; kc];
    for _ in 0..max_iters.max(1) {
        let mut changed = false;
        for (i, &v) in values.iter().enumerate() {
            let mut nearest = 0;
            let mut best = f64::INFINITY;
            for (j, &c) in centroids.iter().enumerate() {
                let distance = (v - c).abs();
                if distance < best {
                    nearest = j;
                    best = distance;
                }
            }
            if assignments[i] != nearest {
                assignments[i] = nearest;
                changed = true;
            }
        }
        sums.iter_mut().for_each(|s| *s = 0.0);
        counts.iter_mut().for_each(|c| *c = 0);
        for (i, &v) in values.iter().enumerate() {
            sums[assignments[i]] += v;
            counts[assignments[i]] += 1;
        }
        for (j, c) in centroids.iter_mut().enumerate() {
            if counts[j] > 0 {
                *c = sums[j] / counts[j] as f64;
            }
        }
        if !changed {
            break;
        }
    }
    let mut order: Vec<usize> = (0..kc).filter(|&j| counts[j] > 0).collect();
    order.sort_by(|&a, &b| centroids[a].total_cmp(&centroids[b]));
    let mut relabel = vec![usize::MAX; kc];
    for (new, &old) in order.iter().enumerate() {
        relabel[old] = new;
    }
    for a in assignments.iter_mut() {
        *a = relabel[*a];
    }
    let centroids = order.iter().map(|&old| centroids[old]).collect();
    (assignments, centroids)
}

/// One row of a ranked table as the oracle compares it: id, level,
/// class and the utility's bits.
type Row = (ServiceId, usize, usize, u64);

/// Local ranking as it ran before it ranked a table in place: a fresh
/// ranked row per candidate, one normaliser `include` per value and a
/// comparator sort. Returns the best-first rows and the requested
/// properties' `(min, max)` bounds.
fn reference_rank(
    model: &QosModel,
    bands: usize,
    candidates: &[ServiceCandidate],
    properties: &[PropertyId],
    preferences: &Preferences,
) -> (Vec<Row>, Vec<(PropertyId, f64, f64)>) {
    let n = candidates.len();
    let bands = bands.clamp(1, 255);
    let mut ranks = vec![bands; properties.len() * n];
    let mut normalizer = Normalizer::default();
    let mut bounds = Vec::new();
    for (pi, &p) in properties.iter().enumerate() {
        let mut values = Vec::new();
        let mut present = Vec::new();
        for (i, c) in candidates.iter().enumerate() {
            if let Some(v) = c.qos().get(p).filter(|v| v.is_finite()) {
                present.push(i);
                values.push(v);
                normalizer.include(model, p, v);
            }
        }
        // Explicit comparisons, first of equal values kept: `f64::min`
        // and `f64::max` leave the zero they return for `-0.0` against
        // `+0.0` unspecified.
        if let (Some(lo), Some(hi)) = (
            values
                .iter()
                .copied()
                .reduce(|lo, v| if v < lo { v } else { lo }),
            values
                .iter()
                .copied()
                .reduce(|hi, v| if v > hi { v } else { hi }),
        ) {
            bounds.push((p, lo, hi));
        }
        let (labels, centroids) = reference_kmeans(&values, bands, 50);
        let k = centroids.len();
        for (j, &i) in present.iter().enumerate() {
            ranks[pi * n + i] = match model.tendency(p) {
                Tendency::LowerBetter => labels[j],
                Tendency::HigherBetter => k - 1 - labels[j],
            };
        }
    }
    for p in preferences.properties() {
        if !properties.contains(&p) {
            for c in candidates {
                if let Some(v) = c.qos().get(p) {
                    normalizer.include(model, p, v);
                }
            }
        }
    }
    let uniform = Preferences::uniform(properties.iter().copied());
    let prefs = if preferences.is_empty() {
        &uniform
    } else {
        preferences
    };
    let mut rows: Vec<(ServiceId, usize, usize, f64)> = candidates
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let (mut worst, mut class) = (0, 0);
            for pi in 0..properties.len() {
                let r = ranks[pi * n + i];
                if r > worst {
                    worst = r;
                    class = 1;
                } else if r == worst {
                    class += 1;
                }
            }
            (c.id(), worst, class, utility(c.qos(), &normalizer, prefs))
        })
        .collect();
    rows.sort_by(|a, b| {
        a.1.cmp(&b.1)
            .then(a.2.cmp(&b.2))
            .then(b.3.total_cmp(&a.3))
            .then(a.0.cmp(&b.0))
    });
    bounds.sort_by_key(|&(p, ..)| p);
    let rows = rows
        .into_iter()
        .map(|(id, level, class, u)| (id, level, class, u.to_bits()))
        .collect();
    (rows, bounds)
}

fn rows(levels: &QosLevels) -> Vec<Row> {
    levels
        .best_first()
        .iter()
        .map(|r: &RankedCandidate| (r.id(), r.level(), r.class(), r.utility().to_bits()))
        .collect()
}

/// SplitMix64: the column and table generators' deterministic stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)`.
fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A column of `n` values of one of eight shapes K-means finds hard:
/// uniform, ties and duplicates, signed zeros, constant, two-valued,
/// points at and beside a midpoint, a shuffled grid, and a wide signed
/// range.
fn column(shape: usize, n: usize, seed: u64) -> Vec<f64> {
    let mut st = seed;
    let a = (unit(&mut st) * 100.0).floor();
    let b = a + 1.0 + (unit(&mut st) * 100.0).floor();
    let mid = (a + b) / 2.0;
    let pick = |st: &mut u64, pool: &[f64]| pool[(splitmix(st) % pool.len() as u64) as usize];
    match shape {
        0 => (0..n).map(|_| unit(&mut st) * 1e4).collect(),
        1 => {
            let pool: Vec<f64> = (0..1 + splitmix(&mut st) % 6)
                .map(|_| (unit(&mut st) * 8.0).floor() * 1.5)
                .collect();
            (0..n).map(|_| pick(&mut st, &pool)).collect()
        }
        2 => (0..n)
            .map(|_| pick(&mut st, &[0.0, -0.0, 0.0, -0.0, 1.0, -1.0, 1e-300]))
            .collect(),
        3 => vec![a; n],
        4 => (0..n).map(|_| pick(&mut st, &[a, b])).collect(),
        5 => {
            let below = f64::from_bits(mid.to_bits() - 1);
            let above = f64::from_bits(mid.to_bits() + 1);
            (0..n)
                .map(|_| pick(&mut st, &[a, b, mid, below, above, a, b]))
                .collect()
        }
        6 => {
            let step = 0.5 + unit(&mut st) * 10.0;
            let mut grid: Vec<f64> = (0..n).map(|i| a + step * i as f64).collect();
            for i in (1..n).rev() {
                grid.swap(i, (splitmix(&mut st) % (i as u64 + 1)) as usize);
            }
            grid
        }
        _ => (0..n).map(|_| (unit(&mut st) - 0.5) * 2e6).collect(),
    }
}

/// A random activity table over four properties of the standard model
/// (two lower-better, two higher-better): rows may miss a property or
/// carry a non-finite value or a signed zero, and some rows' vectors are
/// an advertisement with one observed value set over it (or beside it).
fn table(model: &QosModel, n: usize, seed: u64) -> (Vec<ServiceCandidate>, Vec<PropertyId>) {
    let props: Vec<PropertyId> = ["ResponseTime", "Price", "Availability", "Reliability"]
        .iter()
        .map(|name| model.property(name).expect("standard property"))
        .collect();
    let mut st = seed;
    // Few distinct values per property, so levels, classes and utilities tie.
    let grain = 1 + splitmix(&mut st) % 12;
    let mut registry = ServiceRegistry::new();
    let mut ids: Vec<ServiceId> = (0..n)
        .map(|i| registry.register(ServiceDescription::new(format!("s{i}"), "d#F")))
        .collect();
    // Rows in an order unrelated to their ids.
    for i in (1..n).rev() {
        ids.swap(i, (splitmix(&mut st) % (i as u64 + 1)) as usize);
    }
    let value = |st: &mut u64| -> f64 {
        match splitmix(st) % 20 {
            0 => f64::INFINITY,
            1 => f64::NAN,
            // Beside the 0.0 a grain of 0 gives.
            2 => -0.0,
            _ => (splitmix(st) % grain) as f64 * 0.1,
        }
    };
    let candidates = ids
        .into_iter()
        .map(|id| {
            let mut advertised = QosVector::new();
            for &p in &props {
                if !splitmix(&mut st).is_multiple_of(6) {
                    advertised.set(p, value(&mut st));
                }
            }
            let qos = if splitmix(&mut st).is_multiple_of(4) {
                let mut observed = advertised;
                let p = props[splitmix(&mut st) as usize % props.len()];
                observed.set(p, value(&mut st));
                observed
            } else {
                advertised
            };
            ServiceCandidate::new(id, qos)
        })
        .collect();
    (candidates, props)
}

/// The unranked table of `candidates`: one row each, in order, and
/// their values of the `layout` properties in columns.
fn rows_and_columns(
    candidates: &[ServiceCandidate],
    layout: &[PropertyId],
) -> (Vec<RankedCandidate>, QosColumns) {
    let mut columns = QosColumns::with_capacity(layout.into(), candidates.len());
    let rows = candidates
        .iter()
        .map(|c| RankedCandidate::new(c.id(), columns.push(|p| c.qos().get(p))))
        .collect();
    (rows, columns)
}

fn approx(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The fused assign-and-accumulate Lloyd pass returns the two-pass
    /// routine's labels and centroid bits, through a scratch that last
    /// clustered another column.
    #[test]
    fn fused_kmeans_matches_the_two_pass_reference(
        shape in 0usize..8,
        n in 1usize..300,
        seed in any::<u64>(),
        k in 1usize..=8,
        max_iters in prop_oneof![1usize..=3, Just(50usize)],
    ) {
        let values = column(shape, n, seed);
        let (labels, centroids) = reference_kmeans(&values, k, max_iters);
        let mut scratch = KmeansScratch::new();
        let reversed: Vec<f64> = values.iter().rev().map(|v| v * 3.0 + 1.0).collect();
        kmeans_1d_with(&reversed, k, max_iters, &mut scratch);
        let kc = kmeans_1d_with(&values, k, max_iters, &mut scratch);
        prop_assert_eq!(kc, centroids.len());
        let labels_read: Vec<usize> = scratch.assignments().iter().map(|&l| l.into()).collect();
        prop_assert_eq!(labels_read, labels);
        let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(scratch.centroids()), bits(&centroids));
    }

    /// Ranking a table in place equals the comparator-sort reference row
    /// for row, utility bits included, with the same value bounds: over
    /// rows missing a property, non-finite values, overlaid vectors,
    /// preference properties outside the requested set, an empty
    /// property list and 0–8 bands (0 ranks as 1).
    #[test]
    fn in_place_ranking_matches_the_comparator_reference(
        n in 1usize..120,
        seed in any::<u64>(),
        bands in 0usize..=8,
        requested in 0usize..16,
        weighted in 0usize..16,
    ) {
        let m = model();
        let (candidates, props) = table(&m, n, seed);
        // Bit masks over the four properties pick the requested set and
        // the weighted one independently.
        let subset = |mask: usize| -> Vec<PropertyId> {
            props.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1).map(|(_, &p)| p).collect()
        };
        let properties = {
            let mut p = subset(requested);
            p.sort();
            p
        };
        let preferences = Preferences::uniform(subset(weighted));
        let (expected, bounds) = reference_rank(&m, bands, &candidates, &properties, &preferences);
        let local = LocalRank { bands };
        let mut scratch = LocalScratch::new();
        // A scratch that ranked another table first.
        local.rank_with(&m, &candidates[..n / 2], &props, &Preferences::default(), &mut scratch);
        let levels = local.rank_with(&m, &candidates, &properties, &preferences, &mut scratch);
        prop_assert_eq!(rows(&levels), expected.clone());
        prop_assert_eq!(levels.level_count(), expected.last().map_or(0, |r| r.1 + 1));
        for &p in &properties {
            let want = bounds.iter().find(|b| b.0 == p).map(|b| (b.1.to_bits(), b.2.to_bits()));
            prop_assert_eq!(levels.bound(p).map(|(lo, hi)| (lo.to_bits(), hi.to_bits())), want);
        }
        // The table a compose builds: rows written as discovery hands
        // them over, under a layout naming all four properties.
        let (table, columns) = rows_and_columns(&candidates, &props);
        // NaN values make whole tables unequal to themselves: compare rows.
        let owned = local.rank_table(&m, table, columns, &properties, &preferences, &mut scratch);
        prop_assert_eq!(rows(&owned), expected);
    }

    /// Offers that also advertise properties the request does not name
    /// rank as the same offers stripped of them, and as the comparator
    /// reference: the same order, levels, classes, utility bits and
    /// bounds. The table keeps a column per requested property only.
    #[test]
    fn unrequested_properties_leave_the_ranking_unchanged(
        n in 1usize..120,
        seed in any::<u64>(),
        bands in 0usize..=8,
        requested in 1usize..15,
        weighted in 0usize..16,
    ) {
        let m = model();
        let (candidates, props) = table(&m, n, seed);
        let subset = |mask: usize| -> Vec<PropertyId> {
            props.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1).map(|(_, &p)| p).collect()
        };
        // At least one of the four properties is left unrequested.
        let properties = {
            let mut p = subset(requested);
            p.sort();
            p
        };
        let preferences = Preferences::uniform(subset(weighted & requested));
        let stripped: Vec<ServiceCandidate> = candidates
            .iter()
            .map(|c| {
                let named = c.qos().iter().filter(|(p, _)| properties.contains(p)).collect();
                ServiceCandidate::new(c.id(), named)
            })
            .collect();
        let local = LocalRank { bands };
        let offered = local.rank(&m, &candidates, &properties, &preferences);
        let bare = local.rank(&m, &stripped, &properties, &preferences);
        let (expected, bounds) = reference_rank(&m, bands, &candidates, &properties, &preferences);
        prop_assert_eq!(offered.columns().properties(), &properties[..]);
        prop_assert_eq!(rows(&offered), rows(&bare));
        prop_assert_eq!(rows(&offered), expected.clone());
        prop_assert_eq!(offered.level_count(), bare.level_count());
        prop_assert_eq!(offered.level_count(), expected.last().map_or(0, |r| r.1 + 1));
        for &p in &props {
            let bits = |b: Option<(f64, f64)>| b.map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
            let want = bounds.iter().find(|b| b.0 == p).map(|b| (b.1.to_bits(), b.2.to_bits()));
            prop_assert_eq!(bits(offered.bound(p)), bits(bare.bound(p)));
            prop_assert_eq!(bits(offered.bound(p)), want);
        }
    }

    /// Merging keeps repeated ids (digests of two providers) in arrival
    /// order. The right-hand digest ranks the same ids, its rows marked
    /// by a property nothing ranks or weighs; on even seeds its values
    /// also move one row along, so equal ids meet with other ranks as
    /// well as with equal ones.
    #[test]
    fn merge_keeps_repeated_ids_in_arrival_order(n in 1usize..60, seed in any::<u64>()) {
        let m = model();
        let marker = m.property("EnergyCost").expect("standard property");
        let (candidates, props) = table(&m, n, seed);
        let rank = |cands: &[ServiceCandidate], layout: &[PropertyId]| {
            let (table, columns) = rows_and_columns(cands, layout);
            LocalRank::default().rank_table(
                &m,
                table,
                columns,
                &props,
                &Preferences::default(),
                &mut LocalScratch::new(),
            )
        };
        let marked_layout: Vec<PropertyId> = props.iter().copied().chain([marker]).collect();
        let marked: Vec<ServiceCandidate> = candidates
            .iter()
            .zip(candidates.iter().cycle().skip(1))
            .map(|(c, next)| {
                let mut qos = if seed.is_multiple_of(2) { next.qos() } else { c.qos() }.clone();
                qos.set(marker, 1.0);
                ServiceCandidate::new(c.id(), qos)
            })
            .collect();
        let tagged = |levels: &QosLevels| -> Vec<(Row, bool)> {
            rows(levels)
                .into_iter()
                .zip(levels.best_first().iter().map(|r| levels.value(r, marker).is_some()))
                .collect()
        };
        let mut merged = rank(&candidates, &props);
        let right = rank(&marked, &marked_layout);
        let mut arrived = tagged(&merged);
        arrived.extend(tagged(&right));
        merged.merge(right);
        // A stable sort of the arrival order by the best-first key.
        arrived.sort_by(|(a, _), (b, _)| {
            a.1.cmp(&b.1)
                .then(a.2.cmp(&b.2))
                .then(f64::from_bits(b.3).total_cmp(&f64::from_bits(a.3)))
                .then(a.0.cmp(&b.0))
        });
        prop_assert_eq!(tagged(&merged), arrived);
        prop_assert_eq!(merged.total(), 2 * n);
    }
}

/// The sizes the serving workloads rank, 1 000 to 3 100 rows an
/// activity, where the proptests above draw a few hundred at most.
const SERVING_SIZES: [usize; 8] = [1_000, 3_100, 1_250, 2_800, 1_600, 3_120, 2_000, 2_400];

/// K-means at serving size equals the two-pass reference on every
/// column shape, signed zeros (shape 2) included, which pins how equal
/// values of different bits collapse to one distinct value.
#[test]
fn fused_kmeans_matches_the_two_pass_reference_at_serving_size() {
    let mut scratch = KmeansScratch::new();
    for (shape, &n) in SERVING_SIZES.iter().enumerate() {
        for (k, max_iters) in [(4, 50), (1 + shape, 3)] {
            let values = column(shape, n, 0x5EED ^ shape as u64);
            let (labels, centroids) = reference_kmeans(&values, k, max_iters);
            let kc = kmeans_1d_with(&values, k, max_iters, &mut scratch);
            assert_eq!(kc, centroids.len(), "shape {shape}, n {n}, k {k}");
            let read: Vec<usize> = scratch.assignments().iter().map(|&l| l.into()).collect();
            assert_eq!(read, labels, "shape {shape}, n {n}, k {k}");
            let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(scratch.centroids()), bits(&centroids));
        }
    }
}

/// A serving-size table: on even cases every row holds a finite value
/// of each of the four properties, one column shape each (the columns
/// are clustered where they lie); on odd cases the rows of [`table`]
/// (missing and non-finite values, gathered first).
fn serving_table(model: &QosModel, case: usize) -> (Vec<ServiceCandidate>, Vec<PropertyId>) {
    let n = SERVING_SIZES[case];
    let seed = 0xC0FF_EE00 + case as u64;
    let (candidates, props) = table(model, n, seed);
    if case % 2 == 1 {
        return (candidates, props);
    }
    let columns: Vec<Vec<f64>> = (0..props.len())
        .map(|j| column((case + 2 * j) % 8, n, seed + j as u64))
        .collect();
    let candidates = candidates
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let qos = props
                .iter()
                .zip(&columns)
                .map(|(&p, col)| (p, col[i]))
                .collect();
            ServiceCandidate::new(c.id(), qos)
        })
        .collect();
    (candidates, props)
}

/// Ranking at serving size equals the comparator reference row for row,
/// utility bits included, with the same bounds.
#[test]
fn in_place_ranking_matches_the_comparator_reference_at_serving_size() {
    let m = model();
    let mut scratch = LocalScratch::new();
    for case in 0..SERVING_SIZES.len() {
        let (candidates, props) = serving_table(&m, case);
        // The request names three properties, or all four; the weights
        // fall on one outside them, on none, or on two inside.
        let properties: Vec<PropertyId> = props.iter().copied().skip(case % 2).collect();
        let preferences = match case % 3 {
            0 => Preferences::uniform([props[0], props[2]]),
            1 => Preferences::default(),
            _ => Preferences::from_weights([(props[1], 2.0), (props[3], 1.0)]),
        };
        let bands = [4, 1, 8, 3][case % 4];
        let (expected, bounds) = reference_rank(&m, bands, &candidates, &properties, &preferences);
        let (rows_in, columns) = rows_and_columns(&candidates, &props);
        let levels = LocalRank { bands }.rank_table(
            &m,
            rows_in,
            columns,
            &properties,
            &preferences,
            &mut scratch,
        );
        assert_eq!(rows(&levels), expected, "case {case}");
        assert_eq!(levels.level_count(), expected.last().map_or(0, |r| r.1 + 1));
        for &p in &properties {
            let want = bounds
                .iter()
                .find(|b| b.0 == p)
                .map(|b| (b.1.to_bits(), b.2.to_bits()));
            let got = levels.bound(p).map(|(lo, hi)| (lo.to_bits(), hi.to_bits()));
            assert_eq!(got, want, "case {case}");
        }
    }
}

/// Merging two serving-size tables whose ids repeat (each side was
/// registered afresh) is a stable sort of both sides' reference rows.
#[test]
fn merging_serving_size_tables_is_a_stable_sort_of_both() {
    let m = model();
    let (left, props) = serving_table(&m, 0);
    let (right, _) = serving_table(&m, 3);
    let preferences = Preferences::default();
    let rank =
        |cands: &[ServiceCandidate]| LocalRank::default().rank(&m, cands, &props, &preferences);
    let mut merged = rank(&left);
    merged.merge(rank(&right));
    let (mut expected, _) = reference_rank(&m, 4, &left, &props, &preferences);
    expected.extend(reference_rank(&m, 4, &right, &props, &preferences).0);
    expected.sort_by(|a, b| {
        a.1.cmp(&b.1)
            .then(a.2.cmp(&b.2))
            .then(f64::from_bits(b.3).total_cmp(&f64::from_bits(a.3)))
            .then(a.0.cmp(&b.0))
    });
    assert_eq!(merged.total(), left.len() + right.len());
    assert_eq!(rows(&merged), expected);
    assert_eq!(merged.level_count(), expected.last().map_or(0, |r| r.1 + 1));
}
