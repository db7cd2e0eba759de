//! Baseline selectors: the exact optimum (for optimality measurements)
//! and the cheap heuristics QASSA is compared against.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qasom_qos::utility::utility;
use qasom_qos::{Normalizer, QosModel};

use crate::global::CompositionScorer;
use crate::{SelectionError, SelectionOutcome, SelectionProblem, ServiceCandidate};

/// Errors specific to baseline selectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineError {
    /// The problem is structurally invalid.
    Selection(SelectionError),
    /// The exhaustive search space exceeds the cap.
    TooLarge {
        /// Number of compositions the problem spans.
        combinations: u128,
        /// The cap (2 × 10⁶ compositions).
        cap: u128,
    },
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::Selection(e) => write!(f, "{e}"),
            BaselineError::TooLarge { combinations, cap } => write!(
                f,
                "exhaustive search over {combinations} compositions exceeds the cap of {cap}"
            ),
        }
    }
}

impl std::error::Error for BaselineError {}

impl From<SelectionError> for BaselineError {
    fn from(e: SelectionError) -> Self {
        BaselineError::Selection(e)
    }
}

/// The most compositions [`Baselines::exhaustive`] enumerates: a safety
/// bound, far above every evaluation space (the largest is 15⁴).
const MAX_COMBINATIONS: u128 = 2_000_000;

// Parameters of the genetic baseline.
/// Population size.
const GA_POPULATION: usize = 50;
/// Number of generations.
const GA_GENERATIONS: usize = 100;
/// Per-gene mutation probability.
const GA_MUTATION_RATE: f64 = 0.05;
/// Probability of crossing two parents (vs. cloning one).
const GA_CROSSOVER_RATE: f64 = 0.8;
/// Number of elites copied unchanged each generation.
const GA_ELITE: usize = 2;
/// RNG seed: the GA is deterministic.
const GA_SEED: u64 = 0;

/// Baseline selectors sharing QASSA's scoring (aggregation +
/// composition utility), so utilities are directly comparable.
#[derive(Debug, Clone, Copy)]
pub struct Baselines<'a> {
    model: &'a qasom_qos::QosModel,
}

impl<'a> Baselines<'a> {
    /// Creates the baselines over a QoS model.
    pub fn new(model: &'a qasom_qos::QosModel) -> Self {
        Baselines { model }
    }

    /// **Exact optimum**: enumerates every composition, returning the
    /// feasible one with the highest utility (`feasible = false` with the
    /// least-violating composition, by [`qasom_qos::ConstraintSet::miss`],
    /// when none exists). NP-hard by nature — this is the optimality
    /// yardstick of the evaluation, not a production selector.
    ///
    /// # Errors
    ///
    /// Fails on malformed problems or when the search space exceeds
    /// 2 × 10⁶ compositions.
    pub fn exhaustive(
        &self,
        problem: &SelectionProblem<'_>,
    ) -> Result<SelectionOutcome, BaselineError> {
        problem.validate()?;
        let candidates = problem.candidates();
        let combinations: u128 = candidates.iter().map(|c| c.len() as u128).product();
        if combinations > MAX_COMBINATIONS {
            return Err(BaselineError::TooLarge {
                combinations,
                cap: MAX_COMBINATIONS,
            });
        }
        // The problem's own matrix, not a ranking: the yardstick stays
        // independent of the selector it judges.
        let scorer = scorer(self.model, problem);
        let sizes: Vec<usize> = candidates.iter().map(Vec::len).collect();
        let (indices, _) = scorer.exact(&sizes, |i, j, p| candidates[i][j].qos().get(p));
        let assignment: Vec<ServiceCandidate> = indices
            .iter()
            .enumerate()
            .map(|(i, &j)| candidates[i][j].clone())
            .collect();
        Ok(outcome(problem, &scorer, assignment))
    }

    /// **Greedy / local-only** baseline: picks the highest-utility
    /// candidate of each activity independently (no global view), then
    /// reports whether the result happens to satisfy the constraints.
    ///
    /// # Errors
    ///
    /// Fails on malformed problems.
    pub fn greedy(
        &self,
        problem: &SelectionProblem<'_>,
    ) -> Result<SelectionOutcome, BaselineError> {
        problem.validate()?;
        let properties = problem.properties();
        let prefs = SelectionProblem::effective_preferences(problem.preferences(), &properties);
        let assignment: Vec<ServiceCandidate> = problem
            .candidates()
            .iter()
            .enumerate()
            .map(|(activity, cands)| {
                let normalizer = Normalizer::fit(self.model, cands.iter().map(|c| c.qos()));
                cands
                    .iter()
                    .max_by(|a, b| {
                        utility(a.qos(), &normalizer, &prefs).total_cmp(&utility(
                            b.qos(),
                            &normalizer,
                            &prefs,
                        ))
                    })
                    .cloned()
                    .ok_or(BaselineError::Selection(SelectionError::NoCandidates {
                        activity,
                    }))
            })
            .collect::<Result<_, _>>()?;
        Ok(self.outcome_of(problem, assignment))
    }

    /// **Random** baseline: a uniformly random composition (seeded).
    ///
    /// # Errors
    ///
    /// Fails on malformed problems.
    pub fn random(
        &self,
        problem: &SelectionProblem<'_>,
        seed: u64,
    ) -> Result<SelectionOutcome, BaselineError> {
        problem.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let assignment: Vec<ServiceCandidate> = problem
            .candidates()
            .iter()
            .map(|cands| cands[rng.gen_range(0..cands.len())].clone())
            .collect();
        Ok(self.outcome_of(problem, assignment))
    }

    /// **Decomposed-constraints** baseline (the "local selection under
    /// local constraints" strategy of the related work): each global
    /// bound is split into a per-activity bound — `U/n` for additive
    /// properties, `U^(1/n)` for multiplicative ones, `U` for min/max/
    /// average — and every activity then independently picks its
    /// best-utility candidate among those meeting all local bounds.
    /// Linear-time, but the decomposition is conservative: it can reject
    /// mixes a global view accepts (and the uniform split ignores the
    /// task's actual pattern structure).
    ///
    /// # Errors
    ///
    /// Fails on malformed problems.
    pub fn decomposed(
        &self,
        problem: &SelectionProblem<'_>,
    ) -> Result<SelectionOutcome, BaselineError> {
        problem.validate()?;
        let n = problem.candidates().len() as f64;
        let local_bounds: Vec<qasom_qos::Constraint> = problem
            .constraints()
            .iter()
            .map(|c| {
                let op = self.model.def(c.property()).aggregation();
                let bound = match op {
                    qasom_qos::AggregationOp::Sum => c.bound() / n,
                    qasom_qos::AggregationOp::Product => {
                        if c.bound() > 0.0 {
                            c.bound().powf(1.0 / n)
                        } else {
                            c.bound()
                        }
                    }
                    _ => c.bound(),
                };
                qasom_qos::Constraint::new(c.property(), c.tendency(), bound)
            })
            .collect();

        let properties = problem.properties();
        let prefs = SelectionProblem::effective_preferences(problem.preferences(), &properties);
        let assignment: Vec<ServiceCandidate> = problem
            .candidates()
            .iter()
            .enumerate()
            .map(|(activity, cands)| {
                let normalizer = Normalizer::fit(self.model, cands.iter().map(|c| c.qos()));
                let best_of = |pool: &mut dyn Iterator<Item = &ServiceCandidate>| {
                    pool.max_by(|a, b| {
                        utility(a.qos(), &normalizer, &prefs).total_cmp(&utility(
                            b.qos(),
                            &normalizer,
                            &prefs,
                        ))
                    })
                    .cloned()
                };
                let mut locally_ok = cands
                    .iter()
                    .filter(|c| local_bounds.iter().all(|b| b.satisfied_by(c.qos())));
                best_of(&mut locally_ok)
                    .or_else(|| best_of(&mut cands.iter()))
                    .ok_or(BaselineError::Selection(SelectionError::NoCandidates {
                        activity,
                    }))
            })
            .collect::<Result<_, _>>()?;
        Ok(self.outcome_of(problem, assignment))
    }

    /// **Genetic algorithm** baseline, after the GA-based selection
    /// approaches QASSA is positioned against: integer chromosomes (one
    /// gene per activity), tournament selection, single-point crossover,
    /// random-reset mutation, elitism, and a fitness of
    /// `utility − penalty(relative constraint violations)`. Population
    /// 50, 100 generations, elitism 2, crossover 0.8, mutation 0.05, one
    /// fixed seed: the GA is deterministic.
    ///
    /// # Errors
    ///
    /// Fails on malformed problems.
    pub fn genetic(
        &self,
        problem: &SelectionProblem<'_>,
    ) -> Result<SelectionOutcome, BaselineError> {
        problem.validate()?;
        let mut rng = StdRng::seed_from_u64(GA_SEED);
        let n = problem.candidates().len();
        let sizes: Vec<usize> = problem.candidates().iter().map(Vec::len).collect();

        let random_chromosome = |rng: &mut StdRng| -> Vec<usize> {
            sizes.iter().map(|&s| rng.gen_range(0..s)).collect()
        };
        let scorer = scorer(self.model, problem);
        let fitness = |c: &[usize]| -> f64 {
            let (aggregated, u) = scorer.score(|i, p| problem.candidates()[i][c[i]].qos().get(p));
            let penalty: f64 = problem
                .constraints()
                .violations(&aggregated)
                .map(|v| v.shortfall(&aggregated).map_or(2.0, |s| s + 1.0))
                .sum();
            u - penalty
        };

        let mut population: Vec<(f64, Vec<usize>)> = (0..GA_POPULATION)
            .map(|_| {
                let c = random_chromosome(&mut rng);
                (fitness(&c), c)
            })
            .collect();

        for _ in 0..GA_GENERATIONS {
            population.sort_by(|a, b| b.0.total_cmp(&a.0));
            let mut next: Vec<(f64, Vec<usize>)> = population[..GA_ELITE].to_vec();
            while next.len() < population.len() {
                // Tournament selection of two parents.
                let pick = |rng: &mut StdRng| -> &Vec<usize> {
                    let a = rng.gen_range(0..population.len());
                    let b = rng.gen_range(0..population.len());
                    if population[a].0 >= population[b].0 {
                        &population[a].1
                    } else {
                        &population[b].1
                    }
                };
                let pa = pick(&mut rng).clone();
                let pb = pick(&mut rng).clone();
                // Single-point crossover.
                let mut child = if n > 1 && rng.gen::<f64>() < GA_CROSSOVER_RATE {
                    let cut = rng.gen_range(1..n);
                    let mut c = pa[..cut].to_vec();
                    c.extend_from_slice(&pb[cut..]);
                    c
                } else {
                    pa
                };
                // Random-reset mutation.
                for (i, gene) in child.iter_mut().enumerate() {
                    if rng.gen::<f64>() < GA_MUTATION_RATE {
                        *gene = rng.gen_range(0..sizes[i]);
                    }
                }
                next.push((fitness(&child), child));
            }
            population = next;
        }
        population.sort_by(|a, b| b.0.total_cmp(&a.0));
        // `GA_POPULATION` keeps the population non-empty; the typed
        // escape replaces a panic all the same.
        let Some(best) = population.into_iter().next() else {
            return Err(BaselineError::Selection(SelectionError::NoCandidates {
                activity: 0,
            }));
        };
        let assignment: Vec<ServiceCandidate> = best
            .1
            .iter()
            .enumerate()
            .map(|(i, &j)| problem.candidates()[i][j].clone())
            .collect();
        Ok(outcome(problem, &scorer, assignment))
    }

    fn outcome_of(
        &self,
        problem: &SelectionProblem<'_>,
        assignment: Vec<ServiceCandidate>,
    ) -> SelectionOutcome {
        outcome(problem, &scorer(self.model, problem), assignment)
    }
}

/// The scorer of `problem` fitted over its candidate matrix: per
/// activity, the same finite bounds `QosLevels::bound` holds.
pub(crate) fn scorer<'s>(
    model: &'s QosModel,
    problem: &'s SelectionProblem<'_>,
) -> CompositionScorer<'s> {
    let fitted: Vec<Normalizer> = problem
        .candidates()
        .iter()
        .map(|cands| Normalizer::fit(model, cands.iter().map(ServiceCandidate::qos)))
        .collect();
    CompositionScorer::new(model, problem, |i, p| fitted[i].bounds(p))
}

/// A baseline's composition, scored as QASSA scores its own.
fn outcome(
    problem: &SelectionProblem<'_>,
    scorer: &CompositionScorer<'_>,
    assignment: Vec<ServiceCandidate>,
) -> SelectionOutcome {
    let (aggregated, utility) = scorer.score(|i, p| assignment[i].qos().get(p));
    let feasible = problem.constraints().satisfied_by(&aggregated);
    SelectionOutcome {
        assignment,
        aggregated,
        utility,
        feasible,
        levels_explored: 0,
        levels: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Tightness, WorkloadSpec};
    use crate::Qassa;
    use qasom_obs::{keys, MemoryRecorder, Recorder};

    fn small_workload(seed: u64) -> (QosModel, crate::workload::Workload) {
        let m = QosModel::standard();
        let w = WorkloadSpec::evaluation_default()
            .activities(3)
            .services_per_activity(6)
            .build(&m, seed);
        (m, w)
    }

    #[test]
    fn exhaustive_dominates_every_other_selector() {
        for seed in 0..5 {
            let (m, w) = small_workload(seed);
            let problem = w.problem();
            let b = Baselines::new(&m);
            let exact = b.exhaustive(&problem).unwrap();
            let qassa = Qassa::new(&m).select(&problem).unwrap();
            let greedy = b.greedy(&problem).unwrap();
            if exact.feasible {
                assert!(
                    exact.utility >= qassa.utility - 1e-9,
                    "seed {seed}: exact {} < qassa {}",
                    exact.utility,
                    qassa.utility
                );
                if greedy.feasible {
                    assert!(exact.utility >= greedy.utility - 1e-9);
                }
            }
        }
    }

    /// QASSA is feasible wherever the optimum is, and where its exact
    /// fallback ran on a feasible problem it returns that optimum, not
    /// just some feasible composition.
    #[test]
    fn qassa_feasible_whenever_exhaustive_is() {
        let mut optimal_fallbacks = 0;
        for (tightness, seeds) in [
            (Tightness::AtMeanPlusSigma, 0..8),
            (Tightness::AtMean, 0..32),
        ] {
            for seed in seeds {
                let m = QosModel::standard();
                let w = WorkloadSpec::evaluation_default()
                    .activities(3)
                    .services_per_activity(6)
                    .tightness(tightness)
                    .build(&m, seed);
                let problem = w.problem();
                let exact = Baselines::new(&m).exhaustive(&problem).unwrap();
                let rec = MemoryRecorder::new();
                let qassa = Qassa::new(&m).with_recorder(&rec).select(&problem).unwrap();
                if !exact.feasible {
                    continue;
                }
                assert!(
                    qassa.feasible,
                    "{tightness:?} seed {seed}: QASSA missed a feasible mix"
                );
                let snap = rec.snapshot().expect("memory recorder snapshots");
                if snap.counter(keys::SELECTION_EXACT_FALLBACKS) == 1 {
                    assert_eq!(
                        qassa.utility.to_bits(),
                        exact.utility.to_bits(),
                        "{tightness:?} seed {seed}: the fallback missed the optimum"
                    );
                    optimal_fallbacks += 1;
                }
            }
        }
        assert!(
            optimal_fallbacks >= 1,
            "no feasible problem ran the fallback"
        );
    }

    #[test]
    fn exhaustive_respects_the_cap() {
        // 100 candidates for each of 5 activities: 10¹⁰ compositions.
        let m = QosModel::standard();
        let w = WorkloadSpec::evaluation_default().build(&m, 1);
        let err = Baselines::new(&m).exhaustive(&w.problem()).unwrap_err();
        assert_eq!(
            err,
            BaselineError::TooLarge {
                combinations: 10_000_000_000,
                cap: MAX_COMBINATIONS,
            }
        );
    }

    /// Where QASSA's exact fallback runs, it returns the exhaustive
    /// search's answer, an infeasible one included: the scarce regime of
    /// the comparison (5 × 8 services, bounds a quarter sigma below the
    /// mean) is infeasible on most seeds.
    #[test]
    fn infeasible_problems_return_least_violating() {
        let m = QosModel::standard();
        let mut infeasible_fallbacks = 0;
        for seed in 0..10 {
            let w = WorkloadSpec::evaluation_default()
                .services_per_activity(8)
                .tightness(Tightness::LooserBySigmas(-0.25))
                .build(&m, seed);
            let problem = w.problem();
            let exact = Baselines::new(&m).exhaustive(&problem).unwrap();
            let rec = MemoryRecorder::new();
            let qassa = Qassa::new(&m).with_recorder(&rec).select(&problem).unwrap();
            let snap = rec.snapshot().expect("memory recorder snapshots");
            if snap.counter(keys::SELECTION_EXACT_FALLBACKS) == 0 {
                continue;
            }
            let ids =
                |o: &SelectionOutcome| o.assignment.iter().map(|c| c.id()).collect::<Vec<_>>();
            let miss = |o: &SelectionOutcome| problem.constraints().miss(&o.aggregated);
            assert_eq!(ids(&qassa), ids(&exact), "seed {seed}");
            assert_eq!(qassa.feasible, exact.feasible, "seed {seed}");
            assert_eq!(miss(&qassa), miss(&exact), "seed {seed}");
            infeasible_fallbacks += usize::from(!exact.feasible);
        }
        assert!(
            infeasible_fallbacks >= 1,
            "no infeasible problem ran the fallback"
        );
    }

    #[test]
    fn decomposed_meets_easy_global_bounds() {
        let (m, w) = small_workload(9);
        let problem = w.problem();
        let out = Baselines::new(&m).decomposed(&problem).unwrap();
        assert_eq!(out.assignment.len(), 3);
        // Per-activity bounds satisfied per activity imply the global
        // aggregate for Sum/Product/Min/Max properties on a sequential
        // task, so when every activity found a locally-ok candidate the
        // composition must be feasible.
        let locally_covered = problem.candidates().iter().all(|cands| {
            cands.iter().any(|c| {
                problem.constraints().iter().all(|g| {
                    // Re-derive the local bound the baseline used.
                    let op = m.def(g.property()).aggregation();
                    let n = problem.candidates().len() as f64;
                    let bound = match op {
                        qasom_qos::AggregationOp::Sum => g.bound() / n,
                        qasom_qos::AggregationOp::Product => g.bound().powf(1.0 / n),
                        _ => g.bound(),
                    };
                    qasom_qos::Constraint::new(g.property(), g.tendency(), bound)
                        .satisfied_by(c.qos())
                })
            })
        });
        if locally_covered {
            assert!(out.feasible);
        }
    }

    #[test]
    fn decomposed_is_conservative_where_global_view_wins() {
        // One activity overshoots its decomposed budget while another has
        // slack: the decomposition fails, QASSA succeeds.
        let m = QosModel::standard();
        let rt = m.property("ResponseTime").unwrap();
        let mk = |vals: &[f64]| -> Vec<crate::ServiceCandidate> {
            let mut reg = qasom_registry::ServiceRegistry::new();
            vals.iter()
                .map(|&v| {
                    let id = reg.register(qasom_registry::ServiceDescription::new("s", "x#F"));
                    let mut q = qasom_qos::QosVector::new();
                    q.set(rt, v);
                    crate::ServiceCandidate::new(id, q)
                })
                .collect()
        };
        let task = qasom_task::UserTask::new(
            "t",
            qasom_task::TaskNode::sequence([
                qasom_task::TaskNode::activity(qasom_task::Activity::new("a", "x#F")),
                qasom_task::TaskNode::activity(qasom_task::Activity::new("b", "x#F")),
            ]),
        )
        .unwrap();
        // Global bound 200; decomposed per-activity bound 100. Activity a
        // only offers 150 (over budget), activity b offers 40 (slack).
        let problem = crate::SelectionProblem::new(&task)
            .with_candidates(vec![mk(&[150.0]), mk(&[40.0])])
            .with_constraints(
                [qasom_qos::Constraint::new(
                    rt,
                    qasom_qos::Tendency::LowerBetter,
                    200.0,
                )]
                .into_iter()
                .collect(),
            );
        let b = Baselines::new(&m);
        // The decomposition has no locally-ok candidate for activity a,
        // falls back to the best available — which happens to be globally
        // fine here, but the *local* check failed, illustrating the
        // conservatism; QASSA reasons globally from the start.
        let qassa = Qassa::new(&m).select(&problem).unwrap();
        assert!(qassa.feasible);
        let dec = b.decomposed(&problem).unwrap();
        assert!(dec.feasible); // the fallback saved it on this instance
    }

    #[test]
    fn genetic_is_deterministic_and_valid() {
        let (m, w) = small_workload(6);
        let problem = w.problem();
        let b = Baselines::new(&m);
        let a = b.genetic(&problem).unwrap();
        let c = b.genetic(&problem).unwrap();
        assert_eq!(a.assignment, c.assignment);
        assert_eq!(a.assignment.len(), 3);
        assert!((0.0..=1.0).contains(&a.utility));
        // Feasibility flag is consistent with the aggregate.
        assert_eq!(
            a.feasible,
            problem.constraints().satisfied_by(&a.aggregated)
        );
    }

    #[test]
    fn genetic_approaches_the_exact_optimum() {
        let (m, w) = small_workload(7);
        let problem = w.problem();
        let b = Baselines::new(&m);
        let exact = b.exhaustive(&problem).unwrap();
        let ga = b.genetic(&problem).unwrap();
        if exact.feasible {
            assert!(ga.utility <= exact.utility + 1e-9);
            // On a 6^3 space a decent GA should land close.
            assert!(
                ga.utility >= 0.6 * exact.utility,
                "GA {} vs exact {}",
                ga.utility,
                exact.utility
            );
        }
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let (m, w) = small_workload(2);
        let problem = w.problem();
        let b = Baselines::new(&m);
        let r1 = b.random(&problem, 11).unwrap();
        let r2 = b.random(&problem, 11).unwrap();
        assert_eq!(r1.assignment, r2.assignment);
    }

    #[test]
    fn greedy_picks_per_activity_best() {
        let (m, w) = small_workload(4);
        let problem = w.problem();
        let greedy = Baselines::new(&m).greedy(&problem).unwrap();
        assert_eq!(greedy.assignment.len(), 3);
        // Each pick maximises its own activity's local utility, so the
        // utility of a random composition can't beat greedy's *local*
        // choice on average — sanity-check against one random draw.
        let rand = Baselines::new(&m).random(&problem, 5).unwrap();
        let _ = rand; // utilities are composition-level; no strict relation
    }
}
