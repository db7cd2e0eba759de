//! QASSA phase 2 — global selection under global QoS constraints.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use qasom_obs::{keys, Recorder};
use qasom_qos::utility::utility;
use qasom_qos::{
    ConstraintSet, Normalizer, Preferences, PropertyId, QosModel, QosVector, Tendency,
};
use qasom_task::UserTask;

use crate::{Aggregator, LocalRank, LocalScratch, QosLevels, SelectionProblem, ServiceCandidate};

/// When the level-wise search finds no feasible composition and the full
/// candidate space spans at most this many compositions, QASSA falls back
/// to an exact scan: small problems become complete while the heuristic's
/// bounded cost at scale is preserved.
const EXACT_FALLBACK_CAP: u128 = 50_000;

/// Configuration of the QASSA selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QassaConfig {
    /// Local-selection (clustering) parameters.
    pub local: LocalRank,
    /// Repair-swap budget per explored level.
    pub max_repairs_per_level: usize,
}

impl Default for QassaConfig {
    fn default() -> Self {
        QassaConfig {
            local: LocalRank::default(),
            max_repairs_per_level: 64,
        }
    }
}

/// Structural errors of a selection problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectionError {
    /// An activity has no candidate service at all (discovery failed).
    NoCandidates {
        /// DFS index of the uncovered activity.
        activity: usize,
    },
    /// The candidate matrix does not line up with the task's activities.
    ArityMismatch {
        /// Number of activities in the task.
        expected: usize,
        /// Number of candidate sets provided.
        found: usize,
    },
    /// A distributed run was cut short: the simulator exhausted its event
    /// cap before the protocol completed, so no outcome was produced.
    ProtocolAborted {
        /// Events the simulator processed before giving up.
        processed_events: u64,
    },
}

impl fmt::Display for SelectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectionError::NoCandidates { activity } => {
                write!(f, "activity #{activity} has no candidate service")
            }
            SelectionError::ArityMismatch { expected, found } => write!(
                f,
                "expected {expected} candidate sets (one per activity), found {found}"
            ),
            SelectionError::ProtocolAborted { processed_events } => write!(
                f,
                "distributed protocol aborted: simulation event cap exhausted \
                 after {processed_events} events"
            ),
        }
    }
}

impl std::error::Error for SelectionError {}

/// Result of a QASSA run.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionOutcome {
    /// The selected service per activity (DFS order). When the problem's
    /// candidate matrix holds candidates ([`Qassa::select`],
    /// [`Qassa::select_parallel`]), each is that matrix's entry, with
    /// everything it advertises. When it holds none (compose,
    /// distributed QASSA), each holds the values its hierarchy was
    /// ranked on only ([`QosLevels::candidate`]); compose completes its
    /// winners itself.
    pub assignment: Vec<ServiceCandidate>,
    /// Aggregated QoS of the selected composition (`QoS_{C_v}`).
    pub aggregated: QosVector,
    /// SAW utility of the composition (`F_{C_v}`), in `[0, 1]`.
    pub utility: f64,
    /// Whether every global constraint is satisfied.
    pub feasible: bool,
    /// Number of QoS levels the search had to open.
    pub levels_explored: usize,
    /// The local-phase hierarchies the global phase ran over, one per
    /// activity: the ranked alternates dynamic binding and substitution
    /// read ([`SelectionOutcome::alternates`]), behind `Arc`s so a
    /// composition clones them at pointer cost. Every QASSA outcome
    /// carries them; only the baselines, which rank nothing, leave this
    /// empty.
    pub levels: Vec<Arc<QosLevels>>,
}

impl SelectionOutcome {
    /// The candidates of one activity, best-first — the alternates kept
    /// for dynamic binding and service substitution — each with the
    /// values it was ranked on ([`QosLevels::candidate`]). Nothing for
    /// an activity the outcome has no hierarchy for.
    pub fn alternates(&self, activity: usize) -> impl Iterator<Item = ServiceCandidate> + '_ {
        self.levels
            .get(activity)
            .into_iter()
            .flat_map(|l| l.best_first().iter().map(|row| l.candidate(row)))
    }
}

/// The QASSA selector: clustering-based local selection + level-wise
/// global selection.
///
/// # Examples
///
/// ```
/// use qasom_qos::QosModel;
/// use qasom_selection::workload::WorkloadSpec;
/// use qasom_selection::Qassa;
///
/// let model = QosModel::standard();
/// let w = WorkloadSpec::evaluation_default().build(&model, 7);
/// let outcome = Qassa::new(&model).select(&w.problem()).unwrap();
/// assert!(outcome.utility >= 0.0 && outcome.utility <= 1.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Qassa<'a> {
    model: &'a qasom_qos::QosModel,
    config: QassaConfig,
    recorder: Option<&'a dyn Recorder>,
}

/// The one place a composition of one problem is scored: aggregated,
/// checked against the global constraints and given its SAW utility,
/// for QASSA's global phase and the baselines alike. Each caller reads
/// the values of its own source through a closure: the global phase its
/// ranked tables, a baseline the problem's candidate matrix.
#[derive(Debug, Clone)]
pub(crate) struct CompositionScorer<'s> {
    task: &'s UserTask,
    constraints: &'s ConstraintSet,
    aggregator: Aggregator<'s>,
    properties: Vec<PropertyId>,
    normalizer: Normalizer,
    preferences: Cow<'s, Preferences>,
}

impl<'s> CompositionScorer<'s> {
    /// Fits the scorer of `problem` once. `bound(i, p)` is activity
    /// `i`'s raw `(min, max)` over the finite values of `p`; the
    /// per-activity best and worst values are aggregated into the
    /// composition-level normalisation bounds (aggregation is monotone
    /// per argument, so these are true bounds of the composition space),
    /// so an unreachable host's infinite perceived response time can
    /// neither stretch the range nor, once aggregated, drop out of it
    /// and collapse it to a point. `O(activities × properties)` calls of
    /// `bound`.
    pub(crate) fn new(
        model: &'s QosModel,
        problem: &'s SelectionProblem<'_>,
        bound: impl Fn(usize, PropertyId) -> Option<(f64, f64)>,
    ) -> Self {
        let task = problem.task();
        let properties = problem.properties();
        let aggregator = Aggregator::new(model, problem.approach());
        let activities = task.activity_count();
        let mut best = Vec::with_capacity(activities);
        let mut worst = Vec::with_capacity(activities);
        for i in 0..activities {
            let mut b = QosVector::new();
            let mut w = QosVector::new();
            for &p in &properties {
                if let Some((lo, hi)) = bound(i, p) {
                    let (bv, wv) = match model.tendency(p) {
                        Tendency::LowerBetter => (lo, hi),
                        Tendency::HigherBetter => (hi, lo),
                    };
                    b.set(p, bv);
                    w.set(p, wv);
                }
            }
            best.push(b);
            worst.push(w);
        }
        let mut normalizer = Normalizer::default();
        for bound in [
            aggregator.aggregate(task, &best, &properties),
            aggregator.aggregate(task, &worst, &properties),
        ] {
            for (p, v) in bound.iter() {
                normalizer.include(model, p, v);
            }
        }
        CompositionScorer {
            task,
            constraints: problem.constraints(),
            preferences: SelectionProblem::effective_preferences(
                problem.preferences(),
                &properties,
            ),
            aggregator,
            properties,
            normalizer,
        }
    }

    /// Aggregated QoS of the composition whose activity `i` (DFS order)
    /// has the values `value(i, p)`.
    pub(crate) fn aggregate(&self, value: impl Fn(usize, PropertyId) -> Option<f64>) -> QosVector {
        self.aggregator
            .aggregate_with(self.task, &self.properties, value)
    }

    /// SAW utility of an aggregated composition, in `[0, 1]`.
    pub(crate) fn utility(&self, aggregated: &QosVector) -> f64 {
        utility(aggregated, &self.normalizer, &self.preferences)
    }

    /// Aggregated QoS and utility of one composition
    /// ([`CompositionScorer::aggregate`]).
    pub(crate) fn score(
        &self,
        value: impl Fn(usize, PropertyId) -> Option<f64>,
    ) -> (QosVector, f64) {
        let aggregated = self.aggregate(value);
        let u = self.utility(&aggregated);
        (aggregated, u)
    }

    /// The exhaustive search over every composition that picks one of
    /// `sizes[i]` alternatives for activity `i`, whose values are
    /// `value(i, j, p)`: the feasible composition of highest utility,
    /// else the one of least [`ConstraintSet::miss`] and then highest
    /// utility; the first one enumerated on ties, so that only exact
    /// utility ties depend on the enumeration order. Returns its indices
    /// and whether it is feasible. One aggregation per composition; a
    /// utility only where the miss ties or beats the best so far.
    pub(crate) fn exact(
        &self,
        sizes: &[usize],
        value: impl Fn(usize, usize, PropertyId) -> Option<f64>,
    ) -> (Vec<usize>, bool) {
        let mut indices = vec![0; sizes.len()];
        // (miss, utility, indices) of the best composition so far.
        let mut best = ((usize::MAX, f64::INFINITY), f64::NEG_INFINITY, Vec::new());
        loop {
            let aggregated = self.aggregate(|i, p| value(i, indices[i], p));
            let miss = self.constraints.miss(&aggregated);
            if miss <= best.0 {
                let u = self.utility(&aggregated);
                if miss < best.0 || u > best.1 {
                    best = (miss, u, indices.clone());
                }
            }
            // Odometer: the last activity turns fastest.
            let Some(k) = (0..sizes.len()).rev().find(|&k| indices[k] + 1 < sizes[k]) else {
                return (best.2, best.0 .0 == 0);
            };
            indices[k] += 1;
            indices[k + 1..].fill(0);
        }
    }
}

/// Work counters of one global-phase run, flushed to the recorder (if
/// any) once the run finishes — instrumentation never touches the
/// search itself.
#[derive(Debug, Default, Clone, Copy)]
struct GlobalTally {
    utility_evals: u64,
    repair_swaps: u64,
    pruned: u64,
    exact_fallback: bool,
}

impl<'a> Qassa<'a> {
    /// Creates a selector with the default configuration.
    pub fn new(model: &'a qasom_qos::QosModel) -> Self {
        Qassa {
            model,
            config: QassaConfig::default(),
            recorder: None,
        }
    }

    /// Creates a selector with an explicit configuration.
    pub fn with_config(model: &'a qasom_qos::QosModel, config: QassaConfig) -> Self {
        Qassa {
            model,
            config,
            recorder: None,
        }
    }

    /// Routes per-run counters (utility evaluations, repair swaps,
    /// levels explored, exact fallbacks) through `recorder`. Observation
    /// only: outcomes are identical with or without one.
    #[must_use]
    pub fn with_recorder(mut self, recorder: &'a dyn Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &QassaConfig {
        &self.config
    }

    /// Runs only the local selection phase, returning one ranked hierarchy
    /// per activity.
    ///
    /// # Errors
    ///
    /// Fails when the candidate matrix is malformed (see
    /// [`SelectionError`]).
    pub fn local_phase(
        &self,
        problem: &SelectionProblem<'_>,
    ) -> Result<Vec<QosLevels>, SelectionError> {
        problem.validate()?;
        let properties = problem.properties();
        // One scratch arena across the whole task: every activity after
        // the first ranks into already-warm buffers.
        let mut scratch = LocalScratch::new();
        let levels: Vec<QosLevels> = problem
            .candidates()
            .iter()
            .map(|cands| {
                self.config.local.rank_with(
                    self.model,
                    cands,
                    &properties,
                    problem.preferences(),
                    &mut scratch,
                )
            })
            .collect();
        Ok(levels)
    }

    /// Like [`Qassa::local_phase`] but ranks the activities' candidate
    /// sets on parallel threads — local selection is embarrassingly
    /// parallel across activities, which is also what makes the
    /// [distributed variant](crate::distributed) work.
    ///
    /// Results are identical to [`Qassa::local_phase`]: ranking one
    /// activity reads only that activity's candidates, and the output
    /// order mirrors the input order.
    ///
    /// # Errors
    ///
    /// Fails when the candidate matrix is malformed.
    pub fn local_phase_parallel(
        &self,
        problem: &SelectionProblem<'_>,
    ) -> Result<Vec<QosLevels>, SelectionError> {
        use rayon::prelude::*;
        problem.validate()?;
        let properties = problem.properties();
        let levels: Vec<QosLevels> = problem
            .candidates()
            .par_iter()
            .map(|cands| {
                self.config
                    .local
                    .rank(self.model, cands, &properties, problem.preferences())
            })
            .collect();
        Ok(levels)
    }

    /// Runs the full algorithm.
    ///
    /// # Errors
    ///
    /// Fails when the candidate matrix is malformed; an *infeasible*
    /// problem is not an error — the outcome's `feasible` flag is `false`
    /// and the assignment is the least-violating composition found.
    pub fn select(
        &self,
        problem: &SelectionProblem<'_>,
    ) -> Result<SelectionOutcome, SelectionError> {
        let levels = self.local_phase(problem)?;
        self.select_with_levels(problem, levels)
    }

    /// [`Qassa::select`] with the parallel local phase — the right choice
    /// on multi-core devices with many services per activity.
    ///
    /// # Errors
    ///
    /// Fails when the candidate matrix is malformed.
    pub fn select_parallel(
        &self,
        problem: &SelectionProblem<'_>,
    ) -> Result<SelectionOutcome, SelectionError> {
        let levels = self.local_phase_parallel(problem)?;
        self.select_with_levels(problem, levels)
    }

    /// Runs the global phase over one local hierarchy per activity that
    /// the caller ranked itself (with this selector's
    /// [`QassaConfig::local`]), counting them as this run's local phase.
    ///
    /// [`Qassa::select`] and [`Qassa::select_parallel`] end here. A caller
    /// that ranks each activity where it discovered it calls it directly;
    /// the problem's candidate matrix may then be left empty.
    ///
    /// # Errors
    ///
    /// Fails when the hierarchies do not line up with the task.
    pub fn select_with_levels(
        &self,
        problem: &SelectionProblem<'_>,
        levels: Vec<QosLevels>,
    ) -> Result<SelectionOutcome, SelectionError> {
        self.record_local(&levels);
        let shared: Vec<Arc<QosLevels>> = levels.into_iter().map(Arc::new).collect();
        self.select_with_shared_levels(problem, &shared)
    }

    /// Flushes local-phase totals (activities ranked, clusters produced,
    /// candidates ranked) after the fan-out has joined, so emission
    /// order stays deterministic.
    fn record_local(&self, levels: &[QosLevels]) {
        if let Some(rec) = self.recorder {
            rec.incr(keys::SELECTION_LOCAL_RANKS, levels.len() as u64);
            rec.incr(
                keys::SELECTION_LOCAL_LEVELS,
                levels.iter().map(|l| l.level_count() as u64).sum(),
            );
            rec.incr(
                keys::SELECTION_LOCAL_CANDIDATES,
                levels.iter().map(|l| l.total() as u64).sum(),
            );
        }
    }

    /// Runs the global phase over precomputed local hierarchies
    /// (distributed QASSA merges provider-side hierarchies first).
    ///
    /// The global phase is driven entirely by `levels` — the problem
    /// contributes task, constraints, preferences and approach, so the
    /// candidate matrix may be left empty; the assignment then holds
    /// the ranked values only ([`SelectionOutcome::assignment`]). A
    /// matrix that holds candidates must be the one `levels` were
    /// ranked from, and the assignment takes its entries. The returned
    /// outcome holds clones of the `Arc`s.
    ///
    /// # Errors
    ///
    /// Fails when the hierarchies, or a candidate matrix that holds
    /// candidates, do not line up with the task.
    ///
    /// # Panics
    ///
    /// Panics when such a matrix holds fewer candidates for an activity
    /// than its hierarchy ranked.
    pub fn select_with_shared_levels(
        &self,
        problem: &SelectionProblem<'_>,
        levels: &[Arc<QosLevels>],
    ) -> Result<SelectionOutcome, SelectionError> {
        let mut tally = GlobalTally::default();
        let result = self.global_phase(problem, levels, &mut tally);
        if let Some(rec) = self.recorder {
            rec.incr(keys::SELECTION_RUNS, 1);
            rec.incr(keys::SELECTION_UTILITY_EVALS, tally.utility_evals);
            rec.incr(keys::SELECTION_REPAIR_SWAPS, tally.repair_swaps);
            rec.incr(keys::SELECTION_PRUNED, tally.pruned);
            if tally.exact_fallback {
                rec.incr(keys::SELECTION_EXACT_FALLBACKS, 1);
            }
            if let Ok(out) = &result {
                rec.incr(keys::SELECTION_LEVELS_EXPLORED, out.levels_explored as u64);
            }
        }
        result
    }

    fn global_phase(
        &self,
        problem: &SelectionProblem<'_>,
        levels: &[Arc<QosLevels>],
        tally: &mut GlobalTally,
    ) -> Result<SelectionOutcome, SelectionError> {
        self.validate_levels(problem, levels)?;
        // The hierarchies cached each column's finite bounds during the
        // local phase: no candidate is re-scanned here.
        let scorer = CompositionScorer::new(self.model, problem, |i, p| levels[i].bound(p));
        let value = |i: usize, j: usize, p| levels[i].value(&levels[i].best_first()[j], p);

        let max_levels = levels.iter().map(|l| l.level_count()).max().unwrap_or(0);

        // (miss, indices, aggregate) of the least-violating assignment.
        let mut best_infeasible: Option<((usize, f64), Vec<usize>, QosVector)> = None;

        // Prefix length of each activity's best-first table at the current
        // level, grown incrementally from the per-level sizes (the table
        // is level-grouped, so the prefix of candidates with `level <= r`
        // is exactly the cumulative level size).
        let mut pools: Vec<usize> = vec![0; levels.len()];
        for r in 0..max_levels {
            for (pool, l) in pools.iter_mut().zip(levels) {
                *pool += l.level(r).len();
            }
            if pools.contains(&0) {
                continue;
            }

            let mut current: Vec<usize> = vec![0; levels.len()];
            for _ in 0..=self.config.max_repairs_per_level {
                let aggregated = scorer.aggregate(|i, p| value(i, current[i], p));
                tally.utility_evals += 1;
                let Some(worst) = problem.constraints().worst_violation(&aggregated) else {
                    // Feasible. Candidates outside every admitted prefix were
                    // pruned: the search never had to look at them.
                    tally.pruned = levels
                        .iter()
                        .zip(&pools)
                        .map(|(l, &used)| (l.total() - used) as u64)
                        .sum();
                    return Ok(self.outcome(
                        problem,
                        &scorer,
                        levels,
                        &current,
                        aggregated,
                        true,
                        r + 1,
                    ));
                };
                // Track the least-violating assignment seen anywhere.
                let miss = problem.constraints().miss(&aggregated);
                if best_infeasible.as_ref().is_none_or(|(m, ..)| miss < *m) {
                    best_infeasible = Some((miss, current.clone(), aggregated));
                }
                // Repair the worst violation with the most improving swap.
                match self.best_swap(levels, &pools, &current, worst.property(), worst.tendency()) {
                    Some((activity, j)) => {
                        tally.repair_swaps += 1;
                        current[activity] = j;
                    }
                    None => break, // unfixable at this level: widen
                }
            }
        }

        // The level-wise heuristic found nothing feasible. On small
        // problems, search the whole space exactly: its answer, feasible
        // or not, is at least as good as anything the repairs saw.
        let combinations: u128 = levels.iter().map(|l| l.total() as u128).product();
        if combinations <= EXACT_FALLBACK_CAP {
            tally.exact_fallback = true;
            tally.utility_evals += u64::try_from(combinations).unwrap_or(u64::MAX);
            let sizes: Vec<usize> = levels.iter().map(|l| l.total()).collect();
            let (current, feasible) = scorer.exact(&sizes, value);
            let aggregated = scorer.aggregate(|i, p| value(i, current[i], p));
            return Ok(self.outcome(
                problem, &scorer, levels, &current, aggregated, feasible, max_levels,
            ));
        }

        // No feasible composition: return the least-violating one.
        let (_, current, aggregated) =
            best_infeasible.ok_or(SelectionError::NoCandidates { activity: 0 })?;
        Ok(self.outcome(
            problem, &scorer, levels, &current, aggregated, false, max_levels,
        ))
    }

    /// The global phase's own validation: the hierarchies must line up
    /// with the task, and so must the problem's candidate matrix when it
    /// holds candidates.
    fn validate_levels(
        &self,
        problem: &SelectionProblem<'_>,
        levels: &[Arc<QosLevels>],
    ) -> Result<(), SelectionError> {
        let expected = problem.task().activity_count();
        let found = levels.len();
        if expected != found {
            return Err(SelectionError::ArityMismatch { expected, found });
        }
        let found = problem.candidates().len();
        if holds_candidates(problem) && expected != found {
            return Err(SelectionError::ArityMismatch { expected, found });
        }
        if let Some(activity) = levels.iter().position(|l| l.is_empty()) {
            return Err(SelectionError::NoCandidates { activity });
        }
        Ok(())
    }

    /// The swap most improving `property`: for each activity, the
    /// pool candidate strictly better than the current choice on the
    /// property; across activities, the largest improvement wins (ties:
    /// smallest utility loss).
    fn best_swap(
        &self,
        levels: &[Arc<QosLevels>],
        pools: &[usize],
        current: &[usize],
        property: PropertyId,
        tendency: Tendency,
    ) -> Option<(usize, usize)> {
        let mut best: Option<(usize, usize, f64, f64)> = None; // (i, j, gain, util_delta)
        for (i, l) in levels.iter().enumerate() {
            let cands = l.best_first();
            let cur = &cands[current[i]];
            let cur_val = l.value(cur, property);
            for (j, cand) in cands.iter().enumerate().take(pools[i]) {
                if j == current[i] {
                    continue;
                }
                let Some(v) = l.value(cand, property) else {
                    continue;
                };
                let better = match cur_val {
                    Some(c) => tendency.at_least_as_good(v, c) && v != c,
                    None => true,
                };
                if !better {
                    continue;
                }
                let gain = match cur_val {
                    Some(c) => (v - c).abs(),
                    None => f64::INFINITY,
                };
                let util_delta = cand.utility() - cur.utility();
                let candidate_key = (gain, util_delta);
                if best.is_none_or(|(_, _, g, u)| candidate_key > (g, u)) {
                    best = Some((i, j, gain, util_delta));
                }
            }
        }
        best.map(|(i, j, ..)| (i, j))
    }

    #[allow(clippy::too_many_arguments)]
    fn outcome(
        &self,
        problem: &SelectionProblem<'_>,
        scorer: &CompositionScorer<'_>,
        levels: &[Arc<QosLevels>],
        current: &[usize],
        aggregated: QosVector,
        feasible: bool,
        levels_explored: usize,
    ) -> SelectionOutcome {
        let matrix = holds_candidates(problem).then(|| problem.candidates());
        let assignment: Vec<ServiceCandidate> = levels
            .iter()
            .zip(current)
            .enumerate()
            .map(|(i, (l, &j))| {
                let row = &l.best_first()[j];
                match matrix {
                    Some(matrix) => matrix[i][row.position()].clone(),
                    None => l.candidate(row),
                }
            })
            .collect();
        SelectionOutcome {
            assignment,
            utility: scorer.utility(&aggregated),
            aggregated,
            feasible,
            levels_explored,
            levels: levels.to_vec(),
        }
    }
}

/// Whether the problem's candidate matrix holds any candidate, so the
/// hierarchies were ranked from it ([`SelectionOutcome::assignment`]).
fn holds_candidates(problem: &SelectionProblem<'_>) -> bool {
    problem.candidates().iter().any(|c| !c.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qasom_qos::{Constraint, ConstraintSet, QosModel};
    use qasom_registry::{ServiceDescription, ServiceRegistry};
    use qasom_task::{Activity, TaskNode, UserTask};

    struct Fx {
        model: QosModel,
        rt: PropertyId,
        av: PropertyId,
    }

    fn fx() -> Fx {
        let model = QosModel::standard();
        let rt = model.property("ResponseTime").unwrap();
        let av = model.property("Availability").unwrap();
        Fx { model, rt, av }
    }

    fn seq_task(n: usize) -> UserTask {
        UserTask::new(
            "t",
            TaskNode::sequence(
                (0..n).map(|i| TaskNode::activity(Activity::new(format!("a{i}"), "x#F"))),
            ),
        )
        .unwrap()
    }

    /// Builds candidate sets: `specs[i]` lists `(rt, av)` pairs.
    fn candidates(f: &Fx, specs: &[Vec<(f64, f64)>]) -> Vec<Vec<ServiceCandidate>> {
        let mut reg = ServiceRegistry::new();
        specs
            .iter()
            .map(|acts| {
                acts.iter()
                    .map(|&(t, a)| {
                        let id = reg.register(ServiceDescription::new("s", "x#F"));
                        let mut q = QosVector::new();
                        q.set(f.rt, t);
                        q.set(f.av, a);
                        ServiceCandidate::new(id, q)
                    })
                    .collect()
            })
            .collect()
    }

    fn constraints(f: &Fx, rt_bound: f64, av_bound: f64) -> ConstraintSet {
        [
            Constraint::new(f.rt, Tendency::LowerBetter, rt_bound),
            Constraint::new(f.av, Tendency::HigherBetter, av_bound),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn selects_feasible_composition_at_best_level() {
        let f = fx();
        let task = seq_task(2);
        let cands = candidates(
            &f,
            &[
                vec![(50.0, 0.99), (500.0, 0.5)],
                vec![(60.0, 0.98), (400.0, 0.6)],
            ],
        );
        let problem = SelectionProblem::new(&task)
            .with_candidates(cands)
            .with_constraints(constraints(&f, 200.0, 0.9));
        let out = Qassa::new(&f.model).select(&problem).unwrap();
        assert!(out.feasible);
        assert_eq!(out.levels_explored, 1);
        assert_eq!(out.aggregated.get(f.rt), Some(110.0));
        assert!(out.aggregated.get(f.av).unwrap() > 0.9);
    }

    #[test]
    fn never_returns_violating_composition_as_feasible() {
        let f = fx();
        let task = seq_task(3);
        // Only tight compositions exist; constraint is impossible.
        let cands = candidates(
            &f,
            &[
                vec![(100.0, 0.9), (120.0, 0.95)],
                vec![(100.0, 0.9), (110.0, 0.92)],
                vec![(100.0, 0.9)],
            ],
        );
        let problem = SelectionProblem::new(&task)
            .with_candidates(cands)
            .with_constraints(constraints(&f, 50.0, 0.99));
        let out = Qassa::new(&f.model).select(&problem).unwrap();
        assert!(!out.feasible);
        assert!(!problem.constraints().satisfied_by(&out.aggregated));
    }

    #[test]
    fn repairs_find_constraint_compatible_mix() {
        let f = fx();
        let task = seq_task(2);
        // Per activity: one fast/unavailable and one slow/available
        // service. Only fast+available mixes across activities work.
        let cands = candidates(
            &f,
            &[
                vec![(10.0, 0.7), (100.0, 0.99)],
                vec![(10.0, 0.7), (100.0, 0.99)],
            ],
        );
        // Need total rt <= 120 and availability >= 0.69: mixing one fast
        // and one available service is required.
        let problem = SelectionProblem::new(&task)
            .with_candidates(cands)
            .with_constraints(constraints(&f, 120.0, 0.69));
        let out = Qassa::new(&f.model).select(&problem).unwrap();
        assert!(out.feasible, "aggregated = {}", out.aggregated);
    }

    #[test]
    fn descends_levels_when_top_band_is_infeasible() {
        let f = fx();
        let task = seq_task(1);
        // The "excellent" candidates are expensive on availability; only a
        // clearly-worse-band candidate satisfies the availability bound.
        let cands = candidates(
            &f,
            &[vec![(10.0, 0.5), (11.0, 0.51), (12.0, 0.52), (400.0, 0.99)]],
        );
        let problem = SelectionProblem::new(&task)
            .with_candidates(cands)
            .with_constraints(constraints(&f, 1000.0, 0.95));
        let out = Qassa::new(&f.model).select(&problem).unwrap();
        assert!(out.feasible);
        assert!(out.levels_explored >= 1);
        assert_eq!(out.aggregated.get(f.av), Some(0.99));
    }

    #[test]
    fn errors_on_empty_candidate_set() {
        let f = fx();
        let task = seq_task(2);
        let cands = candidates(&f, &[vec![(10.0, 0.9)], vec![]]);
        let problem = SelectionProblem::new(&task).with_candidates(cands);
        assert_eq!(
            Qassa::new(&f.model).select(&problem),
            Err(SelectionError::NoCandidates { activity: 1 })
        );
    }

    #[test]
    fn errors_on_arity_mismatch() {
        let f = fx();
        let task = seq_task(2);
        let problem =
            SelectionProblem::new(&task).with_candidates(vec![vec![ServiceCandidate::new(
                ServiceRegistry::new().register(ServiceDescription::new("s", "x#F")),
                QosVector::new(),
            )]]);
        assert!(matches!(
            Qassa::new(&f.model).select(&problem),
            Err(SelectionError::ArityMismatch {
                expected: 2,
                found: 1
            })
        ));
    }

    /// `select` assigns the candidate matrix's entries, everything they
    /// advertise; the same hierarchies over a problem without candidates
    /// assign the same services with their ranked values only.
    #[test]
    fn the_assignment_takes_the_matrix_when_it_holds_candidates() {
        let f = fx();
        let price = f.model.property("Price").unwrap();
        let task = seq_task(2);
        let mut cands = candidates(
            &f,
            &[
                vec![(50.0, 0.99), (500.0, 0.5), (70.0, 0.9)],
                vec![(60.0, 0.98), (400.0, 0.6)],
            ],
        );
        for (i, c) in cands.iter_mut().flatten().enumerate() {
            let mut qos = c.qos().clone();
            qos.set(price, i as f64);
            *c = ServiceCandidate::new(c.id(), qos);
        }
        let problem = SelectionProblem::new(&task)
            .with_candidates(cands.clone())
            .with_constraints(constraints(&f, 10_000.0, 0.0));
        let qassa = Qassa::new(&f.model);
        let full = qassa.select(&problem).unwrap();
        for (i, chosen) in full.assignment.iter().enumerate() {
            assert!(cands[i].contains(chosen));
            assert!(chosen.qos().get(price).is_some());
        }

        let bare = SelectionProblem::new(&task).with_constraints(constraints(&f, 10_000.0, 0.0));
        let projected = qassa
            .select_with_shared_levels(&bare, &full.levels)
            .unwrap();
        for (p, c) in projected.assignment.iter().zip(&full.assignment) {
            assert_eq!(p.id(), c.id());
            let mut ranked = c.qos().clone();
            ranked.remove(price);
            assert_eq!(p.qos(), &ranked);
        }
        assert_eq!(projected.aggregated, full.aggregated);
    }

    #[test]
    fn ranked_lists_cover_all_candidates() {
        let f = fx();
        let task = seq_task(2);
        let cands = candidates(
            &f,
            &[
                vec![(50.0, 0.99), (500.0, 0.5), (70.0, 0.9)],
                vec![(60.0, 0.98), (400.0, 0.6)],
            ],
        );
        let problem = SelectionProblem::new(&task)
            .with_candidates(cands)
            .with_constraints(constraints(&f, 10_000.0, 0.0));
        let out = Qassa::new(&f.model).select(&problem).unwrap();
        assert_eq!(out.alternates(0).count(), 3);
        assert_eq!(out.alternates(1).count(), 2);
        assert_eq!(out.alternates(2).count(), 0);
        // The chosen service per activity is among its ranked list.
        for (i, chosen) in out.assignment.iter().enumerate() {
            assert!(out.alternates(i).any(|c| c.id() == chosen.id()));
        }
    }

    #[test]
    fn the_scorer_matches_the_selected_outcome() {
        let f = fx();
        let task = seq_task(2);
        // The second input holds an unreachable candidate (infinite
        // response time), which must not enter either normaliser.
        for (specs, rt_bound, av_bound) in [
            (
                [
                    vec![(50.0, 0.99), (500.0, 0.5)],
                    vec![(60.0, 0.98), (400.0, 0.6)],
                ],
                200.0,
                0.9,
            ),
            (
                [
                    vec![(50.0, 0.99), (f64::INFINITY, 0.5), (300.0, 0.7)],
                    vec![(60.0, 0.98), (400.0, 0.6)],
                ],
                2_000.0,
                0.1,
            ),
        ] {
            let problem = SelectionProblem::new(&task)
                .with_candidates(candidates(&f, &specs))
                .with_constraints(constraints(&f, rt_bound, av_bound));
            let qassa = Qassa::new(&f.model);
            let out = qassa.select(&problem).unwrap();
            let scorer = crate::baseline::scorer(&f.model, &problem);
            let (agg, u) = scorer.score(|i, p| out.assignment[i].qos().get(p));
            assert_eq!(agg, out.aggregated);
            assert!((u - out.utility).abs() < 1e-12, "{u} != {}", out.utility);
        }
    }

    #[test]
    fn parallel_selection_matches_serial() {
        let f = fx();
        let task = seq_task(4);
        let cands = candidates(
            &f,
            &(0..4)
                .map(|a| {
                    (0..40)
                        .map(|s| {
                            (
                                10.0 + f64::from(a * 40 + s) * 3.0,
                                0.9 + f64::from(s % 10) * 0.009,
                            )
                        })
                        .collect()
                })
                .collect::<Vec<_>>(),
        );
        let problem = SelectionProblem::new(&task)
            .with_candidates(cands)
            .with_constraints(constraints(&f, 100_000.0, 0.0));
        let qassa = Qassa::new(&f.model);
        let serial = qassa.select(&problem).unwrap();
        let parallel = qassa.select_parallel(&problem).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn exact_fallback_rescues_repair_dead_ends() {
        let f = fx();
        let task = seq_task(2);
        // Candidates engineered so that (i) greedy initialisation picks a
        // violating pair, (ii) the repair heuristic's "most improving
        // swap" loops between the two properties without finding the
        // unique feasible combination, unless the exact fallback scans.
        let cands = candidates(
            &f,
            &[
                vec![(10.0, 0.60), (95.0, 0.97)],
                vec![(10.0, 0.60), (95.0, 0.97)],
            ],
        );
        // Feasible only as (fast, available) or (available, fast)?
        // rt <= 120 and av >= 0.55: mixed pairs give rt 105 / av 0.582
        // (violates av), uniform-fast gives av 0.36, uniform-available
        // gives rt 190. Actually make the bound exactly satisfiable by
        // one combination: rt <= 190, av >= 0.94 → only (95, 95).
        let problem = SelectionProblem::new(&task)
            .with_candidates(cands)
            .with_constraints(constraints(&f, 190.0, 0.94));
        // The bounded fallback finds the single solution.
        let out = Qassa::new(&f.model).select(&problem).unwrap();
        assert!(out.feasible);
        assert_eq!(out.aggregated.get(f.rt), Some(190.0));
    }

    #[test]
    fn recorder_observes_without_changing_outcomes() {
        use qasom_obs::MemoryRecorder;
        let f = fx();
        let task = seq_task(2);
        let build = || {
            candidates(
                &f,
                &[
                    vec![(10.0, 0.7), (100.0, 0.99)],
                    vec![(10.0, 0.7), (100.0, 0.99)],
                ],
            )
        };
        let problem = SelectionProblem::new(&task)
            .with_candidates(build())
            .with_constraints(constraints(&f, 120.0, 0.69));
        let plain = Qassa::new(&f.model).select(&problem).unwrap();
        let rec = MemoryRecorder::new();
        let observed = Qassa::new(&f.model)
            .with_recorder(&rec)
            .select(&problem)
            .unwrap();
        assert_eq!(plain, observed);
        let snap = rec.snapshot().expect("memory recorder snapshots");
        assert_eq!(snap.counter(keys::SELECTION_RUNS), 1);
        assert_eq!(snap.counter(keys::SELECTION_LOCAL_RANKS), 2);
        assert_eq!(snap.counter(keys::SELECTION_LOCAL_CANDIDATES), 4);
        assert!(snap.counter(keys::SELECTION_UTILITY_EVALS) >= 1);
        // This fixture needs repair swaps to mix fast and available
        // services (see repairs_find_constraint_compatible_mix).
        assert!(snap.counter(keys::SELECTION_REPAIR_SWAPS) >= 1);
        assert_eq!(
            snap.counter(keys::SELECTION_LEVELS_EXPLORED),
            observed.levels_explored as u64
        );
    }

    #[test]
    fn unconstrained_problem_is_feasible_immediately() {
        let f = fx();
        let task = seq_task(3);
        let cands = candidates(
            &f,
            &[vec![(50.0, 0.99)], vec![(60.0, 0.98)], vec![(70.0, 0.97)]],
        );
        let problem = SelectionProblem::new(&task)
            .with_candidates(cands)
            .with_preferences(Preferences::uniform([f.rt, f.av]));
        let out = Qassa::new(&f.model).select(&problem).unwrap();
        assert!(out.feasible);
        assert_eq!(out.levels_explored, 1);
    }
}
