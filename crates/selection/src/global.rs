//! QASSA phase 2 — global selection under global QoS constraints.

use std::fmt;
use std::sync::Arc;

use qasom_obs::{keys, Recorder};
use qasom_qos::utility::utility;
use qasom_qos::{Normalizer, Preferences, PropertyId, QosVector, Tendency};
use qasom_task::UserTask;

use crate::{
    Aggregator, LocalRank, LocalScratch, QosLevels, RankedCandidate, SelectionProblem,
    ServiceCandidate,
};

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
    /// The selected service per activity (DFS order).
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
    /// for dynamic binding and service substitution. Nothing for an
    /// activity the outcome has no hierarchy for.
    pub fn alternates(&self, activity: usize) -> impl Iterator<Item = &ServiceCandidate> {
        self.levels
            .get(activity)
            .into_iter()
            .flat_map(|l| l.best_first())
            .map(RankedCandidate::candidate)
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
        self.validate(problem)?;
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
        self.validate(problem)?;
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
    /// candidate matrix may be left empty. The returned outcome holds
    /// clones of the `Arc`s.
    ///
    /// # Errors
    ///
    /// Fails when the hierarchies do not line up with the task.
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
        let properties = problem.properties();
        let aggregator = Aggregator::new(self.model, problem.approach());
        // The hierarchies cached each column's finite bounds during the
        // local phase: no candidate is re-scanned here.
        let normalizer = self.composition_normalizer(
            problem.task(),
            &properties,
            &aggregator,
            levels.len(),
            |i, p| levels[i].bound(p),
        );

        let max_levels = levels.iter().map(|l| l.level_count()).max().unwrap_or(0);

        let mut best_infeasible: Option<(usize, f64, Vec<usize>, QosVector)> = None;

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
                let aggregated =
                    self.aggregate_assignment(problem, &aggregator, levels, &current, &properties);
                tally.utility_evals += 1;
                let violations: Vec<_> = problem
                    .constraints()
                    .violations(&aggregated)
                    .copied()
                    .collect();
                if violations.is_empty() {
                    // Candidates outside every admitted prefix were
                    // pruned: the search never had to look at them.
                    tally.pruned = levels
                        .iter()
                        .zip(&pools)
                        .map(|(l, &used)| (l.total() - used) as u64)
                        .sum();
                    return Ok(self.outcome(
                        problem,
                        levels,
                        &current,
                        aggregated,
                        &normalizer,
                        true,
                        r + 1,
                    ));
                }
                // Track the least-violating assignment seen anywhere.
                let severity = violation_severity(&violations, &aggregated);
                if best_infeasible
                    .as_ref()
                    .is_none_or(|(n, s, ..)| severity < (*n, *s))
                {
                    best_infeasible =
                        Some((severity.0, severity.1, current.clone(), aggregated.clone()));
                }
                // Repair the worst violation with the most improving swap.
                let Some(worst) = violations.iter().max_by(|a, b| {
                    relative_violation(a, &aggregated)
                        .total_cmp(&relative_violation(b, &aggregated))
                }) else {
                    break; // violations is non-empty, but widen over panicking
                };
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
        // problems, scan the whole space exactly before giving up.
        let combinations: u128 = levels.iter().map(|l| l.total() as u128).product();
        if combinations <= EXACT_FALLBACK_CAP {
            tally.exact_fallback = true;
            tally.utility_evals += u64::try_from(combinations).unwrap_or(u64::MAX);
            if let Some(current) =
                self.exact_scan(problem, &aggregator, levels, &properties, &normalizer)
            {
                let aggregated =
                    self.aggregate_assignment(problem, &aggregator, levels, &current, &properties);
                return Ok(self.outcome(
                    problem,
                    levels,
                    &current,
                    aggregated,
                    &normalizer,
                    true,
                    max_levels,
                ));
            }
        }

        // No feasible composition: return the least-violating one.
        let (_, _, current, aggregated) =
            best_infeasible.ok_or(SelectionError::NoCandidates { activity: 0 })?;
        Ok(self.outcome(
            problem,
            levels,
            &current,
            aggregated,
            &normalizer,
            false,
            max_levels,
        ))
    }

    /// Aggregated QoS and SAW utility of an arbitrary assignment — the
    /// exact scoring QASSA itself uses, exposed so baselines compare
    /// apples to apples.
    pub fn evaluate(
        &self,
        problem: &SelectionProblem<'_>,
        assignment: &[ServiceCandidate],
    ) -> (QosVector, f64) {
        let properties = problem.properties();
        let aggregator = Aggregator::new(self.model, problem.approach());
        // Per activity, the same finite bounds `QosLevels::bound` holds.
        let fitted: Vec<Normalizer> = problem
            .candidates()
            .iter()
            .map(|cands| Normalizer::fit(self.model, cands.iter().map(ServiceCandidate::qos)))
            .collect();
        let normalizer = self.composition_normalizer(
            problem.task(),
            &properties,
            &aggregator,
            fitted.len(),
            |i, p| fitted[i].bounds(p),
        );
        let vectors: Vec<&QosVector> = assignment.iter().map(ServiceCandidate::qos).collect();
        let aggregated = aggregator.aggregate_refs(problem.task(), &vectors, &properties);
        let u = utility(
            &aggregated,
            &normalizer,
            &self.effective_preferences(problem, &properties),
        );
        (aggregated, u)
    }

    fn validate(&self, problem: &SelectionProblem<'_>) -> Result<(), SelectionError> {
        let expected = problem.task().activity_count();
        let found = problem.candidates().len();
        if expected != found {
            return Err(SelectionError::ArityMismatch { expected, found });
        }
        if let Some(activity) = problem.candidates().iter().position(Vec::is_empty) {
            return Err(SelectionError::NoCandidates { activity });
        }
        Ok(())
    }

    /// The global phase's own validation: hierarchies, not the problem's
    /// candidate matrix, must line up with the task — the matrix may be
    /// left empty.
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
        if let Some(activity) = levels.iter().position(|l| l.is_empty()) {
            return Err(SelectionError::NoCandidates { activity });
        }
        Ok(())
    }

    fn effective_preferences(
        &self,
        problem: &SelectionProblem<'_>,
        properties: &[PropertyId],
    ) -> Preferences {
        if problem.preferences().is_empty() {
            Preferences::uniform(properties.iter().copied())
        } else {
            problem.preferences().clone()
        }
    }

    /// Fits composition-level normalisation bounds by aggregating the
    /// per-activity best and worst values (aggregation is monotone per
    /// argument, so these are true bounds of the composition space).
    /// `bound(i, p)` is activity `i`'s raw `(min, max)` over the finite
    /// values of `p`, so an unreachable host's infinite perceived
    /// response time can neither stretch the range nor, once
    /// aggregated, drop out of it and collapse it to a point.
    /// `O(activities × properties)` calls of `bound`.
    fn composition_normalizer(
        &self,
        task: &UserTask,
        properties: &[PropertyId],
        aggregator: &Aggregator<'_>,
        activities: usize,
        bound: impl Fn(usize, PropertyId) -> Option<(f64, f64)>,
    ) -> Normalizer {
        let mut best = Vec::with_capacity(activities);
        let mut worst = Vec::with_capacity(activities);
        for i in 0..activities {
            let mut b = QosVector::new();
            let mut w = QosVector::new();
            for &p in properties {
                if let Some((lo, hi)) = bound(i, p) {
                    let (bv, wv) = match self.model.tendency(p) {
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
            aggregator.aggregate(task, &best, properties),
            aggregator.aggregate(task, &worst, properties),
        ] {
            for (p, v) in bound.iter() {
                normalizer.include(self.model, p, v);
            }
        }
        normalizer
    }

    /// Exhaustively scans the (small) full space, returning the
    /// best-utility feasible assignment's indices, if any.
    fn exact_scan(
        &self,
        problem: &SelectionProblem<'_>,
        aggregator: &Aggregator<'_>,
        levels: &[Arc<QosLevels>],
        properties: &[PropertyId],
        normalizer: &Normalizer,
    ) -> Option<Vec<usize>> {
        let n = levels.len();
        let prefs = self.effective_preferences(problem, properties);
        let mut indices = vec![0usize; n];
        let mut best: Option<(f64, Vec<usize>)> = None;
        loop {
            let aggregated =
                self.aggregate_assignment(problem, aggregator, levels, &indices, properties);
            if problem.constraints().satisfied_by(&aggregated) {
                let u = utility(&aggregated, normalizer, &prefs);
                if best.as_ref().is_none_or(|(bu, _)| u > *bu) {
                    best = Some((u, indices.clone()));
                }
            }
            // Odometer increment.
            let mut k = n;
            loop {
                if k == 0 {
                    return best.map(|(_, idx)| idx);
                }
                k -= 1;
                indices[k] += 1;
                if indices[k] < levels[k].total() {
                    break;
                }
                indices[k] = 0;
                if k == 0 {
                    return best.map(|(_, idx)| idx);
                }
            }
        }
    }

    fn aggregate_assignment(
        &self,
        problem: &SelectionProblem<'_>,
        aggregator: &Aggregator<'_>,
        levels: &[Arc<QosLevels>],
        current: &[usize],
        properties: &[PropertyId],
    ) -> QosVector {
        let vectors: Vec<&QosVector> = levels
            .iter()
            .zip(current)
            .map(|(l, &j)| l.best_first()[j].candidate().qos())
            .collect();
        aggregator.aggregate_refs(problem.task(), &vectors, properties)
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
            let cur_val = cur.candidate().qos().get(property);
            for (j, cand) in cands.iter().enumerate().take(pools[i]) {
                if j == current[i] {
                    continue;
                }
                let Some(v) = cand.candidate().qos().get(property) else {
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
        levels: &[Arc<QosLevels>],
        current: &[usize],
        aggregated: QosVector,
        normalizer: &Normalizer,
        feasible: bool,
        levels_explored: usize,
    ) -> SelectionOutcome {
        let properties = problem.properties();
        let assignment: Vec<ServiceCandidate> = levels
            .iter()
            .zip(current)
            .map(|(l, &j)| l.best_first()[j].candidate().clone())
            .collect();
        let u = utility(
            &aggregated,
            normalizer,
            &self.effective_preferences(problem, &properties),
        );
        SelectionOutcome {
            assignment,
            aggregated,
            utility: u,
            feasible,
            levels_explored,
            levels: levels.to_vec(),
        }
    }
}

fn relative_violation(c: &qasom_qos::Constraint, aggregated: &QosVector) -> f64 {
    let value = aggregated.get(c.property());
    match value {
        Some(v) => {
            let slack = c.slack(v);
            let scale = c.bound().abs().max(1e-9);
            (-slack / scale).max(0.0)
        }
        None => f64::INFINITY,
    }
}

fn violation_severity(
    violations: &[qasom_qos::Constraint],
    aggregated: &QosVector,
) -> (usize, f64) {
    let total: f64 = violations
        .iter()
        .map(|c| {
            let rv = relative_violation(c, aggregated);
            if rv.is_finite() {
                rv
            } else {
                1e6
            }
        })
        .sum();
    (violations.len(), total)
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
    fn evaluate_matches_selected_outcome() {
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
            let (agg, u) = qassa.evaluate(&problem, &out.assignment);
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
