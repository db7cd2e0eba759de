//! Selection inputs: candidates and the selection problem.

use std::borrow::Cow;

use qasom_qos::{ConstraintSet, Preferences, PropertyId, QosVector};
use qasom_registry::ServiceId;
use qasom_task::UserTask;

use crate::{AggregationApproach, SelectionError};

/// A concrete service candidate for one abstract activity: its registry
/// id and the QoS vector selection reasons about (advertised, or monitored
/// at re-selection time).
///
/// The candidate owns its vector. Ranking does not keep candidates: it
/// copies the values of the requested properties into its table's
/// columns ([`crate::QosColumns`]), and a candidate is built again from a
/// table row ([`crate::QosLevels::candidate`]) only for an alternate
/// substitution reads or a selected service.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceCandidate {
    id: ServiceId,
    qos: QosVector,
}

impl ServiceCandidate {
    /// Creates a candidate.
    pub fn new(id: ServiceId, qos: QosVector) -> Self {
        ServiceCandidate { id, qos }
    }

    /// The registry id of the service.
    pub fn id(&self) -> ServiceId {
        self.id
    }

    /// The candidate's QoS vector.
    pub fn qos(&self) -> &QosVector {
        &self.qos
    }
}

/// A complete QoS-aware selection problem: the user task, the per-activity
/// candidate sets (`S_i`, indexed by activity DFS order), the global QoS
/// constraints (`U`), the preference weights (`W`) and the aggregation
/// approach.
///
/// # Examples
///
/// ```
/// use qasom_qos::QosModel;
/// use qasom_selection::workload::WorkloadSpec;
///
/// let model = QosModel::standard();
/// let w = WorkloadSpec::evaluation_default().build(&model, 1);
/// let problem = w.problem();
/// assert_eq!(problem.candidates().len(), problem.task().activity_count());
/// ```
#[derive(Debug, Clone)]
pub struct SelectionProblem<'a> {
    task: &'a UserTask,
    candidates: Vec<Vec<ServiceCandidate>>,
    constraints: ConstraintSet,
    preferences: Preferences,
    approach: AggregationApproach,
}

impl<'a> SelectionProblem<'a> {
    /// Starts a problem over `task` with empty candidate sets.
    pub fn new(task: &'a UserTask) -> Self {
        SelectionProblem {
            task,
            candidates: vec![Vec::new(); task.activity_count()],
            constraints: ConstraintSet::new(),
            preferences: Preferences::default(),
            approach: AggregationApproach::MeanValue,
        }
    }

    /// Replaces all candidate sets (one per activity, DFS order).
    pub fn with_candidates(mut self, candidates: Vec<Vec<ServiceCandidate>>) -> Self {
        self.candidates = candidates;
        self
    }

    /// Sets the global QoS constraints.
    pub fn with_constraints(mut self, constraints: ConstraintSet) -> Self {
        self.constraints = constraints;
        self
    }

    /// Sets the user preference weights.
    pub fn with_preferences(mut self, preferences: Preferences) -> Self {
        self.preferences = preferences;
        self
    }

    /// Sets the aggregation approach (default: mean-value).
    pub fn with_approach(mut self, approach: AggregationApproach) -> Self {
        self.approach = approach;
        self
    }

    /// The user task.
    pub fn task(&self) -> &'a UserTask {
        self.task
    }

    /// Per-activity candidate sets.
    pub fn candidates(&self) -> &[Vec<ServiceCandidate>] {
        &self.candidates
    }

    /// The global constraints.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    /// The preference weights.
    pub fn preferences(&self) -> &Preferences {
        &self.preferences
    }

    /// The aggregation approach.
    pub fn approach(&self) -> AggregationApproach {
        self.approach
    }

    /// The QoS properties the problem involves: constrained ∪ weighted.
    pub fn properties(&self) -> Vec<PropertyId> {
        let mut props: Vec<PropertyId> = self
            .constraints
            .properties()
            .chain(self.preferences.properties())
            .collect();
        props.sort();
        props.dedup();
        props
    }

    /// The weights utility is computed with: `preferences` when they
    /// weigh anything, else equal weights over `properties`.
    pub(crate) fn effective_preferences<'w>(
        preferences: &'w Preferences,
        properties: &[PropertyId],
    ) -> Cow<'w, Preferences> {
        if preferences.is_empty() {
            Cow::Owned(Preferences::uniform(properties.iter().copied()))
        } else {
            Cow::Borrowed(preferences)
        }
    }

    /// Checks that the candidate matrix has one non-empty set per
    /// activity.
    pub(crate) fn validate(&self) -> Result<(), SelectionError> {
        let expected = self.task.activity_count();
        let found = self.candidates.len();
        if expected != found {
            return Err(SelectionError::ArityMismatch { expected, found });
        }
        if let Some(activity) = self.candidates.iter().position(Vec::is_empty) {
            return Err(SelectionError::NoCandidates { activity });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qasom_qos::{Constraint, QosModel, Tendency};
    use qasom_task::{Activity, TaskNode};

    #[test]
    fn properties_are_union_of_constraints_and_weights() {
        let m = QosModel::standard();
        let rt = m.property("ResponseTime").unwrap();
        let av = m.property("Availability").unwrap();
        let price = m.property("Price").unwrap();
        let task = UserTask::new("t", TaskNode::activity(Activity::new("a", "x#A"))).unwrap();
        let p = SelectionProblem::new(&task)
            .with_constraints(
                [Constraint::new(rt, Tendency::LowerBetter, 1.0)]
                    .into_iter()
                    .collect(),
            )
            .with_preferences(Preferences::uniform([av, price, rt]));
        assert_eq!(p.properties(), vec![rt, av, price]);
    }

    /// Selection outcomes hold a candidate per activity, and callers that
    /// rank a candidate slice keep one per candidate.
    #[test]
    fn a_candidate_fits_in_forty_eight_bytes() {
        assert!(std::mem::size_of::<ServiceCandidate>() <= 48);
    }
}
