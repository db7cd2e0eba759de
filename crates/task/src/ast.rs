//! Task AST: composition patterns over abstract activities.

use std::collections::HashSet;
use std::fmt;

use crate::Activity;

/// Iteration profile of a loop pattern.
///
/// `expected` drives QoS aggregation (a loop multiplies its body's QoS by
/// the expected iteration count); `max` bounds execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopBound {
    expected: f64,
    max: u32,
}

impl LoopBound {
    /// Creates a bound with `expected` mean iterations and a hard cap of
    /// `max`.
    ///
    /// # Panics
    ///
    /// Panics if `expected` is negative/non-finite or `max == 0`.
    pub fn new(expected: f64, max: u32) -> Self {
        assert!(
            expected.is_finite() && expected >= 0.0,
            "expected iteration count must be finite and non-negative"
        );
        assert!(max >= 1, "a loop must allow at least one iteration");
        LoopBound { expected, max }
    }

    /// Mean number of iterations, used by QoS aggregation.
    pub fn expected(&self) -> f64 {
        self.expected
    }

    /// Hard iteration cap, used for pessimistic aggregation and execution.
    pub fn max(&self) -> u32 {
        self.max
    }
}

impl Default for LoopBound {
    fn default() -> Self {
        LoopBound::new(1.0, 1)
    }
}

/// A node of the task AST: an abstract activity or a composition pattern.
///
/// Construct nodes with the associated functions ([`TaskNode::activity`],
/// [`TaskNode::sequence`], [`TaskNode::parallel`], [`TaskNode::choice`],
/// [`TaskNode::repeat`]) and wrap the root in a [`UserTask`], which
/// validates the structure.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskNode {
    /// A leaf: one abstract activity.
    Activity(Activity),
    /// Children execute one after the other.
    Sequence(Vec<TaskNode>),
    /// Children execute concurrently (BPEL `flow`).
    Parallel(Vec<TaskNode>),
    /// Exactly one child executes, picked with the associated probability
    /// (BPEL `if`/`pick`). Probabilities are normalised by
    /// [`UserTask::new`].
    Choice(Vec<(f64, TaskNode)>),
    /// The body executes repeatedly (BPEL `while`).
    Loop {
        /// The repeated sub-task.
        body: Box<TaskNode>,
        /// Iteration profile.
        bound: LoopBound,
    },
}

impl TaskNode {
    /// Leaf node around an activity.
    pub fn activity(activity: Activity) -> Self {
        TaskNode::Activity(activity)
    }

    /// Sequential composition.
    pub fn sequence(children: impl IntoIterator<Item = TaskNode>) -> Self {
        TaskNode::Sequence(children.into_iter().collect())
    }

    /// Parallel composition.
    pub fn parallel(children: impl IntoIterator<Item = TaskNode>) -> Self {
        TaskNode::Parallel(children.into_iter().collect())
    }

    /// Probabilistic choice between branches.
    pub fn choice(branches: impl IntoIterator<Item = (f64, TaskNode)>) -> Self {
        TaskNode::Choice(branches.into_iter().collect())
    }

    /// Loop with the given iteration profile.
    pub fn repeat(body: TaskNode, bound: LoopBound) -> Self {
        TaskNode::Loop {
            body: Box::new(body),
            bound,
        }
    }

    /// Depth-first, left-to-right traversal of the activities below this
    /// node.
    pub fn for_each_activity<'a>(&'a self, f: &mut impl FnMut(&'a Activity)) {
        match self {
            TaskNode::Activity(a) => f(a),
            TaskNode::Sequence(cs) | TaskNode::Parallel(cs) => {
                for c in cs {
                    c.for_each_activity(f);
                }
            }
            TaskNode::Choice(bs) => {
                for (_, c) in bs {
                    c.for_each_activity(f);
                }
            }
            TaskNode::Loop { body, .. } => body.for_each_activity(f),
        }
    }

    /// Number of activities below this node.
    pub fn activity_count(&self) -> usize {
        let mut n = 0;
        self.for_each_activity(&mut |_| n += 1);
        n
    }

    fn validate(&self) -> Result<(), TaskError> {
        match self {
            TaskNode::Activity(_) => Ok(()),
            TaskNode::Sequence(cs) | TaskNode::Parallel(cs) => {
                if cs.is_empty() {
                    return Err(TaskError::EmptyPattern);
                }
                cs.iter().try_for_each(TaskNode::validate)
            }
            TaskNode::Choice(bs) => {
                if bs.is_empty() {
                    return Err(TaskError::EmptyPattern);
                }
                if bs.iter().any(|&(p, _)| !(p.is_finite() && p > 0.0)) {
                    return Err(TaskError::BadProbability);
                }
                bs.iter().try_for_each(|(_, c)| c.validate())
            }
            TaskNode::Loop { body, .. } => body.validate(),
        }
    }

    fn normalise_probabilities(&mut self) {
        match self {
            TaskNode::Activity(_) => {}
            TaskNode::Sequence(cs) | TaskNode::Parallel(cs) => {
                cs.iter_mut().for_each(TaskNode::normalise_probabilities);
            }
            TaskNode::Choice(bs) => {
                let total: f64 = bs.iter().map(|&(p, _)| p).sum();
                if total > 0.0 {
                    for (p, _) in bs.iter_mut() {
                        *p /= total;
                    }
                }
                for (_, c) in bs.iter_mut() {
                    c.normalise_probabilities();
                }
            }
            TaskNode::Loop { body, .. } => body.normalise_probabilities(),
        }
    }
}

/// Errors detected while validating a task structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// The task contains no activity at all.
    NoActivity,
    /// Two activities share a name.
    DuplicateActivity(String),
    /// A sequence/parallel/choice pattern has no child.
    EmptyPattern,
    /// A choice branch has a non-positive or non-finite probability.
    BadProbability,
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskError::NoActivity => write!(f, "task contains no activity"),
            TaskError::DuplicateActivity(n) => {
                write!(f, "duplicate activity name {n:?}")
            }
            TaskError::EmptyPattern => write!(f, "composition pattern has no child"),
            TaskError::BadProbability => {
                write!(f, "choice probabilities must be positive and finite")
            }
        }
    }
}

impl std::error::Error for TaskError {}

/// A reference to an activity inside a task, together with its stable
/// index (DFS order) — the position the selection algorithm uses to line
/// candidates up per activity.
#[derive(Debug, Clone, Copy)]
pub struct ActivityRef<'a> {
    index: usize,
    activity: &'a Activity,
}

impl<'a> ActivityRef<'a> {
    /// Stable index of the activity within its task (DFS order).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The referenced activity.
    pub fn activity(&self) -> &'a Activity {
        self.activity
    }
}

/// A validated user task: a named, well-formed task AST.
///
/// Validation guarantees: at least one activity, unique activity names,
/// non-empty patterns, positive choice probabilities (normalised to sum to
/// one per choice).
#[derive(Debug, Clone, PartialEq)]
pub struct UserTask {
    name: String,
    root: TaskNode,
}

impl UserTask {
    /// Validates and wraps a task structure.
    ///
    /// # Errors
    ///
    /// Returns the first [`TaskError`] found.
    pub fn new(name: impl Into<String>, mut root: TaskNode) -> Result<Self, TaskError> {
        root.validate()?;
        if root.activity_count() == 0 {
            return Err(TaskError::NoActivity);
        }
        let mut seen = HashSet::new();
        let mut dup = None;
        root.for_each_activity(&mut |a| {
            if dup.is_none() && !seen.insert(a.name().to_owned()) {
                dup = Some(a.name().to_owned());
            }
        });
        if let Some(n) = dup {
            return Err(TaskError::DuplicateActivity(n));
        }
        root.normalise_probabilities();
        Ok(UserTask {
            name: name.into(),
            root,
        })
    }

    /// The task name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The root node of the AST.
    pub fn root(&self) -> &TaskNode {
        &self.root
    }

    /// Activities in DFS order, with their stable indices.
    pub fn activities(&self) -> impl Iterator<Item = ActivityRef<'_>> {
        let mut v = Vec::new();
        self.root.for_each_activity(&mut |a| v.push(a));
        v.into_iter()
            .enumerate()
            .map(|(index, activity)| ActivityRef { index, activity })
    }

    /// Number of activities in the task.
    pub fn activity_count(&self) -> usize {
        self.root.activity_count()
    }

    /// Finds an activity by name.
    pub fn find(&self, name: &str) -> Option<ActivityRef<'_>> {
        self.activities().find(|r| r.activity().name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn act(name: &str) -> TaskNode {
        TaskNode::activity(Activity::new(name, "t#F"))
    }

    #[test]
    fn counts_activities_across_patterns() {
        let node = TaskNode::sequence([
            act("a"),
            TaskNode::parallel([act("b"), act("c")]),
            TaskNode::choice([(0.5, act("d")), (0.5, act("e"))]),
            TaskNode::repeat(act("f"), LoopBound::new(2.0, 5)),
        ]);
        assert_eq!(node.activity_count(), 6);
    }

    #[test]
    fn task_rejects_duplicate_names() {
        let node = TaskNode::sequence([act("a"), act("a")]);
        assert_eq!(
            UserTask::new("t", node),
            Err(TaskError::DuplicateActivity("a".into()))
        );
    }

    #[test]
    fn task_rejects_empty_patterns() {
        assert_eq!(
            UserTask::new("t", TaskNode::sequence([])),
            Err(TaskError::EmptyPattern)
        );
        assert_eq!(
            UserTask::new("t", TaskNode::parallel([])),
            Err(TaskError::EmptyPattern)
        );
        assert_eq!(
            UserTask::new("t", TaskNode::choice([])),
            Err(TaskError::EmptyPattern)
        );
    }

    #[test]
    fn task_rejects_bad_probabilities() {
        let node = TaskNode::choice([(0.0, act("a")), (1.0, act("b"))]);
        assert_eq!(UserTask::new("t", node), Err(TaskError::BadProbability));
    }

    #[test]
    fn probabilities_are_normalised() {
        let node = TaskNode::choice([(2.0, act("a")), (2.0, act("b"))]);
        let task = UserTask::new("t", node).unwrap();
        let TaskNode::Choice(branches) = task.root() else {
            panic!("expected choice root")
        };
        assert_eq!(branches[0].0, 0.5);
        assert_eq!(branches[1].0, 0.5);
    }

    #[test]
    fn activity_indices_follow_dfs_order() {
        let node = TaskNode::sequence([act("a"), TaskNode::parallel([act("b"), act("c")])]);
        let task = UserTask::new("t", node).unwrap();
        let names: Vec<_> = task
            .activities()
            .map(|r| (r.index(), r.activity().name().to_owned()))
            .collect();
        assert_eq!(
            names,
            vec![(0, "a".into()), (1, "b".into()), (2, "c".into())]
        );
    }

    #[test]
    fn find_locates_by_name() {
        let node = TaskNode::sequence([act("a"), act("b")]);
        let task = UserTask::new("t", node).unwrap();
        assert_eq!(task.find("b").unwrap().index(), 1);
        assert!(task.find("z").is_none());
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn loop_bound_rejects_zero_max() {
        let _ = LoopBound::new(1.0, 0);
    }

    #[test]
    fn empty_task_is_rejected() {
        // A loop around nothing is impossible to build; the smallest
        // invalid case is an empty sequence, covered above. A bare pattern
        // with children but no activities cannot exist by construction, so
        // NoActivity is unreachable through the public constructors — keep
        // the variant for forward compatibility of external builders.
        assert!(UserTask::new("t", TaskNode::sequence([act("a")])).is_ok());
    }
}
