//! Executable compositions.

use std::fmt;

use qasom_analysis::Diagnostic;
use qasom_qos::{ConstraintSet, Preferences, QosModelError, QosVector};
use qasom_selection::{AggregationApproach, SelectionError, SelectionOutcome};
use qasom_task::UserTask;

/// Errors of the composition pipeline (discovery + selection).
#[derive(Debug, Clone, PartialEq)]
pub enum ComposeError {
    /// The static analyzer rejected the request before discovery even
    /// ran (error-level diagnostics; see [`qasom_analysis::Analyzer`]).
    Rejected(Vec<Diagnostic>),
    /// A QoS name in the request is unknown to the model.
    Qos(QosModelError),
    /// An activity found no candidate service at all.
    NoServiceFor {
        /// The uncovered activity's name.
        activity: String,
    },
    /// The selection algorithm rejected the problem.
    Selection(SelectionError),
}

impl fmt::Display for ComposeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComposeError::Rejected(diags) => {
                write!(f, "request rejected by static analysis:")?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            ComposeError::Qos(e) => write!(f, "{e}"),
            ComposeError::NoServiceFor { activity } => {
                write!(
                    f,
                    "no service in the environment can serve activity {activity:?}"
                )
            }
            ComposeError::Selection(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ComposeError {}

impl From<QosModelError> for ComposeError {
    fn from(e: QosModelError) -> Self {
        ComposeError::Qos(e)
    }
}

impl From<SelectionError> for ComposeError {
    fn from(e: SelectionError) -> Self {
        ComposeError::Selection(e)
    }
}

/// A composition ready for execution: the task, the QASSA outcome (chosen
/// binding per activity plus ranked alternates for dynamic binding) and
/// the request's QoS context.
#[derive(Debug, Clone)]
pub struct ExecutableComposition {
    pub(crate) task: UserTask,
    pub(crate) outcome: SelectionOutcome,
    pub(crate) constraints: ConstraintSet,
    pub(crate) preferences: Preferences,
    pub(crate) approach: AggregationApproach,
    pub(crate) warnings: Vec<Diagnostic>,
}

impl ExecutableComposition {
    /// The task being realised.
    pub fn task(&self) -> &UserTask {
        &self.task
    }

    /// The selection outcome backing this composition.
    pub fn outcome(&self) -> &SelectionOutcome {
        &self.outcome
    }

    /// The global constraints the composition was selected under.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    /// The preference weights of the request.
    pub fn preferences(&self) -> &Preferences {
        &self.preferences
    }

    /// The aggregation approach of the request.
    pub fn approach(&self) -> AggregationApproach {
        self.approach
    }

    /// The QoS the composition promises (aggregated advertised QoS).
    pub fn promised_qos(&self) -> &QosVector {
        &self.outcome.aggregated
    }

    /// Warning-level diagnostics the static analyzer attached to the
    /// request (the composition went ahead regardless).
    pub fn warnings(&self) -> &[Diagnostic] {
        &self.warnings
    }
}
