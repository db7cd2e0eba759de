//! Structured diagnostics: stable codes, severities and span-like
//! locations.

use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The request/specification is suspicious but usable; composition
    /// proceeds and the diagnostic is carried in the composition report.
    Warning,
    /// The request/specification is broken; composition (or QSD
    /// ingestion) is rejected before discovery runs.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes (`QA0xx`).
///
/// Codes are grouped by decade: `QA00x` task-graph patterns,
/// `QA01x` QoS requirements (dimensional analysis, satisfiability,
/// preference weights), `QA02x` ontology sanity of the request, `QA03x`
/// provider QoS specifications (QSD ingestion). QA001–QA004 are
/// retired, not free: they reported what `UserTask::new` rejects, so
/// they could never fire on a request's `UserTask`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagnosticCode {
    /// QA005: a choice branch has a negligible probability — its
    /// activities are effectively unreachable.
    NegligibleBranch,
    /// QA006: a loop's expected iteration count exceeds its hard cap, so
    /// QoS aggregation assumes more iterations than execution permits.
    LoopExpectationExceedsCap,
    /// QA010: a constraint or weight names a QoS property unknown to the
    /// model.
    UnknownProperty,
    /// QA011: a constraint's unit belongs to a different measurement
    /// dimension than the property — the bound cannot be converted.
    DimensionMismatch,
    /// QA012: no offered value can satisfy the bound (empty intersection
    /// with the property's feasible range).
    UnsatisfiableBound,
    /// QA013: every offered value satisfies the bound — the constraint is
    /// vacuous and filters nothing.
    VacuousBound,
    /// QA014: two constraints resolve to the same service-layer property;
    /// the stricter bound silently wins.
    DuplicateConstraint,
    /// QA015: a preference weight is non-positive or non-finite and is
    /// dropped by normalisation.
    DroppedWeight,
    /// QA016: preference weights were given but none survives
    /// normalisation — the weight vector cannot be normalised.
    UnusableWeights,
    /// QA017: a user-layer property has no service-layer equivalent;
    /// provider advertisements can never carry it.
    UnalignedUserProperty,
    /// QA018: global constraints are checked under the optimistic
    /// aggregation approach on a task with choice/loop patterns — the
    /// aggregate is a best case, not a guarantee.
    OptimisticGuarantee,
    /// QA020: an activity's function IRI is unknown to the domain
    /// ontology; only exact textual matches can discover services for it.
    UnknownFunctionIri,
    /// QA021: an activity's input/output data IRI is unknown to the
    /// domain ontology.
    UnknownDataIri,
    /// QA030: an advertised QoS value lies outside the property's
    /// feasible range (e.g. a probability outside `[0, 1]`).
    QosValueOutOfRange,
    /// QA031: a service (or operation) function IRI is unknown to the
    /// domain ontology.
    UnknownServiceFunction,
    /// QA032: a provider advertises a reputation-category property; the
    /// middleware derives reputation from SLA compliance and ignores
    /// self-reported values.
    SelfReportedReputation,
}

impl DiagnosticCode {
    /// The stable textual code (`"QA011"`), suitable for golden tests and
    /// suppression lists.
    pub fn code(self) -> &'static str {
        match self {
            DiagnosticCode::NegligibleBranch => "QA005",
            DiagnosticCode::LoopExpectationExceedsCap => "QA006",
            DiagnosticCode::UnknownProperty => "QA010",
            DiagnosticCode::DimensionMismatch => "QA011",
            DiagnosticCode::UnsatisfiableBound => "QA012",
            DiagnosticCode::VacuousBound => "QA013",
            DiagnosticCode::DuplicateConstraint => "QA014",
            DiagnosticCode::DroppedWeight => "QA015",
            DiagnosticCode::UnusableWeights => "QA016",
            DiagnosticCode::UnalignedUserProperty => "QA017",
            DiagnosticCode::OptimisticGuarantee => "QA018",
            DiagnosticCode::UnknownFunctionIri => "QA020",
            DiagnosticCode::UnknownDataIri => "QA021",
            DiagnosticCode::QosValueOutOfRange => "QA030",
            DiagnosticCode::UnknownServiceFunction => "QA031",
            DiagnosticCode::SelfReportedReputation => "QA032",
        }
    }

    /// The fixed severity of this code.
    pub fn severity(self) -> Severity {
        match self {
            DiagnosticCode::UnknownProperty
            | DiagnosticCode::DimensionMismatch
            | DiagnosticCode::UnsatisfiableBound
            | DiagnosticCode::UnusableWeights
            | DiagnosticCode::QosValueOutOfRange => Severity::Error,
            DiagnosticCode::NegligibleBranch
            | DiagnosticCode::LoopExpectationExceedsCap
            | DiagnosticCode::VacuousBound
            | DiagnosticCode::DuplicateConstraint
            | DiagnosticCode::DroppedWeight
            | DiagnosticCode::UnalignedUserProperty
            | DiagnosticCode::OptimisticGuarantee
            | DiagnosticCode::UnknownFunctionIri
            | DiagnosticCode::UnknownDataIri
            | DiagnosticCode::UnknownServiceFunction
            | DiagnosticCode::SelfReportedReputation => Severity::Warning,
        }
    }
}

impl fmt::Display for DiagnosticCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// A span-like location naming the middleware entities a diagnostic
/// refers to (there is no source text to point into — requests and QSDs
/// are in-memory structures).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Location {
    /// The task the diagnostic concerns.
    pub task: Option<String>,
    /// The activity within the task.
    pub activity: Option<String>,
    /// The QoS property (by the name the user/provider used).
    pub property: Option<String>,
    /// The concept IRI.
    pub iri: Option<String>,
    /// The service advertisement.
    pub service: Option<String>,
    /// The white-box operation within the service.
    pub operation: Option<String>,
}

impl Location {
    /// An empty location.
    pub fn none() -> Self {
        Location::default()
    }

    /// Location of a whole task.
    pub fn task(name: impl Into<String>) -> Self {
        Location {
            task: Some(name.into()),
            ..Location::default()
        }
    }

    /// Location of a QoS property reference.
    pub fn property(name: impl Into<String>) -> Self {
        Location {
            property: Some(name.into()),
            ..Location::default()
        }
    }

    /// Location of a service advertisement.
    pub fn service(name: impl Into<String>) -> Self {
        Location {
            service: Some(name.into()),
            ..Location::default()
        }
    }

    /// Adds the activity component.
    pub fn with_activity(mut self, name: impl Into<String>) -> Self {
        self.activity = Some(name.into());
        self
    }

    /// Adds the property component.
    pub fn with_property(mut self, name: impl Into<String>) -> Self {
        self.property = Some(name.into());
        self
    }

    /// Adds the IRI component.
    pub fn with_iri(mut self, iri: impl ToString) -> Self {
        self.iri = Some(iri.to_string());
        self
    }

    /// Adds the operation component.
    pub fn with_operation(mut self, name: impl Into<String>) -> Self {
        self.operation = Some(name.into());
        self
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = [
            ("task", &self.task),
            ("activity", &self.activity),
            ("property", &self.property),
            ("iri", &self.iri),
            ("service", &self.service),
            ("operation", &self.operation),
        ]
        .iter()
        .filter_map(|(k, v)| v.as_ref().map(|v| format!("{k} {v:?}")))
        .collect();
        if parts.is_empty() {
            write!(f, "<request>")
        } else {
            write!(f, "{}", parts.join(", "))
        }
    }
}

/// One finding of the static analyzer.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: DiagnosticCode,
    /// Error or warning (fixed per code).
    pub severity: Severity,
    /// What the finding refers to.
    pub location: Location,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic; the severity is derived from the code.
    pub fn new(code: DiagnosticCode, location: Location, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            location,
            message: message.into(),
        }
    }

    /// Whether this diagnostic blocks composition/ingestion.
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}: {} (at {})",
            self.code, self.severity, self.message, self.location
        )
    }
}

/// Whether any diagnostic in the slice is an [`Severity::Error`].
pub fn has_errors(diagnostics: &[Diagnostic]) -> bool {
    diagnostics.iter().any(Diagnostic::is_error)
}

/// Splits diagnostics into `(errors, warnings)`.
pub fn partition(diagnostics: Vec<Diagnostic>) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
    diagnostics.into_iter().partition(Diagnostic::is_error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        let all = [
            DiagnosticCode::NegligibleBranch,
            DiagnosticCode::LoopExpectationExceedsCap,
            DiagnosticCode::UnknownProperty,
            DiagnosticCode::DimensionMismatch,
            DiagnosticCode::UnsatisfiableBound,
            DiagnosticCode::VacuousBound,
            DiagnosticCode::DuplicateConstraint,
            DiagnosticCode::DroppedWeight,
            DiagnosticCode::UnusableWeights,
            DiagnosticCode::UnalignedUserProperty,
            DiagnosticCode::OptimisticGuarantee,
            DiagnosticCode::UnknownFunctionIri,
            DiagnosticCode::UnknownDataIri,
            DiagnosticCode::QosValueOutOfRange,
            DiagnosticCode::UnknownServiceFunction,
            DiagnosticCode::SelfReportedReputation,
        ];
        let mut codes: Vec<&str> = all.iter().map(|c| c.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), all.len(), "codes must be unique");
        for c in all {
            assert!(c.code().starts_with("QA"));
            assert_eq!(c.code().len(), 5);
        }
    }

    #[test]
    fn display_carries_code_severity_and_location() {
        let d = Diagnostic::new(
            DiagnosticCode::DimensionMismatch,
            Location::property("ResponseTime"),
            "bound given in euros",
        );
        let s = d.to_string();
        assert!(s.contains("QA011"));
        assert!(s.contains("error"));
        assert!(s.contains("ResponseTime"));
    }

    #[test]
    fn partition_splits_by_severity() {
        let e = Diagnostic::new(DiagnosticCode::UnknownProperty, Location::none(), "e");
        let w = Diagnostic::new(DiagnosticCode::VacuousBound, Location::none(), "w");
        let (errors, warnings) = partition(vec![e.clone(), w.clone()]);
        assert_eq!(errors, vec![e]);
        assert_eq!(warnings, vec![w]);
        assert!(has_errors(&errors));
        assert!(!has_errors(&warnings));
    }
}
