//! The one serialisable report envelope every consumer parses.
//!
//! A [`RunReport`] stamps a run with its schema, seed and scenario,
//! carries the recorder's counters under `metrics.counters`, and holds
//! up to three structured sections (`compose`, `execution`,
//! `distributed`). Each section is JSON written by the code that owns
//! its outcome (`Environment::compose_section`,
//! `Environment::execution_section`, `DistributedReport::to_json`);
//! this crate only places it. The whole document serialises with a
//! stable field order, so identical seeds yield byte-identical JSON,
//! and the checked-in fixtures are the contract for each section's
//! shape.
//!
//! Plain counts live once, in `metrics.counters`, under their
//! [`keys`](crate::keys) names; a reader calls
//! `report.metrics.counter(keys::X)`.

use crate::json::JsonValue;
use crate::recorder::MetricsSnapshot;

/// Schema identifier stamped into every report; bump on breaking shape
/// changes so downstream diffing can refuse mixed comparisons.
pub const RUN_REPORT_SCHEMA: &str = "qasom.run-report.v1";

/// The unified, seed-stamped run report.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Always [`RUN_REPORT_SCHEMA`].
    pub schema: String,
    /// The seed that produced this run (reports are a pure function of
    /// it).
    pub seed: u64,
    /// Free-form scenario label (`"builtin"`, a task name, …).
    pub scenario: String,
    /// Composition outcome, when the run composed a task.
    pub compose: Option<JsonValue>,
    /// Execution outcome, when the run executed the composition.
    pub execution: Option<JsonValue>,
    /// Distributed-protocol totals, when the run was distributed.
    pub distributed: Option<JsonValue>,
    /// Every pipeline counter the run's recorder kept.
    pub metrics: MetricsSnapshot,
}

impl RunReport {
    /// An empty report for the given seed and scenario label.
    pub fn new(seed: u64, scenario: &str) -> Self {
        RunReport {
            schema: RUN_REPORT_SCHEMA.to_owned(),
            seed,
            scenario: scenario.to_owned(),
            compose: None,
            execution: None,
            distributed: None,
            metrics: MetricsSnapshot::default(),
        }
    }

    /// Serialises with a stable field order. Absent sections serialise
    /// as `null` so the key set — the schema CI diffs — is identical
    /// across runs that exercise different pipeline subsets.
    pub fn to_json(&self) -> JsonValue {
        let section = |s: &Option<JsonValue>| s.clone().unwrap_or(JsonValue::Null);
        JsonValue::object()
            .field("schema", self.schema.as_str())
            .field("seed", self.seed)
            .field("scenario", self.scenario.as_str())
            .field("compose", section(&self.compose))
            .field("execution", section(&self.execution))
            .field("distributed", section(&self.distributed))
            .field("metrics", self.metrics.to_json())
    }

    /// Canonical byte-stable serialisation (what golden tests compare).
    pub fn to_compact_string(&self) -> String {
        self.to_json().to_compact()
    }

    /// Human-oriented serialisation (still deterministic).
    pub fn to_pretty_string(&self) -> String {
        self.to_json().to_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full_reports_share_a_top_level_key_set() {
        let empty = RunReport::new(1, "a");
        let mut full = RunReport::new(2, "b");
        full.compose = Some(JsonValue::object().field("task", "t"));
        full.execution = Some(JsonValue::object().field("success", true));
        full.distributed = Some(JsonValue::object().field("providers", 1u64));
        let top = |r: &RunReport| match r.to_json() {
            JsonValue::Object(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            _ => Vec::new(),
        };
        assert_eq!(top(&empty), top(&full));
        assert!(empty
            .to_compact_string()
            .contains(r#""compose":null,"execution":null,"distributed":null"#));
        assert_eq!(
            top(&full),
            [
                "schema",
                "seed",
                "scenario",
                "compose",
                "execution",
                "distributed",
                "metrics"
            ]
        );
        let JsonValue::Object(fields) = full.to_json() else {
            panic!("a report is an object");
        };
        assert!(fields.iter().all(|(_, v)| *v != JsonValue::Null));
    }
}
