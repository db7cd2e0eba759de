//! The one serialisable report schema every consumer parses.
//!
//! Before this module the repo had three unrelated report shapes: the
//! distributed protocol's `DistributedReport`/`FaultReport` structs,
//! the bench binaries' printed figure tables, and nothing at all for a
//! plain `compose`/`execute` run. [`RunReport`] unifies them — each
//! producer fills the section it knows about, and the whole document
//! serialises with a stable field order so identical seeds yield
//! byte-identical JSON.
//!
//! Plain counts live once, in `metrics.counters`, under their
//! [`keys`](crate::keys) names; a reader calls
//! `report.metrics.counter(keys::X)`. Sections carrying structured
//! outcomes (`compose`, `execution`, `distributed`) are plain structs
//! with public fields that their producers construct directly.

use crate::json::JsonValue;
use crate::recorder::MetricsSnapshot;

/// Schema identifier stamped into every report; bump on breaking shape
/// changes so downstream diffing can refuse mixed comparisons.
pub const RUN_REPORT_SCHEMA: &str = "qasom.run-report.v1";

/// Schema identifier for bench trajectory files (`BENCH_*.json`).
pub const BENCH_REPORT_SCHEMA: &str = "qasom.bench-report.v1";

/// Simulated-network totals for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetsimSection {
    /// Messages handed to links.
    pub sent: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages dropped by lossy links.
    pub dropped: u64,
    /// Timers cancelled before firing.
    pub timers_cancelled: u64,
    /// Final simulated clock, microseconds.
    pub sim_time_us: u64,
}

impl NetsimSection {
    /// Serialises with a stable field order.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .field("sent", self.sent)
            .field("delivered", self.delivered)
            .field("dropped", self.dropped)
            .field("timers_cancelled", self.timers_cancelled)
            .field("sim_time_us", self.sim_time_us)
    }
}

/// Round-trip time of one provider, on the simulated clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProviderRtt {
    /// Provider node id.
    pub node: u32,
    /// First-digest round-trip time in simulated microseconds.
    pub rtt_us: u64,
}

impl ProviderRtt {
    /// Serialises with a stable field order.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .field("node", self.node)
            .field("rtt_us", self.rtt_us)
    }
}

/// Per-activity shortfall in a degraded distributed run (mirrors the
/// protocol's fault report).
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageEntry {
    /// Activity name.
    pub activity: String,
    /// Candidates merged from the providers that answered.
    pub candidates_heard: u64,
    /// Candidates the full workload holds for this activity.
    pub candidates_total: u64,
}

impl CoverageEntry {
    /// Serialises with a stable field order.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .field("activity", self.activity.as_str())
            .field("candidates_heard", self.candidates_heard)
            .field("candidates_total", self.candidates_total)
    }
}

/// Distributed-protocol totals for one run; the serialisable face of
/// `DistributedReport` + `FaultReport`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DistributedSection {
    /// Providers the coordinator addressed.
    pub providers: u64,
    /// Providers whose digest arrived before the deadline.
    pub providers_heard: u64,
    /// Protocol messages sent.
    pub messages: u64,
    /// Discrete events the simulation processed.
    pub sim_events: u64,
    /// Retransmissions issued.
    pub retries: u64,
    /// Fraction of the full candidate pool that was heard.
    pub coverage_ratio: f64,
    /// Whether the run finished on partial knowledge.
    pub degraded: bool,
    /// Whether the selected assignment met every constraint.
    pub feasible: bool,
    /// Utility of the selected assignment.
    pub utility: f64,
    /// Local phase duration, simulated microseconds.
    pub local_phase_us: u64,
    /// Global phase duration, simulated microseconds.
    pub global_phase_us: u64,
    /// Per-provider first-digest RTTs, ascending node id.
    pub provider_rtt: Vec<ProviderRtt>,
    /// Per-activity coverage shortfalls (empty when full).
    pub coverage: Vec<CoverageEntry>,
    /// Network totals for the run.
    pub net: NetsimSection,
}

impl DistributedSection {
    /// Serialises with a stable field order.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .field("providers", self.providers)
            .field("providers_heard", self.providers_heard)
            .field("messages", self.messages)
            .field("sim_events", self.sim_events)
            .field("retries", self.retries)
            .field("coverage_ratio", self.coverage_ratio)
            .field("degraded", self.degraded)
            .field("feasible", self.feasible)
            .field("utility", self.utility)
            .field("local_phase_us", self.local_phase_us)
            .field("global_phase_us", self.global_phase_us)
            .field(
                "provider_rtt",
                self.provider_rtt
                    .iter()
                    .map(ProviderRtt::to_json)
                    .collect::<Vec<_>>(),
            )
            .field(
                "coverage",
                self.coverage
                    .iter()
                    .map(CoverageEntry::to_json)
                    .collect::<Vec<_>>(),
            )
            .field("net", self.net.to_json())
    }
}

/// Outcome of the composition step of a run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ComposeSection {
    /// Task name.
    pub task: String,
    /// Whether the selection met every global constraint.
    pub feasible: bool,
    /// QoS levels QASSA explored.
    pub levels_explored: u64,
    /// Utility of the selected assignment.
    pub utility: f64,
    /// Analyzer diagnostics carried on the composition.
    pub analyzer_warnings: u64,
}

impl ComposeSection {
    /// Serialises with a stable field order.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .field("task", self.task.as_str())
            .field("feasible", self.feasible)
            .field("levels_explored", self.levels_explored)
            .field("utility", self.utility)
            .field("analyzer_warnings", self.analyzer_warnings)
    }
}

/// Outcome of the execution/adaptation step of a run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExecutionSection {
    /// Whether every activity was eventually served.
    pub success: bool,
    /// Activity invocations attempted.
    pub invocations: u64,
    /// Invocations that failed.
    pub failures: u64,
    /// Service substitutions performed.
    pub substitutions: u64,
    /// Behavioural adaptations performed.
    pub behavioural_adaptations: u64,
    /// Constraint violations detected (observed or predicted).
    pub violations: u64,
    /// End-to-end delivered QoS, `(property, value)` pairs in the QoS
    /// model's property order.
    pub delivered: Vec<(String, f64)>,
}

impl ExecutionSection {
    /// Serialises with a stable field order.
    pub fn to_json(&self) -> JsonValue {
        let mut delivered = JsonValue::object();
        for (name, value) in &self.delivered {
            delivered = delivered.field(name, *value);
        }
        JsonValue::object()
            .field("success", self.success)
            .field("invocations", self.invocations)
            .field("failures", self.failures)
            .field("substitutions", self.substitutions)
            .field("behavioural_adaptations", self.behavioural_adaptations)
            .field("violations", self.violations)
            .field("delivered", delivered)
    }
}

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
    pub compose: Option<ComposeSection>,
    /// Execution outcome, when the run executed the composition.
    pub execution: Option<ExecutionSection>,
    /// Distributed-protocol totals, when the run was distributed.
    pub distributed: Option<DistributedSection>,
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
        fn opt<T>(section: &Option<T>, to_json: fn(&T) -> JsonValue) -> JsonValue {
            section.as_ref().map_or(JsonValue::Null, to_json)
        }
        JsonValue::object()
            .field("schema", self.schema.as_str())
            .field("seed", self.seed)
            .field("scenario", self.scenario.as_str())
            .field("compose", opt(&self.compose, ComposeSection::to_json))
            .field("execution", opt(&self.execution, ExecutionSection::to_json))
            .field(
                "distributed",
                opt(&self.distributed, DistributedSection::to_json),
            )
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

/// One plotted series of a bench figure.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureSeries {
    /// Series label, as printed by the bench harness.
    pub label: String,
    /// `(x, y)` samples.
    pub points: Vec<(f64, f64)>,
}

impl FigureSeries {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        FigureSeries {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Serialises with a stable field order.
    pub fn to_json(&self) -> JsonValue {
        let points = self
            .points
            .iter()
            .map(|(x, y)| JsonValue::Array(vec![JsonValue::from(*x), JsonValue::from(*y)]))
            .collect::<Vec<_>>();
        JsonValue::object()
            .field("label", self.label.as_str())
            .field("points", points)
    }
}

/// One bench figure (a named group of series).
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Figure key (`vi5`, `loss`, …) as accepted by the repro binary.
    pub name: String,
    /// The figure's series.
    pub series: Vec<FigureSeries>,
}

impl Figure {
    /// Serialises with a stable field order.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object().field("name", self.name.as_str()).field(
            "series",
            self.series
                .iter()
                .map(FigureSeries::to_json)
                .collect::<Vec<_>>(),
        )
    }
}

/// A bench trajectory file (`BENCH_*.json`): the machine-readable twin
/// of the repro binary's printed figures.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Always [`BENCH_REPORT_SCHEMA`].
    pub schema: String,
    /// Base seed of the bench run.
    pub seed: u64,
    /// The regenerated figures.
    pub figures: Vec<Figure>,
}

impl BenchReport {
    /// An empty bench report for the given base seed.
    pub fn new(seed: u64) -> Self {
        BenchReport {
            schema: BENCH_REPORT_SCHEMA.to_owned(),
            seed,
            figures: Vec::new(),
        }
    }

    /// Serialises with a stable field order.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object()
            .field("schema", self.schema.as_str())
            .field("seed", self.seed)
            .field(
                "figures",
                self.figures.iter().map(Figure::to_json).collect::<Vec<_>>(),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full_reports_share_a_top_level_key_set() {
        let empty = RunReport::new(1, "a");
        let mut full = RunReport::new(2, "b");
        full.compose = Some(ComposeSection::default());
        full.execution = Some(ExecutionSection::default());
        full.distributed = Some(DistributedSection::default());
        let top = |r: &RunReport| match r.to_json() {
            JsonValue::Object(fields) => fields.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>(),
            _ => Vec::new(),
        };
        assert_eq!(top(&empty), top(&full));
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

    #[test]
    fn bench_report_serialises_figures() {
        let mut b = BenchReport::new(7);
        b.figures.push(Figure {
            name: "vi5".into(),
            series: vec![FigureSeries {
                label: "indexed".into(),
                points: vec![(1.0, 2.0), (3.0, 4.5)],
            }],
        });
        let json = b.to_json().to_compact();
        assert!(json.contains("\"schema\":\"qasom.bench-report.v1\""));
        assert!(json.contains("[3.0,4.5]"));
    }
}
