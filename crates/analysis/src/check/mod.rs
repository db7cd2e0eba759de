//! `qasom-check`: the deterministic schedule-exploring race checker.
//!
//! Static lock-discipline rules ([`crate::locks`]) prove that the
//! *source* acquires locks in the declared order; this module proves
//! that the *protocols* those locks implement are correct under every
//! interleaving a bounded scheduler can produce. The two prongs share
//! the same motivation: the serving and daemon layers are long-running
//! concurrent brokers whose correctness previously rested on stress
//! tests alone.
//!
//! The standard suite ([`run_suite`]) explores three models of real
//! workspace protocols (see [`models`]) under a preemption-bounded DFS
//! ([`explore`]), asserting deadlock-freedom and per-schedule
//! invariants. Results flow into `qasom-obs` as `check.*` counters and
//! a `CheckSection`, so the byte-identical-seeded-report guarantee
//! covers the checker itself.

pub mod explore;
pub mod models;
pub mod sync;

pub use explore::{
    explore, ExploreConfig, ExploreResult, Model, SchedViolation, MAX_VIOLATION_EXAMPLES,
};
pub use sync::{CheckMutex, CheckRwLock};

use qasom_obs::report::{CheckSection, CounterSection, ModelCheck};
use qasom_obs::{keys, MemoryRecorder, Recorder};

/// Configuration for the standard model suite.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Sibling-order seed (byte-identical reports per seed).
    pub seed: u64,
    /// Preemption budget per schedule.
    pub preemption_bound: usize,
    /// Safety cap on schedules per model.
    pub max_schedules: u64,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            seed: 42,
            // Bound 2 yields ~556 schedules across the suite; 3 yields
            // ~2.5k in single-digit milliseconds, clearing the 1,000
            // schedule acceptance floor with headroom.
            preemption_bound: 3,
            max_schedules: 500_000,
        }
    }
}

/// The aggregated verdict of one suite run.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// Per-model exploration outcomes, in suite order.
    pub results: Vec<ExploreResult>,
}

impl SuiteReport {
    /// Whether every model proved out (fully explored, deadlock-free,
    /// invariant-holding).
    pub fn ok(&self) -> bool {
        self.results.iter().all(ExploreResult::ok)
    }

    /// Total maximal schedules explored across all models.
    pub fn schedules(&self) -> u64 {
        self.results.iter().map(|r| r.schedules).sum()
    }

    /// Total deadlocked schedules across all models.
    pub fn deadlocks(&self) -> u64 {
        self.results.iter().map(|r| r.deadlocks).sum()
    }

    /// Total invariant violations across all models.
    pub fn violations(&self) -> u64 {
        self.results.iter().map(|r| r.violations).sum()
    }

    /// The serialisable report section: the suite totals are the
    /// `check.*` counters [`SuiteReport::record`] bumps, laid out by
    /// `keys::SECTIONS`.
    pub fn to_section(&self) -> CheckSection {
        let recorder = MemoryRecorder::new();
        self.record(&recorder);
        let totals = recorder.snapshot().unwrap_or_default();
        CheckSection {
            totals: CounterSection::from_snapshot("check", &totals, &[]),
            models: self
                .results
                .iter()
                .map(|r| ModelCheck {
                    name: r.model.to_owned(),
                    threads: r.threads as u64,
                    preemption_bound: r.preemption_bound as u64,
                    schedules: r.schedules,
                    steps: r.steps,
                    max_depth: r.max_depth as u64,
                    deadlocks: r.deadlocks,
                    violations: r.violations,
                })
                .collect(),
        }
    }

    /// Bumps the `check.*` counters on `recorder`.
    pub fn record(&self, recorder: &dyn Recorder) {
        recorder.incr(keys::CHECK_MODELS, self.results.len() as u64);
        recorder.incr(keys::CHECK_SCHEDULES, self.schedules());
        recorder.incr(
            keys::CHECK_STEPS,
            self.results.iter().map(|r| r.steps).sum(),
        );
        recorder.incr(keys::CHECK_DEADLOCKS, self.deadlocks());
        recorder.incr(keys::CHECK_VIOLATIONS, self.violations());
    }
}

/// Explores the three standard protocol models under `cfg`.
pub fn run_suite(cfg: &SuiteConfig) -> SuiteReport {
    let ec = ExploreConfig {
        seed: cfg.seed,
        preemption_bound: cfg.preemption_bound,
        max_schedules: cfg.max_schedules,
        ..ExploreConfig::default()
    };
    SuiteReport {
        results: vec![
            explore(&models::ComposeChurn::default(), &ec),
            explore(&models::ShardStamp::default(), &ec),
            explore(&models::AdmissionQueue::default(), &ec),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_suite_proves_out_with_enough_schedules() {
        let rep = run_suite(&SuiteConfig::default());
        assert!(rep.ok(), "suite must be deadlock- and violation-free");
        assert!(
            rep.schedules() >= 1000,
            "need >= 1000 schedules across the models, got {}",
            rep.schedules()
        );
    }

    #[test]
    fn suite_records_counters_and_sections_agree() {
        let rep = run_suite(&SuiteConfig::default());
        let rec = MemoryRecorder::new();
        rep.record(&rec);
        let snap = rec.snapshot().expect("memory recorder snapshots");
        let section = rep.to_section();
        assert_eq!(
            snap.counter(qasom_obs::keys::CHECK_SCHEDULES),
            section.totals["schedules"]
        );
        assert_eq!(snap.counter(qasom_obs::keys::CHECK_MODELS), 3);
        assert_eq!(section.models.len(), 3);
    }
}
