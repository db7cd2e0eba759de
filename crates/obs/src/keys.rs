//! Canonical counter names.
//!
//! Producers (`qasom-registry`, `qasom-selection`, `qasom`) and readers
//! (`report.metrics.counter(keys::X)`) agree on these constants, so a
//! renamed counter is a compile error, not a silent 0. A new counter is
//! one constant here; `qasom-cli report --schema` picks it up from
//! `metrics.counters` once a scenario bumps it.

/// Discovery queries answered via the inverted capability index.
pub const DISCOVERY_INDEXED: &str = "discovery.indexed_queries";
/// Discovery queries that fell back to the linear registry scan.
pub const DISCOVERY_LINEAR: &str = "discovery.linear_queries";
/// Service descriptions evaluated (signature + QoS) across all queries.
pub const DISCOVERY_EVALUATED: &str = "discovery.services_evaluated";
/// Candidates that survived discovery filtering.
pub const DISCOVERY_CANDIDATES: &str = "discovery.candidates";

/// QASSA selections performed (global phase entered).
pub const SELECTION_RUNS: &str = "selection.runs";
/// QASSA local-phase rankings performed (one per activity).
pub const SELECTION_LOCAL_RANKS: &str = "selection.local.ranks";
/// QoS levels (clusters) produced by the local phase.
pub const SELECTION_LOCAL_LEVELS: &str = "selection.local.levels";
/// Candidates ranked by the local phase.
pub const SELECTION_LOCAL_CANDIDATES: &str = "selection.local.candidates";
/// QoS levels the global phase actually explored.
pub const SELECTION_LEVELS_EXPLORED: &str = "selection.global.levels_explored";
/// Full-assignment utility/constraint evaluations in the global phase.
pub const SELECTION_UTILITY_EVALS: &str = "selection.global.utility_evaluations";
/// Repair swaps attempted while patching near-feasible assignments.
pub const SELECTION_REPAIR_SWAPS: &str = "selection.global.repair_swaps";
/// Candidates pruned (never admitted to the winning level prefix).
pub const SELECTION_PRUNED: &str = "selection.global.pruned_candidates";
/// Exhaustive-scan fallbacks taken after the level-wise search failed.
pub const SELECTION_EXACT_FALLBACKS: &str = "selection.global.exact_fallbacks";

/// Nothing increments this since delta re-selection was deleted; the
/// name stays because `perf/src/trace.rs` reads it (always 0) and
/// `perf/` changes only in `[benchmark]` PRs.
pub const SELECTION_DELTA_ATTEMPTS: &str = "selection.delta.attempts";
/// As [`SELECTION_DELTA_ATTEMPTS`]: read by `perf/`, never incremented.
pub const SELECTION_DELTA_INCREMENTAL: &str = "selection.delta.incremental";

/// Protocol messages sent during a distributed run.
pub const DISTRIBUTED_MESSAGES: &str = "distributed.messages";
/// Retransmissions the coordinator issued.
pub const DISTRIBUTED_RETRIES: &str = "distributed.retries";
/// Providers whose digest reached the coordinator.
pub const DISTRIBUTED_PROVIDERS_HEARD: &str = "distributed.providers_heard";

/// Messages dropped by simulated links.
pub const NETSIM_DROPPED: &str = "netsim.dropped";
/// Messages delivered by simulated links.
pub const NETSIM_DELIVERED: &str = "netsim.delivered";
/// Timers cancelled before firing (deadline/retry hygiene).
pub const NETSIM_TIMERS_CANCELLED: &str = "netsim.timers_cancelled";

/// Compositions produced.
pub const EVENT_COMPOSED: &str = "events.composed";
/// Successful activity invocations.
pub const EVENT_INVOKED: &str = "events.invoked";
/// Failed activity invocations.
pub const EVENT_INVOCATION_FAILED: &str = "events.invocation_failed";
/// Observed or predicted constraint violations.
pub const EVENT_VIOLATION: &str = "events.violation_detected";
/// Service substitutions.
pub const EVENT_SUBSTITUTED: &str = "events.substituted";
/// Behavioural adaptations (task-class behaviour switches).
pub const EVENT_BEHAVIOURAL: &str = "events.behavioural_adaptation";
/// Non-fatal analyzer diagnostics surfaced during ingestion.
pub const EVENT_ANALYSIS_WARNING: &str = "events.analysis_warning";
/// Completed executions (successful or not).
pub const EVENT_COMPLETED: &str = "events.completed";

/// `SharedEnvironment` read-lock acquisitions (compose and queries).
pub const SERVING_READ_LOCKS: &str = "serving.read_locks";
/// `SharedEnvironment` write-lock acquisitions (execute, churn,
/// checkpoints, ontology reloads).
pub const SERVING_WRITE_LOCKS: &str = "serving.write_locks";

/// Sessions the daemon's admission layer accepted into the queue.
pub const DAEMON_ADMITTED: &str = "daemon.sessions_admitted";
/// Sessions shed with a `Busy` outcome because the queue was full.
pub const DAEMON_SHED: &str = "daemon.sessions_shed";
/// Sessions shed with a `Busy` outcome because a client exceeded its
/// in-flight quota.
pub const DAEMON_QUOTA_DENIALS: &str = "daemon.quota_denials";
/// Sessions that completed execution through the daemon.
pub const DAEMON_COMPLETED: &str = "daemon.sessions_completed";
/// Sessions rejected by static analysis (typed `Rejected` outcome).
pub const DAEMON_REJECTED: &str = "daemon.sessions_rejected";
/// Sessions whose compose or execute failed (`ERROR` reply).
pub const DAEMON_FAILED: &str = "daemon.sessions_failed";
/// Compose batches formed by the batcher (one compose pass each).
pub const DAEMON_BATCHES: &str = "daemon.batches";
/// Sessions served out of shared-compose batches.
pub const DAEMON_BATCHED_SESSIONS: &str = "daemon.batched_sessions";
/// Frames the daemon read from client connections.
pub const DAEMON_FRAMES_READ: &str = "daemon.frames_read";
/// Frames the daemon wrote back to client connections.
pub const DAEMON_FRAMES_WRITTEN: &str = "daemon.frames_written";
/// Broker scheduling rounds (ticks) executed.
pub const DAEMON_TICKS: &str = "daemon.ticks";

/// WAL records the registry journal appended.
pub const PERSIST_WAL_APPENDS: &str = "persistence.wal.appends";
/// WAL bytes written (frame headers included).
pub const PERSIST_WAL_BYTES: &str = "persistence.wal.bytes";
/// Snapshot checkpoints taken (WAL truncated each time).
pub const PERSIST_CHECKPOINTS: &str = "persistence.checkpoints";
/// Events replayed from the WAL tail on boot.
pub const PERSIST_REPLAY_EVENTS: &str = "persistence.replay.events";
/// Torn WAL tails detected and discarded on boot (never replayed).
pub const PERSIST_TORN_TAIL: &str = "persistence.wal.torn_tail";
/// Snapshots loaded on boot.
pub const PERSIST_SNAPSHOT_LOADS: &str = "persistence.snapshot.loads";
/// Journal I/O failures (journaling stops at the first one).
pub const PERSIST_ERRORS: &str = "persistence.errors";
