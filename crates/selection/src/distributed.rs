//! Distributed QASSA: local selection on provider nodes, global selection
//! on the requesting device — the ad hoc variant of the algorithm
//! (Fig. VI.12 of the original evaluation), hardened for the lossy links
//! and provider churn of a physical testbed.
//!
//! The protocol, over the [`qasom_netsim`] simulator:
//!
//! 1. the coordinator (user device) broadcasts a `SelectRequest` from its
//!    own [`NodeBehaviour::on_start`] — the request leg transits real
//!    links, so it is subject to latency, jitter and loss exactly like
//!    the digest leg;
//! 2. every provider node runs the *local selection* phase over the
//!    candidates it hosts — looked up per activity through its own
//!    capability-indexed shard registry, not a linear scan —
//!    (cost modelled as `candidates × properties × per_candidate_cost`,
//!    scaled by the node's CPU factor) and replies with per-activity
//!    ranked digests; retransmitted requests are answered from the
//!    cached ranking;
//! 3. providers that have not answered are re-requested with capped
//!    exponential backoff plus seeded jitter ([`RetryPolicy`]) until the
//!    reply deadline;
//! 4. once all expected digests arrived — or the deadline passes — the
//!    coordinator merges the digests ([`QosLevels::merge`]) and runs the
//!    *global selection* phase locally over whatever it heard.
//!
//! The report separates the local phase (request → last digest, dominated
//! by the slowest provider + messaging) from the global phase (coordinator
//! compute), which is exactly the split the original figure plots — and
//! carries a [`FaultReport`] so callers can tell an *optimal* outcome from
//! a *best-of-what-answered* one: which providers went missing, how much
//! of the candidate pool each activity retained, and how many
//! retransmissions the run spent.

use std::collections::BTreeSet;
use std::sync::Arc;

use qasom_netsim::{
    DeviceProfile, LinkConfig, NetworkStats, NodeBehaviour, NodeContext, NodeId, SimDuration,
    SimTime, Simulation,
};
use qasom_obs::{keys, JsonValue, Recorder};
use qasom_ontology::Ontology;
use qasom_qos::{ConstraintSet, Preferences, PropertyId, QosModel};
use qasom_registry::{Discovery, DiscoveryQuery, ServiceDescription, ServiceId, ServiceRegistry};
use qasom_task::{Activity, UserTask};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workload::Workload;
use crate::{
    AggregationApproach, LocalRank, Qassa, QassaConfig, QosLevels, SelectionOutcome,
    SelectionProblem, ServiceCandidate,
};

/// Timer key of the coordinator's reply deadline.
const DEADLINE_TIMER: u64 = 0;
/// Timer key of the coordinator's retransmission rounds.
const RETRY_TIMER: u64 = 1;

/// Protocol messages.
#[derive(Debug, Clone)]
pub enum Message {
    /// Coordinator → providers: run local selection. Retransmissions are
    /// byte-identical; providers answer duplicates from their cached
    /// ranking.
    SelectRequest {
        /// Properties to rank on.
        properties: Vec<PropertyId>,
        /// User preference weights.
        preferences: Preferences,
    },
    /// Provider → coordinator: ranked digests, one per hosted activity,
    /// plus the raw candidates (the coordinator needs them to rebuild a
    /// complete problem for the global phase).
    LocalDigest {
        /// Per-activity `(activity index, hierarchy, candidates)`.
        digests: Vec<(usize, QosLevels, Vec<ServiceCandidate>)>,
    },
}

/// Retransmission policy for unanswered providers: capped exponential
/// backoff with seeded jitter, bounded by the reply deadline.
///
/// Round `r` (zero-based) fires `base_delay_ms × 2^r` (capped at
/// `max_delay_ms`) plus a uniform jitter in `[0, jitter_ms]` after the
/// previous round; only providers that have not yet answered are
/// re-requested. Jitter is drawn from a generator seeded by the run seed,
/// so runs stay deterministic per seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retransmission rounds (0 disables retries).
    pub max_retries: u32,
    /// Delay before the first retransmission round, in simulated ms.
    pub base_delay_ms: u64,
    /// Upper bound on the exponentially growing round delay, in ms.
    pub max_delay_ms: u64,
    /// Uniform jitter added to every round delay, in ms.
    pub jitter_ms: u64,
}

impl RetryPolicy {
    /// No retransmissions: a lost request or digest permanently shrinks
    /// the candidate pool (the pre-fault-tolerance behaviour).
    pub fn disabled() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_delay_ms: 0,
            max_delay_ms: 0,
            jitter_ms: 0,
        }
    }

    /// Whether any retransmission round may fire.
    pub fn is_enabled(&self) -> bool {
        self.max_retries > 0
    }

    /// The capped exponential delay of round `round`, without jitter.
    fn backoff_ms(&self, round: u32) -> u64 {
        let cap = self.max_delay_ms.max(self.base_delay_ms);
        self.base_delay_ms
            .saturating_mul(1u64 << round.min(20))
            .min(cap)
    }
}

impl Default for RetryPolicy {
    /// Eight rounds at 50 ms doubling to a 800 ms cap with ≤ 20 ms of
    /// jitter — all rounds fit comfortably inside the default 5 s reply
    /// deadline.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 8,
            base_delay_ms: 50,
            max_delay_ms: 800,
            jitter_ms: 20,
        }
    }
}

/// Deployment parameters of a distributed run.
#[derive(Debug, Clone, Copy)]
pub struct DistributedSetup {
    /// Number of provider nodes the candidates are spread over.
    pub providers: usize,
    /// Wireless link profile.
    pub link: LinkConfig,
    /// Device profile of provider nodes.
    pub provider_profile: DeviceProfile,
    /// Device profile of the coordinator (user device).
    pub coordinator_profile: DeviceProfile,
    /// Modelled local-selection cost per (candidate × property), in
    /// microseconds on the reference machine.
    pub per_candidate_cost_us: u64,
    /// How long the coordinator waits for provider digests before
    /// proceeding with whatever arrived (provider churn tolerance), in
    /// simulated milliseconds.
    pub reply_timeout_ms: u64,
    /// Retransmission policy for unanswered providers.
    pub retry: RetryPolicy,
    /// Optional transient-network schedule: at `(t_ms, link)` the default
    /// link switches to `link` (e.g. an outage clearing after t_ms).
    pub link_after: Option<(u64, LinkConfig)>,
    /// Optional cap on simulator events (`None` keeps the simulator's
    /// default); exhausting it surfaces as
    /// [`SelectionError::ProtocolAborted`](crate::SelectionError).
    pub max_sim_events: Option<u64>,
}

impl Default for DistributedSetup {
    /// Ten constrained handhelds on a 5 ms ± 1 ms ad hoc network; 10 µs
    /// of ranking work per candidate-property; default retries on.
    fn default() -> Self {
        DistributedSetup {
            providers: 10,
            link: LinkConfig::default(),
            provider_profile: DeviceProfile::constrained(),
            coordinator_profile: DeviceProfile::constrained(),
            per_candidate_cost_us: 10,
            reply_timeout_ms: 5_000,
            retry: RetryPolicy::default(),
            link_after: None,
            max_sim_events: None,
        }
    }
}

/// Per-activity candidate coverage of a distributed run: how many of the
/// workload's candidates for this activity actually reached the
/// coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivityCoverage {
    /// DFS index of the activity.
    pub activity: usize,
    /// Candidates received from the providers that answered.
    pub received: usize,
    /// Candidates the full workload holds for this activity.
    pub expected: usize,
}

/// Degraded-mode section of a [`DistributedReport`]: distinguishes an
/// outcome computed over the complete candidate pool from a
/// best-of-what-answered one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultReport {
    /// Providers the coordinator expected digests from.
    pub providers_expected: usize,
    /// Providers whose digest arrived before the reply deadline.
    pub providers_heard: usize,
    /// Providers that never answered (their candidates are missing from
    /// the global phase).
    pub missing_providers: Vec<NodeId>,
    /// Retransmitted requests (protocol messages beyond the first round).
    pub retries_sent: u64,
    /// Per-activity candidate coverage vs. the full workload.
    pub activity_coverage: Vec<ActivityCoverage>,
}

impl FaultReport {
    /// Whether every activity retained its complete candidate pool.
    pub fn full_coverage(&self) -> bool {
        self.activity_coverage
            .iter()
            .all(|c| c.received >= c.expected)
    }

    /// Whether the outcome is degraded: some provider was never heard or
    /// some activity lost candidates. A degraded outcome is still the
    /// best composition *of what answered*, not of the full pool.
    pub fn is_degraded(&self) -> bool {
        self.providers_heard < self.providers_expected || !self.full_coverage()
    }

    /// Fraction of the workload's candidates that reached the
    /// coordinator, in `[0, 1]` (1.0 when the workload is empty).
    pub fn coverage_ratio(&self) -> f64 {
        let expected: usize = self.activity_coverage.iter().map(|c| c.expected).sum();
        if expected == 0 {
            return 1.0;
        }
        let received: usize = self
            .activity_coverage
            .iter()
            .map(|c| c.received.min(c.expected))
            .sum();
        received as f64 / expected as f64
    }
}

/// Result of a distributed QASSA run.
#[derive(Debug, Clone)]
pub struct DistributedReport {
    /// The selection outcome computed by the coordinator.
    pub outcome: SelectionOutcome,
    /// Simulated duration of the local phase (request → last digest).
    pub local_phase: SimDuration,
    /// Simulated duration of the global phase (coordinator compute).
    pub global_phase: SimDuration,
    /// Total protocol messages sent (requests, retransmissions, digests —
    /// nothing is injected outside the link model).
    pub messages: u64,
    /// Simulator events processed by the run. Cancelled timers are not
    /// processed, so a clean run's count reflects protocol work only.
    pub sim_events: u64,
    /// Per-provider first-digest round-trip times (request send →
    /// digest arrival) on the simulated clock, ascending node id.
    pub provider_rtt_us: Vec<(u32, u64)>,
    /// Network totals of the run (sends, drops, cancelled timers, …).
    pub net: NetworkStats,
    /// Final simulated clock of the run, microseconds.
    pub sim_time_us: u64,
    /// Fault-tolerance outcome: who answered, what coverage survived,
    /// what the retries cost.
    pub fault: FaultReport,
}

impl DistributedReport {
    /// Total simulated selection latency.
    pub fn total(&self) -> SimDuration {
        self.local_phase + self.global_phase
    }

    /// The `distributed` section of a
    /// [`RunReport`](qasom_obs::report::RunReport): protocol totals, the
    /// fault report's coverage, phase times and per-provider RTTs on
    /// the simulated clock, and the network totals, in a stable field
    /// order. `coverage` lists only the activities that lost candidates.
    pub fn to_json(&self) -> JsonValue {
        let fault = &self.fault;
        let provider_rtt: Vec<JsonValue> = self
            .provider_rtt_us
            .iter()
            .map(|&(node, rtt_us)| {
                JsonValue::object()
                    .field("node", node)
                    .field("rtt_us", rtt_us)
            })
            .collect();
        let coverage: Vec<JsonValue> = fault
            .activity_coverage
            .iter()
            .filter(|c| c.received < c.expected)
            .map(|c| {
                JsonValue::object()
                    .field("activity", format!("#{}", c.activity))
                    .field("candidates_heard", c.received)
                    .field("candidates_total", c.expected)
            })
            .collect();
        JsonValue::object()
            .field("providers", fault.providers_expected)
            .field("providers_heard", fault.providers_heard)
            .field("messages", self.messages)
            .field("sim_events", self.sim_events)
            .field("retries", fault.retries_sent)
            .field("coverage_ratio", fault.coverage_ratio())
            .field("degraded", fault.is_degraded())
            .field("feasible", self.outcome.feasible)
            .field("utility", self.outcome.utility)
            .field("local_phase_us", self.local_phase.as_micros())
            .field("global_phase_us", self.global_phase.as_micros())
            .field("provider_rtt", provider_rtt)
            .field("coverage", coverage)
            .field(
                "net",
                JsonValue::object()
                    .field("sent", self.net.sent)
                    .field("delivered", self.net.delivered)
                    .field("dropped", self.net.dropped)
                    .field("timers_cancelled", self.net.timers_cancelled)
                    .field("sim_time_us", self.sim_time_us),
            )
    }

    /// Flushes this report's protocol and network counters to
    /// `recorder`. Phase times and per-provider RTTs stay in the report
    /// (and its [`to_json`](Self::to_json) section).
    pub fn record(&self, recorder: &dyn Recorder) {
        recorder.incr(keys::DISTRIBUTED_MESSAGES, self.messages);
        recorder.incr(keys::DISTRIBUTED_RETRIES, self.fault.retries_sent);
        recorder.incr(
            keys::DISTRIBUTED_PROVIDERS_HEARD,
            self.fault.providers_heard as u64,
        );
        recorder.incr(keys::NETSIM_DELIVERED, self.net.delivered);
        recorder.incr(keys::NETSIM_DROPPED, self.net.dropped);
        recorder.incr(keys::NETSIM_TIMERS_CANCELLED, self.net.timers_cancelled);
    }
}

struct ProviderState {
    model: QosModel,
    local: LocalRank,
    /// `(activity index, abstract activity)` pairs this provider hosts
    /// candidates for. The candidates themselves live in the provider's
    /// own capability-indexed [`registry`](Self::registry) and are
    /// re-discovered (not linearly scanned) on each first request.
    hosted: Vec<(usize, Activity)>,
    /// The taxonomy the shard registry is indexed under (shared with the
    /// workload, so index probes are a single posting-list lookup).
    ontology: Arc<Ontology>,
    /// This provider's shard of the service pool, as its own indexed
    /// registry.
    registry: ServiceRegistry,
    /// Shard-local [`ServiceId`] (dense, registration order) → the
    /// workload-global id the coordinator knows the candidate by.
    global_ids: Vec<ServiceId>,
    per_candidate_cost_us: u64,
    /// Ranking computed on the first request; retransmissions are
    /// answered from this cache (the work is not redone, only the reply
    /// leg is repeated).
    digests: Option<Vec<(usize, QosLevels, Vec<ServiceCandidate>)>>,
}

impl ProviderState {
    /// Local-selection phase: discover this provider's candidates for
    /// every hosted activity through the capability index, then rank
    /// each activity's pool. Returns the
    /// digests plus the modelled work in candidate×property units.
    fn rank_shard(
        &self,
        properties: &[PropertyId],
        preferences: &Preferences,
    ) -> (Vec<(usize, QosLevels, Vec<ServiceCandidate>)>, u64) {
        let discovery = Discovery::new(&self.ontology, &self.model);
        let mut digests = Vec::with_capacity(self.hosted.len());
        let mut work_units = 0u64;
        for (activity_index, activity) in &self.hosted {
            let found = discovery.discover(&self.registry, &DiscoveryQuery::new(activity));
            let cands: Vec<ServiceCandidate> = found
                .iter()
                .map(|m| {
                    let id = self
                        .global_ids
                        .get(m.service.index())
                        .copied()
                        .unwrap_or(m.service);
                    ServiceCandidate::new(id, m.effective_qos.clone())
                })
                .collect();
            let levels = self
                .local
                .rank(&self.model, &cands, properties, preferences);
            work_units += (cands.len() * properties.len()) as u64;
            digests.push((*activity_index, levels, cands));
        }
        (digests, work_units)
    }
}

struct CoordinatorState {
    model: QosModel,
    config: QassaConfig,
    task: UserTask,
    constraints: ConstraintSet,
    preferences: Preferences,
    properties: Vec<PropertyId>,
    approach: AggregationApproach,
    expected_replies: usize,
    /// Providers discovered at kickoff (all peers).
    providers: Vec<NodeId>,
    /// Providers whose digest was merged (duplicates are ignored).
    answered: BTreeSet<NodeId>,
    /// First-digest arrival instants, in answer order — the basis of the
    /// report's per-provider round-trip times.
    digest_arrivals: Vec<(NodeId, SimTime)>,
    merged: Vec<QosLevels>,
    candidates: Vec<Vec<ServiceCandidate>>,
    per_candidate_cost_us: u64,
    reply_timeout_ms: u64,
    retry: RetryPolicy,
    retry_round: u32,
    retry_pending: bool,
    deadline_pending: bool,
    retries_sent: u64,
    rng: StdRng,
    started_at: SimTime,
    local_done_at: Option<SimTime>,
    global_done_at: Option<SimTime>,
    outcome: Option<Result<SelectionOutcome, crate::SelectionError>>,
}

impl CoordinatorState {
    fn request(&self) -> Message {
        Message::SelectRequest {
            properties: self.properties.clone(),
            preferences: self.preferences.clone(),
        }
    }

    /// The absolute instant of the reply deadline.
    fn deadline_at(&self) -> SimTime {
        self.started_at + SimDuration::from_millis(self.reply_timeout_ms)
    }

    /// Schedules the next retransmission round if one remains and it
    /// would fire before the reply deadline.
    fn schedule_retry(&mut self, ctx: &mut NodeContext<'_, Message>) {
        if self.retry_round >= self.retry.max_retries {
            return;
        }
        let jitter_us = if self.retry.jitter_ms == 0 {
            0
        } else {
            self.rng.gen_range(0..=self.retry.jitter_ms * 1_000)
        };
        let delay =
            SimDuration::from_micros(self.retry.backoff_ms(self.retry_round) * 1_000 + jitter_us);
        if ctx.now() + delay < self.deadline_at() {
            ctx.set_timer(delay, RETRY_TIMER);
            self.retry_pending = true;
        }
    }

    /// Cancels whichever of the deadline/retry timers are still pending,
    /// so a completed run leaves no stale events in the queue.
    fn cancel_timers(&mut self, ctx: &mut NodeContext<'_, Message>) {
        if self.deadline_pending {
            ctx.cancel_timer(DEADLINE_TIMER);
            self.deadline_pending = false;
        }
        if self.retry_pending {
            ctx.cancel_timer(RETRY_TIMER);
            self.retry_pending = false;
        }
    }

    /// Runs the global phase over whatever digests arrived.
    fn finish(&mut self, ctx: &mut NodeContext<'_, Message>) {
        self.local_done_at = Some(ctx.now());

        // Global phase on the user device.
        let total: u64 = self.candidates.iter().map(|c| c.len() as u64).sum();
        let props = self.constraints.len().max(self.preferences.len()).max(1) as u64;
        let work = SimDuration::from_micros(total * props * self.per_candidate_cost_us / 4);
        ctx.compute(work);

        let problem = SelectionProblem::new(&self.task)
            .with_candidates(self.candidates.clone())
            .with_constraints(self.constraints.clone())
            .with_preferences(self.preferences.clone())
            .with_approach(self.approach);
        let qassa = Qassa::with_config(&self.model, self.config);
        // Digests arriving after this point are dropped (`outcome` is
        // set), so the merged hierarchies can move into the outcome.
        let merged: Vec<Arc<QosLevels>> = std::mem::take(&mut self.merged)
            .into_iter()
            .map(Arc::new)
            .collect();
        let result = qassa.select_with_shared_levels(&problem, &merged);
        self.global_done_at = Some(ctx.now() + ctx.compute_debt());
        self.outcome = Some(result);
    }
}

enum Role {
    Provider(Box<ProviderState>),
    Coordinator(Box<CoordinatorState>),
}

impl NodeBehaviour<Message> for Role {
    fn on_start(&mut self, ctx: &mut NodeContext<'_, Message>) {
        if let Role::Coordinator(state) = self {
            // Kickoff happens *inside* the simulation: every request
            // transits a real link and can be delayed, jittered or lost,
            // symmetrically with the digest leg.
            state.started_at = ctx.now();
            state.providers = ctx.peers().to_vec();
            let request = state.request();
            for i in 0..state.providers.len() {
                ctx.send(state.providers[i], request.clone());
            }
            // Churn tolerance: proceed with whatever digests arrived once
            // the reply deadline passes.
            ctx.set_timer(
                SimDuration::from_millis(state.reply_timeout_ms),
                DEADLINE_TIMER,
            );
            state.deadline_pending = true;
            if state.retry.is_enabled() {
                state.schedule_retry(ctx);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut NodeContext<'_, Message>, timer: u64) {
        let Role::Coordinator(state) = self else {
            return;
        };
        match timer {
            DEADLINE_TIMER => {
                state.deadline_pending = false;
                if state.outcome.is_none() {
                    state.cancel_timers(ctx);
                    state.finish(ctx);
                }
            }
            RETRY_TIMER => {
                state.retry_pending = false;
                if state.outcome.is_some() {
                    return;
                }
                let request = state.request();
                let unanswered: Vec<NodeId> = state
                    .providers
                    .iter()
                    .copied()
                    .filter(|p| !state.answered.contains(p))
                    .collect();
                for &p in &unanswered {
                    ctx.send(p, request.clone());
                }
                state.retries_sent += unanswered.len() as u64;
                state.retry_round += 1;
                state.schedule_retry(ctx);
            }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut NodeContext<'_, Message>, from: NodeId, msg: Message) {
        match (self, msg) {
            (
                Role::Provider(state),
                Message::SelectRequest {
                    properties,
                    preferences,
                },
            ) => {
                if state.digests.is_none() {
                    let (digests, work_units) = state.rank_shard(&properties, &preferences);
                    ctx.compute(SimDuration::from_micros(
                        work_units * state.per_candidate_cost_us,
                    ));
                    state.digests = Some(digests);
                }
                let digests = state.digests.clone().unwrap_or_default();
                ctx.send(from, Message::LocalDigest { digests });
            }
            (Role::Coordinator(state), Message::LocalDigest { digests }) => {
                if state.outcome.is_some() || !state.answered.insert(from) {
                    // Late (post-deadline) or duplicate digest.
                    return;
                }
                state.digest_arrivals.push((from, ctx.now()));
                for (activity, levels, cands) in digests {
                    state.merged[activity].merge(levels);
                    state.candidates[activity].extend(cands);
                }
                if state.answered.len() == state.expected_replies {
                    state.cancel_timers(ctx);
                    state.finish(ctx);
                }
            }
            _ => {}
        }
    }
}

/// Drives distributed QASSA runs over the network simulator.
#[derive(Debug, Clone, Copy)]
pub struct DistributedQassa<'a> {
    model: &'a QosModel,
    config: QassaConfig,
}

impl<'a> DistributedQassa<'a> {
    /// Creates a driver with the default QASSA configuration.
    pub fn new(model: &'a QosModel) -> Self {
        DistributedQassa {
            model,
            config: QassaConfig::default(),
        }
    }

    /// Overrides the QASSA configuration.
    pub fn with_config(mut self, config: QassaConfig) -> Self {
        self.config = config;
        self
    }

    /// Runs the protocol for `workload` under `setup`, deterministically
    /// from `seed` (link sampling and retry jitter both derive from it).
    ///
    /// # Errors
    ///
    /// Propagates structural selection errors (e.g. an activity whose
    /// candidates reached the coordinator from no provider) and reports
    /// [`SelectionError::ProtocolAborted`](crate::SelectionError) when the
    /// simulator exhausts its event cap before the protocol completes.
    ///
    /// # Panics
    ///
    /// Panics if `setup.providers == 0`.
    pub fn run(
        &self,
        workload: &Workload,
        setup: &DistributedSetup,
        seed: u64,
    ) -> Result<DistributedReport, crate::SelectionError> {
        self.run_recorded(workload, setup, seed, None)
    }

    /// [`DistributedQassa::run`] with an optional [`Recorder`]: protocol
    /// counters are flushed after the run completes, so instrumentation
    /// can never perturb protocol counts or timing.
    ///
    /// # Errors
    ///
    /// As [`DistributedQassa::run`].
    ///
    /// # Panics
    ///
    /// Panics if `setup.providers == 0`.
    pub fn run_recorded(
        &self,
        workload: &Workload,
        setup: &DistributedSetup,
        seed: u64,
        recorder: Option<&dyn Recorder>,
    ) -> Result<DistributedReport, crate::SelectionError> {
        assert!(setup.providers > 0, "at least one provider is required");
        let n_activities = workload.task().activity_count();

        // Shard candidates round-robin over providers.
        let mut shards: Vec<Vec<(usize, Vec<ServiceCandidate>)>> =
            vec![(0..n_activities).map(|a| (a, Vec::new())).collect(); setup.providers];
        for (activity, cands) in workload.candidates().iter().enumerate() {
            for (i, c) in cands.iter().enumerate() {
                shards[i % setup.providers][activity].1.push(c.clone());
            }
        }
        for shard in &mut shards {
            shard.retain(|(_, cands)| !cands.is_empty());
        }
        let expected_replies = setup.providers;

        let problem = workload.problem();
        let properties = problem.properties();

        let mut sim: Simulation<Message, Role> = Simulation::new(seed);
        sim.set_default_link(setup.link);
        if let Some((at_ms, link)) = setup.link_after {
            sim.set_default_link_at(SimDuration::from_millis(at_ms), link);
        }
        if let Some(cap) = setup.max_sim_events {
            sim.set_max_events(cap);
        }

        let coordinator = sim.add_node(
            setup.coordinator_profile,
            Role::Coordinator(Box::new(CoordinatorState {
                model: self.model.clone(),
                config: self.config,
                task: workload.task().clone(),
                constraints: problem.constraints().clone(),
                preferences: problem.preferences().clone(),
                properties: properties.clone(),
                approach: problem.approach(),
                expected_replies,
                providers: Vec::new(),
                answered: BTreeSet::new(),
                digest_arrivals: Vec::new(),
                merged: vec![QosLevels::default(); n_activities],
                candidates: vec![Vec::new(); n_activities],
                per_candidate_cost_us: setup.per_candidate_cost_us,
                reply_timeout_ms: setup.reply_timeout_ms,
                retry: setup.retry,
                retry_round: 0,
                retry_pending: false,
                deadline_pending: false,
                retries_sent: 0,
                // Jitter draws must not perturb the link-sampling stream,
                // so the coordinator carries its own seeded generator.
                rng: StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
                started_at: SimTime::ZERO,
                local_done_at: None,
                global_done_at: None,
                outcome: None,
            })),
        );
        let ontology = Arc::clone(workload.ontology());
        let activities: Vec<Activity> = workload
            .task()
            .activities()
            .map(|r| r.activity().clone())
            .collect();
        for shard in shards {
            // Each provider advertises its shard in its own
            // capability-indexed registry; ranking then goes through
            // indexed discovery instead of a linear scan of the shard.
            let mut registry = ServiceRegistry::with_ontology(Arc::clone(&ontology));
            let mut global_ids = Vec::new();
            let mut hosted = Vec::with_capacity(shard.len());
            for (activity, cands) in shard {
                let act = activities[activity].clone();
                for c in &cands {
                    let desc = match workload.registry().get(c.id()) {
                        Some(d) => d.clone(),
                        // Candidate without a published description (not
                        // produced by workload generation, but cheap to
                        // tolerate): advertise it under the activity's
                        // own required function.
                        None => {
                            let f = act.function();
                            ServiceDescription::new(
                                format!("candidate-{activity}-{}", global_ids.len()),
                                &format!("{}#{}", f.namespace(), f.local_name()),
                            )
                            .with_qos_vector(c.qos().clone())
                        }
                    };
                    registry.register(desc);
                    global_ids.push(c.id());
                }
                hosted.push((activity, act));
            }
            sim.add_node(
                setup.provider_profile,
                Role::Provider(Box::new(ProviderState {
                    model: self.model.clone(),
                    local: self.config.local,
                    hosted,
                    ontology: Arc::clone(&ontology),
                    registry,
                    global_ids,
                    per_candidate_cost_us: setup.per_candidate_cost_us,
                    digests: None,
                })),
            );
        }

        let run_result = sim.run();
        let sim_events = match run_result {
            Ok(processed) => processed,
            Err(cap) => cap.processed,
        };

        let Role::Coordinator(state) = sim.node(coordinator) else {
            unreachable!("coordinator role is fixed");
        };
        let outcome = match &state.outcome {
            Some(result) => result.clone()?,
            // The event cap cut the run short before the deadline timer
            // could close the protocol: surface it instead of panicking.
            None => {
                return Err(crate::SelectionError::ProtocolAborted {
                    processed_events: sim_events,
                })
            }
        };
        let local_done = state.local_done_at.unwrap_or(state.started_at);
        let global_done = state.global_done_at.unwrap_or(local_done);
        let fault = FaultReport {
            providers_expected: state.providers.len(),
            providers_heard: state.answered.len(),
            missing_providers: state
                .providers
                .iter()
                .copied()
                .filter(|p| !state.answered.contains(p))
                .collect(),
            retries_sent: state.retries_sent,
            activity_coverage: (0..n_activities)
                .map(|activity| ActivityCoverage {
                    activity,
                    received: state.candidates[activity].len(),
                    expected: workload.candidates()[activity].len(),
                })
                .collect(),
        };
        let mut provider_rtt_us: Vec<(u32, u64)> = state
            .digest_arrivals
            .iter()
            .map(|&(node, at)| {
                let rtt = at.since(state.started_at).as_micros();
                (u32::try_from(node.as_u64()).unwrap_or(u32::MAX), rtt)
            })
            .collect();
        provider_rtt_us.sort_unstable();
        let report = DistributedReport {
            outcome,
            local_phase: local_done.since(state.started_at),
            global_phase: global_done.since(local_done),
            messages: sim.stats().sent,
            sim_events,
            provider_rtt_us,
            net: sim.stats(),
            sim_time_us: sim.now().as_micros(),
            fault,
        };
        if let Some(rec) = recorder {
            report.record(rec);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;

    fn small() -> (QosModel, Workload) {
        let m = QosModel::standard();
        let w = WorkloadSpec::evaluation_default()
            .activities(3)
            .services_per_activity(30)
            .build(&m, 5);
        (m, w)
    }

    #[test]
    fn distributed_matches_centralised_feasibility() {
        let (m, w) = small();
        let central = Qassa::new(&m).select(&w.problem()).unwrap();
        let report = DistributedQassa::new(&m)
            .run(&w, &DistributedSetup::default(), 1)
            .unwrap();
        assert_eq!(report.outcome.feasible, central.feasible);
        assert_eq!(report.outcome.assignment.len(), 3);
        assert!(!report.fault.is_degraded());
        assert_eq!(report.fault.retries_sent, 0);
    }

    #[test]
    fn local_phase_shrinks_with_more_providers() {
        let (m, w) = small();
        let few = DistributedSetup {
            providers: 2,
            ..DistributedSetup::default()
        };
        let many = DistributedSetup {
            providers: 10,
            ..DistributedSetup::default()
        };
        let d = DistributedQassa::new(&m);
        let t_few = d.run(&w, &few, 1).unwrap().local_phase;
        let t_many = d.run(&w, &many, 1).unwrap().local_phase;
        assert!(
            t_many < t_few,
            "local phase with 10 providers ({t_many}) should beat 2 ({t_few})"
        );
    }

    #[test]
    fn all_candidates_reach_the_coordinator() {
        let (m, w) = small();
        let report = DistributedQassa::new(&m)
            .run(&w, &DistributedSetup::default(), 2)
            .unwrap();
        let total: usize = report.outcome.levels.iter().map(|l| l.total()).sum();
        assert_eq!(total, 3 * 30);
        assert!(report.fault.full_coverage());
        assert_eq!(report.fault.coverage_ratio(), 1.0);
    }

    #[test]
    fn message_count_scales_with_providers() {
        let (m, w) = small();
        let setup = DistributedSetup {
            providers: 7,
            ..DistributedSetup::default()
        };
        let report = DistributedQassa::new(&m).run(&w, &setup, 3).unwrap();
        // 7 requests + 7 digests — the kickoff is a real protocol send,
        // not an external injection, and no retries fire without loss.
        assert_eq!(report.messages, 14);
    }

    #[test]
    fn deterministic_per_seed() {
        let (m, w) = small();
        let d = DistributedQassa::new(&m);
        let a = d.run(&w, &DistributedSetup::default(), 9).unwrap();
        let b = d.run(&w, &DistributedSetup::default(), 9).unwrap();
        assert_eq!(a.local_phase, b.local_phase);
        assert_eq!(a.outcome.assignment, b.outcome.assignment);
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.fault, b.fault);
    }

    #[test]
    fn request_leg_pays_link_latency() {
        // With a 40 ms link and negligible compute, the local phase must
        // include both the request and the digest transits (≥ 80 ms) —
        // an externally injected kickoff would show only ~40 ms.
        let (m, w) = small();
        let setup = DistributedSetup {
            link: LinkConfig::new(40.0, 0.0),
            per_candidate_cost_us: 0,
            ..DistributedSetup::default()
        };
        let report = DistributedQassa::new(&m).run(&w, &setup, 4).unwrap();
        assert!(
            report.local_phase >= SimDuration::from_millis(80),
            "local phase {} must cover two 40 ms transits",
            report.local_phase
        );
    }

    #[test]
    fn event_cap_surfaces_as_protocol_aborted() {
        // A run whose simulator hits the event cap before the protocol
        // completes must return a structured error, not panic on a
        // missing outcome.
        let (m, w) = small();
        let setup = DistributedSetup {
            max_sim_events: Some(3),
            ..DistributedSetup::default()
        };
        let err = DistributedQassa::new(&m)
            .run(&w, &setup, 5)
            .expect_err("3 events cannot complete the protocol");
        assert!(matches!(
            err,
            crate::SelectionError::ProtocolAborted {
                processed_events: 3
            }
        ));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn dead_network_without_retries_completes_degraded() {
        // Loss 1.0 and no retries: the deadline closes the protocol with
        // zero digests; the report (or a structural error for an empty
        // pool) must say so rather than hanging or panicking.
        let (m, w) = small();
        let setup = DistributedSetup {
            link: LinkConfig::new(5.0, 1.0).with_loss(1.0),
            retry: RetryPolicy::disabled(),
            reply_timeout_ms: 100,
            ..DistributedSetup::default()
        };
        match DistributedQassa::new(&m).run(&w, &setup, 5) {
            Ok(report) => {
                assert!(report.fault.is_degraded());
                assert_eq!(report.fault.providers_heard, 0);
            }
            Err(e) => assert!(matches!(e, crate::SelectionError::NoCandidates { .. })),
        }
    }

    #[test]
    fn retries_recover_lost_messages() {
        let (m, w) = small();
        let lossy = DistributedSetup {
            providers: 6,
            link: LinkConfig::new(5.0, 1.0).with_loss(0.3),
            ..DistributedSetup::default()
        };
        let report = DistributedQassa::new(&m).run(&w, &lossy, 11).unwrap();
        assert!(report.fault.retries_sent > 0, "loss must trigger retries");
        assert!(
            report.fault.full_coverage(),
            "retries must restore coverage"
        );
    }

    #[test]
    fn without_retries_loss_degrades_the_outcome() {
        let (m, w) = small();
        let lossy = DistributedSetup {
            providers: 6,
            link: LinkConfig::new(5.0, 1.0).with_loss(0.5),
            reply_timeout_ms: 400,
            retry: RetryPolicy::disabled(),
            ..DistributedSetup::default()
        };
        match DistributedQassa::new(&m).run(&w, &lossy, 11) {
            Ok(report) => {
                assert!(report.fault.is_degraded());
                assert_eq!(report.fault.retries_sent, 0);
                assert_eq!(
                    report.fault.providers_heard + report.fault.missing_providers.len(),
                    report.fault.providers_expected
                );
            }
            Err(e) => assert!(matches!(e, crate::SelectionError::NoCandidates { .. })),
        }
    }

    #[test]
    fn provider_rtts_cover_every_answering_provider() {
        let (m, w) = small();
        let setup = DistributedSetup {
            providers: 7,
            ..DistributedSetup::default()
        };
        let report = DistributedQassa::new(&m).run(&w, &setup, 3).unwrap();
        assert_eq!(report.provider_rtt_us.len(), 7);
        // Node ids are ascending and every RTT covers at least the two
        // link transits of the request/digest legs.
        for window in report.provider_rtt_us.windows(2) {
            assert!(window[0].0 < window[1].0);
        }
        for &(_, rtt) in &report.provider_rtt_us {
            assert!(rtt > 0);
        }
        // Clean run: both protocol timers were cancelled, and the
        // network totals agree with the message count.
        assert_eq!(report.net.timers_cancelled, 2);
        assert_eq!(report.net.sent, report.messages);
        assert!(report.sim_time_us > 0);
    }

    #[test]
    fn recorder_never_changes_protocol_counts() {
        use qasom_obs::{keys, MemoryRecorder};
        let (m, w) = small();
        let lossy = DistributedSetup {
            providers: 6,
            link: LinkConfig::new(5.0, 1.0).with_loss(0.3),
            ..DistributedSetup::default()
        };
        let d = DistributedQassa::new(&m);
        let plain = d.run(&w, &lossy, 11).unwrap();
        let rec = MemoryRecorder::new();
        let recorded = d.run_recorded(&w, &lossy, 11, Some(&rec)).unwrap();
        assert_eq!(plain.messages, recorded.messages);
        assert_eq!(plain.sim_events, recorded.sim_events);
        assert_eq!(plain.local_phase, recorded.local_phase);
        assert_eq!(plain.fault, recorded.fault);
        assert_eq!(plain.provider_rtt_us, recorded.provider_rtt_us);
        assert_eq!(plain.outcome.assignment, recorded.outcome.assignment);
        let snap = rec.snapshot().expect("memory recorder snapshots");
        assert_eq!(snap.counter(keys::DISTRIBUTED_MESSAGES), plain.messages);
        assert_eq!(
            snap.counter(keys::DISTRIBUTED_RETRIES),
            plain.fault.retries_sent
        );
        assert_eq!(
            snap.counter(keys::DISTRIBUTED_PROVIDERS_HEARD),
            plain.fault.providers_heard as u64
        );
    }

    #[test]
    fn report_section_mirrors_the_report() {
        let (m, w) = small();
        let report = DistributedQassa::new(&m)
            .run(&w, &DistributedSetup::default(), 2)
            .unwrap();
        let json = report.to_json();
        assert_eq!(json.get("providers"), Some(&JsonValue::U64(10)));
        assert_eq!(json.get("messages"), Some(&JsonValue::U64(report.messages)));
        assert_eq!(json.get("coverage_ratio"), Some(&JsonValue::F64(1.0)));
        assert_eq!(json.get("degraded"), Some(&JsonValue::Bool(false)));
        assert_eq!(json.get("coverage"), Some(&JsonValue::Array(Vec::new())));
        assert_eq!(
            json.get("net").and_then(|net| net.get("sent")),
            Some(&JsonValue::U64(report.messages))
        );
        // The section serialises deterministically.
        assert_eq!(json.to_compact(), report.to_json().to_compact());
    }

    #[test]
    fn degraded_run_reports_its_coverage_shortfall() {
        let (m, w) = small();
        let lossy = DistributedSetup {
            providers: 6,
            link: LinkConfig::new(5.0, 1.0).with_loss(0.5),
            reply_timeout_ms: 400,
            retry: RetryPolicy::disabled(),
            ..DistributedSetup::default()
        };
        // Seed 14 hears five of the six providers: every activity keeps
        // 25 of its 30 candidates.
        let report = DistributedQassa::new(&m).run(&w, &lossy, 14).unwrap();
        let fault = &report.fault;
        assert_eq!(fault.providers_heard, 5);
        assert!(fault.is_degraded());
        assert!(fault.coverage_ratio() < 1.0);
        let json = report.to_json();
        assert_eq!(json.get("degraded"), Some(&JsonValue::Bool(true)));
        assert_eq!(
            json.get("coverage_ratio"),
            Some(&JsonValue::F64(fault.coverage_ratio()))
        );
        assert_eq!(
            json.get("providers_heard"),
            Some(&JsonValue::U64(fault.providers_heard as u64))
        );
        assert_eq!(json.get("retries"), Some(&JsonValue::U64(0)));
        let shortfalls: Vec<JsonValue> = fault
            .activity_coverage
            .iter()
            .filter(|c| c.received < c.expected)
            .map(|c| {
                JsonValue::object()
                    .field("activity", format!("#{}", c.activity))
                    .field("candidates_heard", c.received)
                    .field("candidates_total", c.expected)
            })
            .collect();
        assert_eq!(json.get("coverage"), Some(&JsonValue::Array(shortfalls)));
        assert_eq!(
            json.get("coverage").map(JsonValue::to_compact).as_deref(),
            Some(concat!(
                r##"[{"activity":"#0","candidates_heard":25,"candidates_total":30},"##,
                r##"{"activity":"#1","candidates_heard":25,"candidates_total":30},"##,
                r##"{"activity":"#2","candidates_heard":25,"candidates_total":30}]"##,
            ))
        );
    }

    #[test]
    fn completed_run_leaves_no_stale_timer_events() {
        // With no loss the protocol finishes long before the 5 s reply
        // deadline; the deadline and pending retry timers are cancelled,
        // so the processed-event count is exactly the protocol's work:
        // (1 + P) node starts, P request deliveries, P digest deliveries.
        let (m, w) = small();
        let setup = DistributedSetup {
            providers: 7,
            ..DistributedSetup::default()
        };
        let report = DistributedQassa::new(&m).run(&w, &setup, 6).unwrap();
        assert_eq!(report.sim_events, 1 + 3 * 7);
    }
}
