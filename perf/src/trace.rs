//! The traced slice: replays the workload's seeded sessions (a) stage by
//! stage through the layers' public functions, (b) through the
//! `LoopbackDaemon` (no sockets, no threads) and (c) through TCP,
//! interleaved, recording a span per call from outside the program. Per-layer
//! metrics are medians over sessions; end-to-end metrics never come
//! from here.

use std::sync::Arc;
use std::time::Instant;

use qasom::{RegistryDelta, UserRequest};
use qasom_daemon::session::decode_client_event;
use qasom_daemon::{
    wire, Broker, BrokerConfig, ClientEvent, ClientOutcome, ConnectionSession, Frame, FrameType,
    LoopbackDaemon, SessionEvent,
};
use qasom_obs::{keys, JsonValue, MetricsSnapshot, NoopRecorder, Recorder};
use qasom_registry::persist::{FileBackend, PersistConfig, RegistryJournal};
use qasom_registry::{Discovery, DiscoveryQuery};
use qasom_selection::{Qassa, QosLevels, SelectionProblem};
use rayon::prelude::*;

use crate::slice::{out_dir, LoadOutcome, Served, TempDir};
use crate::stats::median;
use crate::{load, report};

/// Sessions replayed at most per phase, so a trace stays a readable size
/// on the workloads whose sessions take microseconds.
const MAX_SESSIONS: usize = 2_000;
/// Spans of the load phase kept in the trace file.
const MAX_LOAD_SPANS: usize = 20_000;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub session: u64,
}

/// Spans in memory, written out once at exit.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, session: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
            session,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end_ns = self.now();
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64
    }

    /// Times `f` as a child span of `parent`; returns its result and its
    /// duration in ns.
    fn time<R>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> (R, f64) {
        let session = self.spans[parent].session;
        let id = self.open(name, session);
        self.spans[id].parent = Some(parent);
        let result = f();
        (result, self.close(id))
    }

    /// Durations (ns) of every span called `name`.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    fn median_us(&self, name: &str) -> f64 {
        median(&self.durations(name)) / 1e3
    }

    /// Writes `perf/out/trace-<workload>.json`.
    pub fn write(&self, workload: &str) -> Result<(), String> {
        let spans: Vec<JsonValue> = self
            .spans
            .iter()
            .map(|s| {
                JsonValue::object()
                    .field("name", s.name)
                    .field("start_ns", s.start_ns)
                    .field("end_ns", s.end_ns)
                    .field("parent", s.parent.map_or(JsonValue::Null, JsonValue::from))
                    .field("session", s.session)
            })
            .collect();
        let doc = JsonValue::object()
            .field("workload", workload)
            .field("spans", spans);
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{workload}.json"));
        std::fs::write(&path, doc.to_compact()).map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[derive(Default)]
pub struct Attribution {
    pub layers: Vec<(String, f64)>,
    pub checks: Vec<(String, bool)>,
    pub notes: Vec<String>,
}

impl Attribution {
    fn layer(&mut self, name: &str, value: f64) {
        self.layers.push((name.to_owned(), value));
    }

    fn check(&mut self, name: &str, ok: bool, note: impl FnOnce() -> String) {
        if !ok {
            self.notes.push(note());
        }
        report::merge_check(&mut self.checks, name, ok);
    }
}

fn request_at(served: &Served, k: usize) -> &UserRequest {
    &served.pool[served.order[k % served.order.len()] as usize]
}

fn delta(after: &MetricsSnapshot, before: &MetricsSnapshot, key: &str) -> f64 {
    after.counter(key).saturating_sub(before.counter(key)) as f64
}

fn snapshot(served: &Served) -> MetricsSnapshot {
    served.recorder.snapshot().unwrap_or_default()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Phases (a), (b) and depth-1 (c): who spends a session's time.
pub fn attribution(
    served: &Served,
    tracer: &mut Tracer,
    budget_s: f64,
) -> Result<Attribution, String> {
    let mut out = Attribution::default();
    // The counting passes read recorder deltas; start from an empty
    // recorder so snapshots stay small.
    served.recorder.reset();
    let (staged_ns, loopback_ns) = sessions(served, tracer, budget_s * 0.75, &mut out)?;
    oracles_and_recompose(served, tracer, &mut out)?;
    mutate_and_persist(served, tracer, &mut out)?;
    recorder_overhead(served, tracer, budget_s * 0.25, &mut out);
    out.layer(
        "trace.unattributed_pct",
        100.0 * ratio(loopback_ns - staged_ns, loopback_ns),
    );
    Ok(out)
}

fn completed(event: &Result<ClientEvent, qasom_daemon::ProtocolError>) -> bool {
    matches!(
        event,
        Ok(ClientEvent::Reply {
            outcome: ClientOutcome::Completed(_),
            ..
        })
    )
}

/// Replays the same seeded sessions four ways, one outstanding session
/// at a time, in alternating blocks so that slow drift of the machine
/// hits all four alike: (a) staged through the layers' public functions,
/// (b) through the loopback transport, (c) over one TCP connection, and
/// (c) again recording a span per session — the difference between the
/// last two is what tracing costs. Returns the median over sessions of
/// the staged layer times summed, and the loopback's median session
/// time, both in ns.
fn sessions(
    served: &Served,
    tracer: &mut Tracer,
    budget_s: f64,
    out: &mut Attribution,
) -> Result<(f64, f64), String> {
    const BLOCK: usize = 16;
    let addr = served.handle.addr();
    for i in 0..16u64 {
        let root = tracer.open("daemon.tcp.connect", i);
        let mut stream = load::connect(addr, "perf-connect")?;
        tracer.close(root);
        Frame::bare(FrameType::Bye)
            .write_to(&mut stream)
            .map_err(|e| e.to_string())?;
    }
    out.layer(
        "daemon.tcp.connect_us",
        tracer.median_us("daemon.tcp.connect"),
    );

    let mut staged = Staged::new(served)?;
    let mut daemon = LoopbackDaemon::new(served.shared.clone(), BrokerConfig::default());
    let client = daemon.connect();
    daemon
        .send_hello(client, "perf-loopback")
        .map_err(|e| e.to_string())?;
    daemon.pump();
    daemon.drain_events(client).map_err(|e| e.to_string())?;
    let mut stream = load::connect(addr, "perf-depth1")?;

    let before = snapshot(served);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(budget_s);
    // Sessions replayed so far, per way: each way walks the same order.
    let mut replayed = [0usize; 4];
    let (mut looped, mut traced, mut untraced) = (Vec::new(), Vec::new(), Vec::new());
    let mut i = 0usize;
    while replayed[0] < MAX_SESSIONS && (i < 8 * BLOCK || Instant::now() < deadline) {
        let way = (i / BLOCK) % 4;
        let k = replayed[way];
        let request = request_at(served, k);
        let corr = k as u64;
        let started = Instant::now();
        let event = match way {
            0 => staged.session(served, tracer, k)?,
            1 => {
                let root = tracer.open("daemon.loopback.session", corr);
                daemon
                    .send_compose(client, corr, request)
                    .map_err(|e| e.to_string())?;
                daemon.pump();
                let mut events = daemon.drain_events(client).map_err(|e| e.to_string())?;
                tracer.close(root);
                events.pop().ok_or(qasom_daemon::ProtocolError::Truncated)
            }
            _ => {
                let root = (way == 3).then(|| tracer.open("daemon.tcp.session", corr));
                Frame {
                    frame_type: FrameType::Compose,
                    payload: wire::encode_compose(corr, request).map_err(|e| e.to_string())?,
                }
                .write_to(&mut stream)
                .map_err(|e| e.to_string())?;
                let reply = Frame::read_from(&mut stream)
                    .map_err(|e| e.to_string())?
                    .ok_or("daemon closed the depth-1 connection")?;
                if let Some(root) = root {
                    tracer.close(root);
                }
                decode_client_event(&reply)
            }
        };
        let elapsed = started.elapsed().as_nanos() as f64;
        match way {
            0 => {}
            1 => looped.push(elapsed),
            2 => untraced.push(elapsed),
            _ => traced.push(elapsed),
        }
        out.check("replayed_sessions_complete", completed(&event), || {
            format!("replayed session {k} (way {way}) did not complete: {event:?}")
        });
        replayed[way] += 1;
        i += 1;
    }
    Frame::bare(FrameType::Bye)
        .write_to(&mut stream)
        .map_err(|e| e.to_string())?;
    let after = snapshot(served);

    staged.layers(served, tracer, out);
    let indexed = delta(&after, &before, keys::DISCOVERY_INDEXED);
    out.layer(
        "registry.discovery.indexed_share",
        ratio(
            indexed,
            indexed + delta(&after, &before, keys::DISCOVERY_LINEAR),
        ),
    );
    let (loopback_ns, p50_traced, p50_untraced) =
        (median(&looped), median(&traced), median(&untraced));
    out.layer("daemon.loopback.session_us", loopback_ns / 1e3);
    out.layer("daemon.tcp.overhead_us", (p50_untraced - loopback_ns) / 1e3);
    out.layer(
        "trace.overhead_pct",
        100.0 * ratio(p50_traced - p50_untraced, p50_untraced),
    );
    Ok((median(&staged.sums), loopback_ns))
}

/// (a) The staged replay: a broker and a connection session of its own
/// over the served environment, and what its sessions added up to.
struct Staged {
    broker: Broker,
    session: ConnectionSession,
    sessions: usize,
    bytes_in: usize,
    bytes_out: usize,
    candidates: usize,
    local_levels: usize,
    levels_explored: usize,
    feasible: usize,
    invocations: usize,
    /// Per session: the layer times summed, the broker's and compose's
    /// self times, and serial over parallel local ranking.
    sums: Vec<f64>,
    broker_self: Vec<f64>,
    compose_self: Vec<f64>,
    speedups: Vec<f64>,
}

impl Staged {
    fn new(served: &Served) -> Result<Self, String> {
        let mut session = ConnectionSession::new();
        let hello = Frame {
            frame_type: FrameType::Hello,
            payload: wire::encode_hello("perf-staged").map_err(|e| e.to_string())?,
        };
        session.on_frame(&hello).map_err(|e| e.to_string())?;
        Ok(Staged {
            broker: Broker::new(served.shared.clone(), BrokerConfig::default()),
            session,
            sessions: 0,
            bytes_in: 0,
            bytes_out: 0,
            candidates: 0,
            local_levels: 0,
            levels_explored: 0,
            feasible: 0,
            invocations: 0,
            sums: Vec::new(),
            broker_self: Vec::new(),
            compose_self: Vec::new(),
            speedups: Vec::new(),
        })
    }

    /// One session through every layer's public functions, call by call.
    fn session(
        &mut self,
        served: &Served,
        tracer: &mut Tracer,
        k: usize,
    ) -> Result<Result<ClientEvent, qasom_daemon::ProtocolError>, String> {
        let shared = &served.shared;
        let request = request_at(served, k);
        let corr = k as u64;
        let mut sum = 0.0;

        // The daemon path.
        let root = tracer.open("staged.session", corr);
        let (payload, t) = tracer.time("daemon.wire.encode_compose", root, || {
            wire::encode_compose(corr, request)
        });
        sum += t;
        let frame = Frame {
            frame_type: FrameType::Compose,
            payload: payload.map_err(|e| e.to_string())?,
        };
        let mut inbound = Vec::new();
        let (encoded, t) = tracer.time("daemon.frame.encode", root, || frame.encode(&mut inbound));
        encoded.map_err(|e| e.to_string())?;
        sum += t;
        self.bytes_in += inbound.len();
        let (taken, t) = tracer.time("daemon.frame.decode", root, || Frame::take(&mut inbound));
        sum += t;
        let taken = taken
            .map_err(|e| e.to_string())?
            .ok_or("staged frame incomplete")?;
        let (event, t) = tracer.time("daemon.session.on_frame", root, || {
            self.session.on_frame(&taken)
        });
        sum += t;
        let Ok(SessionEvent::Submit {
            corr_id,
            request: decoded,
            signature,
        }) = event
        else {
            return Err("staged session did not submit".to_owned());
        };
        let (_, t) = tracer.time("daemon.admission.submit", root, || {
            self.broker
                .submit(0, corr_id, "perf-staged", *decoded, signature)
        });
        sum += t;
        let (responses, tick_ns) = tracer.time("daemon.broker.tick", root, || self.broker.tick());
        let response = responses.first().ok_or("staged tick answered nothing")?;
        let (reply, t) = tracer.time("daemon.wire.encode_completed", root, || {
            qasom_daemon::broker::reply_frame(response.corr_id, &response.reply)
        });
        sum += t;
        let reply = reply.map_err(|e| e.to_string())?;
        let mut outbound = Vec::new();
        let (encoded, t) = tracer.time("daemon.frame.encode", root, || reply.encode(&mut outbound));
        encoded.map_err(|e| e.to_string())?;
        sum += t;
        self.bytes_out += outbound.len();
        let (back, t) = tracer.time("daemon.frame.decode", root, || Frame::take(&mut outbound));
        sum += t;
        let back = back
            .map_err(|e| e.to_string())?
            .ok_or("staged reply incomplete")?;
        let (event, t) = tracer.time("daemon.wire.decode_completed", root, || {
            decode_client_event(&back)
        });
        sum += t;
        tracer.close(root);

        // The same session's pipeline, stage by stage, the way
        // `Environment::compose` fans it out (discovery and local ranking
        // in parallel over the task's activities).
        let root = tracer.open("staged.pipeline", corr);
        let (decoded, _) = tracer.time("daemon.wire.decode_compose", root, || {
            wire::decode_compose(&taken.payload)
        });
        decoded.map_err(|e| e.to_string())?;
        let (signature, _) = tracer.time("daemon.wire.signature", root, || {
            wire::encode_request_body(request)
        });
        signature.map_err(|e| e.to_string())?;
        let stages_ns = shared.with(|env| {
            let (_, analyze) = tracer.time("analysis.analyze", root, || env.analyze(request));
            let activities: Vec<_> = request.task().activities().map(|a| a.activity()).collect();
            let (found, discover) = tracer.time("registry.discovery.discover", root, || {
                activities
                    .par_iter()
                    .map(|a| env.discover(a))
                    .collect::<Vec<_>>()
            });
            self.candidates += found.iter().map(Vec::len).sum::<usize>();
            let problem = SelectionProblem::new(request.task())
                .with_candidates(found)
                .with_constraints(
                    request
                        .constraints(env.model())
                        .map_err(|e| e.to_string())?,
                )
                .with_preferences(
                    request
                        .preferences(env.model())
                        .map_err(|e| e.to_string())?,
                )
                .with_approach(request.aggregation_approach());
            let qassa = Qassa::with_config(env.model(), env.config().qassa);
            let (serial, serial_ns) = tracer.time("selection.local.rank_serial", root, || {
                qassa.local_phase(&problem)
            });
            drop(serial);
            let (levels, local) = tracer.time("selection.local.rank", root, || {
                qassa.local_phase_parallel(&problem)
            });
            self.speedups.push(ratio(serial_ns, local));
            let levels: Vec<Arc<QosLevels>> = levels
                .map_err(|e| e.to_string())?
                .into_iter()
                .map(Arc::new)
                .collect();
            self.local_levels += levels.iter().map(|l| l.level_count()).sum::<usize>();
            let (outcome, global) = tracer.time("selection.global.select", root, || {
                qassa.select_with_shared_levels(&problem, &levels)
            });
            let outcome = outcome.map_err(|e| e.to_string())?;
            self.levels_explored += outcome.levels_explored;
            self.feasible += usize::from(outcome.feasible);
            Ok::<_, String>(analyze + discover + local + global)
        })?;
        let (composed, compose_ns) =
            tracer.time("core.compose", root, || shared.compose_with_epoch(request));
        let (_, composition) = composed.map_err(|e| e.to_string())?;
        let (report, execute_ns) =
            tracer.time("core.execute", root, || shared.execute(composition));
        self.invocations += report.map_err(|e| e.to_string())?.invocations.len();
        tracer.close(root);

        self.sessions += 1;
        self.sums.push(sum + stages_ns + execute_ns);
        self.broker_self.push(tick_ns - compose_ns - execute_ns);
        self.compose_self.push(compose_ns - stages_ns);
        Ok(event)
    }

    fn layers(&self, served: &Served, tracer: &Tracer, out: &mut Attribution) {
        let n = self.sessions as f64;
        for (metric, span) in [
            ("daemon.frame.encode_us", "daemon.frame.encode"),
            ("daemon.frame.decode_us", "daemon.frame.decode"),
            (
                "daemon.wire.encode_compose_us",
                "daemon.wire.encode_compose",
            ),
            (
                "daemon.wire.decode_compose_us",
                "daemon.wire.decode_compose",
            ),
            (
                "daemon.wire.encode_completed_us",
                "daemon.wire.encode_completed",
            ),
            (
                "daemon.wire.decode_completed_us",
                "daemon.wire.decode_completed",
            ),
            ("daemon.wire.signature_us", "daemon.wire.signature"),
            ("daemon.session.on_frame_us", "daemon.session.on_frame"),
            ("daemon.admission.submit_us", "daemon.admission.submit"),
            ("daemon.broker.tick_us", "daemon.broker.tick"),
            ("analysis.analyze_us", "analysis.analyze"),
        ] {
            out.layer(metric, tracer.median_us(span));
        }
        for (metric, span) in [
            (
                "registry.discovery.discover_ms",
                "registry.discovery.discover",
            ),
            ("selection.local.rank_ms", "selection.local.rank"),
            ("selection.global.select_ms", "selection.global.select"),
            ("core.compose.total_ms", "core.compose"),
            ("core.execute.total_ms", "core.execute"),
        ] {
            out.layer(metric, tracer.median_us(span) / 1e3);
        }
        out.layer("daemon.frame.bytes_in", self.bytes_in as f64 / n);
        out.layer("daemon.frame.bytes_out", self.bytes_out as f64 / n);
        out.layer("daemon.broker.self_us", median(&self.broker_self) / 1e3);
        out.layer("core.compose.self_ms", median(&self.compose_self) / 1e6);
        out.layer("registry.discovery.candidates", self.candidates as f64 / n);
        let cache = served.shared.with(|e| e.cache_stats());
        out.layer("registry.discovery.cache_hit_ratio", cache.hit_ratio());
        // Every miss memoises one (required, offered) pair and nothing
        // evicts, so misses since boot are the entries held.
        out.layer("registry.discovery.cache_entries", cache.misses as f64);
        out.layer("selection.local.candidates", self.candidates as f64 / n);
        out.layer("selection.local.levels", self.local_levels as f64 / n);
        out.layer("selection.local.parallel_speedup", median(&self.speedups));
        out.layer(
            "selection.global.levels_explored",
            self.levels_explored as f64 / n,
        );
        out.layer("selection.global.feasible_share", self.feasible as f64 / n);
        out.layer("core.execute.invocations", self.invocations as f64 / n);
    }
}

/// The differential oracles per distinct request — indexed discovery ≡
/// forced linear scan, delta re-selection ≡ full re-selection after a
/// churn op — and the timing of the recompose pair.
fn oracles_and_recompose(
    served: &Served,
    tracer: &mut Tracer,
    out: &mut Attribution,
) -> Result<(), String> {
    let shared = &served.shared;
    let before = snapshot(served);
    let compose_before = snapshot(served);
    let mut compositions = Vec::new();
    for request in &served.pool {
        let (_, composition) = shared
            .compose_with_epoch(request)
            .map_err(|e| e.to_string())?;
        compositions.push(composition);
    }
    let compose_after = snapshot(served);
    out.layer(
        "core.compose.read_locks",
        delta(&compose_after, &compose_before, keys::SERVING_READ_LOCKS) / served.pool.len() as f64,
    );

    for (i, request) in served.pool.iter().enumerate() {
        let same = shared.with(|env| {
            let discovery = Discovery::new(env.ontology(), env.model());
            request.task().activities().all(|a| {
                let query = DiscoveryQuery::new(a.activity()).white_box(true);
                let key = |c: &qasom_registry::DiscoveredCandidate| (c.service, c.degree);
                let indexed: Vec<_> = discovery
                    .discover(env.registry(), &query)
                    .iter()
                    .map(key)
                    .collect();
                let linear: Vec<_> = discovery
                    .discover(env.registry(), &query.linear_scan(true))
                    .iter()
                    .map(key)
                    .collect();
                let served_ids: Vec<_> =
                    env.discover(a.activity()).iter().map(|c| c.id()).collect();
                indexed == linear
                    && served_ids == indexed.iter().map(|(id, _)| *id).collect::<Vec<_>>()
            })
        });
        out.check("indexed_discovery_equals_linear_scan", same, || {
            format!("request {i}: indexed and linear discovery disagree")
        });
    }

    // One provider leaves and a copy of it joins: a small churn op the
    // delta path must replay.
    let victim = served.originals[served.originals.len() / 2];
    if let Some(description) = shared.with(|e| e.registry().get(victim).cloned()) {
        shared.apply_churn(
            RegistryDelta::new()
                .deploy_faithful(description)
                .undeploy(victim),
        );
    }
    for (i, composition) in compositions.iter().enumerate() {
        let root = tracer.open("adaptation.recompose", i as u64);
        let (incremental, _) = tracer.time("adaptation.recompose_delta", root, || {
            shared.recompose(composition)
        });
        let (full, _) = tracer.time("adaptation.recompose_full", root, || {
            shared.with(|env| env.recompose_full(composition))
        });
        tracer.close(root);
        let assignment = |c: &qasom::ExecutableComposition| -> Vec<_> {
            c.outcome().assignment.iter().map(|s| s.id()).collect()
        };
        let same = match (&incremental, &full) {
            (Ok(a), Ok(b)) => assignment(a) == assignment(b),
            _ => false,
        };
        out.check("recompose_equals_recompose_full", same, || {
            format!("request {i}: delta and full re-selection disagree")
        });
    }
    let after = snapshot(served);
    out.layer(
        "adaptation.recompose_delta_ms",
        tracer.median_us("adaptation.recompose_delta") / 1e3,
    );
    out.layer(
        "adaptation.recompose_full_ms",
        tracer.median_us("adaptation.recompose_full") / 1e3,
    );
    out.layer(
        "adaptation.delta_share",
        ratio(
            delta(&after, &before, keys::SELECTION_DELTA_INCREMENTAL),
            delta(&after, &before, keys::SELECTION_DELTA_ATTEMPTS),
        ),
    );

    let execute_before = snapshot(served);
    let n = compositions.len() as f64;
    for composition in compositions {
        shared.execute(composition).map_err(|e| e.to_string())?;
    }
    out.layer(
        "core.execute.write_locks",
        delta(
            &snapshot(served),
            &execute_before,
            keys::SERVING_WRITE_LOCKS,
        ) / n,
    );
    Ok(())
}

/// Registry mutation and persistence, uncontended: `apply_churn` on the
/// served registry, WAL appends on a scratch journal, and — where the
/// registry is journaled — checkpoint and recovery.
fn mutate_and_persist(
    served: &Served,
    tracer: &mut Tracer,
    out: &mut Attribution,
) -> Result<(), String> {
    let shared = &served.shared;
    const OPS: usize = 128;
    let root = tracer.open("registry.mutate", 0);

    // A scratch journal gives the WAL append by itself: one churn op
    // journals a registration and a departure.
    let scratch = TempDir::new("scratch-wal")?;
    let backend = FileBackend::open(scratch.path()).map_err(|e| e.to_string())?;
    let (mut registry, mut journal, _) = RegistryJournal::open(
        backend,
        PersistConfig {
            checkpoint_every: 0,
        },
        None,
    )
    .map_err(|e| e.to_string())?;
    let template = shared
        .with(|e| e.registry().get(served.originals[0]).cloned())
        .ok_or("first provider is gone")?;
    for _ in 0..OPS {
        let id = registry.register(template.clone());
        let (appended, _) = tracer.time("registry.persist.append", root, || {
            journal
                .record_registered(id, &template)
                .and_then(|()| journal.record_deregistered(id))
        });
        registry.deregister(id);
        appended.map_err(|e| e.to_string())?;
    }
    let stats = journal.stats();
    let append_us = tracer.median_us("registry.persist.append");
    out.layer("registry.persist.append_us", append_us);
    out.layer(
        "registry.persist.wal_bytes_per_event",
        ratio(stats.wal_bytes as f64, stats.appends as f64),
    );

    let journaled = shared.with(|e| e.journaling());
    // Each op replaces the provider the previous one deployed with a copy.
    let mut victim = *served.originals.last().ok_or("empty market")?;
    for _ in 0..OPS {
        let description = shared
            .with(|e| e.registry().get(victim).cloned())
            .ok_or("churn victim is gone")?;
        let delta = RegistryDelta::new()
            .deploy_faithful(description)
            .undeploy(victim);
        let (receipt, _) = tracer.time("registry.mutate.apply_churn", root, || {
            shared.apply_churn(delta)
        });
        victim = *receipt.deployed.first().ok_or("churn deployed nothing")?;
    }
    // On the journaled registry every op also paid its two appends.
    let applied_us = tracer.median_us("registry.mutate.apply_churn");
    out.layer(
        "registry.mutate.apply_churn_us",
        if journaled {
            applied_us - append_us
        } else {
            applied_us
        },
    );

    if journaled {
        for _ in 0..3 {
            tracer.time("registry.persist.checkpoint", root, || {
                shared.checkpoint_registry()
            });
        }
        let recover_root = tracer.open("registry.persist.recover", 0);
        let recovered = crate::slice::recover(served)?;
        tracer.close(recover_root);
        out.check(
            "recovered_state_equals_live",
            recovered.is_some_and(|(_, equal)| equal),
            || "recovered registry differs from the live one".to_owned(),
        );
        let snapshot_bytes = served
            .data_dir
            .as_ref()
            .and_then(|d| std::fs::metadata(d.path().join("registry.snap")).ok())
            .map_or(0, |m| m.len());
        out.layer(
            "registry.persist.checkpoint_ms",
            tracer.median_us("registry.persist.checkpoint") / 1e3,
        );
        out.layer("registry.persist.snapshot_bytes", snapshot_bytes as f64);
        out.layer(
            "registry.persist.recover_ms",
            recovered.map_or(0.0, |(s, _)| s * 1e3),
        );
    } else {
        for name in ["checkpoint_ms", "snapshot_bytes", "recover_ms"] {
            out.layer(&format!("registry.persist.{name}"), 0.0);
        }
    }
    tracer.close(root);
    Ok(())
}

/// Compose with the `MemoryRecorder` against compose with a recorder
/// that drops everything, in alternating blocks.
fn recorder_overhead(served: &Served, tracer: &mut Tracer, budget_s: f64, out: &mut Attribution) {
    let shared = &served.shared;
    let root = tracer.open("obs.recorder", 0);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(budget_s);
    let mut k = 0usize;
    while k < MAX_SESSIONS && (k < 32 || Instant::now() < deadline) {
        let recording = (k / 8).is_multiple_of(2);
        if k.is_multiple_of(8) {
            let recorder: Arc<dyn Recorder> = if recording {
                Arc::clone(&served.recorder) as Arc<dyn Recorder>
            } else {
                Arc::new(NoopRecorder)
            };
            shared.with_mut(|env| env.set_recorder(recorder));
        }
        let name = if recording {
            "obs.compose_recorded"
        } else {
            "obs.compose_unrecorded"
        };
        let request = request_at(served, k);
        let _ = tracer.time(name, root, || shared.compose(request));
        k += 1;
    }
    shared.with_mut(|env| env.set_recorder(Arc::clone(&served.recorder) as Arc<dyn Recorder>));
    tracer.close(root);
    let (on, off) = (
        tracer.median_us("obs.compose_recorded"),
        tracer.median_us("obs.compose_unrecorded"),
    );
    out.layer("obs.recorder_overhead_pct", 100.0 * ratio(on - off, off));
}

/// Per-layer numbers only the workload's own load shape shows: batching,
/// shedding, adaptation per session and checkpoints against readers.
/// Also turns the sessions into spans.
pub fn load_layers(outcome: &LoadOutcome, tracer: &mut Tracer, layers: &mut Vec<(String, f64)>) {
    let mut layer = |name: &str, value: f64| layers.push((name.to_owned(), value));
    let samples: Vec<_> = outcome.samples().collect();
    let n = samples.len() as f64;
    for s in samples.iter().take(MAX_LOAD_SPANS) {
        tracer.spans.push(Span {
            name: "load.session",
            start_ns: s.recv_ns - s.latency_ns,
            end_ns: s.recv_ns,
            parent: None,
            session: 0,
        });
    }
    let per_session =
        |f: fn(&load::Sample) -> u32| ratio(samples.iter().map(|s| f64::from(f(s))).sum(), n);
    layer("adaptation.substitutions", per_session(|s| s.substitutions));
    layer("adaptation.behavioural", per_session(|s| s.behavioural));
    layer("adaptation.violations", per_session(|s| s.violations));

    let [(before, journal_before), (after, journal_after)] =
        outcome.counters.clone().unwrap_or_default();
    layer(
        "daemon.admission.batch_size_mean",
        ratio(
            delta(&after, &before, keys::DAEMON_BATCHED_SESSIONS),
            delta(&after, &before, keys::DAEMON_BATCHES),
        ),
    );
    layer(
        "daemon.admission.shed",
        delta(&after, &before, keys::DAEMON_SHED)
            + delta(&after, &before, keys::DAEMON_QUOTA_DENIALS),
    );
    layer(
        "registry.persist.checkpoints",
        journal_before
            .zip(journal_after)
            .map_or(0.0, |(b, a)| (a.checkpoints - b.checkpoints) as f64),
    );

    let busy = outcome
        .churn_samples()
        .fold(0.0, |sum, s| sum + s.service_ns as f64);
    layer(
        "registry.persist.write_busy_share",
        ratio(busy, outcome.measured_s() * 1e9),
    );
}
