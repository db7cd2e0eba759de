//! One slice: a fresh process that sets the workload up, serves it
//! through an in-process `qasomd` on the host loopback, measures, checks
//! and reports one JSON object.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qasom::{SharedEnvironment, UserRequest};
use qasom_daemon::{BrokerConfig, TcpDaemonHandle};
use qasom_obs::{JsonValue, MemoryRecorder, MetricsSnapshot, Recorder};
use qasom_registry::persist::{
    encode_state, FileBackend, PersistConfig, PersistStats, RegistryJournal,
};
use qasom_registry::ServiceId;

use crate::load::{self, ChurnSample, ConnReport, Sample};
use crate::stats::{percentile, sorted};
use crate::workloads::{self, ChurnOp, Workload, CHURN_RATE_HZ};
use crate::{alloc, report, trace};

/// Where everything the benchmark writes goes.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A directory under `perf/out/` that is removed when dropped, on
/// success and on failure alike.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Result<Self, String> {
        let path = out_dir().join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub struct SliceSpec {
    pub workload: Workload,
    pub seed: u64,
    pub warmup: f64,
    pub seconds: f64,
    pub trace: bool,
}

/// A workload being served: the shipped configuration
/// (`qasom_daemon::spawn`, `BrokerConfig::default()`, default features)
/// on a port-0 loopback listener.
pub struct Served {
    pub workload: Workload,
    pub shared: SharedEnvironment,
    pub recorder: Arc<MemoryRecorder>,
    pub handle: TcpDaemonHandle,
    pub pool: Vec<UserRequest>,
    pub order: Vec<u32>,
    pub originals: Vec<ServiceId>,
    pub data_dir: Option<TempDir>,
    pub seed: u64,
}

/// Builds the market (journaled for `churn_100k`), spawns the daemon
/// and completes the handshake on every client connection: everything
/// `setup_s` covers.
pub fn set_up(workload: Workload, seed: u64) -> Result<(Served, Vec<TcpStream>), String> {
    let data_dir = if workload.churn {
        Some(TempDir::new(workload.name)?)
    } else {
        None
    };
    let inputs = workloads::build(workload.name, seed, data_dir.as_ref().map(TempDir::path))?;
    let shared = SharedEnvironment::new(inputs.env);
    let handle = qasom_daemon::spawn("127.0.0.1:0", shared.clone(), BrokerConfig::default())
        .map_err(|e| format!("spawn: {e}"))?;
    let served = Served {
        workload,
        shared,
        recorder: inputs.recorder,
        handle,
        pool: inputs.pool,
        order: inputs.order,
        originals: inputs.originals,
        data_dir,
        seed,
    };
    let mut streams = Vec::new();
    for c in 0..workload.connections {
        match load::connect(served.handle.addr(), &format!("perf-{c}")) {
            Ok(stream) => streams.push(stream),
            Err(e) => {
                served.handle.stop();
                return Err(e);
            }
        }
    }
    Ok((served, streams))
}

/// Process user+system CPU time in ms, from `/proc/self/stat` (clock
/// ticks; Linux fixes `CLK_TCK` at 100).
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 10.0
}

/// Peak resident set (`VmHWM`) in KiB.
pub fn peak_rss_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}

/// Length of one measurement window. Rates and costs are taken per
/// window and reported as the median window, which a scheduling stall
/// of some tens of milliseconds does not move.
pub const WINDOW_S: f64 = 0.5;

/// Process-wide counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// ns since the load phase's epoch.
    pub ns: u64,
    pub cpu_ms: f64,
    pub alloc_bytes: u64,
    pub allocs: u64,
}

impl Edge {
    fn now(epoch: Instant) -> Self {
        let (alloc_bytes, allocs) = alloc::totals();
        Edge {
            ns: epoch.elapsed().as_nanos() as u64,
            cpu_ms: cpu_ms(),
            alloc_bytes,
            allocs,
        }
    }
}

/// The environment's own counters at one instant.
pub type Counters = (MetricsSnapshot, Option<PersistStats>);

/// What the measured phase of a load run saw.
pub struct LoadOutcome {
    pub conns: Vec<ConnReport>,
    pub churn: Vec<ChurnSample>,
    /// Process counters read every [`WINDOW_S`] of the measured phase:
    /// `edges[i]..edges[i + 1]` is one window.
    pub edges: Vec<Edge>,
    /// Recorder and journal counters before and after the measured phase
    /// (traced slices only: cloning the recorder is not free).
    pub counters: Option<[Counters; 2]>,
}

impl LoadOutcome {
    /// The measured phase, in ns since the epoch.
    pub fn window(&self) -> (u64, u64) {
        (self.edges[0].ns, self.edges[self.edges.len() - 1].ns)
    }

    pub fn measured_s(&self) -> f64 {
        let (from, to) = self.window();
        (to - from) as f64 / 1e9
    }

    /// Sessions whose reply arrived inside the measured window.
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        let (from, to) = self.window();
        self.conns
            .iter()
            .flat_map(|c| c.samples.iter())
            .filter(move |s| s.recv_ns >= from && s.recv_ns < to)
    }

    /// Churn operations that were due inside the measured window.
    pub fn churn_samples(&self) -> impl Iterator<Item = &ChurnSample> {
        let (from, to) = self.window();
        self.churn
            .iter()
            .filter(move |s| s.due_ns >= from && s.due_ns < to)
    }
}

/// Runs the workload's load shape: warm-up (discarded), then the
/// measured window; joins every generator before returning.
pub fn run_load(
    served: &Served,
    streams: Vec<TcpStream>,
    warmup: f64,
    seconds: f64,
    snapshots: bool,
) -> LoadOutcome {
    let epoch = Instant::now();
    let stop = AtomicBool::new(false);
    let schedule: Vec<ChurnOp> = if served.workload.churn {
        let ops = ((warmup + seconds + 2.0) * CHURN_RATE_HZ as f64) as usize;
        workloads::churn_schedule(served.seed, ops)
    } else {
        Vec::new()
    };
    let axes = served.shared.with(|e| workloads::qos_axes(e.model()));
    let counters = || -> Option<Counters> {
        snapshots.then(|| {
            (
                served.recorder.snapshot().unwrap_or_default(),
                served.shared.with(|e| e.journal_stats()),
            )
        })
    };
    let stride = served.order.len() / served.workload.connections.max(1);

    std::thread::scope(|scope| {
        let conns: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                let stop = &stop;
                scope.spawn(move || {
                    load::drive_connection(
                        stream,
                        &served.pool,
                        &served.order,
                        c * stride,
                        served.workload.outstanding,
                        epoch,
                        stop,
                    )
                })
            })
            .collect();
        let churn = served.workload.churn.then(|| {
            let (stop, schedule) = (&stop, &schedule);
            scope.spawn(move || {
                load::drive_churn(
                    &served.shared,
                    schedule,
                    &served.originals,
                    axes,
                    epoch,
                    stop,
                )
            })
        });

        std::thread::sleep(Duration::from_secs_f64(warmup));
        let before = counters();
        let mut edges = vec![Edge::now(epoch)];
        let windows = (seconds / WINDOW_S).round().max(1.0) as u32;
        for w in 1..=windows {
            let next = edges[0].ns + (seconds * 1e9 * f64::from(w) / f64::from(windows)) as u64;
            std::thread::sleep(Duration::from_nanos(
                next.saturating_sub(epoch.elapsed().as_nanos() as u64),
            ));
            edges.push(Edge::now(epoch));
        }
        let after = counters();
        stop.store(true, Ordering::Relaxed);

        LoadOutcome {
            conns: conns
                .into_iter()
                .map(|h| h.join().expect("connection thread panicked"))
                .collect(),
            churn: churn
                .map(|h| h.join().expect("churn thread panicked"))
                .unwrap_or_default(),
            edges,
            counters: before.zip(after).map(|(b, a)| [b, a]),
        }
    })
}

/// Re-opens the journaled data directory and compares the recovered
/// registry with the live one, byte for byte. Returns
/// `(recover seconds, states equal)`.
pub fn recover(served: &Served) -> Result<Option<(f64, bool)>, String> {
    let Some(dir) = &served.data_dir else {
        return Ok(None);
    };
    let live = served.shared.with(|e| encode_state(e.registry()));
    let started = Instant::now();
    let backend = FileBackend::open(dir.path()).map_err(|e| format!("reopen: {e}"))?;
    let (registry, _journal, _report) =
        RegistryJournal::open(backend, PersistConfig::default(), None)
            .map_err(|e| format!("recover: {e}"))?;
    let seconds = started.elapsed().as_secs_f64();
    Ok(Some((seconds, encode_state(&registry) == live)))
}

fn numbers(values: impl Iterator<Item = u64>) -> JsonValue {
    JsonValue::Array(values.map(JsonValue::U64).collect())
}

/// Runs one slice and renders its result.
pub fn run(spec: &SliceSpec) -> Result<JsonValue, String> {
    let setup_started = Instant::now();
    let (served, streams) = set_up(spec.workload, spec.seed)?;
    let setup_s = setup_started.elapsed().as_secs_f64();

    let mut layers = Vec::new();
    let mut checks: Vec<(String, bool)> = Vec::new();
    let mut notes: Vec<String> = Vec::new();
    let mut tracer = trace::Tracer::new();

    // A traced slice first attributes a session's time to the layers
    // (staged replay, loopback, depth-1 TCP), then runs the workload's
    // own load shape for the full measured time.
    if spec.trace {
        match trace::attribution(&served, &mut tracer, (spec.seconds * 0.6).min(10.0)) {
            Ok(report) => {
                layers = report.layers;
                checks = report.checks;
                notes = report.notes;
            }
            Err(e) => {
                served.handle.stop();
                return Err(e);
            }
        }
    }

    let outcome = run_load(&served, streams, spec.warmup, spec.seconds, spec.trace);
    let peak_rss_kb = peak_rss_kb();
    let recovered = recover(&served);
    served.handle.stop();
    let recovered = recovered?;
    if spec.trace {
        trace::load_layers(&outcome, &mut tracer, &mut layers);
        tracer.write(spec.workload.name)?;
    }

    let sent: u64 = outcome.conns.iter().map(|c| c.sent).sum();
    let replies: u64 = outcome.conns.iter().map(|c| c.samples.len() as u64).sum();
    for conn in &outcome.conns {
        notes.extend(conn.errors.iter().take(5).cloned());
        notes.extend(conn.failures.iter().map(|m| format!("session failed: {m}")));
    }
    report::merge_check(
        &mut checks,
        "replies_decode_and_match",
        outcome.conns.iter().all(|c| c.errors.is_empty()),
    );
    report::merge_check(
        &mut checks,
        "sent_equals_completed_plus_failed",
        sent == replies,
    );
    if let Some((_, equal)) = recovered {
        report::merge_check(&mut checks, "recovered_state_equals_live", equal);
    }

    let measured: Vec<&Sample> = outcome.samples().collect();
    let windows: Vec<JsonValue> = outcome
        .edges
        .windows(2)
        .map(|edge| {
            let (from, to) = (edge[0], edge[1]);
            let inside: Vec<&&Sample> = measured
                .iter()
                .filter(|s| s.recv_ns >= from.ns && s.recv_ns < to.ns)
                .collect();
            let latencies = sorted(inside.iter().map(|s| s.latency_ns as f64 / 1e6).collect());
            JsonValue::object()
                .field("seconds", (to.ns - from.ns) as f64 / 1e9)
                .field("completed", inside.iter().filter(|s| s.completed).count())
                .field("cpu_ms", to.cpu_ms - from.cpu_ms)
                .field("alloc_bytes", to.alloc_bytes - from.alloc_bytes)
                .field("allocs", to.allocs - from.allocs)
                .field("p50_ms", percentile(&latencies, 50.0))
        })
        .collect();
    let mut result = JsonValue::object()
        .field("workload", spec.workload.name)
        .field("seed", spec.seed)
        .field("trace", spec.trace)
        .field("setup_s", setup_s)
        .field("attempted", measured.len())
        .field("completed", measured.iter().filter(|s| s.completed).count())
        .field("qos_met", measured.iter().filter(|s| s.qos_met).count())
        .field("peak_rss_kb", peak_rss_kb)
        .field("windows", windows)
        .field(
            "latencies_ns",
            numbers(measured.iter().map(|s| s.latency_ns)),
        );
    if served.workload.churn {
        let churn: Vec<&ChurnSample> = outcome.churn_samples().collect();
        result = result.field(
            "churn",
            JsonValue::object()
                .field("op_ns", numbers(churn.iter().map(|s| s.total_ns)))
                .field("late_ns", numbers(churn.iter().map(|s| s.late_ns)))
                .field("recover_s", recovered.map_or(0.0, |(s, _)| s)),
        );
    }
    let mut check_obj = JsonValue::object();
    for (name, ok) in &checks {
        check_obj = check_obj.field(name, *ok);
    }
    let mut layer_obj = JsonValue::object();
    for (name, value) in &layers {
        layer_obj = layer_obj.field(name, *value);
    }
    Ok(result
        .field("checks", check_obj)
        .field(
            "notes",
            notes.into_iter().map(JsonValue::Str).collect::<Vec<_>>(),
        )
        .field("layers", layer_obj))
}
