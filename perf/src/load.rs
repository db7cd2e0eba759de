//! The load generators: closed-loop session clients over real TCP
//! connections and the open-loop churn generator of `churn_100k`.

use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use qasom::{RegistryDelta, SharedEnvironment, UserRequest};
use qasom_daemon::session::decode_client_event;
use qasom_daemon::{wire, ClientEvent, ClientOutcome, Frame, FrameType};
use qasom_qos::PropertyId;
use qasom_registry::ServiceId;

use crate::workloads::{churn_description, ChurnOp};

/// One finished session as its client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Reply arrival, in ns since the slice's epoch.
    pub recv_ns: u64,
    /// Compose frame written → matching reply read.
    pub latency_ns: u64,
    pub completed: bool,
    /// Completed with `success` and no constraint violation outstanding.
    pub qos_met: bool,
    pub substitutions: u32,
    pub behavioural: u32,
    pub violations: u32,
}

/// What one connection did over its whole life.
#[derive(Debug, Default)]
pub struct ConnReport {
    pub samples: Vec<Sample>,
    pub sent: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
    /// Correctness violations (undecodable or unmatched replies, too few
    /// invocations, sessions left unanswered).
    pub errors: Vec<String>,
    /// What the daemon said about the first few sessions it failed.
    pub failures: Vec<String>,
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.duration_since(epoch).as_nanos() as u64
}

/// Opens a connection and completes `Hello → HelloAck`.
pub fn connect(addr: SocketAddr, client: &str) -> Result<TcpStream, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    // Sessions are small pipelined frames; a client that waits on each
    // would not leave them to Nagle either.
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    Frame {
        frame_type: FrameType::Hello,
        payload: wire::encode_hello(client).map_err(|e| e.to_string())?,
    }
    .write_to(&mut stream)
    .map_err(|e| e.to_string())?;
    let ack = Frame::read_from(&mut stream)
        .map_err(|e| e.to_string())?
        .ok_or("daemon closed during handshake")?;
    match decode_client_event(&ack) {
        Ok(ClientEvent::HelloAck(_)) => Ok(stream),
        other => Err(format!("expected HelloAck, got {other:?}")),
    }
}

/// Closed loop: keeps `outstanding` sessions in flight until `stop`,
/// then drains the replies still owed and says `Bye`.
///
/// The first `pool.len()` sessions walk the pool once so every distinct
/// request is warm before the seeded order takes over.
pub fn drive_connection(
    stream: TcpStream,
    pool: &[UserRequest],
    order: &[u32],
    offset: usize,
    outstanding: usize,
    epoch: Instant,
    stop: &AtomicBool,
) -> ConnReport {
    let mut report = ConnReport::default();
    if let Err(e) = connection_loop(
        stream,
        pool,
        order,
        offset,
        outstanding,
        epoch,
        stop,
        &mut report,
    ) {
        report.errors.push(e);
    }
    report
}

#[allow(clippy::too_many_arguments)]
fn connection_loop(
    stream: TcpStream,
    pool: &[UserRequest],
    order: &[u32],
    offset: usize,
    outstanding: usize,
    epoch: Instant,
    stop: &AtomicBool,
    report: &mut ConnReport,
) -> Result<(), String> {
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let mut inflight: HashMap<u64, (Instant, usize)> = HashMap::new();
    let mut next_corr = 0u64;

    let mut send = |inflight: &mut HashMap<u64, (Instant, usize)>, report: &mut ConnReport| {
        let k = next_corr as usize;
        let idx = if k < pool.len() {
            k
        } else {
            order[(offset + k) % order.len()] as usize
        };
        let frame = Frame {
            frame_type: FrameType::Compose,
            payload: wire::encode_compose(next_corr, &pool[idx]).map_err(|e| e.to_string())?,
        };
        inflight.insert(next_corr, (Instant::now(), idx));
        frame.write_to(&mut writer).map_err(|e| e.to_string())?;
        report.sent += 1;
        report.bytes_out += 5 + frame.payload.len() as u64;
        next_corr += 1;
        Ok::<(), String>(())
    };

    for _ in 0..outstanding {
        send(&mut inflight, report)?;
    }
    while !inflight.is_empty() {
        let frame = Frame::read_from(&mut reader)
            .map_err(|e| e.to_string())?
            .ok_or_else(|| format!("daemon closed with {} sessions unanswered", inflight.len()))?;
        let now = Instant::now();
        report.bytes_in += 5 + frame.payload.len() as u64;
        match decode_client_event(&frame) {
            Ok(ClientEvent::Reply { corr_id, outcome }) => match inflight.remove(&corr_id) {
                Some((sent_at, idx)) => {
                    let mut sample = Sample {
                        recv_ns: ns_since(epoch, now),
                        latency_ns: now.duration_since(sent_at).as_nanos() as u64,
                        completed: false,
                        qos_met: false,
                        substitutions: 0,
                        behavioural: 0,
                        violations: 0,
                    };
                    if let ClientOutcome::Failed { message, .. } = &outcome {
                        if report.failures.len() < 3 {
                            report.failures.push(message.clone());
                        }
                    }
                    if let ClientOutcome::Completed(summary) = outcome {
                        sample.completed = true;
                        sample.qos_met = summary.success && summary.violations == 0;
                        sample.substitutions = summary.substitutions;
                        sample.behavioural = summary.behavioural_adaptations;
                        sample.violations = summary.violations;
                        let activities = pool[idx].task().activity_count();
                        if (summary.invocations as usize) < activities {
                            report.errors.push(format!(
                                "session {corr_id}: {} invocations for {activities} activities",
                                summary.invocations
                            ));
                        }
                    }
                    report.samples.push(sample);
                }
                None => report
                    .errors
                    .push(format!("reply for unknown corr_id {corr_id}")),
            },
            Ok(other) => report.errors.push(format!("unexpected event {other:?}")),
            Err(e) => report.errors.push(format!("undecodable reply: {e}")),
        }
        if !stop.load(Ordering::Relaxed) {
            send(&mut inflight, report)?;
        }
    }
    Frame::bare(FrameType::Bye)
        .write_to(&mut writer)
        .map_err(|e| e.to_string())
}

/// One churn operation as the generator saw it.
#[derive(Debug, Clone, Copy)]
pub struct ChurnSample {
    /// When the op was due, in ns since the slice's epoch.
    pub due_ns: u64,
    /// How late the generator started it.
    pub late_ns: u64,
    /// Due time → applied (what an independent provider waits).
    pub total_ns: u64,
    /// Start → applied (lock wait + index + WAL [+ checkpoint]).
    pub service_ns: u64,
}

/// Open loop: applies `schedule[k]` at `epoch + due_us`, never waiting
/// for the sessions; when it falls behind it catches up without sleeping.
pub fn drive_churn(
    shared: &SharedEnvironment,
    schedule: &[ChurnOp],
    originals: &[ServiceId],
    axes: (PropertyId, PropertyId),
    epoch: Instant,
    stop: &AtomicBool,
) -> Vec<ChurnSample> {
    let mut samples = Vec::with_capacity(schedule.len());
    for (k, op) in schedule.iter().enumerate() {
        let delta = RegistryDelta::new()
            .deploy_faithful(churn_description(k, op, axes.0, axes.1))
            .undeploy(originals[op.victim as usize]);
        let due = epoch + Duration::from_micros(op.due_us);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let begun = Instant::now();
        shared.apply_churn(delta);
        let done = Instant::now();
        samples.push(ChurnSample {
            due_ns: ns_since(epoch, due),
            late_ns: begun.saturating_duration_since(due).as_nanos() as u64,
            total_ns: done.saturating_duration_since(due).as_nanos() as u64,
            service_ns: done.duration_since(begun).as_nanos() as u64,
        });
    }
    samples
}
