//! Payload codecs for the `qasomd` protocol.
//!
//! Encodings are fixed and dependency-free:
//!
//! * integers — big-endian (`u8`/`u16`/`u32`/`u64`);
//! * `f64` — IEEE-754 bits as a big-endian `u64` (bit-exact, so a
//!   decoded request re-encodes to the same bytes);
//! * strings — `u16` byte length + UTF-8 bytes;
//! * QoS units — their canonical textual form ([`Unit`]'s `Display` /
//!   `FromStr` pair);
//! * task ASTs — a recursive tag-prefixed encoding with full fidelity
//!   (sequence/parallel/choice/loop structure survives the wire).
//!
//! The request-body encoding doubles as the **batch signature**: two
//! sessions whose encoded bodies are byte-equal ask for the same
//! composition, so the broker pays discovery/selection once for both.

use qasom::UserRequest;
use qasom_analysis::Diagnostic;
use qasom_qos::Unit;
use qasom_selection::AggregationApproach;
use qasom_task::{Activity, LoopBound, TaskNode, UserTask};

use crate::frame::ProtocolError;

// ---------------------------------------------------------------------
// Primitives.

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), ProtocolError> {
    let len = u16::try_from(s.len()).map_err(|_| ProtocolError::Malformed("string over 64 KiB"))?;
    put_u16(out, len);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], ProtocolError> {
    if buf.len() < n {
        return Err(ProtocolError::Short);
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

pub(crate) fn get_u8(buf: &mut &[u8]) -> Result<u8, ProtocolError> {
    Ok(take(buf, 1)?[0])
}

pub(crate) fn get_u16(buf: &mut &[u8]) -> Result<u16, ProtocolError> {
    let b = take(buf, 2)?;
    Ok(u16::from_be_bytes([b[0], b[1]]))
}

pub(crate) fn get_u32(buf: &mut &[u8]) -> Result<u32, ProtocolError> {
    let b = take(buf, 4)?;
    Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
}

pub(crate) fn get_u64(buf: &mut &[u8]) -> Result<u64, ProtocolError> {
    let b = take(buf, 8)?;
    Ok(u64::from_be_bytes([
        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
    ]))
}

pub(crate) fn get_f64(buf: &mut &[u8]) -> Result<f64, ProtocolError> {
    Ok(f64::from_bits(get_u64(buf)?))
}

pub(crate) fn get_str(buf: &mut &[u8]) -> Result<String, ProtocolError> {
    let len = get_u16(buf)? as usize;
    let bytes = take(buf, len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::BadUtf8)
}

/// Asserts the whole payload was consumed (trailing garbage is a
/// protocol error, not silently ignored — it would desynchronise the
/// batch signature).
fn finish(buf: &[u8]) -> Result<(), ProtocolError> {
    if buf.is_empty() {
        Ok(())
    } else {
        Err(ProtocolError::Malformed("trailing bytes in payload"))
    }
}

// ---------------------------------------------------------------------
// Task AST.

const TAG_ACTIVITY: u8 = 0;
const TAG_SEQUENCE: u8 = 1;
const TAG_PARALLEL: u8 = 2;
const TAG_CHOICE: u8 = 3;
const TAG_LOOP: u8 = 4;

fn put_activity(out: &mut Vec<u8>, a: &Activity) -> Result<(), ProtocolError> {
    put_str(out, a.name())?;
    put_str(out, &a.function().to_string())?;
    let narrow = |n: usize| u8::try_from(n).map_err(|_| ProtocolError::Malformed("over 255 IRIs"));
    put_u8(out, narrow(a.inputs().len())?);
    for iri in a.inputs() {
        put_str(out, &iri.to_string())?;
    }
    put_u8(out, narrow(a.outputs().len())?);
    for iri in a.outputs() {
        put_str(out, &iri.to_string())?;
    }
    Ok(())
}

fn get_activity(buf: &mut &[u8]) -> Result<Activity, ProtocolError> {
    let name = get_str(buf)?;
    let function = get_str(buf)?;
    let mut activity = Activity::new(name, &function);
    for _ in 0..get_u8(buf)? {
        activity = activity.with_input(&get_str(buf)?);
    }
    for _ in 0..get_u8(buf)? {
        activity = activity.with_output(&get_str(buf)?);
    }
    Ok(activity)
}

fn put_node(out: &mut Vec<u8>, node: &TaskNode) -> Result<(), ProtocolError> {
    let count = |n: usize| u16::try_from(n).map_err(|_| ProtocolError::Malformed("task too wide"));
    match node {
        TaskNode::Activity(a) => {
            put_u8(out, TAG_ACTIVITY);
            put_activity(out, a)?;
        }
        TaskNode::Sequence(children) | TaskNode::Parallel(children) => {
            let tag = if matches!(node, TaskNode::Sequence(_)) {
                TAG_SEQUENCE
            } else {
                TAG_PARALLEL
            };
            put_u8(out, tag);
            put_u16(out, count(children.len())?);
            for c in children {
                put_node(out, c)?;
            }
        }
        TaskNode::Choice(branches) => {
            put_u8(out, TAG_CHOICE);
            put_u16(out, count(branches.len())?);
            for (p, c) in branches {
                put_f64(out, *p);
                put_node(out, c)?;
            }
        }
        TaskNode::Loop { body, bound } => {
            put_u8(out, TAG_LOOP);
            put_f64(out, bound.expected());
            put_u32(out, bound.max());
            put_node(out, body)?;
        }
    }
    Ok(())
}

fn get_node(buf: &mut &[u8], depth: u32) -> Result<TaskNode, ProtocolError> {
    if depth > 64 {
        return Err(ProtocolError::Malformed("task nested over 64 levels"));
    }
    let tag = get_u8(buf)?;
    match tag {
        TAG_ACTIVITY => Ok(TaskNode::Activity(get_activity(buf)?)),
        TAG_SEQUENCE | TAG_PARALLEL => {
            let n = get_u16(buf)? as usize;
            let mut children = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                children.push(get_node(buf, depth + 1)?);
            }
            Ok(if tag == TAG_SEQUENCE {
                TaskNode::Sequence(children)
            } else {
                TaskNode::Parallel(children)
            })
        }
        TAG_CHOICE => {
            let n = get_u16(buf)? as usize;
            let mut branches = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let p = get_f64(buf)?;
                branches.push((p, get_node(buf, depth + 1)?));
            }
            Ok(TaskNode::Choice(branches))
        }
        TAG_LOOP => {
            let expected = get_f64(buf)?;
            let max = get_u32(buf)?;
            if !(expected.is_finite() && expected >= 0.0) || max == 0 {
                return Err(ProtocolError::Malformed("invalid loop bound"));
            }
            let body = get_node(buf, depth + 1)?;
            Ok(TaskNode::repeat(body, LoopBound::new(expected, max)))
        }
        _ => Err(ProtocolError::Malformed("unknown task node tag")),
    }
}

// ---------------------------------------------------------------------
// Request body (the batch signature).

fn approach_byte(a: AggregationApproach) -> u8 {
    match a {
        AggregationApproach::Pessimistic => 0,
        AggregationApproach::Optimistic => 1,
        AggregationApproach::MeanValue => 2,
    }
}

fn approach_from(byte: u8) -> Result<AggregationApproach, ProtocolError> {
    match byte {
        0 => Ok(AggregationApproach::Pessimistic),
        1 => Ok(AggregationApproach::Optimistic),
        2 => Ok(AggregationApproach::MeanValue),
        _ => Err(ProtocolError::Malformed("unknown aggregation approach")),
    }
}

/// Encodes a full [`UserRequest`] (task AST, constraints, weights,
/// aggregation approach). Byte-equal encodings ⇔ identical requests, so
/// this doubles as the batch signature.
///
/// # Errors
///
/// Fails on over-wide structures (strings over 64 KiB, >65535 children
/// or constraints).
pub fn encode_request_body(request: &UserRequest) -> Result<Vec<u8>, ProtocolError> {
    let mut out = Vec::new();
    put_str(&mut out, request.task().name())?;
    put_node(&mut out, request.task().root())?;
    let count =
        |n: usize| u16::try_from(n).map_err(|_| ProtocolError::Malformed("too many QoS terms"));
    put_u16(&mut out, count(request.raw_constraints().len())?);
    for (name, bound, unit) in request.raw_constraints() {
        put_str(&mut out, name)?;
        put_f64(&mut out, *bound);
        put_str(&mut out, &unit.to_string())?;
    }
    put_u16(&mut out, count(request.raw_weights().len())?);
    for (name, weight) in request.raw_weights() {
        put_str(&mut out, name)?;
        put_f64(&mut out, *weight);
    }
    put_u8(&mut out, approach_byte(request.aggregation_approach()));
    Ok(out)
}

fn get_request_body(buf: &mut &[u8]) -> Result<UserRequest, ProtocolError> {
    let task_name = get_str(buf)?;
    let root = get_node(buf, 0)?;
    let task = UserTask::new(task_name, root)
        .map_err(|_| ProtocolError::Malformed("task failed validation"))?;
    let mut request = UserRequest::new(task);
    for _ in 0..get_u16(buf)? {
        let name = get_str(buf)?;
        let bound = get_f64(buf)?;
        let unit: Unit = get_str(buf)?
            .parse()
            .map_err(|_| ProtocolError::Malformed("unknown QoS unit"))?;
        request = request
            .constraint(name, bound, unit)
            .map_err(|_| ProtocolError::Malformed("invalid constraint"))?;
    }
    for _ in 0..get_u16(buf)? {
        let name = get_str(buf)?;
        let weight = get_f64(buf)?;
        request = request.weight(name, weight);
    }
    request = request.approach(approach_from(get_u8(buf)?)?);
    Ok(request)
}

// ---------------------------------------------------------------------
// Frame payloads.

/// `HELLO`: protocol version + client name.
pub fn encode_hello(client: &str) -> Result<Vec<u8>, ProtocolError> {
    let mut out = Vec::new();
    put_u8(&mut out, crate::frame::PROTOCOL_VERSION);
    put_str(&mut out, client)?;
    Ok(out)
}

/// Decodes `HELLO`, checking the protocol version.
///
/// # Errors
///
/// Fails on a version mismatch or a malformed payload.
pub fn decode_hello(payload: &[u8]) -> Result<String, ProtocolError> {
    let mut buf = payload;
    let version = get_u8(&mut buf)?;
    if version != crate::frame::PROTOCOL_VERSION {
        return Err(ProtocolError::BadVersion(version));
    }
    let client = get_str(&mut buf)?;
    finish(buf)?;
    Ok(client)
}

/// What `HELLO_ACK` tells a client about the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloAck {
    /// Registry epoch at handshake time.
    pub epoch: u64,
    /// The broker's compose-batch cap.
    pub batch_max: u32,
}

/// Encodes `HELLO_ACK`.
pub fn encode_hello_ack(ack: HelloAck) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, ack.epoch);
    put_u32(&mut out, ack.batch_max);
    out
}

/// Decodes `HELLO_ACK`.
///
/// # Errors
///
/// Fails on a malformed payload.
pub fn decode_hello_ack(payload: &[u8]) -> Result<HelloAck, ProtocolError> {
    let mut buf = payload;
    let ack = HelloAck {
        epoch: get_u64(&mut buf)?,
        batch_max: get_u32(&mut buf)?,
    };
    finish(buf)?;
    Ok(ack)
}

/// `COMPOSE`: correlation id + request body.
///
/// # Errors
///
/// Fails when the request is too wide for the wire format.
pub fn encode_compose(corr_id: u64, request: &UserRequest) -> Result<Vec<u8>, ProtocolError> {
    let mut out = Vec::new();
    put_u64(&mut out, corr_id);
    out.extend_from_slice(&encode_request_body(request)?);
    Ok(out)
}

/// Decodes `COMPOSE` into the correlation id, the re-validated request,
/// and the request-body bytes (the batch signature).
///
/// # Errors
///
/// Fails on malformed payloads and on tasks that do not pass
/// [`UserTask::new`] validation.
pub fn decode_compose(payload: &[u8]) -> Result<(u64, UserRequest, Vec<u8>), ProtocolError> {
    let mut buf = payload;
    let corr_id = get_u64(&mut buf)?;
    let body = buf.to_vec();
    let request = get_request_body(&mut buf)?;
    finish(buf)?;
    Ok((corr_id, request, body))
}

/// The compact execution summary a `COMPLETED` frame carries (the full
/// [`qasom::ExecutionReport`] stays on the daemon side; clients get the
/// decision-relevant digest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecutionSummary {
    /// Whether the composition delivered within its constraints.
    pub success: bool,
    /// Activity invocations performed.
    pub invocations: u32,
    /// Invocations that failed (and triggered substitution).
    pub failures: u32,
    /// Service substitutions performed.
    pub substitutions: u32,
    /// Behavioural adaptations performed.
    pub behavioural_adaptations: u32,
    /// Constraint violations observed or predicted.
    pub violations: u32,
}

impl ExecutionSummary {
    /// Digests a full execution report.
    pub fn from_report(report: &qasom::ExecutionReport) -> Self {
        let clamp = |n: usize| u32::try_from(n).unwrap_or(u32::MAX);
        ExecutionSummary {
            success: report.success,
            invocations: clamp(report.invocations.len()),
            failures: clamp(
                report
                    .invocations
                    .iter()
                    .filter(|r| r.qos.is_none())
                    .count(),
            ),
            substitutions: clamp(report.substitutions),
            behavioural_adaptations: clamp(report.behavioural_adaptations),
            violations: clamp(report.violations.len()),
        }
    }
}

/// `COMPLETED`: correlation id + execution summary.
pub fn encode_completed(corr_id: u64, summary: ExecutionSummary) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, corr_id);
    put_u8(&mut out, u8::from(summary.success));
    put_u32(&mut out, summary.invocations);
    put_u32(&mut out, summary.failures);
    put_u32(&mut out, summary.substitutions);
    put_u32(&mut out, summary.behavioural_adaptations);
    put_u32(&mut out, summary.violations);
    out
}

/// Decodes `COMPLETED`.
///
/// # Errors
///
/// Fails on a malformed payload.
pub fn decode_completed(payload: &[u8]) -> Result<(u64, ExecutionSummary), ProtocolError> {
    let mut buf = payload;
    let corr_id = get_u64(&mut buf)?;
    let summary = ExecutionSummary {
        success: get_u8(&mut buf)? != 0,
        invocations: get_u32(&mut buf)?,
        failures: get_u32(&mut buf)?,
        substitutions: get_u32(&mut buf)?,
        behavioural_adaptations: get_u32(&mut buf)?,
        violations: get_u32(&mut buf)?,
    };
    finish(buf)?;
    Ok((corr_id, summary))
}

/// `BUSY`: correlation id + deterministic retry hint.
pub fn encode_busy(corr_id: u64, retry_after_ticks: u32) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, corr_id);
    put_u32(&mut out, retry_after_ticks);
    out
}

/// Decodes `BUSY`.
///
/// # Errors
///
/// Fails on a malformed payload.
pub fn decode_busy(payload: &[u8]) -> Result<(u64, u32), ProtocolError> {
    let mut buf = payload;
    let corr_id = get_u64(&mut buf)?;
    let ticks = get_u32(&mut buf)?;
    finish(buf)?;
    Ok((corr_id, ticks))
}

/// A diagnostic as carried by a `REJECTED` frame: the stable code, the
/// severity and the message, all textual (clients need not know the
/// analyzer's enum).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDiagnostic {
    /// Stable `QA0xx` code.
    pub code: String,
    /// `"error"` or `"warning"`.
    pub severity: String,
    /// Human-readable explanation.
    pub message: String,
}

impl WireDiagnostic {
    /// Projects an analyzer diagnostic onto the wire shape.
    pub fn from_diagnostic(d: &Diagnostic) -> Self {
        WireDiagnostic {
            code: d.code.code().to_owned(),
            severity: d.severity.to_string(),
            message: d.message.clone(),
        }
    }
}

/// `REJECTED`: correlation id + analyzer diagnostics.
///
/// # Errors
///
/// Fails when a diagnostic message exceeds the string width.
pub fn encode_rejected(corr_id: u64, diags: &[Diagnostic]) -> Result<Vec<u8>, ProtocolError> {
    let mut out = Vec::new();
    put_u64(&mut out, corr_id);
    let n =
        u16::try_from(diags.len()).map_err(|_| ProtocolError::Malformed("too many diagnostics"))?;
    put_u16(&mut out, n);
    for d in diags {
        let wd = WireDiagnostic::from_diagnostic(d);
        put_str(&mut out, &wd.code)?;
        put_str(&mut out, &wd.severity)?;
        put_str(&mut out, &wd.message)?;
    }
    Ok(out)
}

/// Decodes `REJECTED`.
///
/// # Errors
///
/// Fails on a malformed payload.
pub fn decode_rejected(payload: &[u8]) -> Result<(u64, Vec<WireDiagnostic>), ProtocolError> {
    let mut buf = payload;
    let corr_id = get_u64(&mut buf)?;
    let n = get_u16(&mut buf)? as usize;
    let mut diags = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        diags.push(WireDiagnostic {
            code: get_str(&mut buf)?,
            severity: get_str(&mut buf)?,
            message: get_str(&mut buf)?,
        });
    }
    finish(buf)?;
    Ok((corr_id, diags))
}

/// Longest `ERROR` message, in bytes; longer ones are cut at the last
/// character boundary at or below it.
const MAX_ERROR_MESSAGE: usize = 4096;

/// `ERROR`: correlation id + registry epoch at failure + message (cut
/// to 4096 bytes, so it always fits the string width).
/// Correlation id 0 marks a connection-level protocol error.
pub fn encode_error(corr_id: u64, epoch: u64, message: &str) -> Vec<u8> {
    let message = &message[..message.floor_char_boundary(MAX_ERROR_MESSAGE)];
    let mut out = Vec::new();
    put_u64(&mut out, corr_id);
    put_u64(&mut out, epoch);
    put_u16(&mut out, message.len() as u16);
    out.extend_from_slice(message.as_bytes());
    out
}

/// Decodes `ERROR` into `(corr_id, epoch, message)`.
///
/// # Errors
///
/// Fails on a malformed payload.
pub fn decode_error(payload: &[u8]) -> Result<(u64, u64, String), ProtocolError> {
    let mut buf = payload;
    let corr_id = get_u64(&mut buf)?;
    let epoch = get_u64(&mut buf)?;
    let message = get_str(&mut buf)?;
    finish(buf)?;
    Ok((corr_id, epoch, message))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qasom_task::LoopBound;

    fn deep_request() -> UserRequest {
        let node = TaskNode::sequence([
            TaskNode::activity(
                Activity::new("a", "d#A")
                    .with_input("d#In")
                    .with_output("d#Out"),
            ),
            TaskNode::parallel([
                TaskNode::activity(Activity::new("b", "d#B")),
                TaskNode::choice([
                    (0.25, TaskNode::activity(Activity::new("c", "d#C"))),
                    (0.75, TaskNode::activity(Activity::new("e", "d#E"))),
                ]),
            ]),
            TaskNode::repeat(
                TaskNode::activity(Activity::new("f", "d#F")),
                LoopBound::new(2.5, 4),
            ),
        ]);
        UserRequest::new(UserTask::new("deep", node).unwrap())
            .constraint("ResponseTime", 1.5, Unit::Seconds)
            .unwrap()
            .weight("Availability", 2.0)
            .approach(AggregationApproach::Pessimistic)
    }

    #[test]
    fn requests_roundtrip_with_full_ast_fidelity() {
        let request = deep_request();
        let payload = encode_compose(77, &request).unwrap();
        let (corr, decoded, signature) = decode_compose(&payload).unwrap();
        assert_eq!(corr, 77);
        assert_eq!(decoded.task(), request.task());
        assert_eq!(decoded.raw_constraints(), request.raw_constraints());
        assert_eq!(decoded.raw_weights(), request.raw_weights());
        assert_eq!(
            decoded.aggregation_approach(),
            request.aggregation_approach()
        );
        // The signature is stable under re-encoding: a relayed request
        // batches with the original.
        assert_eq!(encode_request_body(&decoded).unwrap(), signature);
    }

    #[test]
    fn signatures_differ_when_requests_differ() {
        let a = encode_request_body(&deep_request()).unwrap();
        let b = encode_request_body(&deep_request().weight("ResponseTime", 1.0)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn hello_roundtrip_checks_version() {
        let payload = encode_hello("sensor-7").unwrap();
        assert_eq!(decode_hello(&payload).unwrap(), "sensor-7");
        let mut bad = payload.clone();
        bad[0] = 99;
        assert_eq!(decode_hello(&bad), Err(ProtocolError::BadVersion(99)));
    }

    #[test]
    fn outcome_payloads_roundtrip() {
        let ack = HelloAck {
            epoch: 12,
            batch_max: 8,
        };
        assert_eq!(decode_hello_ack(&encode_hello_ack(ack)).unwrap(), ack);

        let summary = ExecutionSummary {
            success: true,
            invocations: 5,
            failures: 1,
            substitutions: 1,
            behavioural_adaptations: 0,
            violations: 2,
        };
        assert_eq!(
            decode_completed(&encode_completed(3, summary)).unwrap(),
            (3, summary)
        );
        assert_eq!(decode_busy(&encode_busy(4, 2)).unwrap(), (4, 2));
        let (corr, epoch, msg) = decode_error(&encode_error(5, 9, "boom")).unwrap();
        assert_eq!((corr, epoch, msg.as_str()), (5, 9, "boom"));
    }

    #[test]
    fn long_error_messages_are_cut_at_a_char_boundary() {
        // Byte 4096 is the second byte of an 'é'.
        let long = format!("a{}", "é".repeat(3000));
        let (_, _, msg) = decode_error(&encode_error(1, 2, &long)).unwrap();
        assert_eq!(msg.len(), MAX_ERROR_MESSAGE - 1);
        assert!(long.starts_with(&msg));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = encode_busy(1, 1);
        payload.push(0);
        assert_eq!(
            decode_busy(&payload),
            Err(ProtocolError::Malformed("trailing bytes in payload"))
        );
    }

    #[test]
    fn invalid_tasks_fail_decode_validation() {
        // An empty sequence is structurally encodable but must fail
        // UserTask re-validation on the daemon side.
        let mut out = Vec::new();
        put_u64(&mut out, 1);
        put_str(&mut out, "bad").unwrap();
        put_u8(&mut out, 1); // TAG_SEQUENCE
        put_u16(&mut out, 0); // no children
        put_u16(&mut out, 0); // constraints
        put_u16(&mut out, 0); // weights
        put_u8(&mut out, 2); // MeanValue
        assert!(matches!(
            decode_compose(&out),
            Err(ProtocolError::Malformed("task failed validation"))
        ));
    }
}
