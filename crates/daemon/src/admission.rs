//! Admission control: the bounded session queue, per-client quotas and
//! shared-signature batch extraction.
//!
//! Admission is where the daemon degrades gracefully instead of
//! collapsing: a full queue or an over-quota client yields a typed
//! `Busy` decision with a deterministic retry hint, never an unbounded
//! buffer. All decisions are pure functions of queue state, so a
//! scripted workload replays byte-identically.

use std::collections::{BTreeMap, VecDeque};

use qasom::UserRequest;

/// Admission limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Max sessions waiting in the queue; the `queue_capacity + 1`-th
    /// concurrent session is shed.
    pub queue_capacity: usize,
    /// Max queued sessions per client identity.
    pub client_quota: usize,
    /// Max sessions composed off one shared-signature batch.
    pub batch_max: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_capacity: 64,
            client_quota: 8,
            batch_max: 8,
        }
    }
}

impl AdmissionConfig {
    fn normalised(mut self) -> Self {
        self.batch_max = self.batch_max.max(1);
        self
    }
}

/// Why a session was (not) admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Queued; a later broker tick serves it.
    Admitted,
    /// Shed: the queue is at capacity.
    QueueFull,
    /// Shed: this client already has `client_quota` sessions queued.
    OverQuota,
}

/// One admitted session waiting to be served.
#[derive(Debug)]
pub struct QueuedSession {
    /// Broker-assigned id, in admission order.
    pub session_id: u64,
    /// The connection the session arrived on.
    pub conn_id: u64,
    /// The client's correlation id for the response frame.
    pub corr_id: u64,
    /// The client identity (quota key).
    pub client: String,
    /// The decoded request.
    pub request: UserRequest,
    /// The request-body bytes; byte-equal signatures batch together.
    pub signature: Vec<u8>,
}

/// The bounded admission queue.
#[derive(Debug)]
pub struct AdmissionQueue {
    config: AdmissionConfig,
    queue: VecDeque<QueuedSession>,
    per_client: BTreeMap<String, usize>,
}

impl AdmissionQueue {
    /// An empty queue under the given limits.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionQueue {
            config: config.normalised(),
            queue: VecDeque::new(),
            per_client: BTreeMap::new(),
        }
    }

    /// The limits in force.
    pub fn config(&self) -> AdmissionConfig {
        self.config
    }

    /// Sessions currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The retry hint handed to shed sessions: one tick per batch the
    /// broker must drain before capacity frees up, plus the tick that
    /// re-admits the retrying session itself. Deterministic in the
    /// queue depth.
    ///
    /// The shed session joins the backlog when it retries, so the wait
    /// covers `ceil((len + 1) / batch_max)` batch drains. Counting only
    /// the already-queued sessions under-reported the wait by one tick
    /// whenever the queue divided evenly into batches — exactly the
    /// full-queue case every shed session is in.
    pub fn retry_after_ticks(&self) -> u32 {
        let batches_ahead = (self.queue.len() + 1).div_ceil(self.config.batch_max);
        u32::try_from(1 + batches_ahead).unwrap_or(u32::MAX)
    }

    /// Decides admission for `session`; queues it when admitted.
    pub fn offer(&mut self, session: QueuedSession) -> AdmissionDecision {
        if self.queue.len() >= self.config.queue_capacity {
            return AdmissionDecision::QueueFull;
        }
        let held = self.per_client.get(&session.client).copied().unwrap_or(0);
        if held >= self.config.client_quota {
            return AdmissionDecision::OverQuota;
        }
        *self.per_client.entry(session.client.clone()).or_insert(0) += 1;
        self.queue.push_back(session);
        AdmissionDecision::Admitted
    }

    /// Extracts the next compose batch: the head of the queue plus every
    /// later session with a byte-equal signature, up to `batch_max`,
    /// preserving admission order. Returns `None` on an empty queue.
    pub fn take_batch(&mut self) -> Option<Vec<QueuedSession>> {
        let head = self.queue.pop_front()?;
        let mut batch = Vec::with_capacity(self.config.batch_max);
        let signature = head.signature.clone();
        batch.push(head);
        let mut rest = VecDeque::with_capacity(self.queue.len());
        while let Some(next) = self.queue.pop_front() {
            if batch.len() < self.config.batch_max && next.signature == signature {
                batch.push(next);
            } else {
                rest.push_back(next);
            }
        }
        self.queue = rest;
        for session in &batch {
            if let Some(held) = self.per_client.get_mut(&session.client) {
                *held = held.saturating_sub(1);
                if *held == 0 {
                    self.per_client.remove(&session.client);
                }
            }
        }
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::request;

    fn session(id: u64, client: &str, task: &str) -> QueuedSession {
        let request = request(task);
        let signature = crate::wire::encode_request_body(&request).unwrap();
        QueuedSession {
            session_id: id,
            conn_id: id,
            corr_id: id,
            client: client.into(),
            request,
            signature,
        }
    }

    fn config(capacity: usize, quota: usize, batch: usize) -> AdmissionConfig {
        AdmissionConfig {
            queue_capacity: capacity,
            client_quota: quota,
            batch_max: batch,
        }
    }

    #[test]
    fn queue_capacity_sheds_deterministically() {
        let mut q = AdmissionQueue::new(config(2, 10, 4));
        assert_eq!(q.offer(session(1, "c", "t")), AdmissionDecision::Admitted);
        assert_eq!(q.offer(session(2, "c", "t")), AdmissionDecision::Admitted);
        assert_eq!(q.offer(session(3, "c", "t")), AdmissionDecision::QueueFull);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn client_quota_is_per_identity() {
        let mut q = AdmissionQueue::new(config(10, 1, 4));
        assert_eq!(q.offer(session(1, "a", "t")), AdmissionDecision::Admitted);
        assert_eq!(q.offer(session(2, "a", "t")), AdmissionDecision::OverQuota);
        assert_eq!(q.offer(session(3, "b", "t")), AdmissionDecision::Admitted);
        // Serving the batch releases the quota.
        q.take_batch().unwrap();
        assert_eq!(q.offer(session(4, "a", "t")), AdmissionDecision::Admitted);
    }

    #[test]
    fn batches_group_equal_signatures_across_interleavings() {
        let mut q = AdmissionQueue::new(config(10, 10, 8));
        q.offer(session(1, "a", "hot"));
        q.offer(session(2, "b", "cold"));
        q.offer(session(3, "c", "hot"));
        let batch = q.take_batch().unwrap();
        let ids: Vec<u64> = batch.iter().map(|s| s.session_id).collect();
        assert_eq!(ids, vec![1, 3]);
        let next = q.take_batch().unwrap();
        assert_eq!(next[0].session_id, 2);
        assert!(q.take_batch().is_none());
    }

    #[test]
    fn batch_max_caps_the_batch() {
        let mut q = AdmissionQueue::new(config(10, 10, 2));
        for i in 0..5 {
            q.offer(session(i, "c", "hot"));
        }
        assert_eq!(q.take_batch().unwrap().len(), 2);
        assert_eq!(q.take_batch().unwrap().len(), 2);
        assert_eq!(q.take_batch().unwrap().len(), 1);
    }

    #[test]
    fn retry_hint_scales_with_queue_depth() {
        let mut q = AdmissionQueue::new(config(100, 100, 4));
        // Empty queue: the retrier still needs its own batch drained.
        assert_eq!(q.retry_after_ticks(), 2);
        for i in 0..8 {
            q.offer(session(i, "c", "hot"));
        }
        // 8 queued + the retrier = ceil(9/4) = 3 drains, +1 re-admit tick.
        assert_eq!(q.retry_after_ticks(), 4);
    }

    #[test]
    fn retry_hint_counts_the_retrier_at_the_capacity_boundary() {
        // Queue length == queue capacity, dividing evenly into batches:
        // the old hint said ceil(4/2) + 1 = 3 ticks, one short — after 3
        // ticks the retrier is only *entering* the queue, not served.
        let mut q = AdmissionQueue::new(config(4, 100, 2));
        for i in 0..4 {
            assert_eq!(q.offer(session(i, "c", "hot")), AdmissionDecision::Admitted);
        }
        assert_eq!(
            q.offer(session(4, "c", "hot")),
            AdmissionDecision::QueueFull
        );
        assert_eq!(q.retry_after_ticks(), 1 + 5u32.div_ceil(2));
    }
}
