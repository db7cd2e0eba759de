//! The discrete-event simulation engine.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{LinkConfig, SimDuration, SimTime};

/// Handle to a simulated node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Sentinel sender for messages injected from outside the simulation
    /// (e.g. the user device kicking a protocol off).
    pub const EXTERNAL: NodeId = NodeId(u32::MAX);

    /// Index into the simulation's node table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Stable numeric form, usable as a registry `host` id.
    pub fn as_u64(self) -> u64 {
        u64::from(self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == NodeId::EXTERNAL {
            write!(f, "n<ext>")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

/// Hardware profile of a node: how slow its CPU is relative to a reference
/// device, and its battery level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    cpu_factor: f64,
    battery: f64,
}

impl DeviceProfile {
    /// A profile with the given CPU slowdown factor (`1.0` = reference
    /// machine, `4.0` = four times slower).
    ///
    /// # Panics
    ///
    /// Panics unless `cpu_factor` is finite and positive.
    pub fn new(cpu_factor: f64) -> Self {
        assert!(
            cpu_factor.is_finite() && cpu_factor > 0.0,
            "cpu factor must be finite and positive"
        );
        DeviceProfile {
            cpu_factor,
            battery: 1.0,
        }
    }

    /// A resource-constrained handheld (4× slower than the reference).
    pub fn constrained() -> Self {
        DeviceProfile::new(4.0)
    }

    /// Sets the battery level.
    ///
    /// # Panics
    ///
    /// Panics unless `battery` is in `[0, 1]`.
    pub fn with_battery(mut self, battery: f64) -> Self {
        assert!((0.0..=1.0).contains(&battery), "battery must be in [0, 1]");
        self.battery = battery;
        self
    }

    /// CPU slowdown factor relative to the reference device.
    pub fn cpu_factor(&self) -> f64 {
        self.cpu_factor
    }

    /// Battery level in `[0, 1]`.
    pub fn battery(&self) -> f64 {
        self.battery
    }
}

impl Default for DeviceProfile {
    fn default() -> Self {
        DeviceProfile::new(1.0)
    }
}

/// Aggregate network statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Messages handed to the network.
    pub sent: u64,
    /// Messages delivered to a live node.
    pub delivered: u64,
    /// Messages lost (link loss, partition, dead destination).
    pub dropped: u64,
    /// Sum of transit latencies of delivered messages (µs).
    pub latency_total_us: u64,
    /// Timers cancelled before firing (deadline/retry hygiene).
    pub timers_cancelled: u64,
}

impl NetworkStats {
    /// Mean transit latency of delivered messages, in milliseconds.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.latency_total_us as f64 / 1_000.0 / self.delivered as f64
        }
    }
}

/// The event cap was exhausted before the queue drained: the run stopped
/// with work still pending, so protocol state may be incomplete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventCapExceeded {
    /// Events processed before the run gave up.
    pub processed: u64,
    /// The configured cap ([`Simulation::set_max_events`]).
    pub max_events: u64,
}

impl fmt::Display for EventCapExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulation event cap exhausted after {} events (max {})",
            self.processed, self.max_events
        )
    }
}

impl std::error::Error for EventCapExceeded {}

/// Protocol logic attached to a node.
///
/// Handlers run to completion at a simulated instant; side effects (sends,
/// timers) are buffered in the [`NodeContext`] and applied afterwards.
/// Model local computation cost with [`NodeContext::compute`]: it delays
/// every *subsequent* effect of the same handler invocation by the work
/// duration scaled by the node's CPU factor.
pub trait NodeBehaviour<M> {
    /// Invoked once when the node joins the simulation.
    fn on_start(&mut self, _ctx: &mut NodeContext<'_, M>) {}

    /// Invoked for every delivered message.
    fn on_message(&mut self, ctx: &mut NodeContext<'_, M>, from: NodeId, msg: M);

    /// Invoked when a timer set via [`NodeContext::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut NodeContext<'_, M>, _timer: u64) {}
}

enum Effect<M> {
    Send {
        delay: SimDuration,
        to: NodeId,
        msg: M,
    },
    Timer {
        delay: SimDuration,
        key: u64,
    },
    CancelTimer {
        key: u64,
    },
}

/// Capabilities a behaviour can use while handling an event.
pub struct NodeContext<'a, M> {
    now: SimTime,
    node: NodeId,
    cpu_factor: f64,
    peers: &'a [NodeId],
    effects: &'a mut Vec<Effect<M>>,
    compute_debt: SimDuration,
}

impl<M> NodeContext<'_, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.node
    }

    /// This node's CPU slowdown factor.
    pub fn cpu_factor(&self) -> f64 {
        self.cpu_factor
    }

    /// Live peers (excluding this node) at the time of the event.
    pub fn peers(&self) -> &[NodeId] {
        self.peers
    }

    /// Models `work` of local computation on the reference machine: the
    /// node spends `work × cpu_factor`, delaying all subsequent effects of
    /// this handler invocation.
    pub fn compute(&mut self, work: SimDuration) {
        self.compute_debt = self.compute_debt + work.scale(self.cpu_factor);
    }

    /// Accumulated computation delay of this handler invocation.
    pub fn compute_debt(&self) -> SimDuration {
        self.compute_debt
    }

    /// Sends a message (subject to the link model) after the current
    /// compute debt.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.send_after(SimDuration::ZERO, to, msg);
    }

    /// Sends a message after an explicit extra delay.
    pub fn send_after(&mut self, delay: SimDuration, to: NodeId, msg: M) {
        self.effects.push(Effect::Send {
            delay: self.compute_debt + delay,
            to,
            msg,
        });
    }

    /// Sends a message to every live peer.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        for &p in self.peers {
            self.send(p, msg.clone());
        }
    }

    /// Schedules [`NodeBehaviour::on_timer`] with `key` after `delay`
    /// (plus the current compute debt).
    pub fn set_timer(&mut self, delay: SimDuration, key: u64) {
        self.effects.push(Effect::Timer {
            delay: self.compute_debt + delay,
            key,
        });
    }

    /// Cancels the earliest still-pending timer with `key` on this node:
    /// the queued event is discarded unprocessed (it neither advances
    /// simulated time nor counts towards the processed-event total).
    /// A cancellation with no matching pending timer is a no-op.
    pub fn cancel_timer(&mut self, key: u64) {
        self.effects.push(Effect::CancelTimer { key });
    }
}

enum EventKind<M> {
    Start(NodeId),
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: M,
        sent_at: SimTime,
    },
    Timer {
        node: NodeId,
        key: u64,
    },
    /// Environment dynamics: the default link profile changes (e.g. a
    /// transient outage clearing, the fleet moving out of interference).
    LinkChange(LinkConfig),
}

struct Entry<M> {
    at: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Entry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<M> Eq for Entry<M> {}

impl<M> PartialOrd for Entry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Entry<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct NodeSlot<B> {
    behaviour: Option<B>,
    profile: DeviceProfile,
    alive: bool,
}

/// A deterministic discrete-event network simulation.
///
/// Generic over the protocol message type `M` and the (homogeneous)
/// behaviour type `B`; heterogeneous roles are typically an enum inside
/// `B`. See the crate-level example.
pub struct Simulation<M, B: NodeBehaviour<M>> {
    nodes: Vec<NodeSlot<B>>,
    default_link: LinkConfig,
    links: BTreeMap<(u32, u32), LinkConfig>,
    queue: BinaryHeap<Entry<M>>,
    seq: u64,
    now: SimTime,
    rng: StdRng,
    stats: NetworkStats,
    max_events: u64,
    /// Pending timer cancellations: `(node, key)` → how many of the next
    /// matching timer pops to discard.
    cancelled: BTreeMap<(u32, u64), u64>,
    cap_exhausted: bool,
}

impl<M, B: NodeBehaviour<M>> Simulation<M, B> {
    /// Creates an empty simulation with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Simulation {
            nodes: Vec::new(),
            default_link: LinkConfig::default(),
            links: BTreeMap::new(),
            queue: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            rng: StdRng::seed_from_u64(seed),
            stats: NetworkStats::default(),
            max_events: 50_000_000,
            cancelled: BTreeMap::new(),
            cap_exhausted: false,
        }
    }

    /// Caps the number of processed events (runaway-protocol guard).
    pub fn set_max_events(&mut self, max: u64) {
        self.max_events = max;
    }

    /// Adds a node; its [`NodeBehaviour::on_start`] runs at the current
    /// simulated time.
    #[expect(clippy::expect_used, reason = "2^32 nodes cannot fit in memory")]
    pub fn add_node(&mut self, profile: DeviceProfile, behaviour: B) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("too many nodes"));
        self.nodes.push(NodeSlot {
            behaviour: Some(behaviour),
            profile,
            alive: true,
        });
        self.push(self.now, EventKind::Start(id));
        id
    }

    /// Marks a node dead (churn/crash): pending and future deliveries to
    /// it are dropped, its timers are discarded on fire.
    pub fn fail_node(&mut self, id: NodeId) {
        if let Some(slot) = self.nodes.get_mut(id.index()) {
            slot.alive = false;
        }
    }

    /// Whether a node is live.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.nodes.get(id.index()).is_some_and(|s| s.alive)
    }

    /// Live node ids.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|&n| self.is_alive(n))
            .collect()
    }

    /// Immutable access to a node's behaviour (absent while the node is
    /// handling an event, which cannot be observed from outside `run`).
    #[expect(
        clippy::expect_used,
        reason = "a behaviour is only detached inside dispatch"
    )]
    pub fn node(&self, id: NodeId) -> &B {
        self.nodes[id.index()]
            .behaviour
            .as_ref()
            .expect("behaviour is only detached during dispatch")
    }

    /// Mutable access to a node's behaviour.
    #[expect(
        clippy::expect_used,
        reason = "a behaviour is only detached inside dispatch"
    )]
    pub fn node_mut(&mut self, id: NodeId) -> &mut B {
        self.nodes[id.index()]
            .behaviour
            .as_mut()
            .expect("behaviour is only detached during dispatch")
    }

    /// A node's device profile.
    pub fn profile(&self, id: NodeId) -> DeviceProfile {
        self.nodes[id.index()].profile
    }

    /// Sets the link used for pairs without an explicit override.
    pub fn set_default_link(&mut self, link: LinkConfig) {
        self.default_link = link;
    }

    /// Schedules a default-link change `delay` from now (transient
    /// outages, interference clearing, fleet-wide mobility effects).
    /// Per-pair overrides set via [`Simulation::set_link`] are unaffected.
    pub fn set_default_link_at(&mut self, delay: SimDuration, link: LinkConfig) {
        self.push(self.now + delay, EventKind::LinkChange(link));
    }

    /// Overrides the (symmetric) link between two nodes.
    pub fn set_link(&mut self, a: NodeId, b: NodeId, link: LinkConfig) {
        self.links.insert(link_key(a, b), link);
    }

    /// The effective link between two nodes.
    pub fn link(&self, a: NodeId, b: NodeId) -> LinkConfig {
        self.links
            .get(&link_key(a, b))
            .copied()
            .unwrap_or(self.default_link)
    }

    /// Injects a message from [`NodeId::EXTERNAL`], delivered immediately.
    pub fn send_external(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.stats.sent += 1;
        self.push(
            self.now,
            EventKind::Deliver {
                from,
                to,
                msg,
                sent_at: self.now,
            },
        );
    }

    /// Schedules a timer on a node from outside the simulation.
    pub fn schedule_timer(&mut self, node: NodeId, delay: SimDuration, key: u64) {
        self.push(self.now + delay, EventKind::Timer { node, key });
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Network statistics so far.
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }

    /// Runs until the event queue drains (or the event cap is hit),
    /// returning the number of processed events. Prefer
    /// [`Simulation::run_checked`] when cap exhaustion must not pass
    /// silently; this variant reports it only via
    /// [`Simulation::cap_exhausted`].
    pub fn run(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// Like [`Simulation::run`], but surfaces event-cap exhaustion as an
    /// error instead of stopping silently with the protocol incomplete.
    pub fn run_checked(&mut self) -> Result<u64, EventCapExceeded> {
        self.run_until_checked(SimTime::MAX)
    }

    /// Runs until the queue drains or simulated time would pass `deadline`.
    #[expect(clippy::expect_used, reason = "the pop follows a successful peek")]
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.cap_exhausted = false;
        let mut processed = 0;
        while let Some(entry) = self.queue.peek() {
            if entry.at > deadline {
                break;
            }
            if processed >= self.max_events {
                // Undrained work remains within the deadline: the run is
                // being cut short, not finishing.
                self.cap_exhausted = true;
                break;
            }
            let entry = self.queue.pop().expect("peeked");
            if let EventKind::Timer { node, key } = &entry.kind {
                // A cancelled timer is discarded unprocessed: simulated
                // time does not advance to its instant and it does not
                // count towards the processed total.
                if let Some(pending) = self.cancelled.get_mut(&(node.0, *key)) {
                    *pending -= 1;
                    if *pending == 0 {
                        self.cancelled.remove(&(node.0, *key));
                    }
                    continue;
                }
            }
            self.now = entry.at;
            processed += 1;
            self.dispatch(entry.kind);
        }
        processed
    }

    /// Like [`Simulation::run_until`], but surfaces event-cap exhaustion
    /// as an error.
    pub fn run_until_checked(&mut self, deadline: SimTime) -> Result<u64, EventCapExceeded> {
        let processed = self.run_until(deadline);
        if self.cap_exhausted {
            Err(EventCapExceeded {
                processed,
                max_events: self.max_events,
            })
        } else {
            Ok(processed)
        }
    }

    /// Whether the most recent run stopped on the event cap with work
    /// still pending.
    pub fn cap_exhausted(&self) -> bool {
        self.cap_exhausted
    }

    fn push(&mut self, at: SimTime, kind: EventKind<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Entry { at, seq, kind });
    }

    fn dispatch(&mut self, kind: EventKind<M>) {
        match kind {
            EventKind::Start(node) => {
                self.with_behaviour(node, |b, ctx| b.on_start(ctx));
            }
            EventKind::Deliver {
                from,
                to,
                msg,
                sent_at,
            } => {
                if !self.is_alive(to) {
                    self.stats.dropped += 1;
                    return;
                }
                self.stats.delivered += 1;
                self.stats.latency_total_us += self.now.since(sent_at).as_micros();
                self.with_behaviour(to, |b, ctx| b.on_message(ctx, from, msg));
            }
            EventKind::Timer { node, key } => {
                if self.is_alive(node) {
                    self.with_behaviour(node, |b, ctx| b.on_timer(ctx, key));
                }
            }
            EventKind::LinkChange(link) => {
                self.default_link = link;
            }
        }
    }

    #[expect(clippy::expect_used, reason = "dispatch never reenters a node")]
    fn with_behaviour(&mut self, node: NodeId, f: impl FnOnce(&mut B, &mut NodeContext<'_, M>)) {
        let Some(slot) = self.nodes.get_mut(node.index()) else {
            return;
        };
        if !slot.alive {
            return;
        }
        let mut behaviour = slot.behaviour.take().expect("no reentrant dispatch");
        let cpu_factor = slot.profile.cpu_factor;
        let peers: Vec<NodeId> = (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|&n| n != node && self.is_alive(n))
            .collect();
        let mut effects = Vec::new();
        let mut ctx = NodeContext {
            now: self.now,
            node,
            cpu_factor,
            peers: &peers,
            effects: &mut effects,
            compute_debt: SimDuration::ZERO,
        };
        f(&mut behaviour, &mut ctx);
        self.nodes[node.index()].behaviour = Some(behaviour);
        self.apply_effects(node, effects);
    }

    fn apply_effects(&mut self, node: NodeId, effects: Vec<Effect<M>>) {
        for effect in effects {
            match effect {
                Effect::Send { delay, to, msg } => {
                    self.stats.sent += 1;
                    let departure = self.now + delay;
                    match self.link(node, to).sample_delivery(&mut self.rng) {
                        Some(transit) => {
                            self.push(
                                departure + transit,
                                EventKind::Deliver {
                                    from: node,
                                    to,
                                    msg,
                                    sent_at: departure,
                                },
                            );
                        }
                        None => self.stats.dropped += 1,
                    }
                }
                Effect::Timer { delay, key } => {
                    self.push(self.now + delay, EventKind::Timer { node, key });
                }
                Effect::CancelTimer { key } => {
                    // Only record the cancellation if an uncancelled
                    // matching timer is actually pending, so a spurious
                    // cancel can never swallow a future timer.
                    let pending = self
                        .queue
                        .iter()
                        .filter(|e| matches!(e.kind, EventKind::Timer { node: n, key: k } if n == node && k == key))
                        .count() as u64;
                    let already = self.cancelled.get(&(node.0, key)).copied().unwrap_or(0);
                    if already < pending {
                        self.cancelled.insert((node.0, key), already + 1);
                        self.stats.timers_cancelled += 1;
                    }
                }
            }
        }
    }
}

fn link_key(a: NodeId, b: NodeId) -> (u32, u32) {
    let (x, y) = (a.0, b.0);
    (x.min(y), x.max(y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Collector {
        received: Vec<(NodeId, String)>,
        timers: Vec<u64>,
        started: bool,
    }

    impl NodeBehaviour<String> for Collector {
        fn on_start(&mut self, _ctx: &mut NodeContext<'_, String>) {
            self.started = true;
        }

        fn on_message(&mut self, ctx: &mut NodeContext<'_, String>, from: NodeId, msg: String) {
            if msg == "ping" {
                ctx.send(from, "pong".to_owned());
            }
            self.received.push((from, msg));
        }

        fn on_timer(&mut self, _ctx: &mut NodeContext<'_, String>, timer: u64) {
            self.timers.push(timer);
        }
    }

    fn two_nodes() -> (Simulation<String, Collector>, NodeId, NodeId) {
        let mut sim = Simulation::new(7);
        sim.set_default_link(LinkConfig::new(10.0, 0.0));
        let a = sim.add_node(DeviceProfile::default(), Collector::default());
        let b = sim.add_node(DeviceProfile::default(), Collector::default());
        (sim, a, b)
    }

    #[test]
    fn ping_pong_round_trip() {
        let (mut sim, a, b) = two_nodes();
        sim.send_external(a, b, "ping".to_owned());
        sim.run();
        assert_eq!(sim.node(b).received, vec![(a, "ping".to_owned())]);
        assert_eq!(sim.node(a).received, vec![(b, "pong".to_owned())]);
        // external deliver at t=0, pong takes one 10 ms hop.
        assert_eq!(sim.now().as_millis_f64(), 10.0);
    }

    #[test]
    fn on_start_runs_for_every_node() {
        let (mut sim, a, b) = two_nodes();
        sim.run();
        assert!(sim.node(a).started && sim.node(b).started);
    }

    #[test]
    fn timers_fire_in_order() {
        let (mut sim, a, _) = two_nodes();
        sim.schedule_timer(a, SimDuration::from_millis(5), 2);
        sim.schedule_timer(a, SimDuration::from_millis(1), 1);
        sim.run();
        assert_eq!(sim.node(a).timers, vec![1, 2]);
    }

    #[test]
    fn dead_nodes_drop_messages() {
        let (mut sim, a, b) = two_nodes();
        sim.fail_node(b);
        sim.send_external(a, b, "ping".to_owned());
        sim.run();
        assert_eq!(sim.stats().delivered, 0);
        assert_eq!(sim.stats().dropped, 1);
    }

    #[test]
    fn partition_blocks_traffic() {
        let (mut sim, a, b) = two_nodes();
        sim.set_link(a, b, LinkConfig::disconnected());
        sim.send_external(a, b, "ping".to_owned());
        sim.run();
        // External injection is delivered, but the pong is partitioned.
        assert_eq!(sim.node(a).received.len(), 0);
        assert_eq!(sim.stats().dropped, 1);
    }

    #[test]
    fn compute_scales_with_cpu_factor() {
        struct Worker;
        impl NodeBehaviour<String> for Worker {
            fn on_message(&mut self, ctx: &mut NodeContext<'_, String>, from: NodeId, _m: String) {
                ctx.compute(SimDuration::from_millis(10));
                ctx.send(from, "done".to_owned());
            }
        }
        let mut sim: Simulation<String, Worker> = Simulation::new(1);
        sim.set_default_link(LinkConfig::new(0.0, 0.0));
        let fast = sim.add_node(DeviceProfile::new(1.0), Worker);
        let slow = sim.add_node(DeviceProfile::new(4.0), Worker);
        sim.send_external(NodeId::EXTERNAL, fast, "go".to_owned());
        sim.run();
        assert_eq!(sim.now().as_millis_f64(), 10.0);

        let mut sim2: Simulation<String, Worker> = Simulation::new(1);
        sim2.set_default_link(LinkConfig::new(0.0, 0.0));
        let _ = sim2.add_node(DeviceProfile::new(1.0), Worker);
        let slow2 = sim2.add_node(DeviceProfile::new(4.0), Worker);
        sim2.send_external(NodeId::EXTERNAL, slow2, "go".to_owned());
        sim2.run();
        assert_eq!(sim2.now().as_millis_f64(), 40.0);
        let _ = (slow, fast);
    }

    #[test]
    fn broadcast_reaches_all_live_peers() {
        struct Caster {
            casted: bool,
            got: usize,
        }
        impl NodeBehaviour<u32> for Caster {
            fn on_message(&mut self, ctx: &mut NodeContext<'_, u32>, _from: NodeId, m: u32) {
                if m == 0 && !self.casted {
                    self.casted = true;
                    ctx.broadcast(1);
                } else {
                    self.got += 1;
                }
            }
        }
        let mk = || Caster {
            casted: false,
            got: 0,
        };
        let mut sim: Simulation<u32, Caster> = Simulation::new(3);
        let a = sim.add_node(DeviceProfile::default(), mk());
        let b = sim.add_node(DeviceProfile::default(), mk());
        let c = sim.add_node(DeviceProfile::default(), mk());
        let d = sim.add_node(DeviceProfile::default(), mk());
        sim.fail_node(d);
        sim.send_external(NodeId::EXTERNAL, a, 0);
        sim.run();
        assert_eq!(sim.node(b).got + sim.node(c).got, 2);
    }

    #[test]
    fn run_until_respects_deadline() {
        let (mut sim, a, _) = two_nodes();
        sim.schedule_timer(a, SimDuration::from_millis(100), 9);
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(50));
        assert!(sim.node(a).timers.is_empty());
        sim.run();
        assert_eq!(sim.node(a).timers, vec![9]);
    }

    #[test]
    fn max_events_caps_runaway_protocols() {
        // Two nodes ping-pong forever; the cap must stop the run.
        struct Forever;
        impl NodeBehaviour<u32> for Forever {
            fn on_message(&mut self, ctx: &mut NodeContext<'_, u32>, from: NodeId, m: u32) {
                ctx.send(from, m + 1);
            }
        }
        let mut sim: Simulation<u32, Forever> = Simulation::new(1);
        sim.set_max_events(500);
        let a = sim.add_node(DeviceProfile::default(), Forever);
        let b = sim.add_node(DeviceProfile::default(), Forever);
        sim.send_external(a, b, 0);
        let processed = sim.run();
        assert_eq!(processed, 500);
    }

    #[test]
    fn cancelled_timer_never_fires_and_is_not_processed() {
        struct Canceller {
            fired: Vec<u64>,
        }
        impl NodeBehaviour<String> for Canceller {
            fn on_start(&mut self, ctx: &mut NodeContext<'_, String>) {
                ctx.set_timer(SimDuration::from_millis(10), 1);
                ctx.set_timer(SimDuration::from_millis(20), 2);
            }
            fn on_message(&mut self, _c: &mut NodeContext<'_, String>, _f: NodeId, _m: String) {}
            fn on_timer(&mut self, ctx: &mut NodeContext<'_, String>, timer: u64) {
                self.fired.push(timer);
                if timer == 1 {
                    ctx.cancel_timer(2);
                }
            }
        }
        let mut sim: Simulation<String, Canceller> = Simulation::new(1);
        let a = sim.add_node(DeviceProfile::default(), Canceller { fired: Vec::new() });
        let processed = sim.run();
        assert_eq!(sim.node(a).fired, vec![1]);
        // Start + timer 1 only: the cancelled timer 2 is not processed and
        // does not advance simulated time to its instant.
        assert_eq!(processed, 2);
        assert_eq!(sim.now().as_millis_f64(), 10.0);
        assert_eq!(sim.stats().timers_cancelled, 1);
    }

    #[test]
    fn spurious_cancel_does_not_swallow_future_timers() {
        struct Spurious {
            fired: Vec<u64>,
        }
        impl NodeBehaviour<String> for Spurious {
            fn on_start(&mut self, ctx: &mut NodeContext<'_, String>) {
                ctx.cancel_timer(7); // nothing pending: must be a no-op
                ctx.set_timer(SimDuration::from_millis(5), 7);
            }
            fn on_message(&mut self, _c: &mut NodeContext<'_, String>, _f: NodeId, _m: String) {}
            fn on_timer(&mut self, _ctx: &mut NodeContext<'_, String>, timer: u64) {
                self.fired.push(timer);
            }
        }
        let mut sim: Simulation<String, Spurious> = Simulation::new(1);
        let a = sim.add_node(DeviceProfile::default(), Spurious { fired: Vec::new() });
        sim.run();
        assert_eq!(sim.node(a).fired, vec![7]);
        assert_eq!(sim.stats().timers_cancelled, 0);
    }

    #[test]
    fn run_checked_reports_cap_exhaustion() {
        struct Forever;
        impl NodeBehaviour<u32> for Forever {
            fn on_message(&mut self, ctx: &mut NodeContext<'_, u32>, from: NodeId, m: u32) {
                ctx.send(from, m + 1);
            }
        }
        let mut sim: Simulation<u32, Forever> = Simulation::new(1);
        sim.set_max_events(100);
        let a = sim.add_node(DeviceProfile::default(), Forever);
        let b = sim.add_node(DeviceProfile::default(), Forever);
        sim.send_external(a, b, 0);
        let err = sim.run_checked().expect_err("must hit the cap");
        assert_eq!(err.max_events, 100);
        assert_eq!(err.processed, 100);
        assert!(sim.cap_exhausted());
    }

    #[test]
    fn run_checked_is_ok_on_clean_drain() {
        let (mut sim, a, b) = two_nodes();
        sim.send_external(a, b, "ping".to_owned());
        assert!(sim.run_checked().is_ok());
        assert!(!sim.cap_exhausted());
    }

    #[test]
    fn scheduled_link_change_takes_effect() {
        // Loss 1.0 until t=50 ms, perfect afterwards: a ping at t=0 is
        // lost, a ping sent after the change gets through.
        let mut sim = Simulation::new(5);
        sim.set_default_link(LinkConfig::new(5.0, 0.0).with_loss(1.0));
        sim.set_default_link_at(SimDuration::from_millis(50), LinkConfig::new(5.0, 0.0));
        let a = sim.add_node(DeviceProfile::default(), Collector::default());
        let b = sim.add_node(DeviceProfile::default(), Collector::default());
        sim.send_external(a, b, "ping".to_owned());
        sim.run();
        // The external injection is delivered; the pong was lost.
        assert_eq!(sim.node(a).received.len(), 0);
        assert_eq!(sim.stats().dropped, 1);
        sim.send_external(a, b, "ping".to_owned());
        sim.run();
        assert_eq!(sim.node(a).received, vec![(b, "pong".to_owned())]);
    }

    #[test]
    fn nodes_can_join_mid_run() {
        let (mut sim, a, _) = two_nodes();
        sim.run();
        // A latecomer joins after the initial quiescence…
        let late = sim.add_node(DeviceProfile::default(), Collector::default());
        sim.send_external(a, late, "ping".to_owned());
        sim.run();
        // …receives traffic and its on_start ran.
        assert!(sim.node(late).started);
        assert_eq!(sim.node(late).received.len(), 1);
    }

    #[test]
    fn alive_nodes_tracks_churn() {
        let (mut sim, a, b) = two_nodes();
        assert_eq!(sim.alive_nodes(), vec![a, b]);
        sim.fail_node(a);
        assert_eq!(sim.alive_nodes(), vec![b]);
        assert!(!sim.is_alive(a));
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let (mut sim, a, b) = two_nodes();
            sim.set_default_link(LinkConfig::new(5.0, 2.0).with_loss(0.1));
            for _ in 0..50 {
                sim.send_external(a, b, "ping".to_owned());
            }
            sim.run();
            (sim.stats(), sim.now())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stats_track_latency() {
        let (mut sim, a, b) = two_nodes();
        sim.send_external(a, b, "ping".to_owned());
        sim.run();
        // Only the pong transits a link (external inject has 0 latency).
        assert_eq!(sim.stats().delivered, 2);
        assert_eq!(sim.stats().mean_latency_ms(), 5.0);
    }
}
