//! The discrete-event simulation engine.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{LinkConfig, SimDuration, SimTime};

/// Handle to a simulated node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(usize);

impl NodeId {
    /// Index into the simulation's node table.
    pub fn index(self) -> usize {
        self.0
    }

    /// Stable numeric form, usable as a registry `host` id.
    pub fn as_u64(self) -> u64 {
        self.0 as u64
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Hardware profile of a node: how slow its CPU is relative to a
/// reference device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    cpu_factor: f64,
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
        DeviceProfile { cpu_factor }
    }

    /// A resource-constrained handheld (4× slower than the reference).
    pub fn constrained() -> Self {
        DeviceProfile::new(4.0)
    }

    /// CPU slowdown factor relative to the reference device.
    pub fn cpu_factor(&self) -> f64 {
        self.cpu_factor
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
    /// Messages delivered to a node.
    pub delivered: u64,
    /// Messages lost (link loss, or a destination this simulation never
    /// issued).
    pub dropped: u64,
    /// Timers cancelled before firing (deadline/retry hygiene).
    pub timers_cancelled: u64,
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
    cpu_factor: f64,
    peers: &'a [NodeId],
    effects: &'a mut Vec<Effect<M>>,
    compute_debt: SimDuration,
}

impl<'a, M> NodeContext<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Every other node of the simulation at the time of the event.
    pub fn peers(&self) -> &'a [NodeId] {
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
        self.effects.push(Effect::Send {
            delay: self.compute_debt,
            to,
            msg,
        });
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
    behaviour: B,
    cpu_factor: f64,
}

/// A deterministic discrete-event network simulation.
///
/// Generic over the protocol message type `M` and the (homogeneous)
/// behaviour type `B`; heterogeneous roles are typically an enum inside
/// `B`. Every pair of nodes talks over the one default link. See the
/// crate-level example.
pub struct Simulation<M, B: NodeBehaviour<M>> {
    nodes: Vec<NodeSlot<B>>,
    link: LinkConfig,
    queue: BinaryHeap<Entry<M>>,
    seq: u64,
    now: SimTime,
    rng: StdRng,
    stats: NetworkStats,
    max_events: u64,
    /// Pending timer cancellations: `(node, key)` → how many of the next
    /// matching timer pops to discard.
    cancelled: BTreeMap<(NodeId, u64), u64>,
}

impl<M, B: NodeBehaviour<M>> Simulation<M, B> {
    /// Creates an empty simulation with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Simulation {
            nodes: Vec::new(),
            link: LinkConfig::default(),
            queue: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            rng: StdRng::seed_from_u64(seed),
            stats: NetworkStats::default(),
            max_events: 50_000_000,
            cancelled: BTreeMap::new(),
        }
    }

    /// Caps the number of processed events (runaway-protocol guard).
    pub fn set_max_events(&mut self, max: u64) {
        self.max_events = max;
    }

    /// Adds a node; its [`NodeBehaviour::on_start`] runs at the current
    /// simulated time.
    pub fn add_node(&mut self, profile: DeviceProfile, behaviour: B) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(NodeSlot {
            behaviour,
            cpu_factor: profile.cpu_factor,
        });
        self.push(self.now, EventKind::Start(id));
        id
    }

    /// A node's behaviour.
    ///
    /// # Panics
    ///
    /// Panics if this simulation did not issue `id`.
    pub fn node(&self, id: NodeId) -> &B {
        &self.nodes[id.index()].behaviour
    }

    /// Sets the link every message travels over.
    pub fn set_default_link(&mut self, link: LinkConfig) {
        self.link = link;
    }

    /// Schedules a default-link change `delay` from now (transient
    /// outages, interference clearing).
    pub fn set_default_link_at(&mut self, delay: SimDuration, link: LinkConfig) {
        self.push(self.now + delay, EventKind::LinkChange(link));
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Network statistics so far.
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }

    /// Runs until the event queue drains, returning the number of
    /// processed events, or an error when the event cap stops the run
    /// with work still pending (the protocol may then be incomplete).
    pub fn run(&mut self) -> Result<u64, EventCapExceeded> {
        let mut processed = 0;
        while let Some(entry) = self.queue.pop() {
            if let EventKind::Timer { node, key } = entry.kind {
                // A cancelled timer is discarded unprocessed, before the
                // cap is consulted: simulated time does not advance to its
                // instant and it does not count towards the processed
                // total, so it never makes a finished run look cut short.
                if let Some(pending) = self.cancelled.get_mut(&(node, key)) {
                    *pending -= 1;
                    if *pending == 0 {
                        self.cancelled.remove(&(node, key));
                    }
                    continue;
                }
            }
            if processed >= self.max_events {
                self.queue.push(entry);
                return Err(EventCapExceeded {
                    processed,
                    max_events: self.max_events,
                });
            }
            self.now = entry.at;
            processed += 1;
            self.dispatch(entry.kind);
        }
        Ok(processed)
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
            EventKind::Deliver { from, to, msg } => {
                if to.index() >= self.nodes.len() {
                    self.stats.dropped += 1;
                    return;
                }
                self.stats.delivered += 1;
                self.with_behaviour(to, |b, ctx| b.on_message(ctx, from, msg));
            }
            EventKind::Timer { node, key } => {
                self.with_behaviour(node, |b, ctx| b.on_timer(ctx, key));
            }
            EventKind::LinkChange(link) => {
                self.link = link;
            }
        }
    }

    fn with_behaviour(&mut self, node: NodeId, f: impl FnOnce(&mut B, &mut NodeContext<'_, M>)) {
        let peers: Vec<NodeId> = (0..self.nodes.len())
            .map(NodeId)
            .filter(|&n| n != node)
            .collect();
        let slot = &mut self.nodes[node.index()];
        let mut effects = Vec::new();
        let mut ctx = NodeContext {
            now: self.now,
            cpu_factor: slot.cpu_factor,
            peers: &peers,
            effects: &mut effects,
            compute_debt: SimDuration::ZERO,
        };
        f(&mut slot.behaviour, &mut ctx);
        self.apply_effects(node, effects);
    }

    fn apply_effects(&mut self, node: NodeId, effects: Vec<Effect<M>>) {
        for effect in effects {
            match effect {
                Effect::Send { delay, to, msg } => {
                    self.stats.sent += 1;
                    let departure = self.now + delay;
                    match self.link.sample_delivery(&mut self.rng) {
                        Some(transit) => {
                            self.push(
                                departure + transit,
                                EventKind::Deliver {
                                    from: node,
                                    to,
                                    msg,
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
                    let already = self.cancelled.get(&(node, key)).copied().unwrap_or(0);
                    if already < pending {
                        self.cancelled.insert((node, key), already + 1);
                        self.stats.timers_cancelled += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records what it receives; answers `ping` with `pong`.
    #[derive(Default)]
    struct Collector {
        /// Sent to every peer from `on_start` and from every timer.
        opener: Option<String>,
        /// `(delay_ms, key)` timers set from `on_start`.
        alarms: Vec<(u64, u64)>,
        received: Vec<(NodeId, String)>,
        timers: Vec<u64>,
        started: bool,
    }

    impl Collector {
        fn opening(msg: &str) -> Self {
            Collector {
                opener: Some(msg.to_owned()),
                ..Collector::default()
            }
        }

        fn open(&self, ctx: &mut NodeContext<'_, String>) {
            if let Some(msg) = &self.opener {
                for &p in ctx.peers() {
                    ctx.send(p, msg.clone());
                }
            }
        }
    }

    impl NodeBehaviour<String> for Collector {
        fn on_start(&mut self, ctx: &mut NodeContext<'_, String>) {
            self.started = true;
            for &(ms, key) in &self.alarms {
                ctx.set_timer(SimDuration::from_millis(ms), key);
            }
            self.open(ctx);
        }

        fn on_message(&mut self, ctx: &mut NodeContext<'_, String>, from: NodeId, msg: String) {
            if msg == "ping" {
                ctx.send(from, "pong".to_owned());
            }
            self.received.push((from, msg));
        }

        fn on_timer(&mut self, ctx: &mut NodeContext<'_, String>, timer: u64) {
            self.timers.push(timer);
            self.open(ctx);
        }
    }

    fn two_nodes(a: Collector) -> (Simulation<String, Collector>, NodeId, NodeId) {
        let mut sim = Simulation::new(7);
        sim.set_default_link(LinkConfig::new(10.0, 0.0));
        let a = sim.add_node(DeviceProfile::default(), a);
        let b = sim.add_node(DeviceProfile::default(), Collector::default());
        (sim, a, b)
    }

    #[test]
    fn ping_pong_round_trip() {
        let (mut sim, a, b) = two_nodes(Collector::opening("ping"));
        // Two starts, the ping and the pong.
        assert_eq!(sim.run(), Ok(4));
        assert!(sim.node(a).started && sim.node(b).started);
        assert_eq!(sim.node(b).received, vec![(a, "ping".to_owned())]);
        assert_eq!(sim.node(a).received, vec![(b, "pong".to_owned())]);
        assert_eq!(sim.now().as_millis_f64(), 20.0);
        assert_eq!(sim.stats().sent, 2);
        assert_eq!(sim.stats().delivered, 2);
    }

    #[test]
    fn peers_are_every_other_node() {
        let mut sim = Simulation::new(3);
        let a = sim.add_node(DeviceProfile::default(), Collector::opening("hello"));
        let b = sim.add_node(DeviceProfile::default(), Collector::default());
        let c = sim.add_node(DeviceProfile::default(), Collector::default());
        sim.run().unwrap();
        assert_eq!(sim.node(a).received, Vec::new());
        assert_eq!(sim.node(b).received, vec![(a, "hello".to_owned())]);
        assert_eq!(sim.node(c).received, vec![(a, "hello".to_owned())]);
    }

    #[test]
    fn timers_fire_in_order() {
        let (mut sim, a, _) = two_nodes(Collector {
            alarms: vec![(5, 2), (1, 1)],
            ..Collector::default()
        });
        sim.run().unwrap();
        assert_eq!(sim.node(a).timers, vec![1, 2]);
        assert_eq!(sim.now().as_millis_f64(), 5.0);
    }

    #[test]
    fn deliveries_to_unknown_ids_are_dropped() {
        struct Stray;
        impl NodeBehaviour<String> for Stray {
            fn on_start(&mut self, ctx: &mut NodeContext<'_, String>) {
                ctx.send(NodeId(9), "lost".to_owned());
            }
            fn on_message(&mut self, _c: &mut NodeContext<'_, String>, _f: NodeId, _m: String) {}
        }
        let mut sim: Simulation<String, Stray> = Simulation::new(2);
        sim.add_node(DeviceProfile::default(), Stray);
        assert_eq!(sim.run(), Ok(2));
        assert_eq!(sim.stats().sent, 1);
        assert_eq!(sim.stats().delivered, 0);
        assert_eq!(sim.stats().dropped, 1);
    }

    #[test]
    fn compute_scales_with_cpu_factor() {
        struct Worker;
        impl NodeBehaviour<String> for Worker {
            fn on_start(&mut self, ctx: &mut NodeContext<'_, String>) {
                ctx.compute(SimDuration::from_millis(10));
                ctx.set_timer(SimDuration::ZERO, 0);
            }
            fn on_message(&mut self, _c: &mut NodeContext<'_, String>, _f: NodeId, _m: String) {}
        }
        for (factor, ms) in [(1.0, 10.0), (4.0, 40.0)] {
            let mut sim: Simulation<String, Worker> = Simulation::new(1);
            sim.add_node(DeviceProfile::new(factor), Worker);
            sim.run().unwrap();
            assert_eq!(sim.now().as_millis_f64(), ms);
        }
    }

    #[test]
    fn max_events_caps_runaway_protocols() {
        /// Sends an ever-growing counter back and forth forever.
        struct Forever;
        impl NodeBehaviour<u32> for Forever {
            fn on_start(&mut self, ctx: &mut NodeContext<'_, u32>) {
                let first = ctx.peers()[0];
                ctx.send(first, 0);
            }
            fn on_message(&mut self, ctx: &mut NodeContext<'_, u32>, from: NodeId, m: u32) {
                ctx.send(from, m + 1);
            }
        }
        let mut sim: Simulation<u32, Forever> = Simulation::new(1);
        sim.set_max_events(100);
        sim.add_node(DeviceProfile::default(), Forever);
        sim.add_node(DeviceProfile::default(), Forever);
        let err = sim.run().expect_err("must hit the cap");
        assert_eq!(err.max_events, 100);
        assert_eq!(err.processed, 100);
    }

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

    #[test]
    fn cancelled_timer_never_fires_and_is_not_processed() {
        let mut sim: Simulation<String, Canceller> = Simulation::new(1);
        let a = sim.add_node(DeviceProfile::default(), Canceller { fired: Vec::new() });
        // Start + timer 1 only: the cancelled timer 2 is not processed and
        // does not advance simulated time to its instant.
        assert_eq!(sim.run(), Ok(2));
        assert_eq!(sim.node(a).fired, vec![1]);
        assert_eq!(sim.now().as_millis_f64(), 10.0);
        assert_eq!(sim.stats().timers_cancelled, 1);
    }

    #[test]
    fn a_cancelled_timer_left_at_the_cap_does_not_cut_the_run_short() {
        let mut sim: Simulation<String, Canceller> = Simulation::new(1);
        sim.set_max_events(2);
        sim.add_node(DeviceProfile::default(), Canceller { fired: Vec::new() });
        assert_eq!(sim.run(), Ok(2));
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
        sim.run().unwrap();
        assert_eq!(sim.node(a).fired, vec![7]);
        assert_eq!(sim.stats().timers_cancelled, 0);
    }

    #[test]
    fn scheduled_link_change_takes_effect() {
        // Loss 1.0 until t=50 ms, perfect afterwards: the ping at t=0 is
        // lost, the one the 60 ms timer sends gets through.
        let (mut sim, a, b) = two_nodes(Collector {
            opener: Some("ping".to_owned()),
            alarms: vec![(60, 1)],
            ..Collector::default()
        });
        sim.set_default_link(LinkConfig::new(5.0, 0.0).with_loss(1.0));
        sim.set_default_link_at(SimDuration::from_millis(50), LinkConfig::new(5.0, 0.0));
        sim.run().unwrap();
        assert_eq!(sim.stats().dropped, 1);
        assert_eq!(sim.node(b).received, vec![(a, "ping".to_owned())]);
        assert_eq!(sim.node(a).received, vec![(b, "pong".to_owned())]);
        assert_eq!(sim.now().as_millis_f64(), 70.0);
    }

    #[test]
    fn nodes_can_join_mid_run() {
        let (mut sim, a, b) = two_nodes(Collector::default());
        sim.run().unwrap();
        // A latecomer joins after the initial quiescence, greets both…
        let late = sim.add_node(DeviceProfile::default(), Collector::opening("ping"));
        sim.run().unwrap();
        // …its on_start ran and both answered.
        assert!(sim.node(late).started);
        assert_eq!(
            sim.node(late).received,
            vec![(a, "pong".to_owned()), (b, "pong".to_owned())]
        );
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let (mut sim, _, _) = two_nodes(Collector {
                opener: Some("ping".to_owned()),
                alarms: (0..50).map(|i| (i, i)).collect(),
                ..Collector::default()
            });
            sim.set_default_link(LinkConfig::new(5.0, 2.0).with_loss(0.1));
            sim.run().unwrap();
            (sim.stats(), sim.now())
        };
        assert_eq!(run(), run());
    }
}
