//! Composition allocates per activity, not per candidate.
//!
//! A counting global allocator measures one warm `Environment::compose`
//! of an eight-activity sequence over markets that differ only in size:
//! 125 and 1 250 providers per activity. Discovery, local ranking and
//! the global phase may size their buffers by the candidate count, but
//! may not allocate once per candidate, so both composes make the same
//! number of allocations. The bytes they request may grow with the
//! candidates, by at most a budget per added candidate.
//!
//! Two markets are measured. In the first, every provider advertises
//! response time and availability, and the request names both. In the
//! second, every provider also advertises price and reliability, and
//! the request names three of the four: ranking copies only the values
//! the request names, so a property a provider advertises beyond them
//! costs nothing per candidate either.
//!
//! Compose ranks every candidate on its QoS estimate, so the larger
//! two-property market is composed twice: unobserved, and after every
//! provider has a settled estimate and an SLA record. Reading the
//! estimates may not allocate either.
//!
//! This file holds a single test: the allocator counts every thread of
//! the process, and a second test running alongside would be counted
//! too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use qasom::{Environment, UserRequest};
use qasom_netsim::runtime::SyntheticService;
use qasom_ontology::OntologyBuilder;
use qasom_qos::{QosModel, Unit};
use qasom_registry::ServiceDescription;
use qasom_task::{Activity, TaskNode, UserTask};

/// The system allocator, counting allocations and reallocations and the
/// bytes they request (a reallocation requests its new size).
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

fn note(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ACTIVITIES: usize = 8;

/// Bytes a warm compose may request per candidate it adds over the
/// two-property market: discovery writes each candidate's 24-byte rank
/// row and its two 8-byte values straight into the table ranking sorts
/// (40 B), and ranking adds its scratch (9 B per candidate of the
/// largest activity a worker ranks: the sorted K-means column and a
/// one-byte label). On 2 cores that reads 42.2 B; with one worker per
/// activity, as on eight cores, it would be 49 B, which the cap admits.
const BYTES_PER_CANDIDATE: f64 = 50.0;

/// The same budget over the four-property market, whose request names
/// three properties: one more value per row (50.2 B on 2 cores, 57 B
/// with a worker per activity).
const BYTES_PER_CANDIDATE_FOUR: f64 = 60.0;

/// Which properties a market's providers advertise and its request
/// names.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Offers {
    /// Response time and availability, both requested.
    Two,
    /// Response time, availability, price and reliability; the request
    /// weights response time, availability and price.
    Four,
}

/// An environment with `per_activity` providers of each of eight
/// concepts, and a request composing all eight in sequence. An
/// `observed` market has recorded deliveries 1.5 times slower than
/// advertised from every provider, until each one's estimate settled.
fn market(per_activity: usize, offers: Offers, observed: bool) -> (Environment, UserRequest) {
    let mut b = OntologyBuilder::new("m");
    for c in 0..ACTIVITIES {
        b.concept(&format!("C{c}"));
    }
    let ontology = b.build().expect("flat ontology builds");
    let mut env = Environment::new(QosModel::standard(), ontology, 1);
    let rt = env.model().property("ResponseTime").expect("standard");
    let av = env.model().property("Availability").expect("standard");
    let price = env.model().property("Price").expect("standard");
    let reliability = env.model().property("Reliability").expect("standard");
    for c in 0..ACTIVITIES {
        for i in 0..per_activity {
            // Spread response time and availability over the market, in
            // an order where neither sorts the other.
            let spread = (i * 7919 % per_activity) as f64 / per_activity as f64;
            let mut desc = ServiceDescription::new(format!("s{c}-{i}"), &format!("m#C{c}"))
                .with_qos(rt, 40.0 + 1_000.0 * i as f64 / per_activity as f64)
                .with_qos(av, 0.90 + 0.1 * spread);
            if offers == Offers::Four {
                let other = (i * 104_729 % per_activity) as f64 / per_activity as f64;
                desc = desc
                    .with_qos(price, 1.0 + 9.0 * other)
                    .with_qos(reliability, 0.95 + 0.05 * spread * other);
            }
            let mut delivered = desc.qos().clone();
            let behaviour = SyntheticService::new(desc.qos().clone());
            let id = env.deploy(desc, behaviour);
            if let Some(advertised) = delivered.get(rt).filter(|_| observed) {
                delivered.set(rt, 1.5 * advertised);
                while env
                    .monitor()
                    .qos_estimate(id)
                    .and_then(|e| e.get(rt))
                    .is_none()
                {
                    env.record_invocation(id, Some(&delivered));
                }
            }
        }
    }
    let task = UserTask::new(
        "seq",
        TaskNode::sequence(
            (0..ACTIVITIES)
                .map(|c| TaskNode::activity(Activity::new(format!("a{c}"), &format!("m#C{c}")))),
        ),
    )
    .expect("activity names are unique");
    let request = UserRequest::new(task)
        .constraint("ResponseTime", 10.0, Unit::Seconds)
        .expect("standard property")
        .weight("ResponseTime", 0.7)
        .weight("Availability", 0.3);
    let request = match offers {
        Offers::Two => request,
        Offers::Four => request.weight("Price", 0.2),
    };
    (env, request)
}

/// `(allocations, bytes)` requested by the second of two composes of the
/// request.
fn warm_compose_allocations(per_activity: usize, offers: Offers, observed: bool) -> (usize, usize) {
    let (env, request) = market(per_activity, offers, observed);
    let first = env.compose(&request).expect("the market composes");
    assert_eq!(first.outcome().assignment.len(), ACTIVITIES);
    drop(first);
    let before = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let second = env.compose(&request).expect("the market composes");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before.0;
    let bytes = BYTES.load(Ordering::Relaxed) - before.1;
    assert_eq!(second.outcome().assignment.len(), ACTIVITIES);
    (allocations, bytes)
}

/// The bytes requested per candidate added between the two market
/// sizes.
fn per_added_candidate(small_bytes: usize, large_bytes: usize) -> f64 {
    let added = ACTIVITIES * (1_250 - 125);
    (large_bytes as f64 - small_bytes as f64) / added as f64
}

#[test]
fn a_warm_compose_allocates_alike_at_125_and_1250_candidates() {
    let (small, small_bytes) = warm_compose_allocations(125, Offers::Two, false);
    let (large, large_bytes) = warm_compose_allocations(1_250, Offers::Two, false);
    let (observed, observed_bytes) = warm_compose_allocations(1_250, Offers::Two, true);
    assert_eq!(
        large, small,
        "1 250 candidates per activity made {large} allocations, 125 made {small}"
    );
    assert_eq!(
        (observed, observed_bytes),
        (large, large_bytes),
        "over settled estimates a warm compose made {observed} allocations \
         ({observed_bytes} B), over advertisements {large} ({large_bytes} B)"
    );
    let per_candidate = per_added_candidate(small_bytes, large_bytes);
    assert!(
        per_candidate <= BYTES_PER_CANDIDATE,
        "a warm compose requested {per_candidate:.1} B per added candidate \
         ({small_bytes} B at 125 per activity, {large_bytes} B at 1 250), \
         over the {BYTES_PER_CANDIDATE} B budget"
    );

    let (small, small_bytes) = warm_compose_allocations(125, Offers::Four, false);
    let (large, large_bytes) = warm_compose_allocations(1_250, Offers::Four, false);
    assert_eq!(
        large, small,
        "with four advertised properties, 1 250 candidates per activity made \
         {large} allocations, 125 made {small}"
    );
    let per_candidate = per_added_candidate(small_bytes, large_bytes);
    assert!(
        per_candidate <= BYTES_PER_CANDIDATE_FOUR,
        "with four advertised properties, a warm compose requested \
         {per_candidate:.1} B per added candidate ({small_bytes} B at 125 per \
         activity, {large_bytes} B at 1 250), over the \
         {BYTES_PER_CANDIDATE_FOUR} B budget"
    );
}
