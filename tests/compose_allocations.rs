//! Composition allocates per activity, not per candidate.
//!
//! A counting global allocator measures one warm `Environment::compose`
//! of an eight-activity sequence over two markets that differ only in
//! size: 125 and 1 250 providers per activity, each advertising response
//! time and availability. Discovery, local ranking and the global phase
//! may size their buffers by the candidate count, but may not allocate
//! once per candidate, so both composes make the same number of
//! allocations. The bytes they request may grow with the candidates, by
//! at most [`BYTES_PER_CANDIDATE`] per added candidate.
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

/// Bytes a warm compose may request per candidate it adds: one
/// discovery row (64 B) and one ranked row (64 B) per candidate, plus
/// the ranking scratch (30 B per candidate of the largest activity a
/// worker ranks). With one worker per activity, as on eight cores, that
/// is 158 B; the cap leaves room for that.
const BYTES_PER_CANDIDATE: f64 = 180.0;

/// An environment with `per_activity` providers of each of eight
/// concepts, and a request composing all eight in sequence.
fn market(per_activity: usize) -> (Environment, UserRequest) {
    let mut b = OntologyBuilder::new("m");
    for c in 0..ACTIVITIES {
        b.concept(&format!("C{c}"));
    }
    let ontology = b.build().expect("flat ontology builds");
    let mut env = Environment::new(QosModel::standard(), ontology, 1);
    let rt = env.model().property("ResponseTime").expect("standard");
    let av = env.model().property("Availability").expect("standard");
    for c in 0..ACTIVITIES {
        for i in 0..per_activity {
            // Spread response time and availability over the market, in
            // an order where neither sorts the other.
            let spread = (i * 7919 % per_activity) as f64 / per_activity as f64;
            let desc = ServiceDescription::new(format!("s{c}-{i}"), &format!("m#C{c}"))
                .with_qos(rt, 40.0 + 1_000.0 * i as f64 / per_activity as f64)
                .with_qos(av, 0.90 + 0.1 * spread);
            let behaviour = SyntheticService::new(desc.qos().clone());
            env.deploy(desc, behaviour);
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
    (env, request)
}

/// `(allocations, bytes)` requested by the second of two composes of the
/// request.
fn warm_compose_allocations(per_activity: usize) -> (usize, usize) {
    let (env, request) = market(per_activity);
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

#[test]
fn a_warm_compose_allocates_alike_at_125_and_1250_candidates() {
    let (small, small_bytes) = warm_compose_allocations(125);
    let (large, large_bytes) = warm_compose_allocations(1_250);
    assert_eq!(
        large, small,
        "1 250 candidates per activity made {large} allocations, 125 made {small}"
    );
    let added = ACTIVITIES * (1_250 - 125);
    let per_candidate = (large_bytes as f64 - small_bytes as f64) / added as f64;
    assert!(
        per_candidate <= BYTES_PER_CANDIDATE,
        "a warm compose requested {per_candidate:.1} B per added candidate \
         ({small_bytes} B at 125 per activity, {large_bytes} B at 1 250), \
         over the {BYTES_PER_CANDIDATE} B budget"
    );
}
