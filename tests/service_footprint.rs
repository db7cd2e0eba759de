//! What one registered service costs in memory.
//!
//! A counting global allocator tracks live heap bytes while an
//! environment deploys 10 920 faithful services (7 leaf concepts ×
//! 1 560 offers, the `churn_100k` market's shape at a tenth of its
//! size), each advertising response time and availability. The live
//! bytes that deployment adds, per service, must stay within 5 % of a
//! checked-in budget: more is a regression, and less is an improvement
//! that should lower the budget to the printed figure.
//!
//! The count covers the registry slot, the capability index entry, the
//! runtime slot and every string and box behind them. Requested sizes
//! are counted, not what the system allocator rounds them to, so the
//! figure repeats exactly on every platform with 64-bit pointers.
//!
//! This file holds a single test: the allocator counts every thread of
//! the process, and a second test running alongside would be counted
//! too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use qasom::Environment;
use qasom_netsim::runtime::SyntheticService;
use qasom_ontology::OntologyBuilder;
use qasom_qos::QosModel;
use qasom_registry::ServiceDescription;

/// The system allocator, keeping a running total of live bytes.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const LEAVES: usize = 7;
const PER_LEAF: usize = 1_560;

/// Live heap bytes per deployed service, measured on this market.
const BUDGET_BYTES_PER_SERVICE: f64 = 298.0;

#[test]
fn a_deployed_service_costs_its_budget() {
    // The inline parts of a description and of a behaviour, which every
    // registry and runtime slot holds whether or not it is live.
    assert!(std::mem::size_of::<ServiceDescription>() <= 120);
    assert!(std::mem::size_of::<SyntheticService>() <= 56);

    let mut b = OntologyBuilder::new("m");
    let root = b.concept("Any");
    for leaf in 0..LEAVES {
        b.subconcept(&format!("L{leaf}"), root);
    }
    let ontology = b.build().expect("two-level ontology builds");
    let mut env = Environment::new(QosModel::standard(), ontology, 1);
    let rt = env.model().property("ResponseTime").expect("standard");
    let av = env.model().property("Availability").expect("standard");

    let before = LIVE.load(Ordering::Relaxed);
    for leaf in 0..LEAVES {
        let function = format!("m#L{leaf}");
        for i in 0..PER_LEAF {
            let spread = (i * 7919 % PER_LEAF) as f64 / PER_LEAF as f64;
            let desc = ServiceDescription::new(format!("s{leaf}-{i}"), &function)
                .with_qos(rt, 40.0 + 1_000.0 * i as f64 / PER_LEAF as f64)
                .with_qos(av, 0.90 + 0.1 * spread);
            let behaviour = SyntheticService::new(desc.qos().clone());
            env.deploy(desc, behaviour);
        }
    }
    let services = LEAVES * PER_LEAF;
    let per_service = (LIVE.load(Ordering::Relaxed) - before) as f64 / services as f64;
    assert_eq!(env.registry().len(), services);

    let (low, high) = (
        BUDGET_BYTES_PER_SERVICE * 0.95,
        BUDGET_BYTES_PER_SERVICE * 1.05,
    );
    assert!(
        (low..=high).contains(&per_service),
        "a deployed service costs {per_service:.1} live heap bytes; \
         the budget is {BUDGET_BYTES_PER_SERVICE} ± 5 %"
    );
}
