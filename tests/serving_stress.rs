//! Stress tests for the concurrent serving layer: overlapping
//! compositions under the read lock, provider churn on the write lock,
//! epoch-consistent results and deterministic serving counters.

use std::sync::{mpsc, Arc};
use std::thread;

use qasom::{Environment, SharedEnvironment, UserRequest};
use qasom_bench::scenarios;
use qasom_netsim::runtime::SyntheticService;
use qasom_obs::{keys, MemoryRecorder, Recorder};
use qasom_ontology::{Iri, Ontology, OntologyBuilder};
use qasom_registry::{Operation, ServiceDescription};

const BASE_PROVIDERS: usize = 6;

/// One concept, `BASE_PROVIDERS` providers `s0..`, response times
/// 40, 41, … — `s0` is deterministically the best until "burst" joins.
fn market(seed: u64) -> SharedEnvironment {
    SharedEnvironment::new(scenarios::one_concept_market(BASE_PROVIDERS, seed).unwrap())
}

fn request() -> UserRequest {
    scenarios::one_activity_request("t").unwrap()
}

/// One session as the daemon's broker runs it: compose under the read
/// lock, then execute under the write lock.
fn serve(shared: &SharedEnvironment) {
    let (_, composition) = shared.compose_with_epoch(&request()).expect("composes");
    let report = shared.execute(composition).expect("executes");
    assert!(report.success);
}

/// The name of the service a composition of [`request`] bound, resolved
/// against the registry of the guard it was composed under.
fn winner(e: &Environment) -> String {
    let comp = e.compose(&request()).expect("providers always available");
    let id = comp.outcome().assignment[0].id();
    let desc = e.registry().get(id).expect("bound under this guard");
    desc.name().to_owned()
}

/// Registers "burst" (strictly best response time) when absent, removes
/// it when present. Each call advances the registry epoch by exactly
/// one, so `epoch - base_epoch` being odd ⇔ "burst" is registered.
fn toggle_burst(e: &mut Environment) {
    let existing = e
        .registry()
        .iter()
        .find(|(_, d)| d.name() == "burst")
        .map(|(id, _)| id);
    match existing {
        Some(id) => {
            e.undeploy(id);
        }
        None => {
            let rt = e.model().property("ResponseTime").unwrap();
            let desc = ServiceDescription::new("burst", "d#A").with_qos(rt, 10.0);
            let nominal = desc.qos().clone();
            e.deploy(desc, SyntheticService::new(nominal));
        }
    }
}

/// Eight threads compose concurrently (read lock) while a churn thread
/// toggles the best provider (write lock). Every composition, read
/// atomically with the epoch it was computed under, must equal what a
/// single-threaded run would select for that same registry state:
/// "burst" exactly when its epoch says the provider was registered.
#[test]
fn concurrent_compositions_agree_with_their_epoch() {
    let shared = market(11);
    let base_epoch = shared.with(|e| e.epoch());
    assert_eq!(base_epoch, BASE_PROVIDERS as u64);

    let churner = {
        let s = shared.clone();
        thread::spawn(move || {
            for _ in 0..40 {
                s.with_mut(toggle_burst);
            }
        })
    };

    let sessions: Vec<_> = (0..8)
        .map(|_| {
            let s = shared.clone();
            thread::spawn(move || {
                let mut observed = Vec::new();
                for _ in 0..25 {
                    // Composition, epoch and binding resolution happen
                    // under one read guard, so the triple is consistent
                    // even while the churner queues behind us.
                    observed.push(s.with(|e| (e.epoch(), winner(e))));
                }
                observed
            })
        })
        .collect();

    churner.join().unwrap();
    for handle in sessions {
        for (epoch, name) in handle.join().unwrap() {
            let burst_present = (epoch - base_epoch) % 2 == 1;
            let expected = if burst_present { "burst" } else { "s0" };
            assert_eq!(name, expected, "selection at epoch {epoch}");
        }
    }
}

/// Concepts `d#A` and `d#Fast`, with `Fast` below `A` or beside it.
fn taxonomy(fast_below_a: bool) -> Ontology {
    let mut b = OntologyBuilder::new("d");
    let a = b.concept("A");
    if fast_below_a {
        b.subconcept("Fast", a);
    } else {
        b.concept("Fast");
    }
    b.build().unwrap()
}

/// Eight threads compose `d#A` (read lock) while the ontology is swapped
/// 40 times (write lock) between a taxonomy where `d#Fast` specialises
/// `d#A` and a flat one. Provider "fast" advertises `d#Fast` with the
/// best response time, so it must win exactly when the ontology of the
/// same read guard subsumes it. What this pins: the ontology swap and the
/// capability-index rebind are one write-lock transaction, and discovery
/// derives every match degree from the ontology it is handed, so no
/// composition pairs one taxonomy's winner with the other.
///
/// "fast" also exposes a plain `d#A` operation, slower than every `s{i}`,
/// so under the flat taxonomy it stays a (white-box) candidate for `d#A`
/// and loses on QoS rather than by dropping out of the index.
#[test]
fn concurrent_compositions_agree_with_their_ontology() {
    let shared = market(13);
    shared.with_mut(|e| {
        let rt = e.model().property("ResponseTime").unwrap();
        let desc = ServiceDescription::new("fast", "d#Fast")
            .with_qos(rt, 10.0)
            .with_operation(Operation::new("plain", "d#A").with_qos(rt, 100.0));
        let nominal = desc.qos().clone();
        e.deploy(desc, SyntheticService::new(nominal));
    });

    // Sessions compose until the receiving end goes away.
    let (observed, observations) = mpsc::channel();
    let sessions: Vec<_> = (0..8)
        .map(|_| {
            let (s, observed) = (shared.clone(), observed.clone());
            thread::spawn(move || {
                let (a, fast) = (Iri::new("d", "A"), Iri::new("d", "Fast"));
                let observe = |e: &Environment| {
                    let onto = e.ontology();
                    let subsumed = match (onto.concept(&fast), onto.concept(&a)) {
                        (Some(fast), Some(a)) => onto.is_subconcept_of(fast, a),
                        _ => false,
                    };
                    // Sent under the read guard: once a swap returns,
                    // everything composed before it is in the queue.
                    observed.send((winner(e), subsumed)).is_ok()
                };
                while s.with(observe) {}
            })
        })
        .collect();
    drop(observed);

    let check = |(name, subsumed): (String, bool)| {
        let expected = if subsumed { "fast" } else { "s0" };
        assert_eq!(name, expected, "selection with Fast below A: {subsumed}");
        subsumed
    };
    for round in 0..40 {
        let fast_below_a = round % 2 == 0;
        shared.reload_ontology(taxonomy(fast_below_a));
        for earlier in observations.try_iter() {
            check(earlier);
        }
        // The queue held every earlier composition, so this one ran
        // under the taxonomy just installed.
        let fresh = observations.recv().expect("sessions are composing");
        assert_eq!(check(fresh), fast_below_a);
    }
    drop(observations);
    for handle in sessions {
        handle.join().unwrap();
    }
}

/// A fixed, single-threaded interleaving of sessions and churn: the
/// full run report (serving counters included) must be byte-identical
/// across repeats of the same seed.
fn scripted_run(seed: u64) -> String {
    let shared = market(seed);
    let recorder = Arc::new(MemoryRecorder::new());
    shared.with_mut(|e| e.set_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>));
    for round in 0..12 {
        if round % 3 == 0 {
            shared.with_mut(toggle_burst);
        }
        serve(&shared);
    }
    shared.with(|e| e.run_report("stress").to_compact_string())
}

#[test]
fn scripted_stress_report_is_deterministic_per_seed() {
    let first = scripted_run(42);
    assert_eq!(first, scripted_run(42));
    assert!(
        first.contains(&format!("\"{}\":", keys::SERVING_WRITE_LOCKS)),
        "report: {first}"
    );
}

/// The serving counters account for the lock split exactly: one read
/// acquisition per compose-phase, one write per execute/churn.
#[test]
fn serving_section_reports_the_lock_split() {
    let shared = market(5);
    let recorder = Arc::new(MemoryRecorder::new());
    shared.with_mut(|e| e.set_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>));
    for _ in 0..5 {
        serve(&shared);
    }
    let providers = shared.with(|e| e.registry().len());
    assert_eq!(providers, BASE_PROVIDERS);

    let metrics = shared.with(|e| e.run_report("stress")).metrics;
    // 5 serve compose-phases + the registry `with` + the report `with`.
    assert_eq!(metrics.counter(keys::SERVING_READ_LOCKS), 7);
    // 5 serve execute-phases; `set_recorder` ran before the recorder
    // was installed, so it is not observed.
    assert_eq!(metrics.counter(keys::SERVING_WRITE_LOCKS), 5);
}
