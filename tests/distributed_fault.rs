//! Fault-tolerance tests of distributed QASSA: determinism under loss,
//! degraded-outcome soundness, retry recovery, and the acceptance
//! criteria of the retransmission protocol.

use proptest::prelude::*;
use qasom_netsim::{DeviceProfile, LinkConfig};
use qasom_qos::QosModel;
use qasom_selection::distributed::{DistributedQassa, DistributedSetup, RetryPolicy};
use qasom_selection::workload::{Workload, WorkloadSpec};

fn model() -> QosModel {
    QosModel::standard()
}

fn workload(m: &QosModel, seed: u64) -> Workload {
    WorkloadSpec::evaluation_default()
        .activities(3)
        .services_per_activity(24)
        .build(m, seed)
}

fn lossy_setup(providers: usize, loss: f64, retry: RetryPolicy) -> DistributedSetup {
    DistributedSetup {
        providers,
        link: LinkConfig::new(5.0, 1.0).with_loss(loss),
        provider_profile: DeviceProfile::constrained(),
        coordinator_profile: DeviceProfile::constrained(),
        per_candidate_cost_us: 10,
        reply_timeout_ms: 5_000,
        retry,
        ..DistributedSetup::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Determinism: the same seed over the same lossy link reproduces the
    /// protocol run exactly — message counts, retry counts, simulated
    /// phases and the selected composition.
    #[test]
    fn lossy_runs_are_deterministic_per_seed(
        seed in any::<u64>(),
        providers in 2usize..8,
        loss in 0.0f64..0.6,
    ) {
        let m = model();
        let w = workload(&m, seed);
        let setup = lossy_setup(providers, loss, RetryPolicy::default());
        let d = DistributedQassa::new(&m);
        match (d.run(&w, &setup, seed), d.run(&w, &setup, seed)) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.messages, b.messages);
                prop_assert_eq!(a.sim_events, b.sim_events);
                prop_assert_eq!(a.local_phase, b.local_phase);
                prop_assert_eq!(a.global_phase, b.global_phase);
                prop_assert_eq!(a.fault, b.fault);
                prop_assert_eq!(a.outcome.assignment, b.outcome.assignment);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (a, b) => prop_assert!(false, "diverged: {a:?} vs {b:?}"),
        }
    }

    /// Soundness of degraded outcomes: whatever subset of providers was
    /// heard, every candidate the coordinator ranks comes from the real
    /// workload — loss can shrink the pool, never invent services.
    #[test]
    fn degraded_pool_is_a_subset_of_the_centralised_pool(
        seed in any::<u64>(),
        loss in 0.0f64..0.7,
        retries in prop_oneof![Just(RetryPolicy::disabled()), Just(RetryPolicy::default())],
    ) {
        let m = model();
        let w = workload(&m, seed);
        let setup = lossy_setup(5, loss, retries);
        if let Ok(report) = DistributedQassa::new(&m).run(&w, &setup, seed) {
            let full = w.candidates();
            // Like every QASSA outcome, a distributed one carries the
            // hierarchies it was selected over, one per activity.
            prop_assert_eq!(report.outcome.levels.len(), full.len());
            for (a, pool) in full.iter().enumerate() {
                prop_assert!(report.outcome.levels[a].total() <= pool.len());
                for c in report.outcome.alternates(a) {
                    prop_assert!(
                        pool.contains(c),
                        "activity {a}: ranked candidate not in the workload pool"
                    );
                }
            }
            // The coverage accounting agrees with the ranked pool.
            for cov in &report.fault.activity_coverage {
                prop_assert_eq!(cov.expected, full[cov.activity].len());
            }
        }
    }
}

/// Transient outage: the network drops *everything* until 120 ms, then
/// heals. The first request round and early retries are lost; a later
/// backoff round lands after the outage clears and restores the complete
/// candidate pool.
#[test]
fn retries_recover_from_a_transient_outage() {
    let m = model();
    let w = workload(&m, 11);
    let setup = DistributedSetup {
        link: LinkConfig::new(5.0, 1.0).with_loss(1.0),
        link_after: Some((120, LinkConfig::new(5.0, 1.0))),
        ..lossy_setup(5, 1.0, RetryPolicy::default())
    };
    let report = DistributedQassa::new(&m)
        .run(&w, &setup, 11)
        .expect("the healed link must carry a full round");
    assert!(
        report.fault.retries_sent > 0,
        "the initial round was dropped, recovery must have retried"
    );
    assert!(
        report.fault.full_coverage() && !report.fault.is_degraded(),
        "post-outage retries must restore the full pool: {:?}",
        report.fault
    );
}

/// Without retries the same transient outage is fatal or degraded: the
/// single request round dies inside the outage window.
#[test]
fn transient_outage_without_retries_is_not_recovered() {
    let m = model();
    let w = workload(&m, 11);
    let setup = DistributedSetup {
        link: LinkConfig::new(5.0, 1.0).with_loss(1.0),
        link_after: Some((120, LinkConfig::new(5.0, 1.0))),
        reply_timeout_ms: 500,
        ..lossy_setup(5, 1.0, RetryPolicy::disabled())
    };
    match DistributedQassa::new(&m).run(&w, &setup, 11) {
        Ok(report) => assert!(report.fault.is_degraded()),
        Err(e) => assert!(matches!(
            e,
            qasom_selection::SelectionError::NoCandidates { .. }
        )),
    }
}

/// Acceptance criterion: at 30 % loss the default retry policy restores
/// full candidate coverage on at least 9 of 10 seeds.
#[test]
fn retries_restore_full_coverage_at_thirty_percent_loss() {
    let m = model();
    let d = DistributedQassa::new(&m);
    let setup = lossy_setup(8, 0.3, RetryPolicy::default());
    let mut full = 0;
    for seed in 0..10u64 {
        let w = workload(&m, seed);
        if let Ok(report) = d.run(&w, &setup, seed) {
            if report.fault.full_coverage() {
                full += 1;
            }
        }
    }
    assert!(full >= 9, "only {full}/10 seeds reached full coverage");
}

/// Acceptance criterion: with retries disabled the same link makes runs
/// visibly degraded — the report flags it rather than silently returning
/// a best-of-partial outcome.
#[test]
fn without_retries_thirty_percent_loss_is_flagged_degraded() {
    let m = model();
    let d = DistributedQassa::new(&m);
    let setup = lossy_setup(8, 0.3, RetryPolicy::disabled());
    let mut degraded = 0;
    for seed in 0..10u64 {
        let w = workload(&m, seed);
        match d.run(&w, &setup, seed) {
            Ok(report) => {
                assert_eq!(report.fault.retries_sent, 0);
                if report.fault.is_degraded() {
                    assert!(report.fault.providers_heard < report.fault.providers_expected);
                    assert!(!report.fault.missing_providers.is_empty());
                    degraded += 1;
                }
            }
            Err(_) => degraded += 1,
        }
    }
    assert!(
        degraded >= 5,
        "expected most seeds degraded without retries, got {degraded}/10"
    );
}

/// The simulated figures are deterministic: Fig. VI.12's phase times and
/// the loss figure's coverage and latency are pinned exactly, so any
/// change to the simulator's event order or RNG draws shows here.
#[test]
fn simulated_figures_are_pinned() {
    let m = model();
    let series = |figure: qasom_bench::FigureResult| -> Vec<(String, Vec<(f64, f64)>)> {
        figure
            .unwrap()
            .into_iter()
            .map(|s| (s.label, s.points))
            .collect()
    };
    let pinned = |rows: &[(&str, &[(f64, f64)])]| -> Vec<(String, Vec<(f64, f64)>)> {
        rows.iter()
            .map(|(label, points)| (label.to_string(), points.to_vec()))
            .collect()
    };
    assert_eq!(
        series(qasom_bench::fig_vi12(&m)),
        pinned(&[
            (
                "local phase [ms]",
                &[
                    (2.0, 48.822),
                    (5.0, 26.5),
                    (10.0, 19.748),
                    (20.0, 16.252),
                    (50.0, 14.085)
                ],
            ),
            (
                "global phase [ms]",
                &[
                    (2.0, 20.0),
                    (5.0, 20.0),
                    (10.0, 20.0),
                    (20.0, 20.0),
                    (50.0, 20.0)
                ],
            ),
        ])
    );
    assert_eq!(
        series(qasom_bench::fig_loss(&m)),
        pinned(&[
            (
                "coverage (retries)",
                &[
                    (0.0, 1.0),
                    (0.1, 1.0),
                    (0.2, 1.0),
                    (0.3, 1.0),
                    (0.4, 0.99),
                    (0.6, 0.73)
                ],
            ),
            (
                "total [ms] (retries)",
                &[
                    (0.0, 17.7072),
                    (0.1, 152.2078),
                    (0.2, 482.38430000000005),
                    (0.3, 1250.2364),
                    (0.4, 2381.0970999999995),
                    (0.6, 5002.628000000001),
                ],
            ),
            (
                "coverage (no retries)",
                &[
                    (0.0, 1.0),
                    (0.1, 0.8366666666666667),
                    (0.2, 0.5900000000000001),
                    (0.3, 0.4666666666666667),
                    (0.4, 0.3466666666666667),
                    (0.6, 0.12999999999999998),
                ],
            ),
            (
                "total [ms] (no retries)",
                &[
                    (0.0, 17.7072),
                    (0.1, 3507.1001999999994),
                    (0.2, 5002.124000000001),
                    (0.3, 5001.68),
                    (0.4, 5001.247999999999),
                    (0.6, 5000.467999999999),
                ],
            ),
        ])
    );
}
