//! Integration tests of distributed QASSA over the network simulator.

use qasom_netsim::{DeviceProfile, LinkConfig};
use qasom_qos::QosModel;
use qasom_selection::distributed::{DistributedQassa, DistributedSetup};
use qasom_selection::workload::{Tightness, WorkloadSpec};
use qasom_selection::Qassa;

fn setup(providers: usize) -> DistributedSetup {
    DistributedSetup {
        providers,
        link: LinkConfig::new(5.0, 1.0),
        ..DistributedSetup::default()
    }
}

#[test]
fn distributed_agrees_with_centralised_across_seeds() {
    let m = QosModel::standard();
    for seed in 0..5 {
        let w = WorkloadSpec::evaluation_default()
            .activities(3)
            .services_per_activity(24)
            .build(&m, seed);
        let central = Qassa::new(&m).select(&w.problem()).unwrap();
        let report = DistributedQassa::new(&m).run(&w, &setup(6), seed).unwrap();
        assert_eq!(
            report.outcome.feasible, central.feasible,
            "seed {seed}: distributed and centralised disagree on feasibility"
        );
        if central.feasible {
            // Same candidate universe and scoring: aggregates must both
            // satisfy the constraints.
            assert!(w.constraints().satisfied_by(&report.outcome.aggregated));
        }
    }
}

#[test]
fn local_phase_scales_down_with_fleet_size() {
    let m = QosModel::standard();
    let w = WorkloadSpec::evaluation_default()
        .activities(4)
        .services_per_activity(60)
        .build(&m, 3);
    let d = DistributedQassa::new(&m);
    let few = d.run(&w, &setup(2), 1).unwrap();
    let many = d.run(&w, &setup(20), 1).unwrap();
    assert!(
        many.local_phase < few.local_phase,
        "more providers should shorten the local phase: {} vs {}",
        many.local_phase,
        few.local_phase
    );
}

#[test]
fn message_budget_is_two_per_provider() {
    let m = QosModel::standard();
    let w = WorkloadSpec::evaluation_default()
        .activities(2)
        .services_per_activity(10)
        .build(&m, 4);
    for providers in [1usize, 3, 9] {
        let report = DistributedQassa::new(&m)
            .run(&w, &setup(providers), 4)
            .unwrap();
        assert_eq!(report.net.sent as usize, 2 * providers);
    }
}

#[test]
fn slow_devices_lengthen_the_local_phase() {
    let m = QosModel::standard();
    let w = WorkloadSpec::evaluation_default()
        .activities(3)
        .services_per_activity(40)
        .build(&m, 5);
    let d = DistributedQassa::new(&m);
    let mut fast = setup(5);
    fast.provider_profile = DeviceProfile::new(1.0);
    let mut slow = setup(5);
    slow.provider_profile = DeviceProfile::new(8.0);
    let t_fast = d.run(&w, &fast, 1).unwrap().local_phase;
    let t_slow = d.run(&w, &slow, 1).unwrap().local_phase;
    assert!(
        t_slow > t_fast,
        "8× slower CPUs must show: {t_slow} vs {t_fast}"
    );
}

#[test]
fn provider_churn_is_tolerated_via_timeout() {
    // A provider that never answers (partitioned) must not deadlock the
    // protocol: after the reply timeout the coordinator proceeds with the
    // digests it has, and round-robin sharding leaves every activity
    // covered by the remaining providers.
    let m = QosModel::standard();
    let w = WorkloadSpec::evaluation_default()
        .activities(2)
        .services_per_activity(12)
        .build(&m, 8);
    let mut lossy = setup(4);
    // A very lossy network: some digests will be dropped, the timeout
    // must still produce an outcome from whatever arrived.
    lossy.link = LinkConfig::new(5.0, 1.0).with_loss(0.6);
    let report = DistributedQassa::new(&m).run(&w, &lossy, 8);
    // Either the surviving digests cover both activities (Ok) or an
    // activity lost all its candidates (structured error) — never a hang
    // or panic.
    match report {
        Ok(r) => assert_eq!(r.outcome.assignment.len(), 2),
        Err(e) => assert!(matches!(
            e,
            qasom_selection::SelectionError::NoCandidates { .. }
        )),
    }
}

#[test]
fn infeasible_workloads_stay_infeasible_distributed() {
    let m = QosModel::standard();
    let w = WorkloadSpec::evaluation_default()
        .activities(3)
        .services_per_activity(12)
        .tightness(Tightness::LooserBySigmas(-20.0))
        .build(&m, 6);
    let report = DistributedQassa::new(&m).run(&w, &setup(4), 6).unwrap();
    assert!(!report.outcome.feasible);
}
