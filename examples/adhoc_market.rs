//! The open-air-market variant of the shopping scenario: no platform, no
//! infrastructure — vendors advertise from their own handhelds and Bob's
//! device runs *distributed QASSA* over the ad hoc network: vendors rank
//! their own offers locally, Bob's device merges the digests and runs the
//! global phase.
//!
//! ```text
//! cargo run --release --example adhoc_market
//! ```

use qasom_netsim::LinkConfig;
use qasom_obs::{keys, MemoryRecorder, Recorder};
use qasom_qos::QosModel;
use qasom_selection::distributed::{DistributedQassa, DistributedSetup};
use qasom_selection::workload::{Tightness, WorkloadSpec};

fn main() {
    let model = QosModel::standard();
    // Protocol counters (messages, retries, digests heard) flow into a
    // recorder; recording never changes the protocol itself.
    let recorder = MemoryRecorder::new();

    // Bob wants 4 kinds of items; each market stall (provider node)
    // carries some offers for each.
    let workload = WorkloadSpec::evaluation_default()
        .activities(4)
        .services_per_activity(60)
        .tightness(Tightness::AtMeanPlusSigma)
        .build(&model, 7);

    println!("open-air market: 4 shopping activities, 60 offers each\n");
    println!(
        "{:>8}  {:>14}  {:>14}  {:>10}  {:>9}",
        "stalls", "local [ms]", "global [ms]", "messages", "feasible"
    );

    let driver = DistributedQassa::new(&model);
    for stalls in [2usize, 5, 10, 20, 40] {
        let setup = DistributedSetup {
            providers: stalls,
            // Crowded 2.4 GHz band: slower, jittery, slightly lossy.
            link: LinkConfig::new(8.0, 3.0).with_loss(0.0),
            ..DistributedSetup::default()
        };
        let report = driver
            .run_recorded(&workload, &setup, 7, Some(&recorder))
            .expect("the protocol completes");
        println!(
            "{:>8}  {:>14.2}  {:>14.2}  {:>10}  {:>9}",
            stalls,
            report.local_phase.as_millis_f64(),
            report.global_phase.as_millis_f64(),
            report.net.sent,
            report.outcome.feasible
        );
    }

    println!(
        "\nwith more stalls each handheld ranks fewer offers, so the local\n\
         phase shrinks while the merge/global phase on Bob's device stays flat —\n\
         the shape of Fig. VI.12 of the original evaluation."
    );

    let snapshot = recorder.snapshot().expect("memory recorder retains data");
    println!(
        "\ntelemetry across all runs: {} message(s), {} retransmission(s), \
         {} provider digest(s) heard",
        snapshot.counter(keys::DISTRIBUTED_MESSAGES),
        snapshot.counter(keys::DISTRIBUTED_RETRIES),
        snapshot.counter(keys::DISTRIBUTED_PROVIDERS_HEARD),
    );
}
