//! SLA tracking and learnt reputation: providers that deliver worse QoS
//! than they advertise accumulate contract breaches; the middleware turns
//! compliance into the reputation of each provider's QoS estimate, which
//! every composition ranks on, so reputation-weighted requests steer
//! away from the liars — no manual blacklisting, and no advertisement
//! rewritten.
//!
//! ```text
//! cargo run --release --example reputation_market
//! ```

use qasom::{Environment, UserRequest};
use qasom_netsim::runtime::SyntheticService;
use qasom_ontology::OntologyBuilder;
use qasom_qos::QosModel;
use qasom_registry::ServiceDescription;
use qasom_task::{Activity, TaskNode, UserTask};

fn main() {
    let mut b = OntologyBuilder::new("mkt");
    b.concept("Quote");
    let mut env = Environment::new(QosModel::standard(), b.build().unwrap(), 17);
    let rt = env.model().property("ResponseTime").unwrap();
    let av = env.model().property("Availability").unwrap();
    let rep = env.model().property("Reputation").unwrap();

    // Two providers advertise 50 ms. One delivers it; the other actually
    // takes 150 ms (three times the advertisement, far past the 20 %
    // SLA tolerance). Everyone starts with a neutral reputation —
    // unknown reputation would rank as *worst*, which is exactly right
    // for strangers but not for this bootstrap demo.
    let mut deploy = |name: &str, advertised_ms: f64, delivered_ms: f64| {
        let desc = ServiceDescription::new(name, "mkt#Quote")
            .with_qos(rt, advertised_ms)
            .with_qos(av, 0.99)
            .with_qos(rep, 2.5);
        let mut delivered = desc.qos().clone();
        delivered.set(rt, delivered_ms);
        env.deploy(desc, SyntheticService::new(delivered).with_noise(0.03))
    };
    let liar = deploy("quotes-r-us", 50.0, 150.0);
    let honest = deploy("fair-quotes", 55.0, 55.0);

    let task = || {
        UserTask::new(
            "get-quote",
            TaskNode::activity(Activity::new("quote", "mkt#Quote")),
        )
        .unwrap()
    };

    // Round 1: users weight delay only — the liar's advertisement wins.
    println!("round 1 — naive users (delay-weighted):");
    for _ in 0..5 {
        let comp = env
            .compose(&UserRequest::new(task()).weight("Delay", 1.0))
            .unwrap();
        let chosen = comp.outcome().assignment[0].id();
        let report = env.execute(comp).unwrap();
        println!(
            "  served by {:<12} delivered {}",
            env.registry().get(chosen).unwrap().name(),
            env.model().format_vector(
                report
                    .invocations
                    .last()
                    .and_then(|r| r.qos.as_ref())
                    .unwrap()
            )
        );
    }

    // Every recorded delivery was checked against the provider's SLA,
    // and compliance became the reputation its QoS estimate carries; the
    // advertisements stay as published.
    println!("\nreputation learnt from SLA compliance:");
    for id in [liar, honest] {
        let advertised = env.registry().get(id).unwrap();
        let learnt = env.monitor().qos_estimate(id).and_then(|e| e.get(rep));
        println!(
            "  {:<12} compliance {:>5.2}  reputation {:>3.1}/5 (advertised {:.1})",
            advertised.name(),
            env.sla(id).map_or(1.0, |s| s.compliance()),
            learnt.or(advertised.qos().get(rep)).unwrap_or(f64::NAN),
            advertised.qos().get(rep).unwrap_or(f64::NAN)
        );
    }

    // Round 2: users weight trustworthiness — the honest provider wins
    // even though its advertised delay is slightly worse.
    println!("\nround 2 — reputation-aware users (Trustworthiness-weighted):");
    let comp = env
        .compose(
            &UserRequest::new(task())
                .weight("Trustworthiness", 2.0)
                .weight("Delay", 1.0),
        )
        .unwrap();
    let chosen = comp.outcome().assignment[0].id();
    println!("  selected: {}", env.registry().get(chosen).unwrap().name());
    assert_eq!(chosen, honest, "reputation must steer selection");
}
