//! The four workloads: seeded markets, request pools and the churn
//! schedule. Everything here is a pure function of `(workload, seed)`;
//! the program under test only ever sees the generated inputs.

use std::path::Path;
use std::sync::Arc;

use qasom::{Environment, UserRequest};
use qasom_netsim::runtime::SyntheticService;
use qasom_obs::{MemoryRecorder, Recorder};
use qasom_ontology::OntologyBuilder;
use qasom_qos::{PropertyId, QosModel, Unit};
use qasom_registry::persist::{FileBackend, PersistConfig, RegistryJournal};
use qasom_registry::{ServiceDescription, ServiceId};
use qasom_task::{Activity, LoopBound, TaskClass, TaskNode, UserTask};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Churn operations per second on `churn_100k` (open loop).
pub const CHURN_RATE_HZ: u64 = 200;

/// Per-invocation transient failure probability on `adapt_faulty`. With
/// the default five attempts per activity and two behavioural
/// adaptations, a session is abandoned about once in 10^7 — the
/// benchmark contract wants workloads on which no operation fails.
pub const FAULTY_FAILURE_RATE: f64 = 0.20;

/// One benchmark workload: its name and its load shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    /// Client connections (one load-generator thread each).
    pub connections: usize,
    /// Outstanding sessions per connection (closed loop).
    pub outstanding: usize,
    /// Whether the open-loop churn generator runs beside the sessions.
    pub churn: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "select_10k",
        connections: 1,
        outstanding: 1,
        churn: false,
    },
    Workload {
        name: "churn_100k",
        connections: 1,
        outstanding: 1,
        churn: true,
    },
    Workload {
        name: "frames_small",
        connections: 2,
        outstanding: 8,
        churn: false,
    },
    Workload {
        name: "adapt_faulty",
        connections: 2,
        outstanding: 4,
        churn: false,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// One scheduled churn operation: a provider joins `leaf` and the
/// `victim`-th original provider leaves.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnOp {
    /// Offset from the generator's start at which the op is due.
    pub due_us: u64,
    pub leaf: u32,
    pub response_time: f64,
    pub availability: f64,
    pub victim: u32,
}

/// A built workload, ready to serve.
pub struct Inputs {
    pub env: Environment,
    pub recorder: Arc<MemoryRecorder>,
    /// Distinct requests; sessions cycle through `order`.
    pub pool: Vec<UserRequest>,
    pub order: Vec<u32>,
    /// Ids of the providers deployed at set-up, in deployment order.
    pub originals: Vec<ServiceId>,
}

/// Sessions generated per order cycle; long enough that Zipf tails show.
const ORDER_LEN: usize = 4096;

fn rng_for(workload: &str, seed: u64, stream: u64) -> StdRng {
    // FNV-1a over the name keeps workloads' streams apart for one seed.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in workload.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    StdRng::seed_from_u64(seed ^ h ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The QoS of `n` providers of one concept: response times evenly
/// spread over `[rt_lo, rt_hi)`, availabilities over `[0.90, 1.0)`,
/// paired by a fixed shuffle and handed out in seeded order.
///
/// Every seed therefore builds the same market up to which provider
/// holds which offer: the work a session costs does not depend on the
/// seed, only the ids, orders and tie-breaks do. Each entry also carries
/// its stratum index (its rank by response time).
fn offers(rng: &mut StdRng, n: usize, rt_lo: f64, rt_hi: f64) -> Vec<(usize, f64, f64)> {
    let grid = |lo: f64, hi: f64, i: usize| lo + (hi - lo) * (i as f64 + 0.5) / n as f64;
    let shuffle = |rng: &mut StdRng, len: usize| {
        let mut order: Vec<usize> = (0..len).collect();
        for i in (1..len).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        order
    };
    let pairing = shuffle(&mut StdRng::seed_from_u64(0x000f_fe75), n);
    shuffle(rng, n)
        .into_iter()
        .map(|i| (i, grid(rt_lo, rt_hi, i), grid(0.90, 1.0, pairing[i])))
        .collect()
}

fn sequence_task(name: &str, functions: &[String]) -> UserTask {
    UserTask::new(
        name,
        TaskNode::sequence(
            functions
                .iter()
                .enumerate()
                .map(|(i, f)| TaskNode::activity(Activity::new(format!("a{i}"), f.as_str()))),
        ),
    )
    .expect("generated sequence tasks have unique activity names")
}

fn request(
    task: UserTask,
    rt_seconds: f64,
    min_availability: Option<f64>,
    w_rt: f64,
) -> UserRequest {
    let mut request = UserRequest::new(task)
        .constraint("ResponseTime", rt_seconds, Unit::Seconds)
        .expect("constraint names are validated at composition time");
    if let Some(av) = min_availability {
        request = request
            .constraint("Availability", av, Unit::Ratio)
            .expect("constraint names are validated at composition time");
    }
    request
        .weight("ResponseTime", w_rt)
        .weight("Availability", 1.0 - w_rt)
}

/// The 12-activity `adapt_faulty` behaviours: `v1` mixes sequence,
/// parallel and loop; `v2` and `v3` are the task class's alternatives
/// behavioural adaptation falls back to — the same activities run
/// strictly in sequence, so every precedence an executed prefix has
/// established still holds and the prefix always embeds (from `v1` into
/// `v2`, and from `v2` into `v3` should a second adaptation be needed).
fn faulty_behaviours() -> [UserTask; 3] {
    let act = |prefix: char, i: usize, concept: usize| {
        TaskNode::activity(Activity::new(
            format!("{prefix}{i}"),
            format!("f#C{concept}").as_str(),
        ))
    };
    let task =
        |name: &str, root: TaskNode| UserTask::new(name, root).expect("static task is well formed");
    let looped = |p: char| {
        TaskNode::repeat(
            TaskNode::sequence([act(p, 5, 5), act(p, 6, 6)]),
            LoopBound::new(2.0, 3),
        )
    };
    let sequential = |name: &str, p: char| {
        let mut steps: Vec<TaskNode> = (0..5).map(|i| act(p, i, i)).collect();
        steps.push(looped(p));
        steps.extend([
            act(p, 7, 7),
            act(p, 8, 0),
            act(p, 9, 1),
            act(p, 10, 2),
            act(p, 11, 3),
        ]);
        task(name, TaskNode::sequence(steps))
    };
    let v1 = task(
        "faulty-v1",
        TaskNode::sequence([
            act('a', 0, 0),
            TaskNode::parallel([
                act('a', 1, 1),
                TaskNode::sequence([act('a', 2, 2), act('a', 3, 3)]),
                act('a', 4, 4),
            ]),
            looped('a'),
            TaskNode::parallel([act('a', 7, 7), act('a', 8, 0)]),
            act('a', 9, 1),
            act('a', 10, 2),
            act('a', 11, 3),
        ]),
    );
    [
        v1,
        sequential("faulty-v2", 'b'),
        sequential("faulty-v3", 'c'),
    ]
}

const CHURN_PARENTS: usize = 32;
const CHURN_PER_LEAF: usize = 1_560;

fn churn_leaf_iri(leaf: usize) -> String {
    format!(
        "m#P{}{}",
        leaf / 2,
        if leaf.is_multiple_of(2) { 'a' } else { 'b' }
    )
}

/// The distinct requests of a workload and the seeded order sessions
/// draw them in.
pub fn request_pool(workload: &str, seed: u64) -> (Vec<UserRequest>, Vec<u32>) {
    let mut rng = rng_for(workload, seed, 1);
    let pool = match workload {
        "select_10k" => {
            let functions: Vec<String> = (0..8).map(|i| format!("m#C{i}")).collect();
            let task = |v: usize| sequence_task(&format!("select-v{v}"), &functions);
            vec![
                request(task(0), 10.0, None, 0.7),
                request(task(1), 4.0, None, 0.5),
                request(task(2), 6.0, Some(0.6), 0.3),
                request(task(3), 3.0, None, 0.9),
            ]
        }
        "churn_100k" => (0..32)
            .map(|t| {
                // One activity in four names the parent concept (both
                // leaves plug in, through subsumption) — exactly one per
                // task, so every task costs alike whatever the seed.
                let broad = rng.gen_range(0..4usize);
                let functions: Vec<String> = (0..4)
                    .map(|a| {
                        let parent = rng.gen_range(0..CHURN_PARENTS);
                        if a == broad {
                            format!("m#P{parent}")
                        } else {
                            churn_leaf_iri(parent * 2 + rng.gen_range(0..2usize))
                        }
                    })
                    .collect();
                request(
                    sequence_task(&format!("churn-t{t}"), &functions),
                    3.0,
                    None,
                    0.6,
                )
            })
            .collect(),
        "frames_small" => vec![UserRequest::new(
            UserTask::new("t", TaskNode::activity(Activity::new("a", "d#A")))
                .expect("static task is well formed"),
        )],
        "adapt_faulty" => {
            let [v1, ..] = faulty_behaviours();
            // Loose enough that ~96 % of sessions deliver within their
            // bound, tight enough that drifting providers cause violations
            // the monitor must answer with substitutions.
            vec![
                request(v1.clone(), 1.6, None, 0.6),
                request(v1, 1.36, None, 0.8),
            ]
        }
        other => panic!("unknown workload {other}"),
    };
    let order = if workload == "churn_100k" {
        // Zipf(1) over the pool: a few hot tasks, a long cold tail.
        let weights: Vec<f64> = (1..=pool.len()).map(|r| 1.0 / r as f64).collect();
        let total: f64 = weights.iter().sum();
        (0..ORDER_LEN)
            .map(|_| {
                let mut x = rng.gen_range(0.0..total);
                let mut pick = 0;
                for (i, w) in weights.iter().enumerate() {
                    pick = i;
                    if x < *w {
                        break;
                    }
                    x -= w;
                }
                pick as u32
            })
            .collect()
    } else {
        (0..ORDER_LEN)
            .map(|_| rng.gen_range(0..pool.len()) as u32)
            .collect()
    };
    (pool, order)
}

/// The first `ops` operations of the seeded churn schedule.
pub fn churn_schedule(seed: u64, ops: usize) -> Vec<ChurnOp> {
    let mut rng = rng_for("churn_100k", seed, 2);
    let originals = (CHURN_PARENTS * 2 * CHURN_PER_LEAF) as u64;
    // A stride coprime to the market size visits distinct victims.
    let start = rng.gen_range(0..originals);
    let stride = 7_919;
    (0..ops as u64)
        .map(|k| ChurnOp {
            due_us: k * 1_000_000 / CHURN_RATE_HZ,
            leaf: rng.gen_range(0..(CHURN_PARENTS * 2) as u32),
            response_time: rng.gen_range(40.0..1_040.0),
            availability: rng.gen_range(0.90..1.0),
            victim: ((start + k * stride) % originals) as u32,
        })
        .collect()
}

pub fn churn_description(
    k: usize,
    op: &ChurnOp,
    rt: PropertyId,
    av: PropertyId,
) -> ServiceDescription {
    ServiceDescription::new(format!("c{k}"), &churn_leaf_iri(op.leaf as usize))
        .with_qos(rt, op.response_time)
        .with_qos(av, op.availability)
}

/// The standard model's `(ResponseTime, Availability)` ids.
pub fn qos_axes(model: &QosModel) -> (PropertyId, PropertyId) {
    (
        model
            .property("ResponseTime")
            .expect("the standard model defines ResponseTime"),
        model
            .property("Availability")
            .expect("the standard model defines Availability"),
    )
}

/// Builds the workload's environment the way `qasomd` builds its own:
/// `Environment::new` (default config) with a `MemoryRecorder`, and for
/// `churn_100k` a journal over `data_dir` attached before the market is
/// deployed, so set-up pays the cold-boot journaling cost.
pub fn build(workload: &str, seed: u64, data_dir: Option<&Path>) -> Result<Inputs, String> {
    let mut rng = rng_for(workload, seed, 0);
    let mut b = OntologyBuilder::new(match workload {
        "frames_small" => "d",
        "adapt_faulty" => "f",
        _ => "m",
    });
    match workload {
        "select_10k" | "adapt_faulty" => {
            for i in 0..8 {
                b.concept(&format!("C{i}"));
            }
        }
        "churn_100k" => {
            for p in 0..CHURN_PARENTS {
                let parent = b.concept(&format!("P{p}"));
                b.subconcept(&format!("P{p}a"), parent);
                b.subconcept(&format!("P{p}b"), parent);
            }
        }
        _ => {
            b.concept("A");
        }
    }
    let ontology = b.build().map_err(|e| format!("ontology: {e}"))?;
    let mut env = Environment::new(QosModel::standard(), ontology, seed);
    let recorder = Arc::new(MemoryRecorder::new());
    env.set_recorder(Arc::clone(&recorder) as Arc<dyn Recorder>);
    if let Some(dir) = data_dir {
        let backend = FileBackend::open(dir).map_err(|e| format!("data dir: {e}"))?;
        let (_, journal, _) = RegistryJournal::open(backend, PersistConfig::default(), None)
            .map_err(|e| format!("journal: {e}"))?;
        env.attach_journal(journal);
    }
    let (rt, av) = qos_axes(env.model());

    let mut originals = Vec::new();
    let mut deploy_faithful = |env: &mut Environment, desc: ServiceDescription| {
        let nominal = desc.qos().clone();
        originals.push(env.deploy(desc, SyntheticService::new(nominal)));
    };
    match workload {
        "select_10k" => {
            for c in 0..8 {
                for (i, (_, r, a)) in offers(&mut rng, 1_250, 40.0, 1_040.0)
                    .into_iter()
                    .enumerate()
                {
                    let desc = ServiceDescription::new(format!("s{c}-{i}"), &format!("m#C{c}"))
                        .with_qos(rt, r)
                        .with_qos(av, a);
                    deploy_faithful(&mut env, desc);
                }
            }
        }
        "churn_100k" => {
            for leaf in 0..CHURN_PARENTS * 2 {
                let function = churn_leaf_iri(leaf);
                for (i, (_, r, a)) in offers(&mut rng, CHURN_PER_LEAF, 40.0, 1_040.0)
                    .into_iter()
                    .enumerate()
                {
                    let desc = ServiceDescription::new(format!("s{leaf}-{i}"), &function)
                        .with_qos(rt, r)
                        .with_qos(av, a);
                    deploy_faithful(&mut env, desc);
                }
            }
        }
        "frames_small" => {
            // The `qasomd` default market, verbatim.
            for i in 0..8 {
                let desc = ServiceDescription::new(format!("s{i}"), "d#A")
                    .with_qos(rt, 40.0 + f64::from(i));
                deploy_faithful(&mut env, desc);
            }
        }
        "adapt_faulty" => {
            for c in 0..8 {
                for (i, (stratum, r, a)) in
                    offers(&mut rng, 40, 40.0, 240.0).into_iter().enumerate()
                {
                    let desc = ServiceDescription::new(format!("s{c}-{i}"), &format!("f#C{c}"))
                        .with_qos(rt, r)
                        .with_qos(av, a);
                    let mut behaviour = SyntheticService::new(desc.qos().clone())
                        .with_noise(0.10)
                        .with_failure_rate(FAULTY_FAILURE_RATE);
                    // One offer in ten drifts, the same offers on every seed.
                    if stratum % 10 == 0 {
                        behaviour = behaviour.with_drift(50, rt, 3.0);
                    }
                    originals.push(env.deploy(desc, behaviour));
                }
            }
            let mut class = TaskClass::new("faulty");
            for behaviour in faulty_behaviours() {
                class.add_behaviour(behaviour);
            }
            env.register_task_class(class);
        }
        other => return Err(format!("unknown workload {other}")),
    }
    let (pool, order) = request_pool(workload, seed);
    Ok(Inputs {
        env,
        recorder,
        pool,
        order,
        originals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qasom_daemon::wire;

    /// Canonical bytes of a workload's request pool and order: the wire
    /// signature of every request, then the order.
    fn pool_bytes(workload: &str, seed: u64) -> Vec<u8> {
        let (pool, order) = request_pool(workload, seed);
        let mut out = Vec::new();
        for request in &pool {
            let body = wire::encode_request_body(request).expect("generated requests fit the wire");
            out.extend_from_slice(&(body.len() as u32).to_be_bytes());
            out.extend_from_slice(&body);
        }
        for i in order {
            out.extend_from_slice(&i.to_be_bytes());
        }
        out
    }

    fn schedule_bytes(seed: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for op in churn_schedule(seed, 500) {
            out.extend_from_slice(&op.due_us.to_be_bytes());
            out.extend_from_slice(&op.leaf.to_be_bytes());
            out.extend_from_slice(&op.response_time.to_bits().to_be_bytes());
            out.extend_from_slice(&op.availability.to_bits().to_be_bytes());
            out.extend_from_slice(&op.victim.to_be_bytes());
        }
        out
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        // `frames_small` has one request: only its (constant) order exists.
        for w in ["select_10k", "churn_100k", "adapt_faulty"] {
            assert_eq!(pool_bytes(w, 7), pool_bytes(w, 7), "{w}");
            assert_ne!(pool_bytes(w, 7), pool_bytes(w, 8), "{w}");
        }
        assert_eq!(pool_bytes("frames_small", 7), pool_bytes("frames_small", 8));
        assert_eq!(schedule_bytes(7), schedule_bytes(7));
        assert_ne!(schedule_bytes(7), schedule_bytes(8));
    }

    #[test]
    fn markets_differ_by_seed_only_in_who_holds_which_offer() {
        let offers_of = |seed: u64| {
            let built = build("adapt_faulty", seed, None).expect("market builds");
            let (rt, av) = qos_axes(built.env.model());
            let mut offers: Vec<(u64, u64)> = built
                .env
                .registry()
                .iter()
                .map(|(_, d)| {
                    (
                        d.qos().get(rt).unwrap_or(0.0).to_bits(),
                        d.qos().get(av).unwrap_or(0.0).to_bits(),
                    )
                })
                .collect();
            let in_order = offers.clone();
            offers.sort_unstable();
            (in_order, offers)
        };
        let (order_a, multiset_a) = offers_of(1);
        let (order_b, multiset_b) = offers_of(2);
        assert_eq!(multiset_a, multiset_b);
        assert_ne!(order_a, order_b);
    }

    #[test]
    fn every_workload_has_a_distinct_name_and_a_pool() {
        for w in WORKLOADS {
            assert_eq!(workload(w.name), Some(w));
            assert!(!request_pool(w.name, 1).0.is_empty());
        }
        assert_eq!(workload("nope"), None);
    }
}
