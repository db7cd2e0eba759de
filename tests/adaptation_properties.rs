//! Property-based tests of the adaptation layer: homeomorphism
//! soundness, order-embedding soundness, and monitor behaviour.

use std::collections::HashSet;

use proptest::prelude::*;
use qasom_adaptation::{find_homeomorphism, find_order_embedding, QosMonitor};
use qasom_qos::QosModel;
use qasom_registry::{ServiceDescription, ServiceRegistry};
use qasom_task::{Activity, BehaviouralGraph, TaskNode, UserTask, VertexId};

/// Random small DAG-ish tasks: a sequence of blocks, each block either a
/// single activity or a parallel group.
fn arb_blocks() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..4, 1..5)
}

fn task_from_blocks(blocks: &[usize], prefix: &str) -> UserTask {
    let mut counter = 0;
    let nodes: Vec<TaskNode> = blocks
        .iter()
        .map(|&width| {
            let acts: Vec<TaskNode> = (0..width)
                .map(|_| {
                    let i = counter;
                    counter += 1;
                    TaskNode::activity(Activity::new(format!("{prefix}{i}"), &format!("h#F{i}")))
                })
                .collect();
            if acts.len() == 1 {
                acts.into_iter().next().unwrap()
            } else {
                TaskNode::parallel(acts)
            }
        })
        .collect();
    UserTask::new(format!("{prefix}-task"), TaskNode::sequence(nodes)).unwrap()
}

fn name_matcher(
    pattern: &BehaviouralGraph,
    host: &BehaviouralGraph,
) -> impl FnMut(VertexId, VertexId) -> bool {
    let p = pattern.clone();
    let h = host.clone();
    move |pv, hv| match (p.vertex(pv).activity(), h.vertex(hv).activity()) {
        (Some(pa), Some(ha)) => pa.function() == ha.function(),
        (None, None) => p.vertex(pv).kind() == h.vertex(hv).kind(),
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every graph is homeomorphic to itself, with the identity as a
    /// valid witness.
    #[test]
    fn identity_homeomorphism_exists(blocks in arb_blocks()) {
        let t = task_from_blocks(&blocks, "a");
        let g = BehaviouralGraph::from_task(&t);
        let mut m = name_matcher(&g, &g);
        let h = find_homeomorphism(&g, &g, &mut m, &[]).expect("identity embedding");
        for v in g.vertex_ids() {
            prop_assert_eq!(h.image(v), Some(v));
        }
    }

    /// Soundness of the homeomorphism witness: injective vertex map,
    /// every path is a real host path connecting the right images, and
    /// internal path vertices are pairwise disjoint and avoid images.
    #[test]
    fn homeomorphism_witness_is_valid(blocks in arb_blocks(), extra in 0usize..3) {
        // Host: the same task with `extra` activities appended. The
        // pattern ends in a width-1 block so only a single pattern edge
        // (tail → end) needs to route through the appended vertices —
        // with a parallel tail, two pattern edges would have to share
        // the appended vertex, which vertex-disjointness rightly forbids.
        let mut blocks = blocks;
        blocks.push(1);
        let pattern_task = task_from_blocks(&blocks, "a");
        let mut host_blocks = blocks.clone();
        host_blocks.extend(std::iter::repeat_n(1, extra));
        let host_task = task_from_blocks(&host_blocks, "a");
        let pattern = BehaviouralGraph::from_task(&pattern_task);
        let host = BehaviouralGraph::from_task(&host_task);
        let mut m = name_matcher(&pattern, &host);
        let Some(h) = find_homeomorphism(&pattern, &host, &mut m, &[]) else {
            // The pattern's end vertex must map to the host's end; with
            // extra activities appended the pattern edge tail→end needs a
            // path through the appended activities, which exists — so the
            // embedding must be found.
            return Err(TestCaseError::fail("expected an embedding"));
        };
        // Injectivity.
        let images: HashSet<_> = h.vertex_map.values().collect();
        prop_assert_eq!(images.len(), h.vertex_map.len());
        // Paths are real and disjoint.
        let mut internal_seen: HashSet<VertexId> = HashSet::new();
        for ((u, v), path) in &h.paths {
            prop_assert_eq!(path.first(), Some(&h.vertex_map[u]));
            prop_assert_eq!(path.last(), Some(&h.vertex_map[v]));
            for w in path.windows(2) {
                prop_assert!(host.has_edge(w[0], w[1]), "{} -> {} is not a host edge", w[0], w[1]);
            }
            for w in &path[1..path.len() - 1] {
                prop_assert!(internal_seen.insert(*w), "internal vertex {w} reused");
                prop_assert!(!images.contains(w), "internal vertex {w} is an image");
            }
        }
    }

    /// Soundness of order embeddings: injective and reachability-
    /// preserving.
    #[test]
    fn order_embedding_preserves_reachability(blocks in arb_blocks()) {
        // Host: a fully sequential version of the same activities (a
        // linear extension — always a valid refinement).
        let pattern_task = task_from_blocks(&blocks, "a");
        let n: usize = blocks.iter().sum();
        let host_task = task_from_blocks(&vec![1; n], "a");
        let pattern = BehaviouralGraph::from_task(&pattern_task);
        let host = BehaviouralGraph::from_task(&host_task);
        let mut m = name_matcher(&pattern, &host);
        let map = find_order_embedding(&pattern, &host, &mut m, &[])
            .expect("a linear extension always embeds");
        let images: HashSet<_> = map.values().collect();
        prop_assert_eq!(images.len(), map.len());
        for (u, v) in pattern.edges() {
            let (hu, hv) = (map[&u], map[&v]);
            prop_assert!(host.reachable_from(hu).contains(&hv));
        }
    }

    /// Monitor estimates converge to the sample mean and the window
    /// (the monitor's last 10 observations) bounds them.
    #[test]
    fn monitor_estimate_is_bounded_by_observations(
        values in prop::collection::vec(1.0f64..1e4, 1..40),
    ) {
        const WINDOW: usize = 10;
        let model = QosModel::standard();
        let rt = model.property("ResponseTime").unwrap();
        let mut reg = ServiceRegistry::new();
        let id = reg.register(ServiceDescription::new("s", "d#F"));
        let mut monitor = QosMonitor::new();
        for &v in &values {
            let mut q = qasom_qos::QosVector::new();
            q.set(rt, v);
            monitor.observe(id, &q);
        }
        let est = monitor.estimate(id).unwrap().get(rt).unwrap();
        let tail: Vec<f64> = values.iter().rev().take(WINDOW).copied().collect();
        let lo = tail.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = tail.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(est >= lo - 1e-9 && est <= hi + 1e-9, "estimate {est} outside [{lo}, {hi}]");
    }

    /// A constant series predicts itself (no spurious trend).
    #[test]
    fn constant_series_predicts_constant(value in 1.0f64..1e4, n in 2usize..20) {
        let model = QosModel::standard();
        let rt = model.property("ResponseTime").unwrap();
        let mut reg = ServiceRegistry::new();
        let id = reg.register(ServiceDescription::new("s", "d#F"));
        let mut monitor = QosMonitor::new();
        for _ in 0..n {
            let mut q = qasom_qos::QosVector::new();
            q.set(rt, value);
            monitor.observe(id, &q);
        }
        let predicted = monitor.predict(id).unwrap().get(rt).unwrap();
        prop_assert!((predicted - value).abs() < 1e-6, "{predicted} vs {value}");
    }
}
