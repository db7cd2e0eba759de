//! Behavioural graphs: the labelled DAGs behavioural adaptation works on.
//!
//! A user task is transformed into a directed graph whose vertices are the
//! task's activities (plus a synthetic single source and sink) and whose
//! edges are execution-precedence constraints. Loops are *simplified*
//! (Fig. V.4 of the original text): the loop body appears once and its
//! vertices carry the loop's expected iteration count as a weight, which
//! keeps the graph acyclic while preserving QoS-relevant information.

use std::fmt;

use crate::{Activity, TaskNode, UserTask};

/// Handle to a vertex of a [`BehaviouralGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(u32);

impl VertexId {
    /// Index into the graph's vertex table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    fn from_index(i: usize) -> Self {
        // Saturate rather than panic: behavioural graphs are bounded by
        // the task description, which cannot reach u32::MAX vertices.
        VertexId(u32::try_from(i).unwrap_or(u32::MAX))
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Role of a vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VertexKind {
    /// Synthetic single source.
    Start,
    /// Synthetic single sink.
    End,
    /// An abstract activity of the task.
    Activity,
}

/// A labelled vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct Vertex {
    kind: VertexKind,
    activity: Option<Activity>,
    iteration_weight: f64,
}

impl Vertex {
    /// The vertex role.
    pub fn kind(&self) -> VertexKind {
        self.kind
    }

    /// The activity labelling this vertex (`None` for start/end).
    pub fn activity(&self) -> Option<&Activity> {
        self.activity.as_ref()
    }

    /// Product of the expected iteration counts of the loops enclosing
    /// this activity (`1.0` outside any loop).
    pub fn iteration_weight(&self) -> f64 {
        self.iteration_weight
    }
}

/// A behavioural graph: single-source, single-sink labelled DAG.
///
/// # Examples
///
/// ```
/// use qasom_task::{Activity, BehaviouralGraph, TaskNode, UserTask};
///
/// let task = UserTask::new(
///     "t",
///     TaskNode::sequence([
///         TaskNode::activity(Activity::new("a", "x#A")),
///         TaskNode::activity(Activity::new("b", "x#B")),
///     ]),
/// )
/// .unwrap();
/// let g = BehaviouralGraph::from_task(&task);
/// assert_eq!(g.activity_vertices().count(), 2);
/// assert!(g.is_acyclic());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BehaviouralGraph {
    vertices: Vec<Vertex>,
    succ: Vec<Vec<VertexId>>,
    pred: Vec<Vec<VertexId>>,
    start: VertexId,
    end: VertexId,
}

impl BehaviouralGraph {
    /// Transforms a user task into its behavioural graph.
    ///
    /// The transformation is linear in the task size: every activity
    /// becomes one vertex; sequences chain sub-graphs, parallel and choice
    /// patterns fan their branches out between the surrounding vertices,
    /// and loops are simplified to their body weighted by the expected
    /// iteration count.
    pub fn from_task(task: &UserTask) -> Self {
        let mut g = Builder::default();
        let start = g.push(Vertex {
            kind: VertexKind::Start,
            activity: None,
            iteration_weight: 1.0,
        });
        let (heads, tails) = g.build(task.root(), 1.0);
        let end = g.push(Vertex {
            kind: VertexKind::End,
            activity: None,
            iteration_weight: 1.0,
        });
        for h in heads {
            g.connect(start, h);
        }
        for t in tails {
            g.connect(t, end);
        }
        BehaviouralGraph {
            vertices: g.vertices,
            succ: g.succ,
            pred: g.pred,
            start,
            end,
        }
    }

    /// The synthetic source.
    pub fn start(&self) -> VertexId {
        self.start
    }

    /// The synthetic sink.
    pub fn end(&self) -> VertexId {
        self.end
    }

    /// Number of vertices (activities + start + end).
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether the graph has no vertex (never true for built graphs).
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// The vertex labelled by `id`.
    pub fn vertex(&self, id: VertexId) -> &Vertex {
        &self.vertices[id.index()]
    }

    /// All vertex ids.
    pub fn vertex_ids(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vertices.len()).map(VertexId::from_index)
    }

    /// Ids of activity vertices, in task DFS order.
    pub fn activity_vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.vertex_ids()
            .filter(|&v| self.vertex(v).kind() == VertexKind::Activity)
    }

    /// Successors of `id`.
    pub fn successors(&self, id: VertexId) -> &[VertexId] {
        &self.succ[id.index()]
    }

    /// Predecessors of `id`.
    pub fn predecessors(&self, id: VertexId) -> &[VertexId] {
        &self.pred[id.index()]
    }

    /// Whether the edge `from → to` exists.
    pub fn has_edge(&self, from: VertexId, to: VertexId) -> bool {
        self.succ[from.index()].contains(&to)
    }

    /// Iterates over all edges.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertex_ids()
            .flat_map(move |v| self.succ[v.index()].iter().map(move |&w| (v, w)))
    }

    /// Finds the vertex labelled by the activity called `name`.
    pub fn find_activity(&self, name: &str) -> Option<VertexId> {
        self.activity_vertices()
            .find(|&v| self.vertex(v).activity().is_some_and(|a| a.name() == name))
    }

    /// A topological order of the vertices, or `None` if the graph is
    /// cyclic (cannot happen for graphs produced by
    /// [`BehaviouralGraph::from_task`]).
    pub fn topological_order(&self) -> Option<Vec<VertexId>> {
        let n = self.vertices.len();
        let mut indeg: Vec<usize> = (0..n).map(|i| self.pred[i].len()).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            order.push(VertexId::from_index(i));
            for &s in &self.succ[i] {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push(s.index());
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Whether the graph is a DAG.
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_some()
    }

    /// The *restriction* of the graph to `keep`: a new graph containing
    /// the start vertex, the kept vertices and a fresh (edge-less) end
    /// vertex, with an edge `u → v` whenever the original graph has a
    /// path from `u` to `v` that passes through **no other kept vertex**.
    ///
    /// This is how behavioural adaptation extracts the *executed prefix*
    /// of a running task as a pattern graph: the prefix keeps its
    /// precedence structure while unexecuted activities dissolve into
    /// path segments.
    ///
    /// Returns the restricted graph and the mapping from its vertex ids
    /// back to the original ids (the synthetic end maps to the original
    /// end).
    pub fn restriction(
        &self,
        keep: &[VertexId],
    ) -> (
        BehaviouralGraph,
        std::collections::HashMap<VertexId, VertexId>,
    ) {
        let mut g = Builder::default();
        let mut back = std::collections::HashMap::new();
        let mut fwd: std::collections::HashMap<VertexId, VertexId> =
            std::collections::HashMap::new();

        let start = g.push(Vertex {
            kind: VertexKind::Start,
            activity: None,
            iteration_weight: 1.0,
        });
        back.insert(start, self.start);
        fwd.insert(self.start, start);

        let mut kept: Vec<VertexId> = keep
            .iter()
            .copied()
            .filter(|&v| v != self.start && v != self.end)
            .collect();
        kept.sort();
        kept.dedup();
        for &old in &kept {
            let new = g.push(self.vertices[old.index()].clone());
            back.insert(new, old);
            fwd.insert(old, new);
        }
        let end = g.push(Vertex {
            kind: VertexKind::End,
            activity: None,
            iteration_weight: 1.0,
        });
        back.insert(end, self.end);

        // Edge u → v iff a path exists avoiding every other anchor.
        let anchors: Vec<VertexId> = std::iter::once(self.start)
            .chain(kept.iter().copied())
            .collect();
        for &u in &anchors {
            for &v in &anchors {
                if u == v {
                    continue;
                }
                if self.path_avoiding(u, v, &anchors) {
                    g.connect(fwd[&u], fwd[&v]);
                }
            }
        }

        let graph = BehaviouralGraph {
            vertices: g.vertices,
            succ: g.succ,
            pred: g.pred,
            start,
            end,
        };
        (graph, back)
    }

    /// Whether a path `from ⇝ to` exists whose intermediate vertices
    /// avoid every vertex of `anchors` (the endpoints excepted).
    fn path_avoiding(&self, from: VertexId, to: VertexId, anchors: &[VertexId]) -> bool {
        let mut seen = vec![false; self.vertices.len()];
        let mut stack = vec![from];
        seen[from.index()] = true;
        while let Some(v) = stack.pop() {
            for &s in &self.succ[v.index()] {
                if s == to {
                    return true;
                }
                if !seen[s.index()] && !anchors.contains(&s) {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    /// All vertices reachable from `from` (inclusive).
    pub fn reachable_from(&self, from: VertexId) -> Vec<VertexId> {
        let mut seen = vec![false; self.vertices.len()];
        let mut stack = vec![from];
        seen[from.index()] = true;
        let mut out = Vec::new();
        while let Some(v) = stack.pop() {
            out.push(v);
            for &s in &self.succ[v.index()] {
                if !seen[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
        }
        out.sort();
        out
    }
}

#[derive(Default)]
struct Builder {
    vertices: Vec<Vertex>,
    succ: Vec<Vec<VertexId>>,
    pred: Vec<Vec<VertexId>>,
}

impl Builder {
    fn push(&mut self, v: Vertex) -> VertexId {
        let id = VertexId::from_index(self.vertices.len());
        self.vertices.push(v);
        self.succ.push(Vec::new());
        self.pred.push(Vec::new());
        id
    }

    fn connect(&mut self, from: VertexId, to: VertexId) {
        if !self.succ[from.index()].contains(&to) {
            self.succ[from.index()].push(to);
            self.pred[to.index()].push(from);
        }
    }

    /// Builds the subgraph for `node`, returning its entry and exit
    /// vertices. `weight` is the product of enclosing loops' expected
    /// iteration counts.
    fn build(&mut self, node: &TaskNode, weight: f64) -> (Vec<VertexId>, Vec<VertexId>) {
        match node {
            TaskNode::Activity(a) => {
                let id = self.push(Vertex {
                    kind: VertexKind::Activity,
                    activity: Some(a.clone()),
                    iteration_weight: weight,
                });
                (vec![id], vec![id])
            }
            TaskNode::Sequence(cs) => {
                let mut heads = Vec::new();
                let mut tails: Vec<VertexId> = Vec::new();
                for (i, c) in cs.iter().enumerate() {
                    let (h, t) = self.build(c, weight);
                    if i == 0 {
                        heads = h;
                    } else {
                        for &prev in &tails {
                            for &next in &h {
                                self.connect(prev, next);
                            }
                        }
                    }
                    tails = t;
                }
                (heads, tails)
            }
            TaskNode::Parallel(cs) => {
                let mut heads = Vec::new();
                let mut tails = Vec::new();
                for c in cs {
                    let (h, t) = self.build(c, weight);
                    heads.extend(h);
                    tails.extend(t);
                }
                (heads, tails)
            }
            TaskNode::Choice(bs) => {
                let mut heads = Vec::new();
                let mut tails = Vec::new();
                for (_, c) in bs {
                    let (h, t) = self.build(c, weight);
                    heads.extend(h);
                    tails.extend(t);
                }
                (heads, tails)
            }
            TaskNode::Loop { body, bound } => {
                // Loop simplification: the body appears once, weighted by
                // the expected iteration count; the back edge is dropped so
                // the graph stays acyclic.
                self.build(body, weight * bound.expected().max(1.0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LoopBound;

    fn act(name: &str) -> TaskNode {
        TaskNode::activity(Activity::new(name, "t#F"))
    }

    fn graph(node: TaskNode) -> BehaviouralGraph {
        BehaviouralGraph::from_task(&UserTask::new("t", node).unwrap())
    }

    #[test]
    fn sequence_chains_activities() {
        let g = graph(TaskNode::sequence([act("a"), act("b"), act("c")]));
        let a = g.find_activity("a").unwrap();
        let b = g.find_activity("b").unwrap();
        let c = g.find_activity("c").unwrap();
        assert!(g.has_edge(a, b));
        assert!(g.has_edge(b, c));
        assert!(g.has_edge(g.start(), a));
        assert!(g.has_edge(c, g.end()));
        assert_eq!(g.len(), 5);
    }

    #[test]
    fn parallel_fans_out() {
        let g = graph(TaskNode::sequence([
            act("a"),
            TaskNode::parallel([act("b"), act("c")]),
            act("d"),
        ]));
        let a = g.find_activity("a").unwrap();
        let b = g.find_activity("b").unwrap();
        let c = g.find_activity("c").unwrap();
        let d = g.find_activity("d").unwrap();
        assert!(g.has_edge(a, b) && g.has_edge(a, c));
        assert!(g.has_edge(b, d) && g.has_edge(c, d));
        assert!(!g.has_edge(b, c));
    }

    #[test]
    fn choice_fans_out_like_parallel() {
        let g = graph(TaskNode::choice([(0.5, act("a")), (0.5, act("b"))]));
        assert!(g.has_edge(g.start(), g.find_activity("a").unwrap()));
        assert!(g.has_edge(g.start(), g.find_activity("b").unwrap()));
    }

    #[test]
    fn loop_is_simplified_and_weighted() {
        let g = graph(TaskNode::sequence([
            act("a"),
            TaskNode::repeat(act("b"), LoopBound::new(3.0, 10)),
        ]));
        assert!(g.is_acyclic());
        let b = g.find_activity("b").unwrap();
        assert_eq!(g.vertex(b).iteration_weight(), 3.0);
        let a = g.find_activity("a").unwrap();
        assert_eq!(g.vertex(a).iteration_weight(), 1.0);
    }

    #[test]
    fn nested_loops_multiply_weights() {
        let inner = TaskNode::repeat(act("x"), LoopBound::new(2.0, 5));
        let outer = TaskNode::repeat(inner, LoopBound::new(4.0, 5));
        let g = graph(outer);
        let x = g.find_activity("x").unwrap();
        assert_eq!(g.vertex(x).iteration_weight(), 8.0);
    }

    #[test]
    fn graph_has_single_source_and_sink() {
        let g = graph(TaskNode::parallel([act("a"), act("b"), act("c")]));
        assert!(g.predecessors(g.start()).is_empty());
        assert!(g.successors(g.end()).is_empty());
        let sources: Vec<_> = g
            .vertex_ids()
            .filter(|&v| g.predecessors(v).is_empty())
            .collect();
        assert_eq!(sources, vec![g.start()]);
    }

    #[test]
    fn topological_order_respects_edges() {
        let g = graph(TaskNode::sequence([act("a"), act("b")]));
        let order = g.topological_order().unwrap();
        let pos = |v: VertexId| order.iter().position(|&x| x == v).unwrap();
        for (from, to) in g.edges() {
            assert!(pos(from) < pos(to));
        }
    }

    #[test]
    fn reachable_from_start_covers_graph() {
        let g = graph(TaskNode::sequence([
            act("a"),
            TaskNode::parallel([act("b"), act("c")]),
        ]));
        assert_eq!(g.reachable_from(g.start()).len(), g.len());
    }

    #[test]
    fn restriction_keeps_prefix_structure() {
        // a ; (b || c) ; d — restrict to {a, b}.
        let g = graph(TaskNode::sequence([
            act("a"),
            TaskNode::parallel([act("b"), act("c")]),
            act("d"),
        ]));
        let a = g.find_activity("a").unwrap();
        let b = g.find_activity("b").unwrap();
        let (r, back) = g.restriction(&[a, b]);
        assert_eq!(r.activity_vertices().count(), 2);
        let ra = r.find_activity("a").unwrap();
        let rb = r.find_activity("b").unwrap();
        assert!(r.has_edge(r.start(), ra));
        assert!(r.has_edge(ra, rb));
        // No edge into the synthetic end.
        assert!(r.predecessors(r.end()).is_empty());
        assert_eq!(back[&ra], a);
        assert_eq!(back[&rb], b);
    }

    #[test]
    fn restriction_edge_requires_path_avoiding_anchors() {
        // a ; b ; c — restricting to {a, c} gives a → c (via b), but
        // restricting to {a, b, c} must NOT connect a directly to c.
        let g = graph(TaskNode::sequence([act("a"), act("b"), act("c")]));
        let a = g.find_activity("a").unwrap();
        let b = g.find_activity("b").unwrap();
        let c = g.find_activity("c").unwrap();

        let (r, _) = g.restriction(&[a, c]);
        assert!(r.has_edge(r.find_activity("a").unwrap(), r.find_activity("c").unwrap()));

        let (r, _) = g.restriction(&[a, b, c]);
        assert!(!r.has_edge(r.find_activity("a").unwrap(), r.find_activity("c").unwrap()));
    }

    #[test]
    fn restriction_of_parallel_branches_has_no_cross_edges() {
        let g = graph(TaskNode::parallel([act("a"), act("b")]));
        let a = g.find_activity("a").unwrap();
        let b = g.find_activity("b").unwrap();
        let (r, _) = g.restriction(&[a, b]);
        let ra = r.find_activity("a").unwrap();
        let rb = r.find_activity("b").unwrap();
        assert!(!r.has_edge(ra, rb) && !r.has_edge(rb, ra));
        assert!(r.has_edge(r.start(), ra) && r.has_edge(r.start(), rb));
    }

    #[test]
    fn transformation_is_linear_in_activities() {
        let acts: Vec<_> = (0..50).map(|i| act(&format!("a{i}"))).collect();
        let g = graph(TaskNode::sequence(acts));
        assert_eq!(g.len(), 52);
        assert_eq!(g.edges().count(), 51);
    }
}
