//! QoS aggregation across composition patterns (Table IV.1).

use qasom_qos::{AggregationApproach, AggregationOp, Dimension, PropertyId, QosModel, QosVector};
use qasom_task::{TaskNode, UserTask};

/// Aggregates per-activity QoS vectors into the QoS of a whole task
/// (the `Q_j` of a composition `C_v`).
///
/// Per-pattern rules, following Table IV.1 of the original evaluation
/// (`op` is the property's sequence-aggregation operator):
///
/// | op \ pattern | sequence | parallel | choice | loop (n iterations) |
/// |---|---|---|---|---|
/// | Sum (time) | Σ | max | approach | n·v |
/// | Sum (other) | Σ | Σ | approach | n·v |
/// | Product | Π | Π | approach | vⁿ |
/// | Min | min | min | approach | v |
/// | Max | max | max | approach | v |
/// | Average | mean | mean | approach | v |
///
/// "approach" picks the worst branch (pessimistic), the best branch
/// (optimistic) or the probability-weighted mean (mean-value); the loop
/// iteration count `n` is likewise the maximum, `1`, or the expected
/// count.
///
/// A property missing from **any** involved activity is missing from the
/// aggregate: unknown quality cannot be vouched for.
///
/// # Examples
///
/// ```
/// use qasom_qos::{QosModel, QosVector};
/// use qasom_selection::{AggregationApproach, Aggregator};
/// use qasom_task::{Activity, TaskNode, UserTask};
///
/// let model = QosModel::standard();
/// let rt = model.property("ResponseTime").unwrap();
/// let task = UserTask::new(
///     "t",
///     TaskNode::sequence([
///         TaskNode::activity(Activity::new("a", "x#A")),
///         TaskNode::activity(Activity::new("b", "x#B")),
///     ]),
/// )
/// .unwrap();
///
/// let mut qa = QosVector::new();
/// qa.set(rt, 100.0);
/// let mut qb = QosVector::new();
/// qb.set(rt, 50.0);
///
/// let agg = Aggregator::new(&model, AggregationApproach::MeanValue);
/// let total = agg.aggregate(&task, &[qa, qb], &[rt]);
/// assert_eq!(total.get(rt), Some(150.0));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Aggregator<'a> {
    model: &'a QosModel,
    approach: AggregationApproach,
}

impl<'a> Aggregator<'a> {
    /// Creates an aggregator using `approach` for non-deterministic
    /// patterns.
    pub fn new(model: &'a QosModel, approach: AggregationApproach) -> Self {
        Aggregator { model, approach }
    }

    /// The configured approach.
    pub fn approach(&self) -> AggregationApproach {
        self.approach
    }

    /// Aggregates the QoS of a task given one QoS vector per activity
    /// (`assignments[i]` belongs to the activity with DFS index `i`) over
    /// the given properties.
    ///
    /// # Panics
    ///
    /// Panics when `assignments.len()` differs from the task's activity
    /// count.
    pub fn aggregate(
        &self,
        task: &UserTask,
        assignments: &[QosVector],
        properties: &[PropertyId],
    ) -> QosVector {
        assert_eq!(
            assignments.len(),
            task.activity_count(),
            "one QoS vector per activity is required"
        );
        self.aggregate_with(task, properties, |i, p| assignments[i].get(p))
    }

    /// [`Aggregator::aggregate`] over the values `value(i, p)` reads for
    /// the activity with DFS index `i`: the global phase reads them from
    /// its ranked tables without building a vector per activity. The
    /// same folds, so the same bits as over vectors holding the values.
    pub fn aggregate_with(
        &self,
        task: &UserTask,
        properties: &[PropertyId],
        value: impl Fn(usize, PropertyId) -> Option<f64>,
    ) -> QosVector {
        let mut out = QosVector::new();
        for &p in properties {
            let mut idx = 0;
            if let Some(v) = self.fold(task.root(), &value, p, &mut idx) {
                out.set(p, v);
            }
        }
        out
    }

    /// Aggregates a single property; `idx` is the DFS activity cursor.
    /// The first missing value ends the fold: it makes the whole
    /// property missing, so nothing after it is read.
    fn fold<F: Fn(usize, PropertyId) -> Option<f64>>(
        &self,
        node: &TaskNode,
        value: &F,
        property: PropertyId,
        idx: &mut usize,
    ) -> Option<f64> {
        let def = self.model.def(property);
        let op = def.aggregation();
        match node {
            TaskNode::Activity(_) => {
                let v = value(*idx, property);
                *idx += 1;
                v
            }
            TaskNode::Sequence(cs) | TaskNode::Parallel(cs) => {
                // Time-like additive properties overlap in parallel: the
                // slowest branch dominates. Money/energy still add up.
                let op = match node {
                    TaskNode::Parallel(_)
                        if op == AggregationOp::Sum
                            && def.unit().dimension() == Dimension::Time =>
                    {
                        AggregationOp::Max
                    }
                    _ => op,
                };
                // From the operator's neutral element: `-0.0` for sums,
                // as `f64`'s `Sum` starts, so the bits are those of
                // summing the collected values.
                let mut acc = match op {
                    AggregationOp::Sum | AggregationOp::Average => -0.0,
                    AggregationOp::Product => 1.0,
                    AggregationOp::Min => f64::INFINITY,
                    AggregationOp::Max => f64::NEG_INFINITY,
                };
                for c in cs {
                    let v = self.fold(c, value, property, idx)?;
                    acc = match op {
                        AggregationOp::Sum | AggregationOp::Average => acc + v,
                        AggregationOp::Product => acc * v,
                        AggregationOp::Min => acc.min(v),
                        AggregationOp::Max => acc.max(v),
                    };
                }
                match op {
                    _ if cs.is_empty() => None,
                    AggregationOp::Average => Some(acc / cs.len() as f64),
                    _ => Some(acc),
                }
            }
            TaskNode::Choice(bs) => {
                let tendency = def.tendency();
                // The worst (pessimistic) or best (optimistic) branch,
                // and the sums the mean-value approach divides.
                let mut picked: Option<f64> = None;
                let (mut total_p, mut weighted) = (-0.0, -0.0);
                for (prob, c) in bs {
                    let v = self.fold(c, value, property, idx)?;
                    total_p += prob;
                    weighted += prob * v;
                    picked = Some(picked.map_or(v, |a| match self.approach {
                        AggregationApproach::Pessimistic => tendency.worse(a, v),
                        _ => tendency.better(a, v),
                    }));
                }
                match self.approach {
                    AggregationApproach::MeanValue => picked.map(|_| weighted / total_p),
                    _ => picked,
                }
            }
            TaskNode::Loop { body, bound } => {
                let v = self.fold(body, value, property, idx)?;
                let n = match self.approach {
                    AggregationApproach::Pessimistic => f64::from(bound.max()),
                    AggregationApproach::Optimistic => 1.0,
                    AggregationApproach::MeanValue => bound.expected().max(1.0),
                };
                Some(match op {
                    AggregationOp::Sum => v * n,
                    AggregationOp::Product => v.powf(n),
                    AggregationOp::Min | AggregationOp::Max | AggregationOp::Average => v,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qasom_task::{Activity, LoopBound};

    struct Fx {
        model: QosModel,
        rt: PropertyId,
        av: PropertyId,
        price: PropertyId,
        thr: PropertyId,
    }

    fn fx() -> Fx {
        let model = QosModel::standard();
        let rt = model.property("ResponseTime").unwrap();
        let av = model.property("Availability").unwrap();
        let price = model.property("Price").unwrap();
        let thr = model.property("Throughput").unwrap();
        Fx {
            model,
            rt,
            av,
            price,
            thr,
        }
    }

    fn act(name: &str) -> TaskNode {
        TaskNode::activity(Activity::new(name, "t#F"))
    }

    fn qv(pairs: &[(PropertyId, f64)]) -> QosVector {
        pairs.iter().copied().collect()
    }

    fn agg(
        f: &Fx,
        approach: AggregationApproach,
        node: TaskNode,
        assignments: &[QosVector],
        p: PropertyId,
    ) -> Option<f64> {
        let task = UserTask::new("t", node).unwrap();
        Aggregator::new(&f.model, approach)
            .aggregate(&task, assignments, &[p])
            .get(p)
    }

    #[test]
    fn table_iv1_sequence_rules() {
        let f = fx();
        let node = TaskNode::sequence([act("a"), act("b")]);
        let a = qv(&[(f.rt, 100.0), (f.av, 0.9), (f.price, 2.0), (f.thr, 10.0)]);
        let b = qv(&[(f.rt, 50.0), (f.av, 0.8), (f.price, 3.0), (f.thr, 4.0)]);
        let m = AggregationApproach::MeanValue;
        assert_eq!(
            agg(&f, m, node.clone(), &[a.clone(), b.clone()], f.rt),
            Some(150.0)
        );
        assert_eq!(
            agg(&f, m, node.clone(), &[a.clone(), b.clone()], f.av),
            Some(0.9 * 0.8)
        );
        assert_eq!(
            agg(&f, m, node.clone(), &[a.clone(), b.clone()], f.price),
            Some(5.0)
        );
        assert_eq!(agg(&f, m, node, &[a, b], f.thr), Some(4.0));
    }

    #[test]
    fn table_iv1_parallel_rules() {
        let f = fx();
        let node = TaskNode::parallel([act("a"), act("b")]);
        let a = qv(&[(f.rt, 100.0), (f.av, 0.9), (f.price, 2.0), (f.thr, 10.0)]);
        let b = qv(&[(f.rt, 50.0), (f.av, 0.8), (f.price, 3.0), (f.thr, 4.0)]);
        let m = AggregationApproach::MeanValue;
        // Parallel response time = max, price still adds up.
        assert_eq!(
            agg(&f, m, node.clone(), &[a.clone(), b.clone()], f.rt),
            Some(100.0)
        );
        assert_eq!(
            agg(&f, m, node.clone(), &[a.clone(), b.clone()], f.price),
            Some(5.0)
        );
        assert_eq!(
            agg(&f, m, node.clone(), &[a.clone(), b.clone()], f.av),
            Some(0.9 * 0.8)
        );
        assert_eq!(agg(&f, m, node, &[a, b], f.thr), Some(4.0));
    }

    #[test]
    fn choice_depends_on_approach() {
        let f = fx();
        let node = TaskNode::choice([(0.25, act("a")), (0.75, act("b"))]);
        let a = qv(&[(f.rt, 100.0)]);
        let b = qv(&[(f.rt, 200.0)]);
        assert_eq!(
            agg(
                &f,
                AggregationApproach::Pessimistic,
                node.clone(),
                &[a.clone(), b.clone()],
                f.rt
            ),
            Some(200.0)
        );
        assert_eq!(
            agg(
                &f,
                AggregationApproach::Optimistic,
                node.clone(),
                &[a.clone(), b.clone()],
                f.rt
            ),
            Some(100.0)
        );
        assert_eq!(
            agg(&f, AggregationApproach::MeanValue, node, &[a, b], f.rt),
            Some(175.0)
        );
    }

    #[test]
    fn choice_pessimism_respects_tendency() {
        let f = fx();
        let node = TaskNode::choice([(0.5, act("a")), (0.5, act("b"))]);
        let a = qv(&[(f.av, 0.99)]);
        let b = qv(&[(f.av, 0.8)]);
        // For higher-is-better the worst branch is the *lower* value.
        assert_eq!(
            agg(&f, AggregationApproach::Pessimistic, node, &[a, b], f.av),
            Some(0.8)
        );
    }

    #[test]
    fn loop_scaling_per_approach() {
        let f = fx();
        let node = TaskNode::repeat(act("a"), LoopBound::new(3.0, 10));
        let a = qv(&[(f.rt, 10.0), (f.av, 0.9)]);
        assert_eq!(
            agg(
                &f,
                AggregationApproach::Pessimistic,
                node.clone(),
                std::slice::from_ref(&a),
                f.rt
            ),
            Some(100.0)
        );
        assert_eq!(
            agg(
                &f,
                AggregationApproach::Optimistic,
                node.clone(),
                std::slice::from_ref(&a),
                f.rt
            ),
            Some(10.0)
        );
        assert_eq!(
            agg(
                &f,
                AggregationApproach::MeanValue,
                node.clone(),
                std::slice::from_ref(&a),
                f.rt
            ),
            Some(30.0)
        );
        // Product ops use powers.
        let av_pess = agg(&f, AggregationApproach::Pessimistic, node, &[a], f.av).unwrap();
        assert!((av_pess - 0.9f64.powi(10)).abs() < 1e-12);
    }

    #[test]
    fn missing_value_makes_aggregate_missing() {
        let f = fx();
        let node = TaskNode::sequence([act("a"), act("b")]);
        let a = qv(&[(f.rt, 100.0)]);
        let b = qv(&[]);
        assert_eq!(
            agg(&f, AggregationApproach::MeanValue, node, &[a, b], f.rt),
            None
        );
    }

    #[test]
    fn nested_structure_aggregates_inside_out() {
        let f = fx();
        // seq(a, par(b, c)) on response time: 10 + max(20, 30) = 40.
        let node = TaskNode::sequence([act("a"), TaskNode::parallel([act("b"), act("c")])]);
        let vecs = [
            qv(&[(f.rt, 10.0)]),
            qv(&[(f.rt, 20.0)]),
            qv(&[(f.rt, 30.0)]),
        ];
        assert_eq!(
            agg(&f, AggregationApproach::MeanValue, node, &vecs, f.rt),
            Some(40.0)
        );
    }

    #[test]
    fn activity_cursor_advances_through_skipped_branches() {
        let f = fx();
        // Choice with a missing branch must not desynchronise later
        // activities.
        let node = TaskNode::sequence([
            TaskNode::choice([(0.5, act("a")), (0.5, act("b"))]),
            act("c"),
        ]);
        let vecs = [
            qv(&[(f.rt, 1.0)]),
            qv(&[]), // b missing rt
            qv(&[(f.rt, 7.0)]),
        ];
        // rt missing overall (choice has a missing branch), but the fold
        // must still consume all three activity slots without panicking.
        assert_eq!(
            agg(&f, AggregationApproach::MeanValue, node, &vecs, f.rt),
            None
        );
    }

    #[test]
    #[should_panic(expected = "one QoS vector per activity")]
    fn wrong_assignment_count_panics() {
        let f = fx();
        let task = UserTask::new("t", act("a")).unwrap();
        let _ = Aggregator::new(&f.model, AggregationApproach::MeanValue).aggregate(
            &task,
            &[],
            &[f.rt],
        );
    }

    #[test]
    fn average_op_means_over_children() {
        let f = fx();
        let rep = f.model.property("Reputation").unwrap();
        let node = TaskNode::sequence([act("a"), act("b")]);
        let a = qv(&[(rep, 4.0)]);
        let b = qv(&[(rep, 2.0)]);
        assert_eq!(
            agg(&f, AggregationApproach::MeanValue, node, &[a, b], rep),
            Some(3.0)
        );
    }
}
