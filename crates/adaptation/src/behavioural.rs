//! Behavioural adaptation: realising a task through an alternative
//! behaviour of its task class.

use std::collections::HashMap;

use qasom_ontology::Ontology;
use qasom_task::{Activity, BehaviouralGraph, TaskClassRepository, UserTask, VertexId, VertexKind};

use crate::homeo::find_order_embedding;

/// A behavioural adaptation plan: switch the running composition to
/// `behaviour`, resuming after the already-executed activities.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptationPlan {
    /// The alternative behaviour taking over.
    pub behaviour: UserTask,
    /// Executed activity of the old behaviour → the activity of the new
    /// behaviour it counts as (by name).
    pub executed_map: HashMap<String, String>,
    /// Activities of the new behaviour still to execute (everything not
    /// covered by `executed_map`), in DFS order.
    pub remaining: Vec<String>,
}

/// Decides whether (and how) an alternative behaviour can take over a
/// partially executed task, via an order embedding of the executed prefix
/// ([`find_order_embedding`]) with semantic vertex matching, data
/// constraints and pinned start/end mappings.
#[derive(Debug, Clone, Copy)]
pub struct BehaviouralAdapter<'a> {
    ontology: &'a Ontology,
}

impl<'a> BehaviouralAdapter<'a> {
    /// Creates an adapter matching activity functions over `ontology`
    /// (unknown IRIs fall back to syntactic equality).
    pub fn new(ontology: &'a Ontology) -> Self {
        BehaviouralAdapter { ontology }
    }

    /// Semantic + data compatibility of two activities: the candidate
    /// (`new`) must offer a function usable for the executed (`old`) one
    /// — exact or more specific — produce at least its outputs, and
    /// require no inputs the old activity did not have.
    pub fn activities_compatible(&self, old: &Activity, new: &Activity) -> bool {
        self.functions_match(old.function(), new.function())
            && old.outputs().iter().all(|req| {
                new.outputs()
                    .iter()
                    .any(|off| self.functions_match(req, off))
            })
            && new.inputs().iter().all(|need| {
                old.inputs()
                    .iter()
                    .any(|have| self.functions_match(need, have))
            })
    }

    fn functions_match(
        &self,
        required: &qasom_ontology::Iri,
        offered: &qasom_ontology::Iri,
    ) -> bool {
        match (
            self.ontology.concept(required),
            self.ontology.concept(offered),
        ) {
            (Some(r), Some(o)) => self.ontology.match_degree(r, o).is_usable(),
            _ => required == offered,
        }
    }

    /// Checks whether `alternative` can resume `current` after the
    /// activities named in `executed` have run.
    ///
    /// The executed prefix of `current` (its graph [restriction]) must
    /// admit an order embedding into `alternative`'s behavioural graph —
    /// every established precedence must hold in the new behaviour — with
    /// the start/end vertices pinned, semantic function matching and data
    /// (I/O) constraints on every activity pair. On success, returns the
    /// executed-activity correspondence (old name → new name).
    ///
    /// [restriction]: BehaviouralGraph::restriction
    pub fn resume_mapping(
        &self,
        current: &UserTask,
        alternative: &UserTask,
        executed: &[&str],
    ) -> Option<HashMap<String, String>> {
        let g_cur = BehaviouralGraph::from_task(current);
        let executed_ids: Vec<VertexId> = executed
            .iter()
            .map(|name| g_cur.find_activity(name))
            .collect::<Option<Vec<_>>>()?;
        let (pattern, _back) = g_cur.restriction(&executed_ids);
        let host = BehaviouralGraph::from_task(alternative);

        let mut compatible = |p: VertexId, h: VertexId| {
            let (pv, hv) = (pattern.vertex(p), host.vertex(h));
            match (pv.kind(), hv.kind()) {
                (VertexKind::Start, VertexKind::Start) => true,
                (VertexKind::End, VertexKind::End) => true,
                (VertexKind::Activity, VertexKind::Activity) => {
                    match (pv.activity(), hv.activity()) {
                        (Some(p), Some(h)) => self.activities_compatible(p, h),
                        _ => false,
                    }
                }
                _ => false,
            }
        };
        let pins = [(pattern.start(), host.start()), (pattern.end(), host.end())];
        let embedding = find_order_embedding(&pattern, &host, &mut compatible, &pins)?;

        let mut map = HashMap::new();
        for p in pattern.activity_vertices() {
            let old_name = pattern.vertex(p).activity()?.name().to_owned();
            let image = *embedding.get(&p)?;
            let new_name = host.vertex(image).activity()?.name().to_owned();
            map.insert(old_name, new_name);
        }
        Some(map)
    }

    /// Picks the first alternative behaviour of `current`'s task class
    /// that (i) can resume after `executed` and (ii) whose remaining
    /// activities are all realisable according to `available`.
    ///
    /// Alternatives are tried in the repository's preference order.
    pub fn plan(
        &self,
        repository: &TaskClassRepository,
        current: &UserTask,
        executed: &[&str],
        available: &mut dyn FnMut(&Activity) -> bool,
    ) -> Option<AdaptationPlan> {
        for alternative in repository.alternatives(current.name()) {
            let Some(executed_map) = self.resume_mapping(current, alternative, executed) else {
                continue;
            };
            let covered: Vec<&String> = executed_map.values().collect();
            let remaining: Vec<String> = alternative
                .activities()
                .filter(|r| !covered.iter().any(|c| *c == r.activity().name()))
                .map(|r| r.activity().name().to_owned())
                .collect();
            let all_available = alternative
                .activities()
                .filter(|r| remaining.iter().any(|n| n == r.activity().name()))
                .all(|r| available(r.activity()));
            if all_available {
                return Some(AdaptationPlan {
                    behaviour: alternative.clone(),
                    executed_map,
                    remaining,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qasom_ontology::OntologyBuilder;
    use qasom_task::{TaskClass, TaskNode};

    fn onto() -> Ontology {
        let mut b = OntologyBuilder::new("shop");
        let pay = b.concept("Pay");
        b.subconcept("PayByCard", pay);
        b.concept("Browse");
        b.concept("Order");
        b.concept("Track");
        b.build().unwrap()
    }

    fn act(name: &str, f: &str) -> TaskNode {
        TaskNode::activity(Activity::new(name, f))
    }

    fn task(name: &str, root: TaskNode) -> UserTask {
        UserTask::new(name, root).unwrap()
    }

    #[test]
    fn resume_into_reordered_behaviour() {
        let o = onto();
        let adapter = BehaviouralAdapter::new(&o);
        // v1: browse ; order ; pay    (browse executed)
        // v2: browse ; pay2 ; order2  (different order of the tail)
        let v1 = task(
            "v1",
            TaskNode::sequence([
                act("browse", "shop#Browse"),
                act("order", "shop#Order"),
                act("pay", "shop#Pay"),
            ]),
        );
        let v2 = task(
            "v2",
            TaskNode::sequence([
                act("browse2", "shop#Browse"),
                act("pay2", "shop#Pay"),
                act("order2", "shop#Order"),
            ]),
        );
        let map = adapter.resume_mapping(&v1, &v2, &["browse"]).unwrap();
        assert_eq!(map["browse"], "browse2");
    }

    #[test]
    fn executed_function_must_exist_in_alternative() {
        let o = onto();
        let adapter = BehaviouralAdapter::new(&o);
        let v1 = task(
            "v1",
            TaskNode::sequence([act("browse", "shop#Browse"), act("pay", "shop#Pay")]),
        );
        let v2 = task(
            "v2",
            TaskNode::sequence([act("order", "shop#Order"), act("pay2", "shop#Pay")]),
        );
        assert!(adapter.resume_mapping(&v1, &v2, &["browse"]).is_none());
    }

    #[test]
    fn plugin_functions_are_accepted() {
        let o = onto();
        let adapter = BehaviouralAdapter::new(&o);
        let v1 = task("v1", act("pay", "shop#Pay"));
        // The alternative realises payment with the more specific
        // card-payment activity.
        let v2 = task("v2", act("card", "shop#PayByCard"));
        let map = adapter.resume_mapping(&v1, &v2, &["pay"]).unwrap();
        assert_eq!(map["pay"], "card");
    }

    #[test]
    fn data_constraints_restrict_matches() {
        let o = onto();
        let adapter = BehaviouralAdapter::new(&o);
        let old = Activity::new("a", "shop#Order").with_output("shop#Receipt");
        let new_without_output = Activity::new("b", "shop#Order");
        let new_with_output = Activity::new("c", "shop#Order").with_output("shop#Receipt");
        assert!(!adapter.activities_compatible(&old, &new_without_output));
        assert!(adapter.activities_compatible(&old, &new_with_output));
    }

    #[test]
    fn executed_order_must_be_preserved() {
        let o = onto();
        let adapter = BehaviouralAdapter::new(&o);
        // Both a and b executed, in order a→b.
        let v1 = task(
            "v1",
            TaskNode::sequence([act("a", "shop#Browse"), act("b", "shop#Order")]),
        );
        // Alternative runs them in the opposite order: resumption after
        // a→b cannot be represented.
        let v2 = task(
            "v2",
            TaskNode::sequence([act("b2", "shop#Order"), act("a2", "shop#Browse")]),
        );
        assert!(adapter.resume_mapping(&v1, &v2, &["a", "b"]).is_none());
    }

    #[test]
    fn parallel_prefix_resumes_into_sequential_alternative() {
        let o = onto();
        let adapter = BehaviouralAdapter::new(&o);
        let v1 = task(
            "v1",
            TaskNode::parallel([act("a", "shop#Browse"), act("b", "shop#Order")]),
        );
        // Sequential alternative: a then b. A parallel prefix where only
        // `a` ran so far can resume (the pattern has start→a only).
        let v2 = task(
            "v2",
            TaskNode::sequence([act("a2", "shop#Browse"), act("b2", "shop#Order")]),
        );
        assert!(adapter.resume_mapping(&v1, &v2, &["a"]).is_some());
    }

    #[test]
    fn plan_skips_unrealisable_alternatives() {
        let o = onto();
        let adapter = BehaviouralAdapter::new(&o);
        let v1 = task(
            "v1",
            TaskNode::sequence([act("browse", "shop#Browse"), act("pay", "shop#Pay")]),
        );
        let v2 = task(
            "v2",
            TaskNode::sequence([act("browse2", "shop#Browse"), act("card", "shop#PayByCard")]),
        );
        let v3 = task(
            "v3",
            TaskNode::sequence([act("browse3", "shop#Browse"), act("track", "shop#Track")]),
        );
        let mut class = TaskClass::new("shopping");
        class.add_behaviour(v1.clone());
        class.add_behaviour(v2);
        class.add_behaviour(v3);
        let mut repo = TaskClassRepository::new();
        repo.insert(class);

        // No card-payment service available → v2 rejected, v3 chosen.
        let mut available = |a: &Activity| a.function().local_name() != "PayByCard";
        let plan = adapter
            .plan(&repo, &v1, &["browse"], &mut available)
            .unwrap();
        assert_eq!(plan.behaviour.name(), "v3");
        assert_eq!(plan.executed_map["browse"], "browse3");
        assert_eq!(plan.remaining, vec!["track".to_owned()]);
    }

    #[test]
    fn plan_returns_none_when_no_alternative_fits() {
        let o = onto();
        let adapter = BehaviouralAdapter::new(&o);
        let v1 = task("v1", act("pay", "shop#Pay"));
        let mut class = TaskClass::new("solo");
        class.add_behaviour(v1.clone());
        let mut repo = TaskClassRepository::new();
        repo.insert(class);
        let mut available = |_: &Activity| true;
        assert!(adapter.plan(&repo, &v1, &[], &mut available).is_none());
    }
}
