//! Concept taxonomy with subsumption reasoning.

use std::collections::HashMap;
use std::fmt;

use crate::matching::MatchDegree;
use crate::Iri;

/// Opaque handle to a concept inside an [`Ontology`].
///
/// Handles are allocated by [`OntologyBuilder`] and stay valid for the
/// ontology built from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConceptId(u32);

impl ConceptId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    pub(crate) fn from_index(i: usize) -> Self {
        // Saturate rather than panic: ontologies are loaded from bounded
        // descriptions and cannot reach u32::MAX concepts.
        ConceptId(u32::try_from(i).unwrap_or(u32::MAX))
    }
}

/// Errors produced while building or querying an [`Ontology`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OntologyError {
    /// The `subClassOf` relation contains a cycle involving this concept.
    Cycle(Iri),
    /// Two concepts with the same IRI were declared.
    DuplicateConcept(Iri),
    /// A query referenced an IRI that is not part of the ontology.
    UnknownConcept(Iri),
}

impl fmt::Display for OntologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OntologyError::Cycle(iri) => {
                write!(f, "subClassOf cycle involving concept {iri}")
            }
            OntologyError::DuplicateConcept(iri) => {
                write!(f, "concept {iri} declared twice")
            }
            OntologyError::UnknownConcept(iri) => {
                write!(f, "unknown concept {iri}")
            }
        }
    }
}

impl std::error::Error for OntologyError {}

/// A dense bitset, one bit per concept.
#[derive(Debug, Clone, Default)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn with_capacity(bits: usize) -> Self {
        BitSet {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    fn union_with(&mut self, other: &BitSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    fn intersects(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64).filter_map(move |b| (w & (1 << b) != 0).then_some(wi * 64 + b))
        })
    }
}

#[derive(Debug, Clone)]
struct ConceptData {
    iri: Iri,
    parents: Vec<ConceptId>,
    children: Vec<ConceptId>,
}

/// Incrementally builds an [`Ontology`].
///
/// The builder allocates [`ConceptId`]s eagerly so concepts can reference
/// each other before the taxonomy is finalised; [`OntologyBuilder::build`]
/// validates the result (acyclicity, well-formed equivalences) and
/// precomputes the reasoning indexes.
///
/// # Examples
///
/// ```
/// use qasom_ontology::OntologyBuilder;
///
/// let mut b = OntologyBuilder::new("qos");
/// let quality = b.concept("Quality");
/// let perf = b.subconcept("Performance", quality);
/// let latency = b.subconcept("Latency", perf);
/// let onto = b.build().unwrap();
/// assert!(onto.is_subconcept_of(latency, quality));
/// ```
#[derive(Debug, Clone)]
pub struct OntologyBuilder {
    default_ns: String,
    concepts: Vec<ConceptData>,
    by_iri: HashMap<Iri, ConceptId>,
    equivalences: Vec<(ConceptId, ConceptId)>,
}

impl OntologyBuilder {
    /// Creates a builder whose bare concept names live in `default_ns`.
    pub fn new(default_ns: impl Into<String>) -> Self {
        OntologyBuilder {
            default_ns: default_ns.into(),
            concepts: Vec::new(),
            by_iri: HashMap::new(),
            equivalences: Vec::new(),
        }
    }

    /// Declares (or returns the existing) root concept named `local` in the
    /// builder's default namespace.
    pub fn concept(&mut self, local: &str) -> ConceptId {
        let iri = Iri::new(self.default_ns.clone(), local);
        self.concept_iri(iri)
    }

    /// Declares (or returns the existing) concept with an explicit IRI.
    pub fn concept_iri(&mut self, iri: Iri) -> ConceptId {
        if let Some(&id) = self.by_iri.get(&iri) {
            return id;
        }
        let id = ConceptId::from_index(self.concepts.len());
        self.by_iri.insert(iri.clone(), id);
        self.concepts.push(ConceptData {
            iri,
            parents: Vec::new(),
            children: Vec::new(),
        });
        id
    }

    /// Declares a concept named `local` as a subconcept of `parent`.
    pub fn subconcept(&mut self, local: &str, parent: ConceptId) -> ConceptId {
        let id = self.concept(local);
        self.subclass(id, parent);
        id
    }

    /// Declares a concept with an explicit IRI as a subconcept of `parent`.
    pub fn subconcept_iri(&mut self, iri: Iri, parent: ConceptId) -> ConceptId {
        let id = self.concept_iri(iri);
        self.subclass(id, parent);
        id
    }

    /// Records `child subClassOf parent`. Duplicate edges are ignored.
    pub fn subclass(&mut self, child: ConceptId, parent: ConceptId) {
        if child == parent {
            // A reflexive edge carries no information: subsumption is
            // reflexive by definition. Recording it would only create a
            // spurious self-cycle.
            return;
        }
        if !self.concepts[child.index()].parents.contains(&parent) {
            self.concepts[child.index()].parents.push(parent);
            self.concepts[parent.index()].children.push(child);
        }
    }

    /// Records that `a` and `b` denote the same concept (cross-vocabulary
    /// alignment, the `owl:equivalentClass` of the original ontologies).
    pub fn equivalent(&mut self, a: ConceptId, b: ConceptId) {
        self.equivalences.push((a, b));
    }

    /// Number of declared concepts.
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    /// Whether no concept has been declared yet.
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }

    /// Finalises the ontology.
    ///
    /// # Errors
    ///
    /// Returns [`OntologyError::Cycle`] if the `subClassOf` relation
    /// (quotiented by the declared equivalences) is cyclic.
    pub fn build(self) -> Result<Ontology, OntologyError> {
        let n = self.concepts.len();

        // Resolve equivalence classes with a union-find.
        let mut uf: Vec<usize> = (0..n).collect();
        fn find(uf: &mut [usize], mut x: usize) -> usize {
            while uf[x] != x {
                uf[x] = uf[uf[x]];
                x = uf[x];
            }
            x
        }
        for &(a, b) in &self.equivalences {
            let (ra, rb) = (find(&mut uf, a.index()), find(&mut uf, b.index()));
            if ra != rb {
                uf[ra.max(rb)] = ra.min(rb);
            }
        }
        let canonical: Vec<ConceptId> = (0..n)
            .map(|i| {
                let root = find(&mut uf, i);
                ConceptId::from_index(root)
            })
            .collect();

        // Canonicalised parent lists.
        let mut parents: Vec<Vec<ConceptId>> = vec![Vec::new(); n];
        let mut children: Vec<Vec<ConceptId>> = vec![Vec::new(); n];
        for (i, data) in self.concepts.iter().enumerate() {
            let ci = canonical[i];
            for &p in &data.parents {
                let cp = canonical[p.index()];
                if cp != ci && !parents[ci.index()].contains(&cp) {
                    parents[ci.index()].push(cp);
                    children[cp.index()].push(ci);
                }
            }
        }

        // Topological sort over canonical representatives to detect cycles
        // and to compute the transitive closure bottom-up.
        let mut indegree = vec![0usize; n];
        let mut is_canon = vec![false; n];
        for i in 0..n {
            is_canon[canonical[i].index()] = true;
        }
        for i in 0..n {
            if is_canon[i] {
                for p in &parents[i] {
                    indegree[p.index()] += 1;
                }
            }
        }
        let mut queue: Vec<usize> = (0..n)
            .filter(|&i| is_canon[i] && indegree[i] == 0)
            .collect();
        let mut topo = Vec::with_capacity(n);
        while let Some(i) = queue.pop() {
            topo.push(i);
            for p in &parents[i] {
                indegree[p.index()] -= 1;
                if indegree[p.index()] == 0 {
                    queue.push(p.index());
                }
            }
        }
        let canon_count = is_canon.iter().filter(|&&c| c).count();
        if topo.len() != canon_count {
            // A cycle always leaves a canonical node with positive
            // indegree; fall back to concept 0 rather than panicking if
            // that reasoning is ever wrong.
            let culprit = (0..n)
                .find(|&i| is_canon[i] && indegree[i] > 0)
                .unwrap_or(0);
            return Err(OntologyError::Cycle(self.concepts[culprit].iri.clone()));
        }

        // Reflexive-transitive ancestor sets, processed leaves-first so a
        // concept's set can absorb its parents' completed sets.
        let mut ancestors: Vec<BitSet> = (0..n).map(|_| BitSet::with_capacity(n)).collect();
        for &i in topo.iter().rev() {
            // topo ends at roots; iterate roots-first
            let mut set = BitSet::with_capacity(n);
            set.set(i);
            for p in parents[i].clone() {
                let parent_set = ancestors[p.index()].clone();
                set.union_with(&parent_set);
            }
            ancestors[i] = set;
        }

        // Depth = longest subclass chain from any root (roots have depth 0).
        let mut depth = vec![0u32; n];
        for &i in topo.iter().rev() {
            depth[i] = parents[i]
                .iter()
                .map(|p| depth[p.index()] + 1)
                .max()
                .unwrap_or(0);
        }

        // Share ancestor/depth data across each equivalence class so that
        // queries on non-canonical ids behave identically.
        for i in 0..n {
            let c = canonical[i].index();
            if c != i {
                ancestors[i] = ancestors[c].clone();
                depth[i] = depth[c];
            }
        }

        Ok(Ontology {
            concepts: self.concepts,
            by_iri: self.by_iri,
            canonical,
            parents,
            children,
            ancestors,
            depth,
            stamp: next_stamp(),
        })
    }
}

/// Allocates a process-unique stamp for a freshly built ontology.
fn next_stamp() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// An immutable concept taxonomy with precomputed subsumption indexes.
///
/// Built via [`OntologyBuilder`]. All queries canonicalise their arguments
/// through the declared equivalence classes first, so aligning two
/// vocabularies is a matter of a few [`OntologyBuilder::equivalent`] calls.
#[derive(Debug, Clone)]
pub struct Ontology {
    concepts: Vec<ConceptData>,
    by_iri: HashMap<Iri, ConceptId>,
    canonical: Vec<ConceptId>,
    parents: Vec<Vec<ConceptId>>,
    children: Vec<Vec<ConceptId>>,
    ancestors: Vec<BitSet>,
    depth: Vec<u32>,
    stamp: u64,
}

impl Ontology {
    /// A process-unique stamp identifying this built taxonomy.
    ///
    /// Each [`OntologyBuilder::build`] call allocates a fresh stamp;
    /// clones share it (they answer queries identically). Discovery
    /// compares it with the stamp of the ontology a registry's capability
    /// index was built over to decide whether the index answers for it.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Looks a concept up by IRI.
    pub fn concept(&self, iri: &Iri) -> Option<ConceptId> {
        self.by_iri.get(iri).copied()
    }

    /// Looks a concept up by IRI, returning an error for unknown IRIs.
    ///
    /// # Errors
    ///
    /// Returns [`OntologyError::UnknownConcept`] when the IRI was never
    /// declared.
    pub fn require(&self, iri: &Iri) -> Result<ConceptId, OntologyError> {
        self.concept(iri)
            .ok_or_else(|| OntologyError::UnknownConcept(iri.clone()))
    }

    /// The IRI a concept was declared under.
    pub fn iri(&self, id: ConceptId) -> &Iri {
        &self.concepts[id.index()].iri
    }

    /// Number of declared concepts (equivalent concepts count separately).
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    /// Whether the ontology declares no concept.
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }

    /// Iterates over every declared concept handle.
    pub fn iter(&self) -> impl Iterator<Item = ConceptId> + '_ {
        (0..self.concepts.len()).map(ConceptId::from_index)
    }

    /// The canonical representative of `id`'s equivalence class.
    ///
    /// Equivalent concepts share one representative; indexes keyed by
    /// concept (such as the registry's capability index) store and probe
    /// canonical ids so declared equivalences cost nothing at query time.
    pub fn canon(&self, id: ConceptId) -> ConceptId {
        self.canonical[id.index()]
    }

    /// Whether `a` and `b` denote the same concept (identical or declared
    /// equivalent).
    pub fn same_concept(&self, a: ConceptId, b: ConceptId) -> bool {
        self.canon(a) == self.canon(b)
    }

    /// Reflexive subsumption test: is `sub` a subconcept of `sup`?
    pub fn is_subconcept_of(&self, sub: ConceptId, sup: ConceptId) -> bool {
        self.ancestors[sub.index()].get(self.canon(sup).index())
    }

    /// Direct superconcepts of `id`.
    pub fn parents(&self, id: ConceptId) -> &[ConceptId] {
        &self.parents[self.canon(id).index()]
    }

    /// Direct subconcepts of `id`.
    pub fn children(&self, id: ConceptId) -> &[ConceptId] {
        &self.children[self.canon(id).index()]
    }

    /// Longest `subClassOf` chain from a root down to `id`.
    pub fn depth(&self, id: ConceptId) -> u32 {
        self.depth[id.index()]
    }

    /// All (canonical) ancestors of `id`, including itself.
    pub fn ancestors(&self, id: ConceptId) -> impl Iterator<Item = ConceptId> + '_ {
        self.ancestors[id.index()]
            .iter_ones()
            .map(ConceptId::from_index)
    }

    /// All concepts subsumed by `id`, including itself (query expansion:
    /// everything that can *plug into* a request for `id`).
    pub fn descendants(&self, id: ConceptId) -> impl Iterator<Item = ConceptId> + '_ {
        self.iter().filter(move |&c| self.is_subconcept_of(c, id))
    }

    /// The root concepts (no superconcept).
    pub fn roots(&self) -> impl Iterator<Item = ConceptId> + '_ {
        self.iter()
            .filter(move |&c| self.canon(c) == c && self.parents(c).is_empty())
    }

    /// Deepest common ancestor of `a` and `b`, if any.
    ///
    /// Ties are broken towards the smallest concept id, which makes the
    /// result deterministic across runs.
    pub fn lca(&self, a: ConceptId, b: ConceptId) -> Option<ConceptId> {
        let (sa, sb) = (&self.ancestors[a.index()], &self.ancestors[b.index()]);
        let mut best: Option<ConceptId> = None;
        for i in sa.iter_ones() {
            if sb.get(i) {
                let cand = ConceptId::from_index(i);
                match best {
                    Some(cur) if self.depth[cur.index()] >= self.depth[i] => {}
                    _ => best = Some(cand),
                }
            }
        }
        best
    }

    /// Whether the two concepts share any ancestor at all.
    pub fn related(&self, a: ConceptId, b: ConceptId) -> bool {
        self.ancestors[a.index()].intersects(&self.ancestors[b.index()])
    }

    /// Semantic match degree between a *required* concept and an *offered*
    /// concept, following the classical service-matchmaking lattice; see
    /// [`MatchDegree`] for the exact rules.
    pub fn match_degree(&self, required: ConceptId, offered: ConceptId) -> MatchDegree {
        if self.same_concept(required, offered) {
            MatchDegree::Exact
        } else if self.is_subconcept_of(offered, required) {
            MatchDegree::PlugIn
        } else if self.is_subconcept_of(required, offered) {
            MatchDegree::Subsumes
        } else if self
            .lca(required, offered)
            .is_some_and(|l| self.depth(l) > 0)
        {
            MatchDegree::Intersection
        } else {
            MatchDegree::Fail
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Ontology, ConceptId, ConceptId, ConceptId, ConceptId) {
        let mut b = OntologyBuilder::new("qos");
        let quality = b.concept("Quality");
        let perf = b.subconcept("Performance", quality);
        let latency = b.subconcept("Latency", perf);
        let throughput = b.subconcept("Throughput", perf);
        let onto = b.build().unwrap();
        (onto, quality, perf, latency, throughput)
    }

    #[test]
    fn subsumption_is_reflexive_and_transitive() {
        let (o, quality, perf, latency, _) = sample();
        assert!(o.is_subconcept_of(latency, latency));
        assert!(o.is_subconcept_of(latency, perf));
        assert!(o.is_subconcept_of(latency, quality));
        assert!(!o.is_subconcept_of(quality, latency));
    }

    #[test]
    fn depth_counts_longest_chain() {
        let (o, quality, perf, latency, _) = sample();
        assert_eq!(o.depth(quality), 0);
        assert_eq!(o.depth(perf), 1);
        assert_eq!(o.depth(latency), 2);
    }

    #[test]
    fn lca_of_siblings_is_parent() {
        let (o, _, perf, latency, throughput) = sample();
        assert_eq!(o.lca(latency, throughput), Some(perf));
    }

    #[test]
    fn lca_with_self_is_self() {
        let (o, _, _, latency, _) = sample();
        assert_eq!(o.lca(latency, latency), Some(latency));
    }

    #[test]
    fn detects_cycles() {
        let mut b = OntologyBuilder::new("x");
        let a = b.concept("A");
        let c = b.subconcept("B", a);
        b.subclass(a, c);
        assert!(matches!(b.build(), Err(OntologyError::Cycle(_))));
    }

    #[test]
    fn self_edge_is_ignored() {
        let mut b = OntologyBuilder::new("x");
        let a = b.concept("A");
        b.subclass(a, a);
        assert!(b.build().is_ok());
    }

    #[test]
    fn equivalence_aligns_vocabularies() {
        let mut b = OntologyBuilder::new("qos");
        let latency = b.concept("Latency");
        let delay = b.concept_iri(Iri::new("user", "Delay"));
        b.equivalent(latency, delay);
        let o = b.build().unwrap();
        assert!(o.same_concept(latency, delay));
        assert_eq!(o.match_degree(delay, latency), MatchDegree::Exact);
    }

    #[test]
    fn equivalence_propagates_subsumption() {
        let mut b = OntologyBuilder::new("qos");
        let perf = b.concept("Performance");
        let latency = b.subconcept("Latency", perf);
        let delay = b.concept_iri(Iri::new("user", "Delay"));
        b.equivalent(latency, delay);
        let o = b.build().unwrap();
        assert!(o.is_subconcept_of(delay, perf));
    }

    #[test]
    fn match_degrees_follow_the_lattice() {
        let (o, quality, perf, latency, throughput) = sample();
        assert_eq!(o.match_degree(latency, latency), MatchDegree::Exact);
        assert_eq!(o.match_degree(perf, latency), MatchDegree::PlugIn);
        assert_eq!(o.match_degree(latency, perf), MatchDegree::Subsumes);
        // Siblings under a non-root share Performance => intersection.
        assert_eq!(
            o.match_degree(latency, throughput),
            MatchDegree::Intersection
        );
        // Two distinct roots fail.
        let mut b = OntologyBuilder::new("z");
        let r1 = b.concept("R1");
        let r2 = b.concept("R2");
        let o2 = b.build().unwrap();
        assert_eq!(o2.match_degree(r1, r2), MatchDegree::Fail);
        let _ = quality;
    }

    #[test]
    fn require_reports_unknown_iri() {
        let (o, ..) = sample();
        let missing = Iri::new("qos", "Nope");
        assert_eq!(
            o.require(&missing),
            Err(OntologyError::UnknownConcept(missing))
        );
    }

    #[test]
    fn concept_declaration_is_idempotent() {
        let mut b = OntologyBuilder::new("qos");
        let a = b.concept("A");
        let a2 = b.concept("A");
        assert_eq!(a, a2);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn multiple_parents_are_supported() {
        let mut b = OntologyBuilder::new("qos");
        let perf = b.concept("Performance");
        let cost = b.concept("Cost");
        let premium = b.subconcept("PremiumLatency", perf);
        b.subclass(premium, cost);
        let o = b.build().unwrap();
        assert!(o.is_subconcept_of(premium, perf));
        assert!(o.is_subconcept_of(premium, cost));
        assert_eq!(o.parents(premium).len(), 2);
    }

    #[test]
    fn descendants_mirror_ancestors() {
        let (o, quality, perf, latency, throughput) = sample();
        let desc: Vec<_> = o.descendants(perf).collect();
        assert!(desc.contains(&perf));
        assert!(desc.contains(&latency));
        assert!(desc.contains(&throughput));
        assert!(!desc.contains(&quality));
        assert_eq!(o.descendants(latency).count(), 1);
    }

    #[test]
    fn roots_are_parentless() {
        let (o, quality, ..) = sample();
        let roots: Vec<_> = o.roots().collect();
        assert_eq!(roots, vec![quality]);
    }

    #[test]
    fn ancestors_iterates_reflexively() {
        let (o, quality, perf, latency, _) = sample();
        let anc: Vec<_> = o.ancestors(latency).collect();
        assert!(anc.contains(&latency));
        assert!(anc.contains(&perf));
        assert!(anc.contains(&quality));
        assert_eq!(anc.len(), 3);
    }
}
