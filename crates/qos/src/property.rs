//! QoS property definitions (the QoS *core* ontology layer).

use std::fmt;

use qasom_ontology::ConceptId;

use crate::Unit;

/// Opaque handle to a QoS property registered in a
/// [`QosModel`](crate::QosModel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PropertyId(pub(crate) u32);

impl PropertyId {
    /// Index into the model's property table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from its table index. The inverse of
    /// [`PropertyId::index`]; persistence codecs use it to decode stored
    /// QoS vectors. The caller is responsible for pairing it with the
    /// model that produced the index.
    ///
    /// # Panics
    ///
    /// Panics when `i` exceeds the id width.
    pub fn from_index(i: usize) -> Self {
        // Properties register one at a time; a catalogue cannot
        // realistically approach the id width, but keep the bound loud.
        assert!(u32::try_from(i).is_ok(), "more than u32::MAX properties");
        PropertyId(i as u32)
    }
}

impl fmt::Display for PropertyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Whether smaller or larger values of a property are preferable.
///
/// The tendency drives constraint satisfaction (`value ≤ bound` vs
/// `value ≥ bound`), normalisation direction and the pessimistic/optimistic
/// aggregation approaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tendency {
    /// Smaller is better (response time, price, energy…).
    LowerBetter,
    /// Larger is better (availability, throughput, reputation…).
    HigherBetter,
}

impl Tendency {
    /// The worse of two values under this tendency.
    pub fn worse(self, a: f64, b: f64) -> f64 {
        match self {
            Tendency::LowerBetter => a.max(b),
            Tendency::HigherBetter => a.min(b),
        }
    }

    /// The better of two values under this tendency.
    pub fn better(self, a: f64, b: f64) -> f64 {
        match self {
            Tendency::LowerBetter => a.min(b),
            Tendency::HigherBetter => a.max(b),
        }
    }

    /// Whether `a` is at least as good as `b`.
    pub fn at_least_as_good(self, a: f64, b: f64) -> bool {
        match self {
            Tendency::LowerBetter => a <= b,
            Tendency::HigherBetter => a >= b,
        }
    }
}

/// Category of a property in the QoS core ontology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Category {
    /// Timeliness and capacity (response time, throughput, bandwidth…).
    Performance,
    /// Availability, reliability, accuracy.
    Dependability,
    /// Monetary and energy cost.
    Cost,
    /// Confidentiality, integrity, authentication level.
    Security,
    /// Community feedback about a provider.
    Reputation,
    /// Transactional guarantees (atomicity/compensation support).
    Transaction,
    /// Anything registered by an application domain.
    Domain,
}

/// The architectural layer a property is measured at — the *end-to-end*
/// aspect of the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// Application-service level (advertised by providers).
    Service,
    /// Network level (links between nodes).
    Network,
    /// Device level (the node hosting a service).
    Device,
    /// User level (the vocabulary requests are phrased in).
    User,
}

/// Default aggregation operator of a property across a *sequence* of
/// activities (Table IV.1 of the original evaluation).
///
/// Pattern-specific aggregation (parallel, choice, loop) is derived from
/// this operator by the composition engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregationOp {
    /// Values add up (response time, price, energy).
    Sum,
    /// Values multiply (availability, reliability — probabilities of
    /// independent successes).
    Product,
    /// The minimum dominates (throughput, bandwidth of a pipeline).
    Min,
    /// The maximum dominates (used for parallel response time).
    Max,
    /// The arithmetic mean is reported (reputation, encoding quality).
    Average,
}

/// How non-deterministic patterns (choice, loop) are folded into one
/// number.
///
/// * **Pessimistic** — assume the worst branch / the maximum iteration
///   count: the aggregate is a guarantee.
/// * **Optimistic** — assume the best branch / a single iteration: the
///   aggregate is a best case.
/// * **MeanValue** — probability-weighted branches and expected iteration
///   counts: the aggregate is an expectation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggregationApproach {
    /// Worst-case folding.
    Pessimistic,
    /// Best-case folding.
    Optimistic,
    /// Expected-value folding.
    MeanValue,
}

/// Full definition of a QoS property: the record a
/// [`QosModel`](crate::QosModel) keeps per property.
#[derive(Debug, Clone)]
pub struct PropertyDef {
    pub(crate) name: String,
    pub(crate) concept: ConceptId,
    pub(crate) tendency: Tendency,
    pub(crate) unit: Unit,
    pub(crate) category: Category,
    pub(crate) layer: Layer,
    pub(crate) aggregation: AggregationOp,
}

impl PropertyDef {
    /// Human-readable property name (unique within the model).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ontology concept this property denotes.
    pub fn concept(&self) -> ConceptId {
        self.concept
    }

    /// Whether lower or higher values are better.
    pub fn tendency(&self) -> Tendency {
        self.tendency
    }

    /// Canonical unit values of this property are stored in.
    pub fn unit(&self) -> Unit {
        self.unit
    }

    /// Core-ontology category.
    pub fn category(&self) -> Category {
        self.category
    }

    /// Architectural layer the property is measured at.
    pub fn layer(&self) -> Layer {
        self.layer
    }

    /// Default sequence-aggregation operator.
    pub fn aggregation(&self) -> AggregationOp {
        self.aggregation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_and_better_respect_tendency() {
        assert_eq!(Tendency::LowerBetter.worse(10.0, 20.0), 20.0);
        assert_eq!(Tendency::LowerBetter.better(10.0, 20.0), 10.0);
        assert_eq!(Tendency::HigherBetter.worse(0.9, 0.99), 0.9);
        assert_eq!(Tendency::HigherBetter.better(0.9, 0.99), 0.99);
    }

    #[test]
    fn at_least_as_good_is_reflexive() {
        for t in [Tendency::LowerBetter, Tendency::HigherBetter] {
            assert!(t.at_least_as_good(5.0, 5.0));
        }
    }

    #[test]
    fn at_least_as_good_orders_by_tendency() {
        assert!(Tendency::LowerBetter.at_least_as_good(5.0, 10.0));
        assert!(!Tendency::LowerBetter.at_least_as_good(10.0, 5.0));
        assert!(Tendency::HigherBetter.at_least_as_good(10.0, 5.0));
        assert!(!Tendency::HigherBetter.at_least_as_good(5.0, 10.0));
    }
}
