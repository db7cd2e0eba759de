//! The QoS model: property catalogue + alignment ontology.

use std::collections::HashMap;
use std::fmt;

use qasom_ontology::{ConceptId, Iri, MatchDegree, Ontology, OntologyBuilder, OntologyError};

use crate::{AggregationOp, Category, Constraint, Layer, PropertyDef, PropertyId, Tendency, Unit};

/// Errors raised while building or querying a [`QosModel`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QosModelError {
    /// Two properties were registered under the same name.
    DuplicateProperty(String),
    /// A referenced property name is not part of the model.
    UnknownProperty(String),
    /// The underlying ontology rejected the vocabulary.
    Ontology(OntologyError),
}

impl fmt::Display for QosModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QosModelError::DuplicateProperty(n) => {
                write!(f, "QoS property {n:?} registered twice")
            }
            QosModelError::UnknownProperty(n) => write!(f, "unknown QoS property {n:?}"),
            QosModelError::Ontology(e) => write!(f, "QoS ontology error: {e}"),
        }
    }
}

impl std::error::Error for QosModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QosModelError::Ontology(e) => Some(e),
            _ => None,
        }
    }
}

impl From<OntologyError> for QosModelError {
    fn from(e: OntologyError) -> Self {
        QosModelError::Ontology(e)
    }
}

/// Declarative description of a QoS property, consumed by
/// [`QosModelBuilder::add`].
///
/// Unspecified fields default to: higher-is-better tendency, dimensionless
/// unit, [`Category::Domain`], [`Layer::Service`], average aggregation, the
/// `qos` namespace, category concept as taxonomy parent.
///
/// # Examples
///
/// ```
/// use qasom_qos::{AggregationOp, Category, PropertySpec, Tendency, Unit};
///
/// let spec = PropertySpec::new("DeliveryDelay")
///     .tendency(Tendency::LowerBetter)
///     .unit(Unit::Seconds)
///     .category(Category::Performance)
///     .aggregation(AggregationOp::Sum);
/// assert_eq!(spec.name(), "DeliveryDelay");
/// ```
#[derive(Debug, Clone)]
pub struct PropertySpec {
    name: String,
    namespace: String,
    tendency: Tendency,
    unit: Unit,
    category: Category,
    layer: Layer,
    aggregation: AggregationOp,
    parent: Option<String>,
    equivalent_to: Vec<String>,
}

impl PropertySpec {
    /// Starts a spec for a property called `name` (unique in the model).
    pub fn new(name: impl Into<String>) -> Self {
        PropertySpec {
            name: name.into(),
            namespace: "qos".to_owned(),
            tendency: Tendency::HigherBetter,
            unit: Unit::Dimensionless,
            category: Category::Domain,
            layer: Layer::Service,
            aggregation: AggregationOp::Average,
            parent: None,
            equivalent_to: Vec::new(),
        }
    }

    /// The property name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the vocabulary namespace of the property's concept.
    pub fn namespace(mut self, ns: impl Into<String>) -> Self {
        self.namespace = ns.into();
        self
    }

    /// Sets the tendency (default: higher is better).
    pub fn tendency(mut self, t: Tendency) -> Self {
        self.tendency = t;
        self
    }

    /// Sets the canonical unit. The value is stored after conversion to the
    /// unit's canonical form, so e.g. `Unit::Seconds` behaves as
    /// milliseconds internally.
    pub fn unit(mut self, u: Unit) -> Self {
        self.unit = u.canonical();
        self
    }

    /// Sets the core-ontology category (default: [`Category::Domain`]).
    pub fn category(mut self, c: Category) -> Self {
        self.category = c;
        self
    }

    /// Sets the measurement layer (default: [`Layer::Service`]).
    pub fn layer(mut self, l: Layer) -> Self {
        self.layer = l;
        self
    }

    /// Sets the default sequence-aggregation operator.
    pub fn aggregation(mut self, a: AggregationOp) -> Self {
        self.aggregation = a;
        self
    }

    /// Places the property's concept under another *property's* concept in
    /// the taxonomy instead of under its category concept.
    pub fn subproperty_of(mut self, parent_property: impl Into<String>) -> Self {
        self.parent = Some(parent_property.into());
        self
    }

    /// Declares this property semantically equivalent to an existing one
    /// (cross-vocabulary alignment, e.g. `user#Delay` ≡ `qos#ResponseTime`).
    pub fn equivalent_to(mut self, property: impl Into<String>) -> Self {
        self.equivalent_to.push(property.into());
        self
    }
}

/// Builds a [`QosModel`]: core scaffold + registered properties.
#[derive(Debug)]
pub struct QosModelBuilder {
    onto: OntologyBuilder,
    root: ConceptId,
    category_concepts: Vec<(Category, ConceptId)>,
    specs: Vec<(PropertySpec, ConceptId)>,
    by_name: HashMap<String, usize>,
    error: Option<QosModelError>,
}

impl Default for QosModelBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl QosModelBuilder {
    /// Creates a builder pre-populated with the QoS *core* scaffold
    /// (the `Quality` root and its category concepts) but no properties.
    pub fn new() -> Self {
        let mut onto = OntologyBuilder::new("qos");
        let root = onto.concept("Quality");
        let category_concepts = CATEGORY_CONCEPTS
            .iter()
            .map(|&(name, cat)| (cat, onto.subconcept(name, root)))
            .collect();
        QosModelBuilder {
            onto,
            root,
            category_concepts,
            specs: Vec::new(),
            by_name: HashMap::new(),
            error: None,
        }
    }

    /// Registers a property, returning its future id.
    ///
    /// Errors (duplicate names, unknown parents) are deferred to
    /// [`QosModelBuilder::build`] so specs can be chained fluently.
    pub fn add(&mut self, spec: PropertySpec) -> PropertyId {
        let id = PropertyId::from_index(self.specs.len());
        if self.by_name.contains_key(&spec.name) {
            self.error
                .get_or_insert(QosModelError::DuplicateProperty(spec.name.clone()));
            return id;
        }

        let parent_concept = match &spec.parent {
            Some(parent_name) => match self.by_name.get(parent_name) {
                Some(&idx) => self.specs[idx].1,
                None => {
                    self.error
                        .get_or_insert(QosModelError::UnknownProperty(parent_name.clone()));
                    self.root
                }
            },
            // Every current category has a scaffold concept; a variant
            // added under `#[non_exhaustive]` without one parents under
            // the `Quality` root rather than panicking mid-registration.
            None => self
                .category_concepts
                .iter()
                .find(|&&(cat, _)| cat == spec.category)
                .map_or(self.root, |&(_, concept)| concept),
        };

        let iri = Iri::new(spec.namespace.clone(), spec.name.clone());
        let concept = self.onto.subconcept_iri(iri, parent_concept);

        for eq_name in spec.equivalent_to.clone() {
            match self.by_name.get(&eq_name) {
                Some(&idx) => {
                    let other = self.specs[idx].1;
                    self.onto.equivalent(concept, other);
                }
                None => {
                    self.error
                        .get_or_insert(QosModelError::UnknownProperty(eq_name));
                }
            }
        }

        self.by_name.insert(spec.name.clone(), self.specs.len());
        self.specs.push((spec, concept));
        id
    }

    /// Finalises the model.
    ///
    /// # Errors
    ///
    /// Reports the first deferred registration error, or an ontology error
    /// if the declared taxonomy is ill-formed.
    pub fn build(self) -> Result<QosModel, QosModelError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        let ontology = self.onto.build()?;
        let mut props = Vec::with_capacity(self.specs.len());
        let mut by_name = HashMap::new();
        for (i, (spec, concept)) in self.specs.into_iter().enumerate() {
            let id = PropertyId::from_index(i);
            by_name.insert(spec.name.clone(), id);
            props.push(PropertyDef {
                name: spec.name,
                concept,
                tendency: spec.tendency,
                unit: spec.unit,
                category: spec.category,
                layer: spec.layer,
                aggregation: spec.aggregation,
            });
        }
        Ok(QosModel {
            ontology,
            props,
            by_name,
        })
    }
}

const CATEGORY_CONCEPTS: &[(&str, Category)] = &[
    ("Performance", Category::Performance),
    ("Dependability", Category::Dependability),
    ("Cost", Category::Cost),
    ("Security", Category::Security),
    ("Reputation", Category::Reputation),
    ("Transaction", Category::Transaction),
    ("Domain", Category::Domain),
];

/// The semantic end-to-end QoS model: a property catalogue backed by an
/// alignment [`Ontology`].
///
/// Obtain the reference vocabulary with [`QosModel::standard`], or build a
/// custom one with [`QosModelBuilder`]. The standard vocabulary covers the
/// three measured layers of the original model (service, network, device)
/// plus the user layer aligned onto them through ontology equivalences.
#[derive(Debug, Clone)]
pub struct QosModel {
    ontology: Ontology,
    props: Vec<PropertyDef>,
    by_name: HashMap<String, PropertyId>,
}

impl QosModel {
    /// Builds the standard QASOM vocabulary.
    ///
    /// | Layer | Properties |
    /// |---|---|
    /// | Service | ResponseTime, Throughput, Availability, Reliability, Accuracy, Price, EnergyCost, SecurityLevel, Reputation, EncodingQuality |
    /// | Network | NetworkLatency, Bandwidth, Jitter, PacketLoss, SignalStrength |
    /// | Device | BatteryLevel, CpuLoad, MemoryAvailable |
    /// | User | Delay (≡ ResponseTime), TotalPrice (≡ Price), Trustworthiness (≡ Reputation) |
    pub fn standard() -> Self {
        let mut b = QosModelBuilder::new();

        // Service layer.
        b.add(
            PropertySpec::new("ResponseTime")
                .tendency(Tendency::LowerBetter)
                .unit(Unit::Milliseconds)
                .category(Category::Performance)
                .aggregation(AggregationOp::Sum),
        );
        b.add(
            PropertySpec::new("Throughput")
                .unit(Unit::RequestsPerSecond)
                .category(Category::Performance)
                .aggregation(AggregationOp::Min),
        );
        b.add(
            PropertySpec::new("Availability")
                .unit(Unit::Ratio)
                .category(Category::Dependability)
                .aggregation(AggregationOp::Product),
        );
        b.add(
            PropertySpec::new("Reliability")
                .unit(Unit::Ratio)
                .category(Category::Dependability)
                .aggregation(AggregationOp::Product),
        );
        b.add(
            PropertySpec::new("Accuracy")
                .unit(Unit::Ratio)
                .category(Category::Dependability)
                .aggregation(AggregationOp::Average),
        );
        b.add(
            PropertySpec::new("Price")
                .tendency(Tendency::LowerBetter)
                .unit(Unit::Euro)
                .category(Category::Cost)
                .aggregation(AggregationOp::Sum),
        );
        b.add(
            PropertySpec::new("EnergyCost")
                .tendency(Tendency::LowerBetter)
                .unit(Unit::Millijoules)
                .category(Category::Cost)
                .aggregation(AggregationOp::Sum),
        );
        b.add(
            PropertySpec::new("SecurityLevel")
                .category(Category::Security)
                .aggregation(AggregationOp::Min),
        );
        b.add(
            PropertySpec::new("Reputation")
                .category(Category::Reputation)
                .aggregation(AggregationOp::Average),
        );
        b.add(
            PropertySpec::new("EncodingQuality")
                .category(Category::Performance)
                .aggregation(AggregationOp::Min),
        );
        b.add(
            // 0 = none, 1 = compensation, 2 = full atomicity; the weakest
            // member bounds the composition.
            PropertySpec::new("TransactionSupport")
                .category(Category::Transaction)
                .aggregation(AggregationOp::Min),
        );

        // Network layer.
        b.add(
            PropertySpec::new("NetworkLatency")
                .tendency(Tendency::LowerBetter)
                .unit(Unit::Milliseconds)
                .category(Category::Performance)
                .layer(Layer::Network)
                .aggregation(AggregationOp::Sum),
        );
        b.add(
            PropertySpec::new("Bandwidth")
                .unit(Unit::KilobitsPerSecond)
                .category(Category::Performance)
                .layer(Layer::Network)
                .aggregation(AggregationOp::Min),
        );
        b.add(
            PropertySpec::new("Jitter")
                .tendency(Tendency::LowerBetter)
                .unit(Unit::Milliseconds)
                .category(Category::Performance)
                .layer(Layer::Network)
                .aggregation(AggregationOp::Max),
        );
        b.add(
            // The worst link dominates an end-to-end path, hence Max.
            PropertySpec::new("PacketLoss")
                .tendency(Tendency::LowerBetter)
                .unit(Unit::Ratio)
                .category(Category::Dependability)
                .layer(Layer::Network)
                .aggregation(AggregationOp::Max),
        );
        b.add(
            PropertySpec::new("SignalStrength")
                .unit(Unit::Dbm)
                .category(Category::Performance)
                .layer(Layer::Network)
                .aggregation(AggregationOp::Min),
        );

        // Device layer.
        b.add(
            PropertySpec::new("BatteryLevel")
                .unit(Unit::Ratio)
                .category(Category::Dependability)
                .layer(Layer::Device)
                .aggregation(AggregationOp::Min),
        );
        b.add(
            PropertySpec::new("CpuLoad")
                .tendency(Tendency::LowerBetter)
                .unit(Unit::Ratio)
                .category(Category::Performance)
                .layer(Layer::Device)
                .aggregation(AggregationOp::Max),
        );
        b.add(
            PropertySpec::new("MemoryAvailable")
                .category(Category::Performance)
                .layer(Layer::Device)
                .aggregation(AggregationOp::Min),
        );

        // User layer, aligned on the provider vocabulary.
        b.add(
            PropertySpec::new("Delay")
                .namespace("user")
                .tendency(Tendency::LowerBetter)
                .unit(Unit::Milliseconds)
                .category(Category::Performance)
                .layer(Layer::User)
                .aggregation(AggregationOp::Sum)
                .equivalent_to("ResponseTime"),
        );
        b.add(
            PropertySpec::new("TotalPrice")
                .namespace("user")
                .tendency(Tendency::LowerBetter)
                .unit(Unit::Euro)
                .category(Category::Cost)
                .layer(Layer::User)
                .aggregation(AggregationOp::Sum)
                .equivalent_to("Price"),
        );
        b.add(
            PropertySpec::new("Trustworthiness")
                .namespace("user")
                .category(Category::Reputation)
                .layer(Layer::User)
                .aggregation(AggregationOp::Average)
                .equivalent_to("Reputation"),
        );

        match b.build() {
            Ok(model) => model,
            // The standard vocabulary is a static literal; failing to
            // build is a defect in this file, not a runtime condition.
            Err(e) => panic!("standard vocabulary failed to build: {e}"),
        }
    }

    /// The alignment ontology behind the model.
    pub fn ontology(&self) -> &Ontology {
        &self.ontology
    }

    /// Looks a property up by name.
    pub fn property(&self, name: &str) -> Option<PropertyId> {
        self.by_name.get(name).copied()
    }

    /// Looks a property up by name, erroring on unknown names.
    ///
    /// # Errors
    ///
    /// Returns [`QosModelError::UnknownProperty`] when absent.
    pub fn require(&self, name: &str) -> Result<PropertyId, QosModelError> {
        self.property(name)
            .ok_or_else(|| QosModelError::UnknownProperty(name.to_owned()))
    }

    /// Full definition of a property.
    pub fn def(&self, id: PropertyId) -> &PropertyDef {
        &self.props[id.index()]
    }

    /// Shorthand for `def(id).tendency()`.
    pub fn tendency(&self, id: PropertyId) -> Tendency {
        self.def(id).tendency
    }

    /// Number of registered properties.
    pub fn len(&self) -> usize {
        self.props.len()
    }

    /// Whether the model has no property.
    pub fn is_empty(&self) -> bool {
        self.props.is_empty()
    }

    /// Iterates over all property ids.
    pub fn iter(&self) -> impl Iterator<Item = PropertyId> + '_ {
        (0..self.props.len()).map(PropertyId::from_index)
    }

    /// Properties measured at a given layer.
    pub fn layer_properties(&self, layer: Layer) -> impl Iterator<Item = PropertyId> + '_ {
        self.iter().filter(move |&id| self.def(id).layer == layer)
    }

    /// Semantic match degree between a required and an offered property.
    pub fn match_property(&self, required: PropertyId, offered: PropertyId) -> MatchDegree {
        self.ontology
            .match_degree(self.def(required).concept, self.def(offered).concept)
    }

    /// The best usable (exact or plug-in) match for `required` among
    /// `offered`, together with its degree. Exact matches win over plug-in
    /// ones; ties break towards the first offer.
    pub fn best_match(
        &self,
        required: PropertyId,
        offered: impl IntoIterator<Item = PropertyId>,
    ) -> Option<(PropertyId, MatchDegree)> {
        offered
            .into_iter()
            .map(|o| (o, self.match_property(required, o)))
            .filter(|(_, d)| d.is_usable())
            .max_by_key(|&(o, d)| (d, std::cmp::Reverse(o)))
    }

    /// Resolves a property (typically user-layer) onto the best matching
    /// property of another layer.
    pub fn resolve_to_layer(&self, required: PropertyId, layer: Layer) -> Option<PropertyId> {
        if self.def(required).layer == layer {
            return Some(required);
        }
        self.best_match(required, self.layer_properties(layer))
            .map(|(p, _)| p)
    }

    /// Renders a QoS vector with property names and unit symbols, e.g.
    /// `ResponseTime: 450 ms, Price: 24 EUR`.
    ///
    /// # Examples
    ///
    /// ```
    /// use qasom_qos::{QosModel, QosVector};
    ///
    /// let model = QosModel::standard();
    /// let rt = model.property("ResponseTime").unwrap();
    /// let mut v = QosVector::new();
    /// v.set(rt, 450.0);
    /// assert_eq!(model.format_vector(&v), "ResponseTime: 450 ms");
    /// ```
    pub fn format_vector(&self, qos: &crate::QosVector) -> String {
        let mut out = String::new();
        for (i, (p, v)) in qos.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let def = self.def(p);
            out.push_str(def.name());
            out.push_str(": ");
            // Trim float noise for readability.
            if (v - v.round()).abs() < 1e-9 && v.abs() < 1e15 {
                out.push_str(&format!("{}", v.round() as i64));
            } else {
                out.push_str(&format!("{v:.3}"));
            }
            let unit = def.unit();
            if unit != crate::Unit::Dimensionless {
                out.push(' ');
                out.push_str(&unit.to_string());
            }
        }
        out
    }

    /// Builds a [`Constraint`] on a named property, converting `bound` from
    /// `unit` to the property's canonical unit.
    ///
    /// # Errors
    ///
    /// Fails on unknown property names; unit mismatches fall back to the
    /// raw value (the caller opted out of unit safety by naming the wrong
    /// dimension) — use [`Unit::convert`] directly for checked conversion.
    pub fn constraint(
        &self,
        name: &str,
        bound: f64,
        unit: Unit,
    ) -> Result<Constraint, QosModelError> {
        let id = self.require(name)?;
        let def = self.def(id);
        let bound = unit.convert(bound, def.unit).unwrap_or(bound);
        Ok(Constraint::new(id, def.tendency, bound))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_model_has_all_layers() {
        let m = QosModel::standard();
        assert!(m.layer_properties(Layer::Service).count() >= 10);
        assert!(m.layer_properties(Layer::Network).count() >= 5);
        assert!(m.layer_properties(Layer::Device).count() >= 3);
        assert!(m.layer_properties(Layer::User).count() >= 3);
    }

    #[test]
    fn user_vocabulary_is_aligned() {
        let m = QosModel::standard();
        let delay = m.property("Delay").unwrap();
        let rt = m.property("ResponseTime").unwrap();
        assert_eq!(m.match_property(delay, rt), MatchDegree::Exact);
        assert_eq!(m.resolve_to_layer(delay, Layer::Service), Some(rt));
    }

    #[test]
    fn unrelated_properties_fail_to_match() {
        let m = QosModel::standard();
        let rt = m.property("ResponseTime").unwrap();
        let price = m.property("Price").unwrap();
        assert!(!m.match_property(rt, price).is_usable());
    }

    #[test]
    fn subproperty_matches_as_plugin() {
        let mut b = QosModelBuilder::new();
        b.add(
            PropertySpec::new("Latency")
                .tendency(Tendency::LowerBetter)
                .unit(Unit::Milliseconds)
                .category(Category::Performance),
        );
        b.add(
            PropertySpec::new("RoundTripTime")
                .tendency(Tendency::LowerBetter)
                .unit(Unit::Milliseconds)
                .subproperty_of("Latency"),
        );
        let m = b.build().unwrap();
        let lat = m.property("Latency").unwrap();
        let rtt = m.property("RoundTripTime").unwrap();
        assert_eq!(m.match_property(lat, rtt), MatchDegree::PlugIn);
        assert_eq!(m.best_match(lat, [rtt]), Some((rtt, MatchDegree::PlugIn)));
    }

    #[test]
    fn duplicate_property_is_reported_at_build() {
        let mut b = QosModelBuilder::new();
        b.add(PropertySpec::new("X"));
        b.add(PropertySpec::new("X"));
        assert!(matches!(
            b.build(),
            Err(QosModelError::DuplicateProperty(_))
        ));
    }

    #[test]
    fn unknown_parent_is_reported_at_build() {
        let mut b = QosModelBuilder::new();
        b.add(PropertySpec::new("X").subproperty_of("Nope"));
        assert!(matches!(b.build(), Err(QosModelError::UnknownProperty(_))));
    }

    #[test]
    fn constraint_converts_units() {
        let m = QosModel::standard();
        let c = m.constraint("ResponseTime", 2.0, Unit::Seconds).unwrap();
        assert_eq!(c.bound(), 2000.0);
        assert_eq!(c.tendency(), Tendency::LowerBetter);
    }

    #[test]
    fn constraint_on_unknown_property_errors() {
        let m = QosModel::standard();
        assert!(m.constraint("Nope", 1.0, Unit::Dimensionless).is_err());
    }

    #[test]
    fn best_match_prefers_exact_over_plugin() {
        let mut b = QosModelBuilder::new();
        b.add(PropertySpec::new("Latency").tendency(Tendency::LowerBetter));
        b.add(PropertySpec::new("Rtt").subproperty_of("Latency"));
        let m = b.build().unwrap();
        let lat = m.property("Latency").unwrap();
        let rtt = m.property("Rtt").unwrap();
        assert_eq!(
            m.best_match(lat, [rtt, lat]),
            Some((lat, MatchDegree::Exact))
        );
    }

    #[test]
    fn spec_unit_is_canonicalised() {
        let mut b = QosModelBuilder::new();
        let id = b.add(PropertySpec::new("D").unit(Unit::Seconds));
        let m = b.build().unwrap();
        assert_eq!(m.def(id).unit(), Unit::Milliseconds);
    }
}
