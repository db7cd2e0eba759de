//! Service descriptions (quality-based service description, QSD).

use std::fmt;

use qasom_ontology::Iri;
use qasom_qos::{PropertyId, QosVector};

/// One operation of a *white-box* service description: an elementary part
/// of the service's conversation with its own QoS.
#[derive(Debug, Clone, PartialEq)]
pub struct Operation {
    name: String,
    function: Iri,
    qos: QosVector,
}

impl Operation {
    /// Creates an operation implementing `function`.
    ///
    /// # Panics
    ///
    /// Panics on a malformed function IRI.
    pub fn new(name: impl Into<String>, function: &str) -> Self {
        Operation {
            name: name.into(),
            function: function
                .parse()
                .unwrap_or_else(|e| panic!("malformed operation IRI {function:?}: {e}")),
            qos: QosVector::new(),
        }
    }

    /// Reassembles an operation from decoded parts (persistence codec).
    pub(crate) fn from_parts(name: String, function: Iri, qos: QosVector) -> Self {
        Operation {
            name,
            function,
            qos,
        }
    }

    /// Attaches a QoS value (canonical unit) to the operation.
    pub fn with_qos(mut self, property: PropertyId, value: f64) -> Self {
        self.qos.set(property, value);
        self
    }

    /// Operation name (unique within its service).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The capability concept the operation implements.
    pub fn function(&self) -> &Iri {
        &self.function
    }

    /// Operation-level QoS.
    pub fn qos(&self) -> &QosVector {
        &self.qos
    }
}

/// A provider's service advertisement.
///
/// The *black-box* part is the profile: capability concept, consumed and
/// produced data concepts, and service-level advertised QoS. White-box
/// descriptions additionally list [`Operation`]s with per-operation QoS.
///
/// # Examples
///
/// ```
/// use qasom_qos::QosModel;
/// use qasom_registry::ServiceDescription;
///
/// let model = QosModel::standard();
/// let rt = model.property("ResponseTime").unwrap();
///
/// let svc = ServiceDescription::new("fnac-books", "shop#BuyBook")
///     .with_provider("fnac")
///     .with_input("shop#BookTitle")
///     .with_output("shop#Receipt")
///     .with_qos(rt, 120.0)
///     .with_host(3);
/// assert_eq!(svc.host(), Some(3));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceDescription {
    name: String,
    function: Iri,
    qos: QosVector,
    // `None` while every extra is at its default, so the common
    // profile-only description carries one pointer instead of five
    // fields, and equal descriptions stay structurally equal.
    extras: Option<Box<Extras>>,
}

/// The description fields most advertisements leave unset.
#[derive(Debug, Clone, Default, PartialEq)]
struct Extras {
    provider: String,
    inputs: Vec<Iri>,
    outputs: Vec<Iri>,
    operations: Vec<Operation>,
    host: Option<u64>,
}

impl Extras {
    /// The extras to store: `None`, not a box, when every field is at its
    /// default.
    fn boxed(self) -> Option<Box<Extras>> {
        let default = self.provider.is_empty()
            && self.inputs.is_empty()
            && self.outputs.is_empty()
            && self.operations.is_empty()
            && self.host.is_none();
        (!default).then(|| Box::new(self))
    }
}

impl ServiceDescription {
    /// Creates a description for a service implementing `function`.
    ///
    /// # Panics
    ///
    /// Panics on a malformed function IRI; use
    /// [`ServiceDescription::try_new`] for fallible construction.
    pub fn new(name: impl Into<String>, function: &str) -> Self {
        ServiceDescription::try_new(name, function)
            .unwrap_or_else(|e| panic!("malformed function IRI {function:?}: {e}"))
    }

    /// Fallible counterpart of [`ServiceDescription::new`].
    ///
    /// # Errors
    ///
    /// Returns the IRI parse error when `function` is malformed.
    pub fn try_new(
        name: impl Into<String>,
        function: &str,
    ) -> Result<Self, Box<dyn std::error::Error + Send + Sync>> {
        Ok(ServiceDescription {
            name: name.into(),
            function: function.parse()?,
            qos: QosVector::new(),
            extras: None,
        })
    }

    /// Reassembles a description from decoded parts (persistence codec).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        name: String,
        provider: String,
        function: Iri,
        inputs: Vec<Iri>,
        outputs: Vec<Iri>,
        qos: QosVector,
        operations: Vec<Operation>,
        host: Option<u64>,
    ) -> Self {
        ServiceDescription {
            name,
            function,
            qos,
            extras: Extras {
                provider,
                inputs,
                outputs,
                operations,
                host,
            }
            .boxed(),
        }
    }

    /// Applies `edit` to the extras, boxing them only when one is left
    /// at a non-default value.
    fn edit_extras(mut self, edit: impl FnOnce(&mut Extras)) -> Self {
        let mut extras = self.extras.take().map_or_else(Extras::default, |e| *e);
        edit(&mut extras);
        self.extras = extras.boxed();
        self
    }

    /// Sets the provider name.
    pub fn with_provider(self, provider: impl Into<String>) -> Self {
        let provider = provider.into();
        self.edit_extras(|e| e.provider = provider)
    }

    /// Adds a consumed data concept.
    ///
    /// # Panics
    ///
    /// Panics on a malformed IRI.
    pub fn with_input(self, input: &str) -> Self {
        let iri = input
            .parse()
            .unwrap_or_else(|e| panic!("malformed input IRI {input:?}: {e}"));
        self.edit_extras(|e| e.inputs.push(iri))
    }

    /// Adds a produced data concept.
    ///
    /// # Panics
    ///
    /// Panics on a malformed IRI.
    pub fn with_output(self, output: &str) -> Self {
        let iri = output
            .parse()
            .unwrap_or_else(|e| panic!("malformed output IRI {output:?}: {e}"));
        self.edit_extras(|e| e.outputs.push(iri))
    }

    /// Advertises a QoS value (canonical unit).
    pub fn with_qos(mut self, property: PropertyId, value: f64) -> Self {
        self.qos.set(property, value);
        self
    }

    /// Replaces the whole advertised QoS vector.
    pub fn with_qos_vector(mut self, qos: QosVector) -> Self {
        self.qos = qos;
        self
    }

    /// Adds a white-box operation.
    pub fn with_operation(self, op: Operation) -> Self {
        self.edit_extras(|e| e.operations.push(op))
    }

    /// Binds the service to a hosting node (used by the network
    /// simulation and the end-to-end QoS computation).
    pub fn with_host(self, node: u64) -> Self {
        self.edit_extras(|e| e.host = Some(node))
    }

    /// Service name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Provider name (may be empty).
    pub fn provider(&self) -> &str {
        self.extras.as_ref().map_or("", |e| &e.provider)
    }

    /// The capability concept the service implements.
    pub fn function(&self) -> &Iri {
        &self.function
    }

    /// Consumed data concepts.
    pub fn inputs(&self) -> &[Iri] {
        self.extras.as_ref().map_or(&[], |e| &e.inputs)
    }

    /// Produced data concepts.
    pub fn outputs(&self) -> &[Iri] {
        self.extras.as_ref().map_or(&[], |e| &e.outputs)
    }

    /// Advertised service-level QoS.
    pub fn qos(&self) -> &QosVector {
        &self.qos
    }

    /// Mutable access to the advertised QoS (providers re-advertise as
    /// conditions change).
    pub fn qos_mut(&mut self) -> &mut QosVector {
        &mut self.qos
    }

    /// White-box operations (empty for black-box descriptions).
    pub fn operations(&self) -> &[Operation] {
        self.extras.as_ref().map_or(&[], |e| &e.operations)
    }

    /// Whether the description is white-box (has per-operation QoS).
    pub fn is_white_box(&self) -> bool {
        !self.operations().is_empty()
    }

    /// The hosting node, if declared.
    pub fn host(&self) -> Option<u64> {
        self.extras.as_ref().and_then(|e| e.host)
    }
}

impl fmt::Display for ServiceDescription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] {}", self.name, self.function, self.qos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qasom_qos::QosModel;

    #[test]
    fn builder_accumulates_fields() {
        let m = QosModel::standard();
        let rt = m.property("ResponseTime").unwrap();
        let s = ServiceDescription::new("s", "d#F")
            .with_provider("p")
            .with_input("d#In")
            .with_output("d#Out")
            .with_qos(rt, 10.0)
            .with_host(7);
        assert_eq!(s.provider(), "p");
        assert_eq!(s.inputs().len(), 1);
        assert_eq!(s.outputs().len(), 1);
        assert_eq!(s.qos().get(rt), Some(10.0));
        assert_eq!(s.host(), Some(7));
        assert!(!s.is_white_box());
    }

    #[test]
    fn white_box_services_carry_operations() {
        let m = QosModel::standard();
        let rt = m.property("ResponseTime").unwrap();
        let s = ServiceDescription::new("s", "d#F")
            .with_operation(Operation::new("op1", "d#F1").with_qos(rt, 5.0))
            .with_operation(Operation::new("op2", "d#F2").with_qos(rt, 9.0));
        assert!(s.is_white_box());
        assert_eq!(s.operations()[1].qos().get(rt), Some(9.0));
        assert_eq!(s.operations()[0].function().to_string(), "d#F1");
    }

    #[test]
    fn default_extras_equal_the_plain_description() {
        let plain = ServiceDescription::new("s", "d#F");
        let empty_provider = ServiceDescription::new("s", "d#F").with_provider("");
        assert_eq!(empty_provider, plain);
        assert!(empty_provider.extras.is_none());
        let decoded = ServiceDescription::from_parts(
            "s".to_owned(),
            String::new(),
            "d#F".parse().unwrap(),
            Vec::new(),
            Vec::new(),
            QosVector::new(),
            Vec::new(),
            None,
        );
        assert_eq!(decoded, plain);
        assert!(decoded.extras.is_none());
        // Clearing the only extra drops the box again.
        let cleared = plain.clone().with_provider("p").with_provider("");
        assert_eq!(cleared, plain);
    }

    #[test]
    fn try_new_rejects_bad_iri() {
        assert!(ServiceDescription::try_new("s", "nope").is_err());
    }

    #[test]
    fn qos_mut_allows_readvertising() {
        let m = QosModel::standard();
        let rt = m.property("ResponseTime").unwrap();
        let mut s = ServiceDescription::new("s", "d#F").with_qos(rt, 10.0);
        s.qos_mut().set(rt, 50.0);
        assert_eq!(s.qos().get(rt), Some(50.0));
    }
}
