//! QSD — the quality-based service description dialect.
//!
//! Providers advertise services as XML documents combining the functional
//! profile (capability concept, I/O concepts, hosting node) with QoS
//! values expressed against the shared [`QosModel`] vocabulary, in any
//! unit of the property's dimension:
//!
//! ```xml
//! <services>
//!   <service name="fnac-books" provider="fnac" function="shop#BuyBook"
//!            host="3" inputs="shop#Title" outputs="shop#Receipt">
//!     <qos property="ResponseTime" value="0.12" unit="s"/>
//!     <qos property="Availability" value="98" unit="%"/>
//!     <operation name="search" function="shop#Search">
//!       <qos property="ResponseTime" value="30" unit="ms"/>
//!     </operation>
//!   </service>
//! </services>
//! ```
//!
//! [`parse`] and [`print()`](fn@print) round-trip (values are canonicalised to the
//! property's canonical unit on the way in).

use std::fmt;

use qasom_analysis::{Analyzer, Diagnostic, OperationView, ServiceView};
use qasom_ontology::Ontology;
use qasom_qos::{QosModel, QosModelError, QosVector, Unit};
use qasom_task::xml::{self, XmlElement, XmlError};

use crate::{Operation, ServiceDescription};

/// Errors raised while reading a QSD document.
#[derive(Debug, Clone, PartialEq)]
pub enum QsdError {
    /// Malformed XML.
    Xml(XmlError),
    /// Well-formed XML that is not valid QSD.
    Structure(String),
    /// A QoS property name unknown to the model, or a unit of the wrong
    /// dimension.
    Qos(String),
    /// The document parsed, but the static analyzer found error-level
    /// inconsistencies in the advertised QoS specifications.
    Rejected(Vec<Diagnostic>),
}

impl fmt::Display for QsdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QsdError::Xml(e) => write!(f, "{e}"),
            QsdError::Structure(m) => write!(f, "invalid QSD: {m}"),
            QsdError::Qos(m) => write!(f, "invalid QoS in QSD: {m}"),
            QsdError::Rejected(diags) => {
                write!(f, "QSD rejected by static analysis:")?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for QsdError {}

impl From<XmlError> for QsdError {
    fn from(e: XmlError) -> Self {
        QsdError::Xml(e)
    }
}

impl From<QosModelError> for QsdError {
    fn from(e: QosModelError) -> Self {
        QsdError::Qos(e.to_string())
    }
}

/// Parses a QSD document into service descriptions.
///
/// # Errors
///
/// Returns a [`QsdError`] on malformed XML, missing attributes, unknown
/// QoS properties or dimension-mismatched units.
pub fn parse(input: &str, model: &QosModel) -> Result<Vec<ServiceDescription>, QsdError> {
    let root = xml::parse(input)?;
    if root.name != "services" {
        return Err(QsdError::Structure(format!(
            "root element must be <services>, found <{}>",
            root.name
        )));
    }
    root.children
        .iter()
        .map(|el| parse_service(el, model))
        .collect()
}

/// Parses a QSD document and runs the static analyzer over every
/// advertised service (QoS values against the property's feasible range,
/// self-reported reputation, and — when `ontology` is given — function
/// IRIs against the domain vocabulary).
///
/// Providers publishing *inconsistent* specs (error-level diagnostics)
/// are rejected wholesale with [`QsdError::Rejected`] instead of being
/// admitted and silently mis-ranked; warning-level diagnostics are
/// returned alongside the accepted descriptions.
///
/// # Errors
///
/// Everything [`parse`] rejects, plus [`QsdError::Rejected`] carrying
/// the analyzer's error diagnostics.
pub fn parse_with_diagnostics(
    input: &str,
    model: &QosModel,
    ontology: Option<&Ontology>,
) -> Result<(Vec<ServiceDescription>, Vec<Diagnostic>), QsdError> {
    let services = parse(input, model)?;
    let mut analyzer = Analyzer::new(model);
    if let Some(onto) = ontology {
        analyzer = analyzer.with_ontology(onto);
    }
    let mut diagnostics = Vec::new();
    for desc in &services {
        diagnostics.extend(analyzer.check_service(&service_view(desc)));
    }
    let (errors, warnings) = qasom_analysis::partition(diagnostics);
    if errors.is_empty() {
        Ok((services, warnings))
    } else {
        Err(QsdError::Rejected(errors))
    }
}

/// The analyzer's view of a parsed service description.
fn service_view(desc: &ServiceDescription) -> ServiceView<'_> {
    ServiceView {
        name: desc.name(),
        function: desc.function(),
        qos: desc.qos(),
        operations: desc
            .operations()
            .iter()
            .map(|op| OperationView {
                name: op.name(),
                function: op.function(),
                qos: op.qos(),
            })
            .collect(),
    }
}

fn parse_service(el: &XmlElement, model: &QosModel) -> Result<ServiceDescription, QsdError> {
    if el.name != "service" {
        return Err(QsdError::Structure(format!(
            "<services> may only contain <service>, found <{}>",
            el.name
        )));
    }
    let name = required(el, "name")?;
    let function = required(el, "function")?;
    let mut desc = ServiceDescription::try_new(name, function)
        .map_err(|e| QsdError::Structure(format!("bad function IRI: {e}")))?;
    if let Some(provider) = el.attr("provider") {
        desc = desc.with_provider(provider);
    }
    if let Some(host) = el.attr("host") {
        let host: u64 = host
            .parse()
            .map_err(|_| QsdError::Structure(format!("bad host id {host:?}")))?;
        desc = desc.with_host(host);
    }
    for (attr, is_input) in [("inputs", true), ("outputs", false)] {
        if let Some(list) = el.attr(attr) {
            for item in list.split_whitespace() {
                if item.parse::<qasom_ontology::Iri>().is_err() {
                    return Err(QsdError::Structure(format!("bad {attr} IRI {item:?}")));
                }
                desc = if is_input {
                    desc.with_input(item)
                } else {
                    desc.with_output(item)
                };
            }
        }
    }
    for child in &el.children {
        match child.name.as_str() {
            "qos" => {
                let (p, v) = parse_qos(child, model)?;
                desc = desc.with_qos(p, v);
            }
            "operation" => {
                let op_name = required(child, "name")?;
                let op_function = required(child, "function")?
                    .parse()
                    .map_err(|e| QsdError::Structure(format!("bad operation function IRI: {e}")))?;
                let mut op =
                    Operation::from_parts(op_name.to_owned(), op_function, QosVector::new());
                for q in child.children_named("qos") {
                    let (p, v) = parse_qos(q, model)?;
                    op = op.with_qos(p, v);
                }
                desc = desc.with_operation(op);
            }
            other => {
                return Err(QsdError::Structure(format!(
                    "unknown element <{other}> in <service>"
                )))
            }
        }
    }
    Ok(desc)
}

fn parse_qos(el: &XmlElement, model: &QosModel) -> Result<(qasom_qos::PropertyId, f64), QsdError> {
    let name = required(el, "property")?;
    let raw = required(el, "value")?;
    let value: f64 = raw
        .parse()
        .map_err(|_| QsdError::Qos(format!("bad value {raw:?} for {name}")))?;
    if !value.is_finite() {
        return Err(QsdError::Qos(format!(
            "non-finite value {raw:?} for {name}"
        )));
    }
    let id = model.require(name)?;
    let canonical = model.def(id).unit();
    let value = match el.attr("unit") {
        Some(sym) => {
            let unit: Unit = sym
                .parse()
                .map_err(|e| QsdError::Qos(format!("{e} for {name}")))?;
            unit.convert(value, canonical)
                .map_err(|e| QsdError::Qos(e.to_string()))?
        }
        None => value,
    };
    Ok((id, value))
}

fn required<'a>(el: &'a XmlElement, attr: &str) -> Result<&'a str, QsdError> {
    el.attr(attr)
        .ok_or_else(|| QsdError::Structure(format!("<{}> requires a {attr} attribute", el.name)))
}

/// Prints service descriptions as a QSD document (values in canonical
/// units).
pub fn print(services: &[ServiceDescription], model: &QosModel) -> String {
    let mut root = XmlElement::new("services");
    for desc in services {
        root.children.push(print_service(desc, model));
    }
    root.to_xml()
}

fn print_service(desc: &ServiceDescription, model: &QosModel) -> XmlElement {
    let mut el = XmlElement::new("service")
        .with_attr("name", desc.name())
        .with_attr("function", desc.function().to_string());
    if !desc.provider().is_empty() {
        el = el.with_attr("provider", desc.provider());
    }
    if let Some(host) = desc.host() {
        el = el.with_attr("host", host.to_string());
    }
    if !desc.inputs().is_empty() {
        el = el.with_attr("inputs", iri_list(desc.inputs()));
    }
    if !desc.outputs().is_empty() {
        el = el.with_attr("outputs", iri_list(desc.outputs()));
    }
    for (p, v) in desc.qos().iter() {
        el.children.push(qos_element(model, p, v));
    }
    for op in desc.operations() {
        let mut op_el = XmlElement::new("operation")
            .with_attr("name", op.name())
            .with_attr("function", op.function().to_string());
        for (p, v) in op.qos().iter() {
            op_el.children.push(qos_element(model, p, v));
        }
        el.children.push(op_el);
    }
    el
}

fn qos_element(model: &QosModel, p: qasom_qos::PropertyId, v: f64) -> XmlElement {
    let def = model.def(p);
    let mut el = XmlElement::new("qos")
        .with_attr("property", def.name())
        .with_attr("value", format!("{v}"));
    if def.unit() != Unit::Dimensionless {
        el = el.with_attr("unit", def.unit().to_string());
    }
    el
}

fn iri_list(iris: &[qasom_ontology::Iri]) -> String {
    iris.iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"
        <services>
          <service name="fnac-books" provider="fnac" function="shop#BuyBook"
                   host="3" inputs="shop#Title" outputs="shop#Receipt">
            <qos property="ResponseTime" value="0.12" unit="s"/>
            <qos property="Availability" value="98" unit="%"/>
            <operation name="search" function="shop#Search">
              <qos property="ResponseTime" value="30" unit="ms"/>
            </operation>
          </service>
          <service name="till" function="shop#Pay">
            <qos property="Price" value="0"/>
          </service>
        </services>"#;

    #[test]
    fn parses_services_with_unit_conversion() {
        let model = QosModel::standard();
        let services = parse(DOC, &model).unwrap();
        assert_eq!(services.len(), 2);
        let rt = model.property("ResponseTime").unwrap();
        let av = model.property("Availability").unwrap();
        let fnac = &services[0];
        assert_eq!(fnac.qos().get(rt), Some(120.0)); // 0.12 s → ms
        let availability = fnac.qos().get(av).unwrap();
        assert!((availability - 0.98).abs() < 1e-12); // 98 % → ratio
        assert_eq!(fnac.host(), Some(3));
        assert_eq!(fnac.operations().len(), 1);
        assert_eq!(fnac.operations()[0].qos().get(rt), Some(30.0));
    }

    #[test]
    fn round_trips_through_print() {
        let model = QosModel::standard();
        let services = parse(DOC, &model).unwrap();
        let printed = print(&services, &model);
        let reparsed = parse(&printed, &model).unwrap();
        // Compare everything except float formatting artefacts.
        assert_eq!(services.len(), reparsed.len());
        for (a, b) in services.iter().zip(&reparsed) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.function(), b.function());
            assert_eq!(a.host(), b.host());
            for (p, v) in a.qos().iter() {
                let rv = b.qos().get(p).unwrap();
                assert!((v - rv).abs() < 1e-9, "{p}: {v} vs {rv}");
            }
        }
    }

    #[test]
    fn rejects_unknown_property() {
        let model = QosModel::standard();
        let doc = r#"<services><service name="s" function="d#F">
                       <qos property="Karma" value="1"/>
                     </service></services>"#;
        assert!(matches!(parse(doc, &model), Err(QsdError::Qos(_))));
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let model = QosModel::standard();
        let doc = r#"<services><service name="s" function="d#F">
                       <qos property="ResponseTime" value="1" unit="EUR"/>
                     </service></services>"#;
        assert!(matches!(parse(doc, &model), Err(QsdError::Qos(_))));
    }

    #[test]
    fn rejects_missing_attributes() {
        let model = QosModel::standard();
        let doc = r#"<services><service name="s"/></services>"#;
        let err = parse(doc, &model).unwrap_err();
        assert!(err.to_string().contains("function"));
    }

    #[test]
    fn rejects_wrong_root() {
        let model = QosModel::standard();
        assert!(matches!(
            parse("<service/>", &model),
            Err(QsdError::Structure(_))
        ));
    }

    #[test]
    fn empty_document_yields_no_services() {
        let model = QosModel::standard();
        assert!(parse("<services/>", &model).unwrap().is_empty());
    }
}
