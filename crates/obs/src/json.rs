//! A minimal, deterministic JSON value and writer.
//!
//! The workspace vendors no serde, so reports serialise through this
//! hand-rolled tree. Two properties matter more than features:
//!
//! * **Stable field order** — objects are vectors of `(key, value)`
//!   pairs, emitted in insertion order, never hashed.
//! * **Stable number formatting** — floats go through Rust's
//!   shortest-roundtrip `{:?}` formatter; non-finite values collapse to
//!   `null` (JSON has no NaN/Inf).

use std::fmt::Write as _;

/// An owned JSON document node with insertion-ordered object fields.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the common case for counters).
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A float; non-finite values serialise as `null`.
    F64(f64),
    /// A string (escaped on write).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object whose fields keep insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An empty object, ready for [`JsonValue::field`] chaining.
    pub fn object() -> Self {
        JsonValue::Object(Vec::new())
    }

    /// Appends a field to an object (builder style). On non-objects the
    /// value is first replaced by an empty object, which never happens
    /// in practice and keeps the builder infallible.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<JsonValue>) -> Self {
        if !matches!(self, JsonValue::Object(_)) {
            self = JsonValue::object();
        }
        if let JsonValue::Object(fields) = &mut self {
            fields.push((key.to_owned(), value.into()));
        }
        self
    }

    /// The value under `key`, when this is an object that holds it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Serialises without whitespace — the canonical byte-stable form.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialises with two-space indentation (still deterministic; the
    /// compact form is what golden tests compare).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, level: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v:?}");
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    item.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push(']');
            }
            JsonValue::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, level + 1);
                }
                newline_indent(out, indent, level);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::U64(v)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::U64(u64::from(v))
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::U64(v as u64)
    }
}
impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::I64(v)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::F64(v)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_owned())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}
impl From<Vec<JsonValue>> for JsonValue {
    fn from(v: Vec<JsonValue>) -> Self {
        JsonValue::Array(v)
    }
}

/// Flattens a JSON tree into its sorted, deduplicated set of key paths
/// (`distributed.net.sent`, `figures[].series[].label`, …). Array
/// elements collapse to `[]`, so the result describes the *schema* of a
/// document independent of its values — the shape CI diffs against the
/// checked-in fixture.
pub fn key_paths(value: &JsonValue) -> Vec<String> {
    let mut paths = Vec::new();
    collect_paths(value, String::new(), &mut paths);
    paths.sort();
    paths.dedup();
    paths
}

fn collect_paths(value: &JsonValue, prefix: String, out: &mut Vec<String>) {
    match value {
        JsonValue::Object(fields) => {
            for (key, child) in fields {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                out.push(path.clone());
                collect_paths(child, path, out);
            }
        }
        JsonValue::Array(items) => {
            let path = format!("{prefix}[]");
            for item in items {
                collect_paths(item, path.clone(), out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_keep_insertion_order() {
        let v = JsonValue::object().field("zeta", 1u64).field("alpha", 2u64);
        assert_eq!(v.to_compact(), r#"{"zeta":1,"alpha":2}"#);
    }

    #[test]
    fn floats_are_roundtrip_formatted_and_nonfinite_is_null() {
        let v = JsonValue::object()
            .field("half", 0.5f64)
            .field("one", 1.0f64)
            .field("nan", f64::NAN);
        assert_eq!(v.to_compact(), r#"{"half":0.5,"one":1.0,"nan":null}"#);
    }

    #[test]
    fn strings_are_escaped() {
        let v = JsonValue::from("a\"b\\c\nd");
        assert_eq!(v.to_compact(), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn key_paths_collapse_arrays() {
        let v = JsonValue::object().field(
            "figures",
            JsonValue::Array(vec![
                JsonValue::object().field("name", "a"),
                JsonValue::object().field("name", "b").field("extra", 1u64),
            ]),
        );
        assert_eq!(
            key_paths(&v),
            vec![
                "figures".to_owned(),
                "figures[].extra".to_owned(),
                "figures[].name".to_owned(),
            ]
        );
    }

    #[test]
    fn pretty_and_compact_agree_on_content() {
        let v = JsonValue::object()
            .field("a", JsonValue::Array(vec![1u64.into(), 2u64.into()]))
            .field("b", JsonValue::object().field("c", true));
        let stripped: String = v
            .to_pretty()
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        assert_eq!(stripped, v.to_compact());
    }
}
