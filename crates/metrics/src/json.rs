//! Minimal JSON rendering (no third-party dependencies).
//!
//! One renderer shared by every machine-readable surface: `ses-cli
//! run/stream/bank --stats --format json`, `ses-cli check --format
//! json`'s diagnostics, and the `ses-server` `stats` protocol verb all
//! build a [`JsonValue`] and render it compactly. Keys keep insertion
//! order so output is deterministic and diffable.

use std::fmt;

/// An owned JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A signed integer (rendered without a decimal point).
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A float; non-finite values render as `null`.
    Float(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(JsonObject),
}

impl JsonValue {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integral payload (signed or unsigned), if it fits an `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(i) => Some(*i),
            JsonValue::UInt(u) => i64::try_from(*u).ok(),
            _ => None,
        }
    }

    /// The non-negative integral payload, if any.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(u) => Some(*u),
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// Any numeric payload widened to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Float(x) => Some(*x),
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object payload, if this is an object.
    pub fn as_object(&self) -> Option<&JsonObject> {
        match self {
            JsonValue::Object(o) => Some(o),
            _ => None,
        }
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> JsonValue {
        JsonValue::Bool(v)
    }
}
impl From<i64> for JsonValue {
    fn from(v: i64) -> JsonValue {
        JsonValue::Int(v)
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> JsonValue {
        JsonValue::UInt(v)
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> JsonValue {
        JsonValue::UInt(v as u64)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> JsonValue {
        JsonValue::UInt(u64::from(v))
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> JsonValue {
        JsonValue::Float(v)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> JsonValue {
        JsonValue::Str(v.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> JsonValue {
        JsonValue::Str(v)
    }
}
impl From<JsonObject> for JsonValue {
    fn from(v: JsonObject) -> JsonValue {
        JsonValue::Object(v)
    }
}
impl From<Vec<JsonValue>> for JsonValue {
    fn from(v: Vec<JsonValue>) -> JsonValue {
        JsonValue::Array(v)
    }
}

/// A JSON object preserving insertion order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JsonObject {
    entries: Vec<(String, JsonValue)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    /// Appends (or replaces) `key`.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<JsonValue>) -> &mut JsonObject {
        let key = key.into();
        let value = value.into();
        if let Some(e) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            e.1 = value;
        } else {
            self.entries.push((key, value));
        }
        self
    }

    /// Builder-style [`JsonObject::set`].
    pub fn with(mut self, key: impl Into<String>, value: impl Into<JsonValue>) -> JsonObject {
        self.set(key, value);
        self
    }

    /// The value at `key`, if present.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Key/value pairs in insertion order.
    pub fn entries(&self) -> &[(String, JsonValue)] {
        &self.entries
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff no keys.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => write!(f, "null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::Int(i) => write!(f, "{i}"),
            JsonValue::UInt(u) => write!(f, "{u}"),
            // `{:?}` is the shortest text that reads back as the same
            // float, and always has a `.0` or an exponent, so no float
            // renders as an integer — or, from 2⁶⁴ up, as digits no
            // integer type holds.
            JsonValue::Float(x) if x.is_finite() => write!(f, "{x:?}"),
            JsonValue::Float(_) => write!(f, "null"),
            JsonValue::Str(s) => write!(f, "\"{}\"", escape_json(s)),
            JsonValue::Array(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            JsonValue::Object(o) => write!(f, "{o}"),
        }
    }
}

impl fmt::Display for JsonObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.entries.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "\"{}\":{v}", escape_json(k))?;
        }
        write!(f, "}}")
    }
}

/// Escapes a string for inclusion inside JSON double quotes.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Turns a human metric label into a JSON key: lowercased, spaces to
/// `_`, `Ω` to `omega`, everything else non-alphanumeric dropped.
/// `"max |Ω|"` → `"max_omega"`, `"events read"` → `"events_read"`.
pub fn json_key(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        match c {
            'Ω' | 'ω' => out.push_str("omega"),
            c if c.is_ascii_alphanumeric() => out.push(c.to_ascii_lowercase()),
            ' ' | '-' | '_' | '/' if !out.ends_with('_') && !out.is_empty() => {
                out.push('_');
            }
            _ => {}
        }
    }
    out.trim_end_matches('_').to_string()
}

/// Classifies a rendered table cell back into a typed JSON value:
/// integers and floats become numbers, everything else stays a string.
pub fn cell_value(cell: &str) -> JsonValue {
    if let Ok(i) = cell.parse::<i64>() {
        return JsonValue::Int(i);
    }
    let numericish = !cell.is_empty()
        && cell
            .chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
        && cell.chars().any(|c| c.is_ascii_digit());
    if numericish {
        if let Ok(x) = cell.parse::<f64>() {
            return JsonValue::Float(x);
        }
    }
    JsonValue::Str(cell.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_and_escaping() {
        let mut o = JsonObject::new();
        o.set("n", 3u64)
            .set("x", 1.5f64)
            .set("ok", true)
            .set("s", "a\"b\\c\nd");
        assert_eq!(
            o.to_string(),
            r#"{"n":3,"x":1.5,"ok":true,"s":"a\"b\\c\nd"}"#
        );
    }

    #[test]
    fn nested_arrays_and_objects() {
        let inner = JsonObject::new().with("k", 1i64);
        let v = JsonValue::Array(vec![inner.into(), JsonValue::Null, "x".into()]);
        assert_eq!(v.to_string(), r#"[{"k":1},null,"x"]"#);
    }

    #[test]
    fn set_replaces_existing_key_in_place() {
        let mut o = JsonObject::new();
        o.set("a", 1i64).set("b", 2i64).set("a", 9i64);
        assert_eq!(o.to_string(), r#"{"a":9,"b":2}"#);
        assert_eq!(o.get("a"), Some(&JsonValue::Int(9)));
    }

    #[test]
    fn keys_normalize() {
        assert_eq!(json_key("events read"), "events_read");
        assert_eq!(json_key("max |Ω|"), "max_omega");
        assert_eq!(json_key("per-shard peak |Ω|"), "per_shard_peak_omega");
        assert_eq!(json_key("checkpoint time"), "checkpoint_time");
    }

    #[test]
    fn cells_classify() {
        assert_eq!(cell_value("42"), JsonValue::Int(42));
        assert_eq!(cell_value("-3"), JsonValue::Int(-3));
        assert_eq!(cell_value("2.5"), JsonValue::Float(2.5));
        assert_eq!(cell_value("on"), JsonValue::Str("on".into()));
        assert_eq!(cell_value("1 2 3"), JsonValue::Str("1 2 3".into()));
        assert_eq!(cell_value(""), JsonValue::Str(String::new()));
    }

    #[test]
    fn floats_of_any_size_render_as_floats() {
        for (x, text) in [
            (1e15, "1000000000000000.0"),
            (1e20, "1e20"),
            (2f64.powi(64), "1.8446744073709552e19"),
            (f64::MAX, "1.7976931348623157e308"),
            (5e-324, "5e-324"),
            (-0.0, "-0.0"),
            (0.1, "0.1"),
        ] {
            assert_eq!(JsonValue::Float(x).to_string(), text);
            assert_eq!(text.parse::<f64>().unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        assert_eq!(JsonValue::Float(2.0).to_string(), "2.0");
        assert_eq!(JsonValue::Float(f64::NAN).to_string(), "null");
    }
}
