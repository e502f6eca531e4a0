//! Structured events for the JSONL sink.
//!
//! An [`Event`] is a flat `kind` + ordered field list, rendered as one JSON
//! object per line through [`crate::json::Obj`]. The
//! recorder stamps every emitted event with `t_ns`, nanoseconds since the
//! recorder was created, so event streams double as timelines (the trellis
//! queue-drain trace is exactly this).

use crate::json::Obj;

/// A JSON-able field value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (rendered with enough precision to round-trip).
    F64(f64),
    /// String (escaped on render).
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

/// One structured event: a kind plus ordered `(name, value)` fields.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Event kind (the JSONL line's `"kind"` field).
    pub kind: &'static str,
    /// Fields in emission order.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Start an event of the given kind.
    pub fn new(kind: &'static str) -> Event {
        Event { kind, fields: Vec::new() }
    }

    /// Append a field (builder style).
    pub fn field(mut self, name: &'static str, value: impl Into<Value>) -> Event {
        self.fields.push((name, value.into()));
        self
    }

    /// Render as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut o = Obj::new(self.kind);
        for (name, value) in &self.fields {
            match value {
                Value::U64(v) => o.int(name, *v),
                Value::I64(v) => o.int(name, *v),
                Value::F64(v) => o.f64(name, *v),
                Value::Str(v) => o.str(name, v),
            };
        }
        o.end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_flat_json() {
        let e = Event::new("span")
            .field("name", "recovery.kernel")
            .field("value_ns", 1234u64)
            .field("frac", 0.5f64)
            .field("delta", -3i64);
        assert_eq!(
            e.to_json(),
            r#"{"kind":"span","name":"recovery.kernel","value_ns":1234,"frac":0.5,"delta":-3}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let e = Event::new("meta").field("note", "a\"b\\c\nd");
        assert_eq!(e.to_json(), "{\"kind\":\"meta\",\"note\":\"a\\\"b\\\\c\\nd\"}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let e = Event::new("x").field("v", f64::NAN);
        assert_eq!(e.to_json(), r#"{"kind":"x","v":null}"#);
    }
}
