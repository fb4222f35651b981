//! A minimal hand-rolled JSON writer.
//!
//! The workspace deliberately carries no serialization dependency, so
//! the observability layer writes its own JSON: flat objects
//! for events, one nesting level for manifests. Only what the crate
//! needs is implemented — strings, integers, finite floats, arrays, and
//! objects.
//!
//! # Example
//!
//! ```
//! use bfdn_obs::json::JsonObject;
//!
//! let mut o = JsonObject::new();
//! o.str("event", "reanchor").u64("robot", 3).u64("depth", 2);
//! assert_eq!(o.finish(), r#"{"event":"reanchor","robot":3,"depth":2}"#);
//! ```

use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub fn escape_into(out: &mut String, s: &str) {
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

/// Appends a finite float as a JSON number, or `null` for NaN/infinity
/// (which are not representable in JSON).
pub fn float_into(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// An incremental JSON object builder.
///
/// Keys are written in insertion order; values are escaped/validated by
/// the typed appenders. [`JsonObject::raw`] splices a pre-serialized
/// value (an array or nested object) verbatim.
#[derive(Debug)]
pub struct JsonObject {
    buf: String,
    first: bool,
}

impl Default for JsonObject {
    fn default() -> Self {
        JsonObject::new()
    }
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, key: &str) -> &mut String {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        escape_into(&mut self.buf, key);
        self.buf.push(':');
        &mut self.buf
    }

    /// Appends a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        let buf = self.key(key);
        escape_into(buf, value);
        self
    }

    /// Appends an unsigned integer field.
    pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
        let buf = self.key(key);
        let _ = write!(buf, "{value}");
        self
    }

    /// Appends a float field (`null` for non-finite values).
    pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        let buf = self.key(key);
        float_into(buf, value);
        self
    }

    /// Appends a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        let buf = self.key(key);
        buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Appends a pre-serialized JSON value verbatim (array, object, or
    /// `null`). The caller is responsible for its validity.
    pub fn raw(&mut self, key: &str, value: &str) -> &mut Self {
        let buf = self.key(key);
        buf.push_str(value);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Serializes an iterator of `u64` as a JSON array.
pub fn u64_array(values: impl IntoIterator<Item = u64>) -> String {
    let mut out = String::from("[");
    for (i, v) in values.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let mut s = String::new();
        escape_into(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn builder_chains_fields() {
        let mut o = JsonObject::new();
        o.str("a", "x").u64("b", 7).f64("c", 1.5).bool("d", false);
        assert_eq!(o.finish(), r#"{"a":"x","b":7,"c":1.5,"d":false}"#);
    }

    #[test]
    fn empty_object() {
        assert_eq!(JsonObject::new().finish(), "{}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut o = JsonObject::new();
        o.f64("m", f64::NAN).f64("n", f64::INFINITY);
        assert_eq!(o.finish(), r#"{"m":null,"n":null}"#);
    }

    #[test]
    fn raw_and_arrays() {
        let mut o = JsonObject::new();
        o.raw("xs", &u64_array([1, 2, 3]));
        assert_eq!(o.finish(), r#"{"xs":[1,2,3]}"#);
        assert_eq!(u64_array([]), "[]");
    }
}
