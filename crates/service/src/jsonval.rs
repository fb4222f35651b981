//! A minimal hand-rolled JSON *reader*, the inbound counterpart of
//! [`bfdn_obs::json`]'s writer.
//!
//! The workspace deliberately carries no serialization dependency, so
//! the wire protocol parses its own JSON. The subset implemented is
//! exactly what the protocol emits: objects, arrays, strings, numbers,
//! booleans and `null`, with full string-escape handling and a
//! nesting-depth cap so a hostile frame cannot blow the stack.
//!
//! # Example
//!
//! ```
//! use bfdn_service::jsonval::Json;
//!
//! let v = Json::parse(r#"{"type":"status","pending":3}"#).unwrap();
//! assert_eq!(v.get("type").and_then(Json::as_str), Some("status"));
//! assert_eq!(v.get("pending").and_then(Json::as_u64), Some(3));
//! ```

use std::fmt;

/// Maximum container nesting accepted by [`Json::parse`].
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
///
/// Integers that fit `u64` are kept exact in [`Json::Int`] (the protocol
/// carries seeds and counters that must not round through `f64`); every
/// other number becomes [`Json::Num`].
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`, kept exact.
    Int(u64),
    /// Any other number (negative, fractional, or exponent-form).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in document order (duplicate keys keep the last).
    Obj(Vec<(String, Json)>),
}

/// A parse failure, with the byte offset it was detected at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one JSON document; trailing non-whitespace is an error.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] locating the first malformation.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Object field lookup (last occurrence wins, `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The exact integer payload ([`Json::Int`] only — a fractional
    /// number is never silently truncated).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as `f64` (exact integers included).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean payload, when this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(xs) => Some(xs),
            _ => None,
        }
    }

    /// `true` for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => return Err(self.err(format!("bad escape `\\{}`", other as char))),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control byte in string")),
                Some(_) => {
                    // Copy one UTF-8 scalar (input is &str, so boundaries
                    // are trustworthy).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let d = self
                .peek()
                .and_then(|c| (c as char).to_digit(16))
                .ok_or_else(|| self.err("bad \\u escape"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        // Surrogate pair: a high surrogate must be followed by \uDC00..
        let code = if (0xD800..0xDC00).contains(&first) {
            if self.peek() == Some(b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u') {
                self.pos += 2;
                let second = self.hex4()?;
                if !(0xDC00..0xE000).contains(&second) {
                    return Err(self.err("invalid low surrogate"));
                }
                0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
            } else {
                return Err(self.err("lone high surrogate"));
            }
        } else if (0xDC00..0xE000).contains(&first) {
            return Err(self.err("lone low surrogate"));
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid code point"))
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii slice");
        if integral {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("bad number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_parse() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-3").unwrap(), Json::Num(-3.0));
        assert_eq!(Json::parse("2.5e2").unwrap(), Json::Num(250.0));
        assert_eq!(Json::parse(r#""hi""#).unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn big_integers_stay_exact() {
        let v = Json::parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn containers_and_accessors() {
        let v = Json::parse(r#"{"a":[1,2,{"b":null}],"c":"x","a2":1.5}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        let arr = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr.len(), 3);
        assert!(arr[2].get("b").unwrap().is_null());
        assert_eq!(v.get("a2").and_then(Json::as_f64), Some(1.5));
        assert_eq!(v.get("a2").and_then(Json::as_u64), None, "no truncation");
    }

    #[test]
    fn string_escapes_round_trip() {
        let mut encoded = String::new();
        bfdn_obs::json::escape_into(&mut encoded, "a\"b\\c\nd\te\u{1}é✓");
        let v = Json::parse(&encoded).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\te\u{1}é✓"));
        assert_eq!(Json::parse(r#""😀""#).unwrap().as_str(), Some("😀"));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a"}"#,
            "tru",
            "01x",
            r#""\q""#,
            r#""\ud800""#,
            "1 2",
            "{1:2}",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn nesting_depth_is_capped() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        let err = Json::parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"), "{err}");
        let ok = "[".repeat(MAX_DEPTH / 2) + &"]".repeat(MAX_DEPTH / 2);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn duplicate_keys_keep_the_last() {
        let v = Json::parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(2));
    }
}
