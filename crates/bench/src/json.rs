//! A dependency-free JSON value, serializer, and parser.
//!
//! The harness must build without network access to crates.io, so this
//! module replaces `serde`/`serde_json` for the two things the bench
//! crate needs: writing experiment results and round-tripping the sweep
//! journal. Object key order is preserved (insertion order), integers
//! serialize without a decimal point, and floats always carry one — so
//! a value survives `to_string` → `parse` with its exact variant, which
//! the journal round-trip tests rely on.

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (covers every counter the harness records; values are
    /// well below `i64::MAX`).
    Int(i64),
    /// A float; serialized with at least one fractional digit so it
    /// parses back as a float.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<i32> for Json {
    fn from(v: i32) -> Json {
        Json::Int(i64::from(v))
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::Int(i64::from(v))
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        debug_assert!(v <= i64::MAX as u64, "journal counter exceeds i64");
        Json::Int(v as i64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i64)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// Starts an object builder.
    #[must_use]
    pub fn obj() -> ObjBuilder {
        ObjBuilder(Vec::new())
    }

    /// Looks up `key` in an object; `None` for other variants.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an i64, if numeric and integral.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a u64, if a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as an f64 (integers convert).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(v) => Some(*v as f64),
            Json::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Compact single-line serialization.
    #[must_use]
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty-printed serialization with two-space indentation.
    #[must_use]
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Float(v) => out.push_str(&format_float(*v)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                Self::write_seq(out, indent, depth, items.len(), ('[', ']'), |out, i| {
                    items[i].write(out, indent, depth + 1);
                });
            }
            Json::Obj(fields) => {
                Self::write_seq(out, indent, depth, fields.len(), ('{', '}'), |out, i| {
                    write_escaped(out, &fields[i].0);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    fields[i].1.write(out, indent, depth + 1);
                });
            }
        }
    }

    fn write_seq(
        out: &mut String,
        indent: Option<usize>,
        depth: usize,
        len: usize,
        brackets: (char, char),
        mut item: impl FnMut(&mut String, usize),
    ) {
        out.push(brackets.0);
        if len == 0 {
            out.push(brackets.1);
            return;
        }
        for i in 0..len {
            if i > 0 {
                out.push(',');
            }
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * (depth + 1)));
            }
            item(out, i);
        }
        if let Some(w) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(w * depth));
        }
        out.push(brackets.1);
    }

    /// Parses a JSON document (must consume all non-whitespace input).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first malformed byte.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_compact())
    }
}

/// Floats always serialize with a fractional part (or exponent) so they
/// parse back as `Json::Float`; non-finite values become `null`-like
/// sentinels outside JSON's number grammar, so clamp them instead.
fn format_float(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Builder for [`Json::Obj`] with a fluent field API.
#[derive(Debug, Default)]
pub struct ObjBuilder(Vec<(String, Json)>);

impl ObjBuilder {
    /// Appends a field.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> ObjBuilder {
        self.0.push((key.to_string(), value.into()));
        self
    }

    /// Appends fields in order.
    #[must_use]
    pub fn fields(mut self, fields: impl IntoIterator<Item = (String, Json)>) -> ObjBuilder {
        self.0.extend(fields);
        self
    }

    /// Finishes the object.
    #[must_use]
    pub fn build(self) -> Json {
        Json::Obj(self.0)
    }
}

/// A parse error with byte position and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error.
    pub pos: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            pos: self.pos,
            msg: msg.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[', "expected [")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected , or ]")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{', "expected {")?;
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
            self.eat(b':', "expected :")?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected , or }")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid utf-8"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
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
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by this
                            // serializer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid float"))
        } else {
            // Integers too large for i64 fall back to float.
            text.parse::<i64>().map(Json::Int).or_else(|_| {
                text.parse::<f64>()
                    .map(Json::Float)
                    .map_err(|_| self.err("invalid integer"))
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_variant() {
        let v = Json::obj()
            .field("s", "he\"llo\n")
            .field("i", -42i64)
            .field("u", 12_345_678_901_234u64)
            .field("f", 1.0)
            .field("f2", 0.125)
            .field("b", true)
            .field("n", Json::Null)
            .field("a", Json::Arr(vec![Json::Int(1), Json::Str("x".into())]))
            .build();
        let compact = v.to_compact();
        assert_eq!(Json::parse(&compact).unwrap(), v);
        let pretty = v.to_pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn integral_floats_stay_floats() {
        let v = Json::Float(3.0);
        assert_eq!(v.to_compact(), "3.0");
        assert_eq!(Json::parse("3.0").unwrap(), v);
        assert_eq!(Json::parse("3").unwrap(), Json::Int(3));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "\"abc", "{\"a\":}", "tru", "1.2.3", "[1] x"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = Json::parse(r#""aA\n\t\\\"/""#).unwrap();
        assert_eq!(v, Json::Str("aA\n\t\\\"/".to_string()));
    }

    #[test]
    fn key_order_is_preserved() {
        let v = Json::parse(r#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(v.to_compact(), r#"{"z":1,"a":2}"#);
    }
}
