//! Minimal JSON reading/writing for dataset and solution files.
//!
//! The workspace builds offline, so instead of `serde`/`serde_json` the IO
//! layers (`mc3-workload` datasets, `mc3-cli` solutions) hand-roll their
//! (de)serialization over this small document model: a [`Json`] value enum,
//! a recursive-descent [`parse`] and compact/pretty writers. The dialect is
//! standard JSON; numbers are kept as `i128` when integral so `u64` costs
//! and seeds round-trip exactly (no f64 mantissa loss).
//!
//! # Example
//!
//! ```
//! use mc3_core::json::{parse, Json};
//!
//! let v = parse(r#"{"name":"tiny","queries":[[0,1]],"cost":null}"#).unwrap();
//! assert_eq!(v.get("name").and_then(Json::as_str), Some("tiny"));
//! assert!(v.get("cost").unwrap().is_null());
//! let back = v.to_string();
//! assert_eq!(parse(&back).unwrap(), v);
//! ```

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
///
/// Objects use a `BTreeMap` so serialization is canonical (sorted keys) and
/// diffs of generated files stay stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integral number. `i128` losslessly holds both `i64` and `u64`.
    Int(i128),
    /// A non-integral number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with canonically sorted keys.
    Object(BTreeMap<String, Json>),
}

/// A JSON syntax or shape error with byte offset context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Object field lookup; `None` on non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `u64`, if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as `u32`, if integral and in range.
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            Json::Int(i) => u32::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as `usize`, if integral and in range.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Int(i) => usize::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Builds an object from key/value pairs.
    pub fn object(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Builds an array from values.
    pub fn array(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Array(items.into_iter().collect())
    }

    /// `Some(v)` ↦ `v`, `None` ↦ `null`.
    pub fn opt_u64(v: Option<u64>) -> Json {
        match v {
            Some(v) => Json::Int(v as i128),
            None => Json::Null,
        }
    }

    /// Writes pretty two-space-indented JSON.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Float(f) => {
                if f.is_finite() {
                    out.push_str(&format!("{f}"));
                } else {
                    // JSON has no Inf/NaN; `null` is the conventional stand-in.
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1);
                });
            }
            Json::Object(map) => {
                let entries: Vec<_> = map.iter().collect();
                write_seq(out, indent, depth, '{', '}', entries.len(), |out, i| {
                    let (k, v) = entries[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                });
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Compact single-line form.
        let mut out = String::new();
        self.write(&mut out, None, 0);
        f.write_str(&out)
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat(' ').take(step * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(step) = indent {
        out.push('\n');
        out.extend(std::iter::repeat(' ').take(step * depth));
    }
    out.push(close);
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
            c if u32::from(c) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", u32::from(c)));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses once
/// per level, so the bound keeps hostile input from overflowing the stack.
pub const MAX_DEPTH: usize = 256;

/// Parses a JSON document, requiring it to span the full input and to nest
/// arrays and objects at most [`MAX_DEPTH`] deep.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after JSON document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_owned(),
            offset: self.pos,
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

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("invalid literal, expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if matches!(self.peek(), Some(b'[' | b'{')) {
            if self.depth == MAX_DEPTH {
                return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
            }
            self.depth += 1;
            let v = if self.peek() == Some(b'[') {
                self.array()
            } else {
                self.object()
            };
            self.depth -= 1;
            return v;
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let cp = self.unicode_escape()?;
                            s.push(cp);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar; the input is a &str so byte
                    // boundaries are guaranteed valid.
                    let start = self.pos;
                    let mut end = start + 1;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    s.push_str(
                        std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        // self.pos is at the 'u'.
        let hex4 = |p: &mut Self| -> Result<u32, JsonError> {
            p.pos += 1; // past 'u'
            if p.pos + 4 > p.bytes.len() {
                return Err(p.err("truncated \\u escape"));
            }
            let s = std::str::from_utf8(&p.bytes[p.pos..p.pos + 4])
                .map_err(|_| p.err("invalid \\u escape"))?;
            let v = u32::from_str_radix(s, 16).map_err(|_| p.err("invalid \\u escape"))?;
            p.pos += 4;
            Ok(v)
        };
        let hi = hex4(self)?;
        if (0xD800..0xDC00).contains(&hi) {
            // Surrogate pair: expect \uXXXX low surrogate.
            if self.peek() == Some(b'\\') {
                self.pos += 1;
                if self.peek() == Some(b'u') {
                    let lo = hex4(self)?;
                    if (0xDC00..0xE000).contains(&lo) {
                        let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        return char::from_u32(cp).ok_or_else(|| self.err("invalid surrogate"));
                    }
                }
            }
            return Err(self.err("unpaired surrogate in \\u escape"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| self.err("integer out of range"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::Int(42));
        assert_eq!(parse("-7").unwrap(), Json::Int(-7));
        assert_eq!(parse("1.5").unwrap(), Json::Float(1.5));
        assert_eq!(parse("1e3").unwrap(), Json::Float(1000.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn u64_values_roundtrip_exactly() {
        let big = u64::MAX - 1;
        let v = parse(&big.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(big));
        assert_eq!(v.to_string(), big.to_string());
    }

    #[test]
    fn nested_roundtrip() {
        let src = r#"{"b":[1,2,[3]],"a":{"x":null,"y":"z\n\"q\""},"c":true}"#;
        let v = parse(src).unwrap();
        let compact = v.to_string();
        assert_eq!(parse(&compact).unwrap(), v);
        let pretty = v.to_string_pretty();
        assert_eq!(parse(&pretty).unwrap(), v);
        assert!(pretty.contains('\n'));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "nul",
            "01x",
            "\"unterminated",
            "[1] trailing",
            "{\"a\":}",
        ] {
            assert!(parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let deep = "[".repeat(100_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        assert_eq!(err.offset, MAX_DEPTH);
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert!(parse(&objects).unwrap_err().message.contains("nesting"));
        // exactly MAX_DEPTH levels still parse
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse(r#""A""#).unwrap(), Json::Str("A".into()));
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("😀".into()));
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn object_access_helpers() {
        let v = parse(r#"{"n":3,"s":"x","b":false,"a":[1],"z":null}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("n").and_then(Json::as_u32), Some(3));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(
            v.get("a").and_then(Json::as_array).map(<[Json]>::len),
            Some(1)
        );
        assert!(v.get("z").unwrap().is_null());
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn negative_numbers_do_not_cast_to_unsigned() {
        let v = parse("-1").unwrap();
        assert_eq!(v.as_u64(), None);
        assert_eq!(v.as_f64(), Some(-1.0));
    }
}
