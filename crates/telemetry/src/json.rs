//! A minimal JSON value type, writer, parser, and `json!` macro.
//!
//! The figure dumps used to go through `serde_json`; that was the only
//! registry dependency in the workspace's default build graph, so it is
//! replaced by this hand-rolled equivalent. It supports exactly what
//! the dumps and telemetry artifacts need — objects, arrays, numbers,
//! strings, bools, null — with deterministic (sorted-key) pretty output
//! and a strict recursive-descent [`parse`] so exporters' artifacts can
//! be read back by `tfc-trace`.
//!
//! This module lives in `tfc-telemetry` (the lowest crate that writes
//! artifacts) and is re-exported as `tfc_bench::json` for the figure
//! harness.
//!
//! # Examples
//!
//! ```
//! use tfc_telemetry::json;
//!
//! let v = json!({"flows": [1, 2], "goodput_bps": 9.4e8, "note": "ok"});
//! assert!(v.pretty().contains("\"flows\""));
//! let back = json::parse(&v.pretty()).unwrap();
//! assert_eq!(back.get("note").unwrap().as_str(), Some("ok"));
//! assert_eq!(back.get("goodput_bps").unwrap().as_f64(), Some(9.4e8));
//! ```
//!
//! Note the writer prints integral floats without a decimal point, so
//! `parse` may return [`Value::Int`] where the writer saw a float; the
//! numeric accessors ([`Value::as_i64`], [`Value::as_f64`]) accept both.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Object storage. `BTreeMap` keeps dump output key-sorted and thus
/// byte-stable across runs.
pub type Map = BTreeMap<String, Value>;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integral number.
    Int(i64),
    /// Floating number (non-finite values print as `null`).
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object.
    Object(Map),
}

impl Value {
    /// Mutable array access, `None` for non-arrays.
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Array items, `None` for non-arrays.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// String content, `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean content, `None` for non-booleans.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Integer content (`Int`, or a `Float` with integral value).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 && f.is_finite() => Some(*f as i64),
            _ => None,
        }
    }

    /// Numeric content as `f64` (`Int` or `Float`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Object-member lookup, `None` for non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation (newline-terminated).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Float(f) => {
                if f.is_finite() {
                    let _ = write!(out, "{f}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => write_array(out, indent, items),
            Value::Object(map) => {
                if map.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }
}

/// Pretty-prints `items` as an array at `indent`: the bytes of
/// `Value::Array`, but written as the items are drawn, never all held.
pub(crate) fn write_array<V: Borrow<Value>>(
    out: &mut String,
    indent: usize,
    items: impl IntoIterator<Item = V>,
) {
    out.push('[');
    let mut empty = true;
    for item in items {
        out.push_str(if empty { "" } else { "," });
        empty = false;
        newline_indent(out, indent + 1);
        item.borrow().write(out, indent + 1);
    }
    if !empty {
        newline_indent(out, indent);
    }
    out.push(']');
}

fn newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
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

/// Where `parse` failed and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Parses a JSON document (the inverse of [`Value::pretty`]).
///
/// Strict: exactly one value, trailing whitespace only. Numbers without
/// `.`, `e`, or `E` that fit an `i64` become [`Value::Int`]; everything
/// else numeric becomes [`Value::Float`].
pub fn parse(input: &str) -> Result<Value, ParseError> {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = Map::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy the longest escape-free ASCII/UTF-8 run.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
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
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs are never produced by our
                            // writer; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        // Called just past the 'u'; consumes exactly four hex digits.
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("bad \\u escape"))?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(cp)
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| self.err("bad number"))
    }
}

macro_rules! impl_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::Int(v as i64)
            }
        }
    )*};
}

impl_from_int!(i8, i16, i32, i64, u8, u16, u32, usize);

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        // Counters in this workspace are far below 2^63; fall back to
        // the float form rather than wrapping if one ever is not.
        i64::try_from(v).map_or(Value::Float(v as f64), Value::Int)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::Float(v as f64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<A: Into<Value>, B: Into<Value>> From<(A, B)> for Value {
    fn from((a, b): (A, B)) -> Self {
        Value::Array(vec![a.into(), b.into()])
    }
}

impl<T: Into<Value> + Copy> From<&T> for Value {
    fn from(v: &T) -> Self {
        (*v).into()
    }
}

/// Builds a [`Value`] from JSON-shaped syntax, mirroring the subset of
/// `serde_json::json!` the figure dumps use: object literals (keys are
/// string literals), array literals, and arbitrary expressions whose
/// types implement `Into<Value>`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::json::Value::Null };
    ([]) => { $crate::json::Value::Array(::std::vec::Vec::new()) };
    ([ $($elem:expr),+ $(,)? ]) => {
        $crate::json::Value::Array(::std::vec![ $($crate::json!($elem)),+ ])
    };
    ({}) => { $crate::json::Value::Object($crate::json::Map::new()) };
    ({ $($body:tt)+ }) => {{
        let mut map = $crate::json::Map::new();
        $crate::json_entries!(map, $($body)+);
        $crate::json::Value::Object(map)
    }};
    ($other:expr) => { $crate::json::Value::from($other) };
}

/// Internal muncher for `json!` object bodies. Nested `{...}` and
/// `[...]` values must be matched as token trees before the general
/// expression arm: a JSON object literal is not a valid Rust block
/// expression, and a mixed-type array literal is not a valid Rust
/// array expression.
#[doc(hidden)]
#[macro_export]
macro_rules! json_entries {
    ($map:ident, $key:literal : { $($inner:tt)* } , $($rest:tt)*) => {
        $map.insert($key.to_string(), $crate::json!({ $($inner)* }));
        $crate::json_entries!($map, $($rest)*);
    };
    ($map:ident, $key:literal : { $($inner:tt)* }) => {
        $map.insert($key.to_string(), $crate::json!({ $($inner)* }));
    };
    ($map:ident, $key:literal : [ $($inner:tt)* ] , $($rest:tt)*) => {
        $map.insert($key.to_string(), $crate::json!([ $($inner)* ]));
        $crate::json_entries!($map, $($rest)*);
    };
    ($map:ident, $key:literal : [ $($inner:tt)* ]) => {
        $map.insert($key.to_string(), $crate::json!([ $($inner)* ]));
    };
    ($map:ident, $key:literal : $value:expr , $($rest:tt)*) => {
        $map.insert($key.to_string(), $crate::json!($value));
        $crate::json_entries!($map, $($rest)*);
    };
    ($map:ident, $key:literal : $value:expr) => {
        $map.insert($key.to_string(), $crate::json!($value));
    };
    ($map:ident,) => {};
    ($map:ident) => {};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(json!(null).pretty(), "null");
        assert_eq!(json!(3).pretty(), "3");
        assert_eq!(json!(2.5).pretty(), "2.5");
        assert_eq!(json!(true).pretty(), "true");
        assert_eq!(json!("hi").pretty(), "\"hi\"");
        assert_eq!(json!(f64::NAN).pretty(), "null");
    }

    #[test]
    fn object_and_array_shapes() {
        let v = json!({
            "pair": [1, 2.5],
            "nested": {"inner": "x"},
            "none": Option::<u64>::None,
            "some": Some(7u64),
        });
        let s = v.pretty();
        assert!(s.contains("\"pair\": [\n    1,\n    2.5\n  ]"));
        assert!(s.contains("\"inner\": \"x\""));
        assert!(s.contains("\"none\": null"));
        assert!(s.contains("\"some\": 7"));
    }

    #[test]
    fn from_tuple_vec_and_refs() {
        let pts: Vec<(u64, f64)> = vec![(1, 0.5), (2, 1.0)];
        let v: Value = pts.iter().collect::<Vec<_>>().into();
        assert_eq!(
            v,
            Value::Array(vec![
                Value::Array(vec![Value::Int(1), Value::Float(0.5)]),
                Value::Array(vec![Value::Int(2), Value::Float(1.0)]),
            ])
        );
    }

    #[test]
    fn keys_are_sorted_and_escaped() {
        let mut m = Map::new();
        m.insert("b\"x".into(), json!(1));
        m.insert("a".into(), json!(2));
        let s = Value::Object(m).pretty();
        let a = s.find("\"a\"").unwrap();
        let b = s.find("\"b\\\"x\"").unwrap();
        assert!(a < b);
    }

    #[test]
    fn as_array_mut_pushes() {
        let mut v = json!([]);
        v.as_array_mut().unwrap().push(json!(1));
        assert_eq!(v, Value::Array(vec![Value::Int(1)]));
        assert_eq!(json!(3).as_array_mut(), None);
    }

    #[test]
    fn big_u64_degrades_to_float() {
        let v: Value = u64::MAX.into();
        assert!(matches!(v, Value::Float(_)));
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("-42").unwrap(), Value::Int(-42));
        assert_eq!(parse("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Value::Str("a\nb".into()));
        assert_eq!(parse("\"\\u0041\"").unwrap(), Value::Str("A".into()));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn parse_roundtrips_pretty_output() {
        let pts: Vec<(u64, f64)> = vec![(1, 0.5), (2, 1.5)];
        let v = json!({
            "counts": {"drop": 3, "enqueue": 1000},
            "name": "incast \"smoke\"\n",
            "pts": pts,
            "ratio": 0.97,
            "none": Option::<u64>::None,
            "big": u64::MAX,
        });
        assert_eq!(parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn accessors() {
        let v = json!({"a": [1, "x"], "f": 2.0});
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[1].as_str(), Some("x"));
        assert_eq!(v.get("f").unwrap().as_i64(), Some(2));
        assert_eq!(v.get("f").unwrap().as_f64(), Some(2.0));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Null.as_i64(), None);
    }
}
