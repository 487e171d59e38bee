//! A minimal JSON value model with a writer and parser.
//!
//! The workspace builds offline (the `serde` dependency is a no-op shim),
//! so run logs are written and read with this self-contained
//! implementation. It covers exactly the JSON subset the telemetry schema
//! uses: objects, arrays, strings, numbers, booleans, and null.
//!
//! Non-finite floats are not representable in JSON and serialize as
//! `null`; finite floats round-trip exactly (shortest-representation
//! formatting).

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the schema's counters and indices).
    U64(u64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    List(Vec<Value>),
    /// An object; insertion-ordered key/value pairs.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in a [`Value::Map`] (None for other variants).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view: `U64` and `F64` both convert.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(u) => Some(u as f64),
            Value::F64(f) => Some(f),
            _ => None,
        }
    }

    /// Integer view (exact `U64` only).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(u) => Some(u),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array view.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes to compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(u) => {
                let _ = write!(out, "{u}");
            }
            Value::F64(f) => write_f64(out, *f),
            Value::Str(s) => write_escaped(out, s),
            Value::List(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_json(out);
                }
                out.push(']');
            }
            Value::Map(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<u64> for Value {
    fn from(u: u64) -> Self {
        Value::U64(u)
    }
}
impl From<usize> for Value {
    fn from(u: usize) -> Self {
        Value::U64(u as u64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::F64(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<Vec<f64>> for Value {
    fn from(v: Vec<f64>) -> Self {
        Value::List(v.into_iter().map(Value::F64).collect())
    }
}
impl From<Vec<u64>> for Value {
    fn from(v: Vec<u64>) -> Self {
        Value::List(v.into_iter().map(Value::U64).collect())
    }
}

fn write_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        // `{}` is Rust's shortest round-trip representation, but bare
        // integers like `2` must stay floats on re-read; the schema treats
        // U64 and F64 interchangeably via `as_f64`, so this is fine.
        let _ = write!(out, "{f}");
    } else {
        out.push_str("null");
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

/// The deepest nesting of arrays and objects [`parse`] accepts. The
/// parser recurses once per level, so untrusted input (a serve request
/// line, a scorecard) must not pick the depth; every document the repo
/// writes stays under ten levels.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document.
///
/// # Errors
///
/// Returns a message with the byte offset of the first syntax error, or
/// of the first array or object nested more than 128 levels deep.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.pos));
                }
                self.depth += 1;
                let v = if open == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let mut integral = true;
        if self.peek() == Some(b'-') {
            self.pos += 1;
            integral = false; // negative values live in F64
        }
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        if integral {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
        }
        text.parse::<f64>().map(Value::F64).map_err(|_| format!("invalid number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
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
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| "invalid \\u escape".to_owned())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "invalid \\u escape".to_owned())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos - 1)),
                    }
                }
                c => {
                    // Re-decode the UTF-8 sequence starting at `c`.
                    let len = utf8_len(c);
                    let end = self.pos - 1 + len;
                    if end > self.bytes.len() {
                        return Err("invalid utf-8 in string".into());
                    }
                    let chunk = std::str::from_utf8(&self.bytes[self.pos - 1..end])
                        .map_err(|_| "invalid utf-8 in string".to_owned())?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::List(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::List(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (v, json) in [
            (Value::Null, "null"),
            (Value::Bool(true), "true"),
            (Value::U64(42), "42"),
            (Value::F64(-1.5), "-1.5"),
            (Value::Str("a\"b\\c\nd".into()), "\"a\\\"b\\\\c\\nd\""),
        ] {
            assert_eq!(v.to_json(), json);
            assert_eq!(parse(json).unwrap(), v);
        }
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [0.1, 1e-12, 123456.789, f64::MIN_POSITIVE, -2.5e300] {
            let json = Value::F64(f).to_json();
            let back = parse(&json).unwrap().as_f64().unwrap();
            assert_eq!(back, f, "{json}");
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Value::F64(f64::NAN).to_json(), "null");
        assert_eq!(Value::F64(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Value::Map(vec![
            ("k".into(), Value::List(vec![Value::U64(1), Value::F64(2.5), Value::Null])),
            ("s".into(), Value::Str("x".into())),
            ("m".into(), Value::Map(vec![("inner".into(), Value::Bool(false))])),
        ]);
        assert_eq!(parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn map_accessors_work() {
        let v = parse(r#"{"a": 3, "b": [1.5, 2], "c": "hi"}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("a").and_then(Value::as_f64), Some(3.0));
        assert_eq!(v.get("b").and_then(Value::as_list).map(<[Value]>::len), Some(2));
        assert_eq!(v.get("c").and_then(Value::as_str), Some("hi"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_capped_without_overflowing_the_stack() {
        for unit in ["[", "{\"a\":"] {
            let err = parse(&unit.repeat(10_000)).unwrap_err();
            // The first opener past the cap starts at byte MAX_DEPTH × unit.
            assert!(err.contains(&format!("at byte {}", MAX_DEPTH * unit.len())), "{err}");
        }
        let at_cap = (0..MAX_DEPTH - 1).fold(Value::List(vec![]), |v, _| Value::List(vec![v]));
        let json = at_cap.to_json();
        assert_eq!(parse(&json).unwrap(), at_cap);
        assert!(parse(&format!("[{json}]")).is_err(), "one level past the cap");
    }

    #[test]
    fn whitespace_is_tolerated() {
        let v = parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.get("a").and_then(Value::as_list).map(<[Value]>::len), Some(2));
    }
}
