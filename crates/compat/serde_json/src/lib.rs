//! Offline stand-in for `serde_json`.
//!
//! Serializes the stand-in `serde::Value` tree to JSON text and parses JSON
//! text back. Numbers are kept exact where possible: integers round-trip
//! through `u64`/`i64`, floats are printed with Rust's shortest-round-trip
//! `{:?}` formatting, so `f64` values survive a serialize → parse cycle
//! bit-for-bit.

pub use serde::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error type for serialization and parsing.
#[derive(Debug, Clone)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error::new(e.to_string())
    }
}

/// Serialize a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.serialize_value(), None, 0);
    Ok(out)
}

/// Serialize a value to two-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.serialize_value(), Some(2), 0);
    Ok(out)
}

/// Parse a value from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value_str(s)?;
    Ok(T::deserialize_value(&value)?)
}

/// Parse a JSON string into a raw [`Value`] tree.
pub fn parse_value_str(s: &str) -> Result<Value, Error> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::new(format!("trailing input at byte {pos}")));
    }
    Ok(value)
}

// ---------------------------------------------------------------------
// writer
// ---------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::U64(x) => out.push_str(&x.to_string()),
        Value::I64(x) => out.push_str(&x.to_string()),
        Value::F64(x) => write_f64(out, *x),
        Value::String(s) => write_string(out, s),
        Value::Array(xs) => {
            if xs.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, x, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, x)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, x, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        // `{:?}` is Rust's shortest representation that round-trips.
        out.push_str(&format!("{x:?}"));
    } else {
        // JSON has no Inf/NaN; match serde_json's lossy `null`.
        out.push_str("null");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

// ---------------------------------------------------------------------
// parser
// ---------------------------------------------------------------------

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(Error::new("unexpected end of input")),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::String),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(Error::new(format!("expected `,` or `]` at byte {pos}"))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut entries = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(entries));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(Error::new(format!("expected `:` at byte {pos}")));
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                entries.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(entries));
                    }
                    _ => return Err(Error::new(format!("expected `,` or `}}` at byte {pos}"))),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Value) -> Result<Value, Error> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(Error::new(format!("invalid literal at byte {pos}")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(Error::new(format!("expected string at byte {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(Error::new("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| Error::new("truncated \\u escape"))?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| Error::new("bad \\u escape"))?,
                            16,
                        )
                        .map_err(|_| Error::new("bad \\u escape"))?;
                        out.push(
                            char::from_u32(code).ok_or_else(|| Error::new("bad \\u code point"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(Error::new("bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 character (input is a &str, so valid).
                let s =
                    std::str::from_utf8(&bytes[*pos..]).map_err(|_| Error::new("invalid utf-8"))?;
                let c = s.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| Error::new("invalid number"))?;
    if text.is_empty() || text == "-" {
        return Err(Error::new(format!("expected number at byte {start}")));
    }
    if !is_float {
        if let Some(stripped) = text.strip_prefix('-') {
            if let Ok(mag) = stripped.parse::<u64>() {
                if mag <= i64::MAX as u64 {
                    return Ok(Value::I64(-(mag as i64)));
                }
            }
        } else if let Ok(x) = text.parse::<u64>() {
            return Ok(Value::U64(x));
        }
    }
    text.parse::<f64>()
        .map(Value::F64)
        .map_err(|_| Error::new(format!("invalid number `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(parse_value_str("42").unwrap(), Value::U64(42));
        assert_eq!(parse_value_str("-7").unwrap(), Value::I64(-7));
        assert_eq!(parse_value_str("1.25").unwrap(), Value::F64(1.25));
        assert_eq!(parse_value_str("true").unwrap(), Value::Bool(true));
        assert_eq!(parse_value_str("null").unwrap(), Value::Null);
        assert_eq!(
            parse_value_str("\"a\\nb\"").unwrap(),
            Value::String("a\nb".into())
        );
    }

    #[test]
    fn nested_roundtrip() {
        let v = Value::Object(vec![
            (
                "xs".into(),
                Value::Array(vec![Value::U64(1), Value::F64(0.5)]),
            ),
            ("name".into(), Value::String("q\"x".into())),
            ("none".into(), Value::Null),
        ]);
        let mut compact = String::new();
        write_value(&mut compact, &v, None, 0);
        assert_eq!(parse_value_str(&compact).unwrap(), v);
        let mut pretty = String::new();
        write_value(&mut pretty, &v, Some(2), 0);
        assert_eq!(parse_value_str(&pretty).unwrap(), v);
        assert!(pretty.contains('\n'));
    }

    #[test]
    fn f64_exact_roundtrip() {
        for x in [0.1, 1.0 / 3.0, 1e-300, 12345.678901234567] {
            let s = to_string(&x).unwrap();
            let back: f64 = from_str(&s).unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "{x} drifted via {s}");
        }
    }

    #[test]
    fn typed_roundtrip() {
        let xs = vec![1u32, 2, 3];
        let s = to_string(&xs).unwrap();
        assert_eq!(s, "[1,2,3]");
        let back: Vec<u32> = from_str(&s).unwrap();
        assert_eq!(xs, back);
    }
}
