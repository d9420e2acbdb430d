//! Offline stand-in for the [`serde_json`](https://crates.io/crates/serde_json)
//! crate: `to_string` / `to_string_pretty` / `from_str` over an in-memory
//! [`Value`] tree, implementing the workspace `serde` shim's traits.
//!
//! Supported JSON: objects, arrays, strings (with the standard escapes,
//! including `\uXXXX` and surrogate pairs), integers (`i64`/`u64` exact),
//! floats, booleans, null. Object key order is preserved (insertion order),
//! which keeps serialized output deterministic. Arrays and objects nest at
//! most 128 deep, as in the real crate: the parser recurses once per level,
//! and a deeper document is an error instead of a stack overflow.

#![forbid(unsafe_code)]

use serde::{de, ser, Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;

/// Error for both parsing and (de)serialization.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error {
    msg: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Error {
        Error {
            msg: msg.to_string(),
        }
    }
}

impl ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Error {
        Error {
            msg: msg.to_string(),
        }
    }
}

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Signed integer (no decimal point or exponent, fits `i64`).
    Int(i64),
    /// Unsigned integer above `i64::MAX`.
    UInt(u64),
    /// Any other number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object, insertion-ordered.
    Object(Vec<(String, Value)>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) | Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

// ---------------------------------------------------------------------------
// Serialization: T -> Value -> text.
// ---------------------------------------------------------------------------

/// Serialize `value` to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(render(&to_value(value)?, None, 0))
}

/// Serialize `value` to pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(render(&to_value(value)?, Some(2), 0))
}

/// Serialize `value` into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    value.serialize(ValueSerializer)
}

struct ValueSerializer;

/// Sequence builder for [`ValueSerializer`].
pub struct SeqBuilder {
    items: Vec<Value>,
}

impl ser::SerializeSeq for SeqBuilder {
    type Ok = Value;
    type Error = Error;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        self.items.push(to_value(value)?);
        Ok(())
    }

    fn end(self) -> Result<Value, Error> {
        Ok(Value::Array(self.items))
    }
}

/// Struct builder for [`ValueSerializer`].
pub struct StructBuilder {
    fields: Vec<(String, Value)>,
}

impl ser::SerializeStruct for StructBuilder {
    type Ok = Value;
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Error> {
        self.fields.push((key.to_string(), to_value(value)?));
        Ok(())
    }

    fn end(self) -> Result<Value, Error> {
        Ok(Value::Object(self.fields))
    }
}

impl Serializer for ValueSerializer {
    type Ok = Value;
    type Error = Error;
    type SerializeSeq = SeqBuilder;
    type SerializeStruct = StructBuilder;

    fn serialize_str(self, v: &str) -> Result<Value, Error> {
        Ok(Value::Str(v.to_string()))
    }

    fn serialize_bool(self, v: bool) -> Result<Value, Error> {
        Ok(Value::Bool(v))
    }

    fn serialize_u64(self, v: u64) -> Result<Value, Error> {
        Ok(match i64::try_from(v) {
            Ok(i) => Value::Int(i),
            Err(_) => Value::UInt(v),
        })
    }

    fn serialize_i64(self, v: i64) -> Result<Value, Error> {
        Ok(Value::Int(v))
    }

    fn serialize_f64(self, v: f64) -> Result<Value, Error> {
        if v.is_finite() {
            Ok(Value::Float(v))
        } else {
            Err(de::Error::custom("non-finite float has no JSON form"))
        }
    }

    fn serialize_none(self) -> Result<Value, Error> {
        Ok(Value::Null)
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<Value, Error> {
        to_value(value)
    }

    fn serialize_seq(self, len: Option<usize>) -> Result<SeqBuilder, Error> {
        Ok(SeqBuilder {
            items: Vec::with_capacity(len.unwrap_or(0)),
        })
    }

    fn serialize_struct(self, _name: &'static str, len: usize) -> Result<StructBuilder, Error> {
        Ok(StructBuilder {
            fields: Vec::with_capacity(len),
        })
    }
}

fn render(v: &Value, indent: Option<usize>, depth: usize) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::UInt(u) => u.to_string(),
        Value::Float(x) => {
            // Round-trippable and never bare-integer-looking (keeps floats
            // distinguishable from ints on re-parse).
            let s = format!("{x}");
            if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
                s
            } else {
                format!("{s}.0")
            }
        }
        Value::Str(s) => escape_str(s),
        Value::Array(items) => render_items(
            items
                .iter()
                .map(|it| render(it, indent, depth + 1))
                .collect(),
            ('[', ']'),
            indent,
            depth,
        ),
        Value::Object(fields) => render_items(
            fields
                .iter()
                .map(|(k, it)| {
                    let sep = if indent.is_some() { ": " } else { ":" };
                    format!("{}{}{}", escape_str(k), sep, render(it, indent, depth + 1))
                })
                .collect(),
            ('{', '}'),
            indent,
            depth,
        ),
    }
}

fn render_items(
    items: Vec<String>,
    (open, close): (char, char),
    indent: Option<usize>,
    depth: usize,
) -> String {
    if items.is_empty() {
        return format!("{open}{close}");
    }
    match indent {
        None => format!("{open}{}{close}", items.join(",")),
        Some(width) => {
            let pad = " ".repeat(width * (depth + 1));
            let pad_close = " ".repeat(width * depth);
            format!(
                "{open}\n{}\n{pad_close}{close}",
                items
                    .iter()
                    .map(|s| format!("{pad}{s}"))
                    .collect::<Vec<_>>()
                    .join(",\n"),
            )
        }
    }
}

fn escape_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// Deserialization: text -> Value -> T.
// ---------------------------------------------------------------------------

/// Parse JSON text into any `Deserialize` type.
pub fn from_str<T>(s: &str) -> Result<T, Error>
where
    T: for<'de> Deserialize<'de>,
{
    let value = parse(s)?;
    from_value(&value)
}

/// Deserialize out of an already-parsed [`Value`] tree.
pub fn from_value<T>(value: &Value) -> Result<T, Error>
where
    T: for<'de> Deserialize<'de>,
{
    T::deserialize(ValueDe { value })
}

/// Deepest array/object nesting [`parse`] accepts.
const MAX_DEPTH: usize = 128;

/// Parse JSON text into a [`Value`].
pub fn parse(s: &str) -> Result<Value, Error> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(de::Error::custom(format!(
            "trailing characters at byte {pos}"
        )));
    }
    Ok(value)
}

#[derive(Clone, Copy)]
struct ValueDe<'de> {
    value: &'de Value,
}

impl<'de> ValueDe<'de> {
    fn mismatch(&self, want: &str) -> Error {
        de::Error::custom(format!("expected {want}, found {}", self.value.type_name()))
    }
}

impl<'de> Deserializer<'de> for ValueDe<'de> {
    type Error = Error;

    fn take_str(self) -> Result<String, Error> {
        match self.value {
            Value::Str(s) => Ok(s.clone()),
            _ => Err(self.mismatch("string")),
        }
    }

    fn take_bool(self) -> Result<bool, Error> {
        match self.value {
            Value::Bool(b) => Ok(*b),
            _ => Err(self.mismatch("bool")),
        }
    }

    fn take_u64(self) -> Result<u64, Error> {
        match self.value {
            Value::Int(i) if *i >= 0 => Ok(*i as u64),
            Value::UInt(u) => Ok(*u),
            _ => Err(self.mismatch("unsigned integer")),
        }
    }

    fn take_i64(self) -> Result<i64, Error> {
        match self.value {
            Value::Int(i) => Ok(*i),
            _ => Err(self.mismatch("integer")),
        }
    }

    fn take_f64(self) -> Result<f64, Error> {
        match self.value {
            Value::Int(i) => Ok(*i as f64),
            Value::UInt(u) => Ok(*u as f64),
            Value::Float(x) => Ok(*x),
            _ => Err(self.mismatch("number")),
        }
    }

    fn take_option(self) -> Result<Option<Self>, Error> {
        match self.value {
            Value::Null => Ok(None),
            _ => Ok(Some(self)),
        }
    }

    fn take_seq(self) -> Result<Vec<Self>, Error> {
        match self.value {
            Value::Array(items) => Ok(items.iter().map(|value| ValueDe { value }).collect()),
            _ => Err(self.mismatch("array")),
        }
    }

    fn take_field(self, name: &'static str) -> Result<Self, Error> {
        match self.value {
            Value::Object(fields) => {
                // Missing fields project to null so `Option` fields work.
                const NULL: Value = Value::Null;
                Ok(fields
                    .iter()
                    .find(|(k, _)| k == name)
                    .map(|(_, value)| ValueDe { value })
                    .unwrap_or(ValueDe { value: &NULL }))
            }
            _ => Err(self.mismatch("object")),
        }
    }
}

// --------------------------- recursive-descent parser ----------------------

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parse one value whose enclosing arrays/objects are `depth` deep.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, Error> {
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err(de::Error::custom("unexpected end of input"));
    };
    if matches!(b, b'[' | b'{') && depth == MAX_DEPTH {
        return Err(de::Error::custom(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        )));
    }
    match b {
        b'n' => parse_keyword(bytes, pos, "null", Value::Null),
        b't' => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        b'f' => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        b'"' => parse_string(bytes, pos).map(Value::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => {
                        return Err(de::Error::custom(format!(
                            "expected ',' or ']' at byte {pos}"
                        )))
                    }
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(de::Error::custom(format!("expected ':' at byte {pos}")));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(fields));
                    }
                    _ => {
                        return Err(de::Error::custom(format!(
                            "expected ',' or '}}' at byte {pos}"
                        )))
                    }
                }
            }
        }
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        other => Err(de::Error::custom(format!(
            "unexpected byte {:?} at {pos}",
            other as char
        ))),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Value) -> Result<Value, Error> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(de::Error::custom(format!("invalid literal at byte {pos}")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, Error> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(de::Error::custom(format!("expected string at byte {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(de::Error::custom("unterminated string"));
        };
        *pos += 1;
        match b {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err(de::Error::custom("unterminated escape"));
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{08}'),
                    b'f' => out.push('\u{0c}'),
                    b'u' => {
                        let hi = parse_hex4(bytes, pos)?;
                        let code = if (0xd800..0xdc00).contains(&hi) {
                            // Surrogate pair.
                            if bytes.get(*pos) == Some(&b'\\') && bytes.get(*pos + 1) == Some(&b'u')
                            {
                                *pos += 2;
                                let lo = parse_hex4(bytes, pos)?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(de::Error::custom(
                                        "high surrogate not followed by a low surrogate",
                                    ));
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                return Err(de::Error::custom("lone high surrogate"));
                            }
                        } else {
                            hi
                        };
                        out.push(
                            char::from_u32(code).ok_or_else(|| -> Error {
                                de::Error::custom("invalid \\u escape")
                            })?,
                        );
                    }
                    other => {
                        return Err(de::Error::custom(format!(
                            "invalid escape \\{}",
                            other as char
                        )))
                    }
                }
            }
            _ => {
                // Re-decode UTF-8 starting at the byte we consumed.
                let start = *pos - 1;
                let rest = std::str::from_utf8(&bytes[start..])
                    .map_err(|_| -> Error { de::Error::custom("invalid UTF-8 in string") })?;
                let c = rest.chars().next().expect("nonempty by construction");
                out.push(c);
                *pos = start + c.len_utf8();
            }
        }
    }
}

fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, Error> {
    if *pos + 4 > bytes.len() {
        return Err(de::Error::custom("truncated \\u escape"));
    }
    let s = std::str::from_utf8(&bytes[*pos..*pos + 4])
        .map_err(|_| -> Error { de::Error::custom("invalid \\u escape") })?;
    let v = u32::from_str_radix(s, 16)
        .map_err(|_| -> Error { de::Error::custom("invalid \\u escape") })?;
    *pos += 4;
    Ok(v)
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, Error> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
        *pos += 1;
    }
    let mut is_float = false;
    if bytes.get(*pos) == Some(&b'.') {
        is_float = true;
        *pos += 1;
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            *pos += 1;
        }
    }
    if matches!(bytes.get(*pos), Some(&b'e') | Some(&b'E')) {
        is_float = true;
        *pos += 1;
        if matches!(bytes.get(*pos), Some(&b'+') | Some(&b'-')) {
            *pos += 1;
        }
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            *pos += 1;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| -> Error { de::Error::custom("invalid number") })?;
    if !is_float {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Value::Int(i));
        }
        if let Ok(u) = text.parse::<u64>() {
            return Ok(Value::UInt(u));
        }
    }
    text.parse::<f64>()
        .map(Value::Float)
        .map_err(|_| -> Error { de::Error::custom(format!("invalid number `{text}`")) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("\"a\\nb\"").unwrap(), Value::Str("a\nb".into()));
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse(r#""é""#).unwrap(), Value::Str("é".into()));
        assert_eq!(parse(r#""😀""#).unwrap(), Value::Str("😀".into()));
        let back: String = from_str(&to_string("π 😀 \"q\" \\").unwrap()).unwrap();
        assert_eq!(back, "π 😀 \"q\" \\");
        // Explicit surrogate-pair escape, and the malformed variants.
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Value::Str("😀".into()));
        assert!(parse(r#""\ud800""#).is_err()); // lone high surrogate
        assert!(parse(r#""\ud800\u0041""#).is_err()); // high + non-low escape
        assert!(parse(r#""\ud800x""#).is_err()); // high + literal
    }

    #[test]
    fn nested_structure_roundtrip() {
        let v = Value::Object(vec![
            (
                "xs".into(),
                Value::Array(vec![Value::Int(1), Value::Null, Value::Str("s".into())]),
            ),
            ("flag".into(), Value::Bool(false)),
        ]);
        let compact = render(&v, None, 0);
        assert_eq!(compact, r#"{"xs":[1,null,"s"],"flag":false}"#);
        assert_eq!(parse(&compact).unwrap(), v);
        let pretty = render(&v, Some(2), 0);
        assert_eq!(parse(&pretty).unwrap(), v);
        assert!(pretty.contains("\n  \"xs\""));
    }

    #[test]
    fn typed_roundtrip_via_traits() {
        let xs: Vec<Option<u64>> = vec![Some(3), None, Some(u64::MAX)];
        let json = to_string(&xs).unwrap();
        let back: Vec<Option<u64>> = from_str(&json).unwrap();
        assert_eq!(back, xs);
    }

    #[derive(Debug, PartialEq)]
    struct Pair {
        a: u32,
        b: Option<String>,
    }
    serde::fields!(Pair { a, b }, check = small);

    fn small(p: &Pair) -> Result<(), &'static str> {
        if p.a < 10 {
            Ok(())
        } else {
            Err("a too large")
        }
    }

    #[test]
    fn fields_macro_writes_in_order_and_runs_the_check() {
        let p = Pair { a: 3, b: None };
        let wire = to_string(&p).unwrap();
        assert_eq!(wire, r#"{"a":3,"b":null}"#);
        assert_eq!(from_str::<Pair>(&wire).unwrap(), p);
        assert_eq!(from_str::<Pair>(r#"{"b":null,"a":3}"#).unwrap(), p);
        let err = from_str::<Pair>(r#"{"a":12,"b":"x"}"#).unwrap_err();
        assert_eq!(err.to_string(), "a too large");
        assert!(from_str::<Pair>(r#"{"b":"x"}"#).is_err());
    }

    /// A hostile document nests far deeper than the parser recurses: it is
    /// an error on an ordinary 2 MiB thread, not a stack overflow.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = std::thread::spawn(|| parse(&"[".repeat(10_000)))
            .join()
            .expect("parser thread must not die");
        assert!(deep.unwrap_err().to_string().contains("nesting deeper"));
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).is_err());
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).is_err());
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("[1, 2").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("01x").is_err());
        assert!(from_str::<Vec<u64>>("[-1]").is_err());
    }
}
