//! Offline shim for `serde_json`.
//!
//! Renders the `serde` shim's [`Value`] model as JSON text and parses JSON
//! text back. Supports the full JSON grammar (nested arrays/objects, string
//! escapes including `\uXXXX` surrogate pairs, and numbers with exponents).
//! Floats print via Rust's `Display`, which emits the shortest string that
//! round-trips — equivalent to the real crate's `float_roundtrip` feature.
//! Non-finite floats serialize as `null`, matching `serde_json`.

use std::fmt;

pub use serde::Value;

/// JSON serialization/parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl Error {
    fn msg(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.to_string())
    }
}

pub fn to_string<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.serialize_value(), None, 0);
    Ok(out)
}

pub fn to_string_pretty<T: serde::Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&mut out, &value.serialize_value(), Some(2), 0);
    Ok(out)
}

pub fn from_str<T: serde::de::DeserializeOwned>(s: &str) -> Result<T, Error> {
    let value = parse(s)?;
    Ok(T::deserialize_value(&value)?)
}

// -------------------------------------------------------------- writing ----

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => push_display(out, n),
        Value::I64(n) => push_display(out, n),
        Value::F64(x) => {
            if x.is_finite() {
                // Display prints the shortest representation that parses back
                // to the same f64; integral floats gain ".0" so they stay
                // recognisably floats on the wire.
                let start = out.len();
                push_display(out, x);
                if !out[start..].contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
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
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

/// Appends `x`'s `Display` form without a temporary string.
fn push_display(out: &mut String, x: impl fmt::Display) {
    use fmt::Write as _;
    write!(out, "{x}").expect("writing to a String cannot fail");
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

/// Writes `s` as a JSON string literal: runs that need no escape are copied
/// whole, and only `"`, `\` and control characters are escaped.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // `b` is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0C => out.push_str("\\f"),
            _ => push_display(out, format_args!("\\u{b:04x}")),
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

// -------------------------------------------------------------- parsing ----

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Result<u8, Error> {
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::msg("unexpected end of input"))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek()? == b {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'n' => {
                if self.eat_keyword("null") {
                    Ok(Value::Null)
                } else {
                    Err(Error::msg("invalid keyword"))
                }
            }
            b't' => {
                if self.eat_keyword("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(Error::msg("invalid keyword"))
                }
            }
            b'f' => {
                if self.eat_keyword("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(Error::msg("invalid keyword"))
                }
            }
            b'"' => Ok(Value::Str(self.string()?)),
            b'[' => self.array(),
            b'{' => self.object(),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(Error::msg(format!(
                "unexpected character `{}` at byte {}",
                other as char, self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error::msg(format!(
                        "expected `,` or `]`, found `{}`",
                        other as char
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                other => {
                    return Err(Error::msg(format!(
                        "expected `,` or `}}`, found `{}`",
                        other as char
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::msg("invalid UTF-8 in string"))?,
            );
            match self.peek()? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek()?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low surrogate.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(Error::msg("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::msg("invalid unicode escape"))?,
                            );
                        }
                        other => {
                            return Err(Error::msg(format!("invalid escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => unreachable!("string scan stops only at quote or backslash"),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(Error::msg("truncated unicode escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| Error::msg("invalid unicode escape"))?;
        self.pos += 4;
        u32::from_str_radix(s, 16).map_err(|_| Error::msg("invalid unicode escape"))
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek()? == b'-' {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::msg("invalid number"))?;
        if !is_float {
            if let Some(rest) = text.strip_prefix('-') {
                if let Ok(v) = rest.parse::<u64>() {
                    if v <= i64::MAX as u64 + 1 {
                        return Ok(Value::I64((v as i128).wrapping_neg() as i64));
                    }
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::msg(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_structure() {
        let v = Value::Object(vec![
            ("a".into(), Value::U64(7)),
            ("b".into(), Value::F64(1.5)),
            (
                "c".into(),
                Value::Array(vec![Value::Null, Value::Bool(true)]),
            ),
            ("d".into(), Value::Str("x \"y\" \n z".into())),
            ("e".into(), Value::I64(-3)),
        ]);
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
        let pretty = to_string_pretty(&v).unwrap();
        let back2: Value = from_str(&pretty).unwrap();
        assert_eq!(v, back2);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [0.1, 1.0 / 3.0, 6.02e23, -2.5e-7, 212.25] {
            let text = to_string(&x).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(x, back, "{text}");
        }
    }

    #[test]
    fn integral_floats_stay_floats_on_the_wire() {
        assert_eq!(to_string(&2.0f64).unwrap(), "2.0");
        let back: f64 = from_str("2.0").unwrap();
        assert_eq!(back, 2.0);
    }

    /// A nested value with every escape class, floats that print with and
    /// without a point, and negative integers.
    fn pinned_value() -> Value {
        Value::Object(vec![
            (
                "esc \"k\"\t".into(),
                Value::Str("q\"b\\n\nr\rt\tb\u{08}f\u{0C}c\u{01}\u{1f}é😀 end".into()),
            ),
            (
                "floats".into(),
                Value::Array(vec![
                    Value::F64(1.0),
                    Value::F64(0.2),
                    Value::F64(1e-7),
                    Value::F64(-2.5),
                    Value::F64(f64::NAN),
                ]),
            ),
            (
                "ints".into(),
                Value::Array(vec![
                    Value::I64(-3),
                    Value::I64(i64::MIN),
                    Value::U64(0),
                    Value::U64(u64::MAX),
                ]),
            ),
            (
                "nest".into(),
                Value::Object(vec![
                    ("a".into(), Value::Array(vec![])),
                    ("o".into(), Value::Object(vec![])),
                    (
                        "deep".into(),
                        Value::Array(vec![Value::Array(vec![Value::Bool(false), Value::Null])]),
                    ),
                ]),
            ),
        ])
    }

    #[test]
    fn compact_and_pretty_output_are_pinned() {
        let v = pinned_value();
        assert_eq!(to_string(&v).unwrap(), PINNED_COMPACT);
        assert_eq!(to_string_pretty(&v).unwrap(), PINNED_PRETTY);
    }

    const PINNED_COMPACT: &str = r#"{"esc \"k\"\t":"q\"b\\n\nr\rt\tb\bf\fc\u0001\u001fé😀 end","floats":[1.0,0.2,0.0000001,-2.5,null],"ints":[-3,-9223372036854775808,0,18446744073709551615],"nest":{"a":[],"o":{},"deep":[[false,null]]}}"#;

    const PINNED_PRETTY: &str = r#"{
  "esc \"k\"\t": "q\"b\\n\nr\rt\tb\bf\fc\u0001\u001fé😀 end",
  "floats": [
    1.0,
    0.2,
    0.0000001,
    -2.5,
    null
  ],
  "ints": [
    -3,
    -9223372036854775808,
    0,
    18446744073709551615
  ],
  "nest": {
    "a": [],
    "o": {},
    "deep": [
      [
        false,
        null
      ]
    ]
  }
}"#;

    #[test]
    fn unicode_escapes_parse() {
        // é = é; 😀 is a surrogate pair for U+1F600.
        let s: String = from_str("\"a\\u00e9\\ud83d\\ude00b\"").unwrap();
        assert_eq!(s, "a\u{e9}\u{1F600}b");
    }
}
