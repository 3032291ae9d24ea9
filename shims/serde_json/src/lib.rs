//! Offline stand-in for `serde_json`.
//!
//! Renders the value model of the vendored `serde` shim to JSON text and
//! parses JSON text back into it. Exposes the three entry points the
//! repository uses: [`to_string`], [`to_string_pretty`] and [`from_str`].

use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// Error produced by JSON serialization or parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

/// Result alias mirroring `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

// ------------------------------------------------------------------- writing

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

fn write_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        // `{:?}` keeps a decimal point / exponent so the number re-parses as
        // a float, and round-trips f64 exactly.
        out.push_str(&format!("{f:?}"));
    } else {
        // JSON has no Inf/NaN; mirror serde_json's lossy `null`.
        out.push_str("null");
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(f) => write_f64(out, *f),
        Value::Str(s) => write_escaped(out, s),
        Value::Seq(items) => write_block(out, indent, '[', ']', items.len(), |out, i, ind| {
            write_value(out, &items[i], ind);
        }),
        Value::Map(entries) => write_block(out, indent, '{', '}', entries.len(), |out, i, ind| {
            write_escaped(out, &entries[i].0);
            out.push(':');
            if indent.is_some() {
                out.push(' ');
            }
            write_value(out, &entries[i].1, ind);
        }),
    }
}

fn write_block(
    out: &mut String,
    indent: Option<usize>,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, Option<usize>),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    let inner = indent.map(|d| d + 1);
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(d) = inner {
            out.push('\n');
            out.push_str(&"  ".repeat(d));
        }
        item(out, i, inner);
    }
    if let Some(d) = indent {
        out.push('\n');
        out.push_str(&"  ".repeat(d));
    }
    out.push(close);
}

/// Serializes a value to compact JSON.
///
/// # Errors
///
/// Infallible for the shim's value model; kept fallible for API parity.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None);
    Ok(out)
}

/// Serializes a value to pretty-printed (two-space indented) JSON.
///
/// # Errors
///
/// Infallible for the shim's value model; kept fallible for API parity.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(0));
    Ok(out)
}

// ------------------------------------------------------------------- parsing

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            src: s,
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> Error {
        Error(format!("JSON parse error at byte {}: {msg}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, what: &str) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(what))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Value::Null),
            Some(b't') => self.eat_lit("true", Value::Bool(true)),
            Some(b'f') => self.eat_lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.seq(),
            Some(b'{') => self.map(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn string(&mut self) -> Result<String> {
        self.eat(b'"', "expected string")?;
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed by this repo's
                            // data (ASCII identifiers); map lone surrogates to
                            // the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash as one
                    // slice: both are ASCII, so the run ends on a char
                    // boundary of the (already valid UTF-8) input.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
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
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| self.err("invalid float"))
        } else if let Some(stripped) = text.strip_prefix('-') {
            // Negative integer lane.
            stripped
                .parse::<u64>()
                .ok()
                .and_then(|_| text.parse::<i64>().ok())
                .map(Value::I64)
                .ok_or_else(|| self.err("integer out of range"))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|_| self.err("integer out of range"))
        }
    }

    fn seq(&mut self) -> Result<Value> {
        self.eat(b'[', "expected [")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(self.err("expected , or ]")),
            }
        }
    }

    fn map(&mut self) -> Result<Value> {
        self.eat(b'{', "expected {")?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected :")?;
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(self.err("expected , or }")),
            }
        }
    }
}

/// Parses JSON text into any [`Deserialize`] type.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch with `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(T::from_value(&v)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_round_trip() {
        let v = vec![1u64, 2, 3];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[1,2,3]");
        assert_eq!(from_str::<Vec<u64>>(&s).unwrap(), v);
    }

    #[test]
    fn floats_and_negatives() {
        let s = to_string(&(-5i64)).unwrap();
        assert_eq!(s, "-5");
        assert_eq!(from_str::<i64>("-5").unwrap(), -5);
        let f = 1.5f64;
        let s = to_string(&f).unwrap();
        assert_eq!(from_str::<f64>(&s).unwrap(), f);
        // Large u64 survives.
        let n = u64::MAX;
        assert_eq!(from_str::<u64>(&to_string(&n).unwrap()).unwrap(), n);
    }

    #[test]
    fn strings_escape() {
        let long = "h\u{e9}llo \u{2211} \u{1f980} \"q\" \\ \t\u{1}".repeat(500);
        for s in ["a\"b\\c\nd", long.as_str()] {
            let json = to_string(&s).unwrap();
            assert_eq!(from_str::<String>(&json).unwrap(), s);
        }
    }

    #[test]
    fn pretty_parses_back() {
        use std::collections::BTreeMap;
        let mut m = BTreeMap::new();
        m.insert("k".to_string(), vec![1u32, 2]);
        let pretty = to_string_pretty(&m).unwrap();
        assert!(pretty.contains('\n'));
        assert_eq!(from_str::<BTreeMap<String, Vec<u32>>>(&pretty).unwrap(), m);
    }

    #[test]
    fn errors_are_reported() {
        assert!(from_str::<u64>("[1,").is_err());
        assert!(from_str::<u64>("1 2").is_err());
        assert!(from_str::<bool>("\"no\"").is_err());
    }
}
