//! A minimal JSON value type with a parser and a writer, used to
//! round-trip-check the Chrome-trace exporter and to write every
//! experiment report without external dependencies.
//!
//! Full RFC 8259 value grammar (objects, arrays, strings with escapes,
//! numbers, booleans, null); not performance-tuned — documents it
//! handles are a few megabytes at most. `Display` writes compact JSON;
//! the alternate form (`{:#}`) indents by two spaces. Objects keep
//! their keys sorted, so the written form of a value is canonical.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Later duplicate keys win.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member `key` of an object, if this is an object that has it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(self, f, 0)
    }
}

fn write_value(v: &Json, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
    let pretty = f.alternate();
    let newline = |f: &mut fmt::Formatter<'_>, depth: usize| {
        if pretty {
            write!(f, "\n{:width$}", "", width = 2 * depth)
        } else {
            Ok(())
        }
    };
    match v {
        Json::Null => f.write_str("null"),
        Json::Bool(b) => write!(f, "{b}"),
        Json::Num(n) if n.is_finite() => write!(f, "{n}"),
        Json::Num(_) => f.write_str("null"),
        Json::Str(s) => write!(f, "\"{}\"", escape(s)),
        Json::Arr(items) if items.is_empty() => f.write_str("[]"),
        Json::Arr(items) => {
            f.write_str("[")?;
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                newline(f, depth + 1)?;
                write_value(item, f, depth + 1)?;
            }
            newline(f, depth)?;
            f.write_str("]")
        }
        Json::Obj(map) if map.is_empty() => f.write_str("{}"),
        Json::Obj(map) => {
            f.write_str("{")?;
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                newline(f, depth + 1)?;
                write!(f, "\"{}\":{}", escape(key), if pretty { " " } else { "" })?;
                write_value(item, f, depth + 1)?;
            }
            newline(f, depth)?;
            f.write_str("}")
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

// Integers convert through `f64`, exact up to 2^53: write hashes and
// seeds as hex strings instead.
macro_rules! json_from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            #[allow(clippy::cast_precision_loss, clippy::cast_lossless)]
            fn from(n: $t) -> Self {
                Json::Num(n as f64)
            }
        }
    )*};
}
json_from_number!(f64, u64, u32, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Self {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Collect `(key, value)` pairs into an object.
impl<K: Into<String>, V: Into<Json>> FromIterator<(K, V)> for Json {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(pairs: I) -> Self {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }
}

/// A parse failure, with the byte offset where it happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parse one complete JSON document. Trailing non-whitespace is an
/// error.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> JsonError {
        JsonError { at: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, word: &'static str, msg: &'static str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self
                .literal("true", "expected `true`")
                .map(|()| Json::Bool(true)),
            Some(b'f') => self
                .literal("false", "expected `false`")
                .map(|()| Json::Bool(false)),
            Some(b'n') => self.literal("null", "expected `null`").map(|()| Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{', "expected `{`")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected `:` after object key")?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump() {
                Some(b',') => {}
                Some(b'}') => return Ok(Json::Obj(map)),
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[', "expected `[`")?;
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
            match self.bump() {
                Some(b',') => {}
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected `\"`")?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        // Surrogate pair handling.
                        let ch = if (0xD800..0xDC00).contains(&cp) {
                            self.literal("\\u", "expected low surrogate")?;
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.err("invalid low surrogate"));
                            }
                            let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(c).ok_or_else(|| self.err("invalid code point"))?
                        } else {
                            char::from_u32(cp).ok_or_else(|| self.err("invalid code point"))?
                        };
                        out.push(ch);
                    }
                    _ => return Err(self.err("invalid escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // Multi-byte UTF-8: the input is a &str, so the
                    // sequence is valid — re-decode it.
                    let start = self.pos - 1;
                    let len = match b {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let end = (start + len).min(self.bytes.len());
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
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
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Escape `s` as the *contents* of a JSON string literal (no quotes).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(parse("-3.5e2").unwrap(), Json::Num(-350.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let doc = r#" {"a": [1, 2, {"b": null}], "c": {"d": true}} "#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].get("b"),
            Some(&Json::Null)
        );
        assert_eq!(v.get("c").unwrap().get("d"), Some(&Json::Bool(true)));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#""a\nb\t\"q\" A 😀 é""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\nb\t\"q\" A 😀 é");
    }

    #[test]
    fn escape_round_trips() {
        let original = "line1\nline2\t\"quoted\" back\\slash é 😀 \u{1}";
        let doc = format!("\"{}\"", escape(original));
        assert_eq!(parse(&doc).unwrap().as_str().unwrap(), original);
    }

    #[test]
    fn writer_round_trips_through_the_parser() {
        let doc: Json = [
            ("name", Json::from("q\"uote\\ tab\t é 😀 \u{1}")),
            ("count", Json::from(1_299_760u64)),
            ("ratio", Json::from(-0.125)),
            ("tiny", Json::from(3.5e-9)),
            ("flags", Json::from(vec![true, false])),
            ("nothing", Json::Null),
            ("empty", Json::Arr(vec![])),
            (
                "nested",
                [("inner", Json::Obj(BTreeMap::new()))]
                    .into_iter()
                    .collect(),
            ),
        ]
        .into_iter()
        .collect();
        let compact = doc.to_string();
        assert!(
            !compact.contains('\n'),
            "compact form is one line: {compact}"
        );
        assert_eq!(parse(&compact).unwrap(), doc);
        let pretty = format!("{doc:#}");
        assert!(pretty.contains("\n  \"count\": 1299760"), "{pretty}");
        assert_eq!(parse(&pretty).unwrap(), doc);
        assert_eq!(Json::from(f64::NAN).to_string(), "null");
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("42 garbage").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), Json::Obj(BTreeMap::new()));
        assert_eq!(parse(" [ ] ").unwrap(), Json::Arr(vec![]));
    }
}
