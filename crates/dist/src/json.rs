//! A minimal RFC 8259 JSON value with a hand-rolled parser.
//!
//! The workspace builds without registry access, so there is no serde; the
//! worker protocol instead emits JSON through `wp_bench`'s hand-rolled
//! writer and parses it back with this module.  The parser accepts the full
//! RFC 8259 grammar (objects, arrays, strings with every escape including
//! `\uXXXX` surrogate pairs, numbers, booleans, `null`) so a round-trip
//! through any compliant writer is lossless for the value shapes the bench
//! reports use.  Containers may nest at most `MAX_DEPTH` levels deep, so
//! a corrupt or hostile worker stream is rejected with a [`JsonError`]
//! instead of overflowing the recursive parser's stack.

use std::fmt;

/// The deepest container nesting [`Json::parse`] accepts.  Worker records
/// and bench reports nest only a few levels; the limit keeps the recursive
/// descent far inside the smallest thread stack.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
///
/// Numbers are stored as `f64`: every count in the bench reports (cycles,
/// proven N, shard indices) is far below 2⁵³, where `f64` is exact.
/// Object members keep their source order, so re-serialising a parsed
/// report preserves field order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source member order.
    Obj(Vec<(String, Json)>),
}

/// A malformed JSON document, with the byte offset of the failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with the byte offset of the first violation,
    /// including a container nested more than 128 levels deep.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Looks up a member of an object; `None` for missing members and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number exactly
    /// representing one (counts in the bench reports always do).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// [`Json::as_u64`] narrowed to `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// Decodes the null-or-count convention of the worker records:
    /// `Some(None)` for `null` (the measurement was off), `Some(Some(n))`
    /// for an exact non-negative integer, `None` for anything else
    /// (a malformed record).
    pub fn as_nullable_usize(&self) -> Option<Option<usize>> {
        match self {
            Json::Null => Some(None),
            other => other.as_usize().map(Some),
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// The array elements, if the value is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up an object member that must be a count
    /// ([`Json::as_u64`]); the error names the member, and callers prefix
    /// the record's identity.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or ill-typed member.
    pub fn require_u64(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("member '{key}' is missing or not a count"))
    }

    /// [`Json::require_u64`] narrowed to `usize`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or ill-typed member.
    pub fn require_usize(&self, key: &str) -> Result<usize, String> {
        self.get(key)
            .and_then(Json::as_usize)
            .ok_or_else(|| format!("member '{key}' is missing or not a count"))
    }

    /// Looks up an object member that must be a number.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or ill-typed member.
    pub fn require_f64(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("member '{key}' is missing or not a number"))
    }

    /// Looks up an object member that must be a string.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or ill-typed member.
    pub fn require_str(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("member '{key}' is missing or not a string"))
    }

    /// Looks up an object member following the null-or-count convention
    /// ([`Json::as_nullable_usize`]).
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing or ill-typed member.
    pub fn require_nullable_usize(&self, key: &str) -> Result<Option<usize>, String> {
        self.get(key)
            .and_then(Json::as_nullable_usize)
            .ok_or_else(|| format!("member '{key}' is missing, or not a count or null"))
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
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

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected character '{}'", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
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
                _ => return Err(self.err("expected ',' or ']' in array")),
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
                    let escape = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            self.pos -= 1;
                            return Err(self.err(format!("invalid escape '\\{}'", other as char)));
                        }
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(self.err("unescaped control character in string"))
                }
                Some(byte) => {
                    // Consume one full UTF-8 scalar.  The input is a &str,
                    // so the encoding is already valid and the leading byte
                    // gives the scalar's length — decode only that window
                    // (revalidating the whole remaining input per character
                    // would make string parsing quadratic).
                    let len = match byte {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + len])
                        .expect("input was a &str");
                    let c = s.chars().next().expect("the window holds one scalar");
                    out.push(c);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        // Exactly four ASCII hex digits: `from_str_radix` alone would also
        // accept a leading '+' or '-', which RFC 8259 does not.
        let mut code = 0u32;
        for &d in digits {
            let nibble = match d {
                b'0'..=b'9' => d - b'0',
                b'a'..=b'f' => d - b'a' + 10,
                b'A'..=b'F' => d - b'A' + 10,
                _ => return Err(self.err("invalid \\u escape digits")),
            };
            code = (code << 4) | u32::from(nibble);
        }
        self.pos = end;
        Ok(code)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        // High surrogate: a low surrogate escape must follow.
        if (0xD800..0xDC00).contains(&first) {
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let second = self.hex4()?;
                if (0xDC00..0xE000).contains(&second) {
                    let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                    return char::from_u32(code).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired high surrogate"));
        }
        if (0xDC00..0xE000).contains(&first) {
            return Err(self.err("unpaired low surrogate"));
        }
        char::from_u32(first).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let from = p.pos;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos > from
        };
        if !digits(self) {
            return Err(self.err("expected digits in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.err("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        // Rust's f64 parse maps overflow to ±infinity instead of erroring;
        // infinity is not representable in JSON (it would re-serialise as
        // null), so reject it here with the byte offset.
        text.parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .map(Json::Num)
            .ok_or_else(|| self.err("number out of range"))
    }
}

/// Serialises the value back to RFC 8259 JSON with the same escaping rules
/// as `wp_bench`'s writer (quotes, backslashes and control characters
/// escaped; floats keep a fraction or exponent so the schema stays stable).
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if !n.is_finite() {
                    return f.write_str("null");
                }
                let s = format!("{n}");
                if n.fract() == 0.0 && !s.contains(['e', 'E', '.']) {
                    write!(f, "{s}.0")
                } else {
                    f.write_str(&s)
                }
            }
            Json::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        '\r' => f.write_str("\\r")?,
                        '\t' => f.write_str("\\t")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                f.write_str("\"")
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{}: {value}", Json::Str(key.clone()))?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-0.5").unwrap(), Json::Num(-0.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::Num(1000.0));
        assert_eq!(Json::parse("1.25E-2").unwrap(), Json::Num(0.0125));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_containers_preserving_member_order() {
        let doc = r#"{"b": [1, 2, {"c": null}], "a": "x"}"#;
        let v = Json::parse(doc).unwrap();
        let Json::Obj(members) = &v else {
            panic!("expected an object")
        };
        assert_eq!(members[0].0, "b");
        assert_eq!(members[1].0, "a");
        assert_eq!(v.get("a").and_then(Json::as_str), Some("x"));
        let arr = v.get("b").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert!(arr[2].get("c").unwrap().is_null());
    }

    /// A corrupt stream nesting far past the limit is an ordinary error
    /// with a byte position, not a stack overflow.
    #[test]
    fn nesting_past_the_depth_limit_is_an_error_not_a_crash() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "the first container past the limit");
        assert!(err.message.contains("nesting"), "{err}");
        let record = format!(r#"{{"index": 0, "x": {}}}"#, nested(100_000));
        let err = Json::parse(&record).unwrap_err();
        assert_eq!(err.offset, "{\"index\": 0, \"x\": ".len() + MAX_DEPTH - 1);
    }

    #[test]
    fn parses_every_escape() {
        let v = Json::parse(r#""a\"b\\c\/d\b\f\n\r\t\u0001\u00e9""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "a\"b\\c/d\u{8}\u{c}\n\r\t\u{1}\u{e9}");
        // Surrogate pair: U+1F600.
        let v = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "\u{1F600}");
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "\"\\q\"",
            "\"\\ud800\"",
            "01e",
            "1 2",
            "nan",
            "\"\u{1}\"",
            // `from_str_radix` alone would accept a sign inside \u escapes.
            "\"\\u+041\"",
            "\"\\u-041\"",
            // f64 parse maps overflow to infinity; JSON cannot express it.
            "1e999",
            "-1e999",
        ] {
            assert!(Json::parse(doc).is_err(), "accepted {doc:?}");
        }
        let err = Json::parse("[1, }").unwrap_err();
        assert!(err.to_string().contains("byte 4"), "{err}");
    }

    #[test]
    fn integer_accessors_require_exact_integers() {
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(Json::parse("7.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-7").unwrap().as_u64(), None);
        assert_eq!(Json::parse("7").unwrap().as_usize(), Some(7));
        assert_eq!(Json::parse("\"7\"").unwrap().as_u64(), None);
    }

    /// Display → parse is the identity on the value shapes the bench
    /// reports use (including awkward labels).
    #[test]
    fn display_round_trips() {
        let doc = r#"{"label": "a\"b\\c\nd\u0001", "cycles": 123, "th": 0.75, "n": null, "ok": true, "xs": [1.5, "x", []]}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }
}
