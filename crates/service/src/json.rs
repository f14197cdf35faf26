//! A minimal in-tree JSON writer, reader and typed decoder.
//!
//! The build environment has no registry access, so serde is out of
//! reach; every JSON document in the workspace — the [`crate::Report`]
//! serialization and the daemon's wire lines and metrics payloads — is
//! emitted through this one module instead of hand-concatenated strings.
//!
//! The model is a tree of [`Json`] values with **ordered** object keys
//! (documents render exactly in insertion order, so pinned documents stay
//! diff-friendly) and per-value float precision (statistics pin
//! `{:.4}`-style formatting). Rendering is
//! pretty-printed with two-space indentation ([`Json::render`]) or
//! single-line compact ([`Json::render_compact`] — the daemon's
//! JSON-lines wire framing).
//!
//! Since the daemon also *receives* JSON off a socket, the module pairs
//! the writer with a strict reader: [`parse`] turns one document back
//! into a [`Json`] tree, preserving key order and float precision, so
//! `parse(doc.render_compact())` reproduces `doc` exactly for every
//! canonically rendered document, and [`validate`] runs the same grammar
//! without building anything, for a caller that only needs to know a
//! document is well formed. [`Fields`] and the `as_*` helpers are
//! the one typed decoder over a parsed tree: the daemon's wire codec and
//! its metrics payloads both read through them.

use std::fmt::{self, Write as _};
use std::marker::PhantomData;

/// One JSON value.
///
/// # Examples
///
/// ```
/// use rlim_service::json::Json;
///
/// let doc = Json::object([
///     ("name", Json::from("div")),
///     ("gates", Json::from(25237u64)),
///     ("seconds", Json::float(1.25, 3)),
/// ]);
/// assert_eq!(
///     doc.render(),
///     "{\n  \"name\": \"div\",\n  \"gates\": 25237,\n  \"seconds\": 1.250\n}"
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A float rendered with a fixed number of decimal places
    /// (`precision == 0` renders as an integer literal, matching
    /// `format!("{v:.0}")`). Non-finite values render as `null`.
    Float {
        /// The value.
        value: f64,
        /// Decimal places.
        precision: usize,
    },
    /// A string (escaped on rendering).
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with keys in insertion order.
    Object(Vec<(String, Json)>),
}

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

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::UInt(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::UInt(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map(Into::into).unwrap_or(Json::Null)
    }
}

impl Json {
    /// An object from `(key, value)` pairs, keys kept in order.
    pub fn object<K: Into<String>, V: Into<Json>, I: IntoIterator<Item = (K, V)>>(
        entries: I,
    ) -> Self {
        Json::Object(
            entries
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// An array from values.
    pub fn array<V: Into<Json>, I: IntoIterator<Item = V>>(values: I) -> Self {
        Json::Array(values.into_iter().map(Into::into).collect())
    }

    /// A float with a fixed decimal precision.
    pub fn float(value: f64, precision: usize) -> Self {
        Json::Float { value, precision }
    }

    /// Renders the value as pretty-printed JSON (two-space indent, no
    /// trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    /// Renders the value as one compact line — no spaces, no newlines.
    ///
    /// This is the framing of the daemon's wire protocol: one request or
    /// response is exactly one `render_compact` line terminated by `\n`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rlim_service::json::Json;
    ///
    /// let doc = Json::object([("verb", Json::from("healthz"))]);
    /// assert_eq!(doc.render_compact(), "{\"verb\":\"healthz\"}");
    /// ```
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Object(entries) => {
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(key, out);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
            scalar => scalar.write(out, 0),
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Float { value, precision } => {
                if value.is_finite() {
                    let _ = write!(out, "{value:.precision$}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => escape_into(s, out),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                    out.push_str(if i + 1 == items.len() { "\n" } else { ",\n" });
                }
                indent(out, depth);
                out.push(']');
            }
            Json::Object(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (key, value)) in entries.iter().enumerate() {
                    indent(out, depth + 1);
                    escape_into(key, out);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                    out.push_str(if i + 1 == entries.len() { "\n" } else { ",\n" });
                }
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Appends `s` as a quoted, escaped JSON string literal.
///
/// Runs of bytes that need no escape are copied whole. Every byte that
/// does (a quote, a backslash, a control byte) is ASCII, and ASCII bytes
/// never occur inside a multi-byte UTF-8 sequence, so each run is whole
/// characters.
fn escape_into(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let mut start = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[start..i]);
        start = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Escapes `s` as a standalone JSON string literal (with quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::new();
    escape_into(s, &mut out);
    out
}

/// A [`parse`] failure: where in the input, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Maximum container nesting accepted by [`parse`] — a guard against
/// stack exhaustion: the daemon feeds this parser untrusted lines
/// straight off a socket.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document into a [`Json`] tree.
///
/// The reader is the exact inverse of the writer on canonical output:
/// object keys keep their input order, and a fractional number remembers
/// how many decimal digits it was written with (`"1.250"` parses to
/// `Json::float(1.25, 3)`), so `parse(doc.render_compact())` — or
/// `parse(doc.render())` — reproduces `doc` for every document the
/// writer can emit. Integers without a fraction become [`Json::UInt`]
/// (or [`Json::Int`] when negative); exponent notation is rejected
/// because the writer never produces it.
///
/// # Errors
///
/// Returns a [`ParseError`] with a byte offset on malformed input,
/// out-of-range integers, nesting deeper than 128 levels, or trailing
/// non-whitespace after the document.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    read::<Tree>(text)
}

/// Checks that `text` is one JSON document without building it.
///
/// Runs the same grammar as [`parse`] with every value discarded, so it
/// accepts exactly the documents [`parse`] accepts and fails with the
/// same [`ParseError`] (offset and message) on the rest. It allocates
/// nothing on success: a caller that only needs to know a line is well
/// formed, such as a client holding a daemon reply it may never read,
/// pays one scan of the bytes.
///
/// # Examples
///
/// ```
/// use rlim_service::json::{parse, validate};
///
/// assert!(validate("{\"schema\":6,\"xs\":[1,2.50]}").is_ok());
/// let bad = "{\"a\":[1,}";
/// assert_eq!(validate(bad), parse(bad).map(|_| ()));
/// ```
///
/// # Errors
///
/// As [`parse`].
pub fn validate(text: &str) -> Result<(), ParseError> {
    read::<Check>(text)
}

fn read<S: Sink>(text: &str) -> Result<S::Value, ParseError> {
    let mut p = Parser::<S> {
        text,
        bytes: text.as_bytes(),
        pos: 0,
        sink: PhantomData,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after the document"));
    }
    Ok(value)
}

/// What one pass of the reader makes of the values it reads: [`Tree`]
/// builds them ([`parse`]), [`Check`] drops them ([`validate`]). Both
/// drive the one [`Parser`], so the two accept the same language.
trait Sink {
    type Value;
    type Text: Default;
    type Items: Default;
    type Entries: Default;
    fn scalar(value: Json) -> Self::Value;
    fn push_str(text: &mut Self::Text, s: &str);
    fn push_char(text: &mut Self::Text, c: char);
    fn string(text: Self::Text) -> Self::Value;
    fn push_item(items: &mut Self::Items, value: Self::Value);
    fn array(items: Self::Items) -> Self::Value;
    fn push_entry(entries: &mut Self::Entries, key: Self::Text, value: Self::Value);
    fn object(entries: Self::Entries) -> Self::Value;
}

struct Tree;

impl Sink for Tree {
    type Value = Json;
    type Text = String;
    type Items = Vec<Json>;
    type Entries = Vec<(String, Json)>;

    fn scalar(value: Json) -> Json {
        value
    }
    fn push_str(text: &mut String, s: &str) {
        text.push_str(s);
    }
    fn push_char(text: &mut String, c: char) {
        text.push(c);
    }
    fn string(text: String) -> Json {
        Json::Str(text)
    }
    fn push_item(items: &mut Vec<Json>, value: Json) {
        items.push(value);
    }
    fn array(items: Vec<Json>) -> Json {
        Json::Array(items)
    }
    fn push_entry(entries: &mut Vec<(String, Json)>, key: String, value: Json) {
        entries.push((key, value));
    }
    fn object(entries: Vec<(String, Json)>) -> Json {
        Json::Object(entries)
    }
}

struct Check;

impl Sink for Check {
    type Value = ();
    type Text = ();
    type Items = ();
    type Entries = ();

    fn scalar(_: Json) {}
    fn push_str((): &mut (), _: &str) {}
    fn push_char((): &mut (), _: char) {}
    fn string((): ()) {}
    fn push_item((): &mut (), (): ()) {}
    fn array((): ()) {}
    fn push_entry((): &mut (), (): (), (): ()) {}
    fn object((): ()) {}
}

struct Parser<'a, S> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    sink: PhantomData<S>,
}

impl<S: Sink> Parser<'_, S> {
    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError {
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

    fn eat(&mut self, expected: u8) -> Result<(), ParseError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", expected as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<S::Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(S::scalar(value))
        } else {
            Err(self.error(format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<S::Value, ParseError> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting deeper than 128 levels"));
        }
        match self.peek() {
            None => Err(self.error("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(S::string),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number().map(S::scalar),
            Some(c) => Err(self.error(format!("unexpected byte 0x{c:02x}"))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<S::Value, ParseError> {
        self.eat(b'[')?;
        self.skip_ws();
        let mut items = S::Items::default();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(S::array(items));
        }
        loop {
            S::push_item(&mut items, self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(S::array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<S::Value, ParseError> {
        self.eat(b'{')?;
        self.skip_ws();
        let mut entries = S::Entries::default();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(S::object(entries));
        }
        loop {
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            S::push_entry(&mut entries, key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                    self.skip_ws();
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(S::object(entries));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<S::Text, ParseError> {
        self.eat(b'"')?;
        let mut out = S::Text::default();
        loop {
            // Copy the run of plain bytes up to the next quote, backslash
            // or control byte in one piece.
            let start = self.pos;
            let rest = &self.bytes[start..];
            self.pos += rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            S::push_str(&mut out, self.raw_slice(start));
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    S::push_char(&mut out, self.escape_char()?);
                }
                Some(_) => return Err(self.error("raw control character in string")),
            }
        }
    }

    /// The input between `start` and the cursor. Both ends sit on ASCII
    /// bytes or the input's ends, and an ASCII byte never occurs inside
    /// a UTF-8 multi-byte sequence, so both are character boundaries.
    fn raw_slice(&self, start: usize) -> &str {
        &self.text[start..self.pos]
    }

    fn escape_char(&mut self) -> Result<char, ParseError> {
        let c = self
            .peek()
            .ok_or_else(|| self.error("unterminated escape"))?;
        self.pos += 1;
        match c {
            b'"' => Ok('"'),
            b'\\' => Ok('\\'),
            b'/' => Ok('/'),
            b'n' => Ok('\n'),
            b'r' => Ok('\r'),
            b't' => Ok('\t'),
            b'b' => Ok('\u{8}'),
            b'f' => Ok('\u{c}'),
            b'u' => self.unicode_escape(),
            other => Err(self.error(format!("unknown escape `\\{}`", other as char))),
        }
    }

    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: a paired `\uXXXX` low surrogate must follow.
            self.eat(b'\\')?;
            self.eat(b'u')?;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.error("expected a low surrogate"));
            }
            let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
            char::from_u32(code).ok_or_else(|| self.error("invalid surrogate pair"))
        } else {
            char::from_u32(hi).ok_or_else(|| self.error("lone low surrogate"))
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = match self.peek() {
                Some(c @ b'0'..=b'9') => u32::from(c - b'0'),
                Some(c @ b'a'..=b'f') => u32::from(c - b'a') + 10,
                Some(c @ b'A'..=b'F') => u32::from(c - b'A') + 10,
                _ => return Err(self.error("expected four hex digits")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        self.digits()?;
        let mut precision = None;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            precision = Some(self.digits()?);
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            return Err(self.error("exponent notation is not supported"));
        }
        let token = self.raw_slice(start);
        match precision {
            Some(precision) => {
                let value: f64 = token.parse().map_err(|_| self.error("malformed number"))?;
                Ok(Json::Float { value, precision })
            }
            None if negative => token
                .parse::<i64>()
                .map(Json::Int)
                .map_err(|_| self.error("integer out of range")),
            None => token
                .parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| self.error("integer out of range")),
        }
    }

    fn digits(&mut self) -> Result<usize, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            Err(self.error("expected a digit"))
        } else {
            Ok(self.pos - start)
        }
    }
}

// ---- typed access ---------------------------------------------------------

/// Typed, strict read access to one object of a parsed document — the
/// one decoder behind every pinned JSON shape in the workspace (the
/// daemon's wire lines and metrics payloads).
///
/// Every accessor fails with a message naming the offending path, such
/// as `options.effort: expected an unsigned integer`. Each caller maps
/// the message into its own error type, so the daemon keeps a malformed
/// request a usage error and a malformed response an operational one.
///
/// # Examples
///
/// ```
/// use rlim_service::json::{parse, Fields};
///
/// let doc = parse("{\"arrays\":4,\"chaos\":null}").unwrap();
/// let fleet = Fields::of(&doc, "fleet").unwrap();
/// assert_eq!(fleet.usize("arrays"), Ok(4));
/// assert_eq!(fleet.opt("chaos", |_, _| Ok(())), Ok(None));
/// assert_eq!(
///     fleet.bool("arrays"),
///     Err("fleet.arrays: expected a boolean".to_string())
/// );
/// assert!(fleet.expect_keys(&["arrays"]).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct Fields<'a> {
    entries: &'a [(String, Json)],
    path: String,
}

impl<'a> Fields<'a> {
    /// `json` as an object; `path` names it in error messages.
    pub fn of(json: &'a Json, path: impl Into<String>) -> Result<Self, String> {
        let path = path.into();
        match json {
            Json::Object(entries) => Ok(Fields { entries, path }),
            _ => Err(format!("{path}: expected an object")),
        }
    }

    /// The entries in document order.
    pub fn entries(&self) -> &'a [(String, Json)] {
        self.entries
    }

    /// Fails on the first key outside `expected` (missing keys fail in
    /// [`Fields::field`]), so a typo is an error instead of a silent
    /// fallback to a default.
    pub fn expect_keys(&self, expected: &[&str]) -> Result<(), String> {
        match self.entries.iter().find(|(k, _)| !expected.contains(&&**k)) {
            Some((key, _)) => Err(format!("{}: unknown key `{key}`", self.path)),
            None => Ok(()),
        }
    }

    /// The value under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&'a Json> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The value under `key`.
    pub fn field(&self, key: &str) -> Result<&'a Json, String> {
        self.get(key)
            .ok_or_else(|| format!("{}: missing key `{key}`", self.path))
    }

    /// The object under `key`.
    pub fn object(&self, key: &str) -> Result<Fields<'a>, String> {
        Fields::of(self.field(key)?, self.path(key))
    }

    /// The unsigned integer under `key`.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        as_u64(self.field(key)?, format_args!("{}.{key}", self.path))
    }

    /// The unsigned integer under `key`, range-checked into a `usize`.
    pub fn usize(&self, key: &str) -> Result<usize, String> {
        as_usize(self.field(key)?, format_args!("{}.{key}", self.path))
    }

    /// The boolean under `key`.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        as_bool(self.field(key)?, format_args!("{}.{key}", self.path))
    }

    /// The string under `key`.
    pub fn str(&self, key: &str) -> Result<&'a str, String> {
        as_str(self.field(key)?, format_args!("{}.{key}", self.path))
    }

    /// The number under `key`, as a float (see [`as_f64`]).
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        as_f64(self.field(key)?, format_args!("{}.{key}", self.path))
    }

    /// The value under `key` through `convert`, which also receives the
    /// value's path; `null` reads as `None`.
    pub fn opt<T>(
        &self,
        key: &str,
        convert: impl FnOnce(&'a Json, &str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        match self.field(key)? {
            Json::Null => Ok(None),
            value => convert(value, &self.path(key)).map(Some),
        }
    }

    /// The path naming this object in error messages.
    pub fn name(&self) -> &str {
        &self.path
    }

    /// The path of the value under `key`, for a caller's own messages.
    pub fn path(&self, key: &str) -> String {
        format!("{}.{key}", self.path)
    }
}

/// `json` as an unsigned integer; errors name `path`.
pub fn as_u64(json: &Json, path: impl fmt::Display) -> Result<u64, String> {
    match json {
        Json::UInt(v) => Ok(*v),
        _ => Err(format!("{path}: expected an unsigned integer")),
    }
}

/// `json` as an unsigned integer that fits a `usize`; errors name `path`.
pub fn as_usize(json: &Json, path: impl fmt::Display) -> Result<usize, String> {
    let v = as_u64(json, &path)?;
    usize::try_from(v).map_err(|_| format!("{path}: value out of range"))
}

/// `json` as a boolean; errors name `path`.
pub fn as_bool(json: &Json, path: impl fmt::Display) -> Result<bool, String> {
    match json {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("{path}: expected a boolean")),
    }
}

/// `json` as a string; errors name `path`.
pub fn as_str(json: &Json, path: impl fmt::Display) -> Result<&str, String> {
    match json {
        Json::Str(s) => Ok(s),
        _ => Err(format!("{path}: expected a string")),
    }
}

/// `json` as a float; integers convert too, since a float rendered at
/// precision 0 parses back as one. Errors name `path`.
pub fn as_f64(json: &Json, path: impl fmt::Display) -> Result<f64, String> {
    match json {
        Json::Float { value, .. } => Ok(*value),
        Json::UInt(v) => Ok(*v as f64),
        Json::Int(v) => Ok(*v as f64),
        _ => Err(format!("{path}: expected a number")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render_as_json_literals() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Bool(false).render(), "false");
        assert_eq!(Json::UInt(42).render(), "42");
        assert_eq!(Json::Int(-7).render(), "-7");
        assert_eq!(Json::from("hi").render(), "\"hi\"");
    }

    #[test]
    fn float_precision_matches_format_spec() {
        assert_eq!(Json::float(1.0 / 3.0, 6).render(), "0.333333");
        assert_eq!(Json::float(2.5, 3).render(), "2.500");
        assert_eq!(Json::float(1234.56, 1).render(), "1234.6");
        // precision 0 renders without a decimal point, like {:.0}.
        assert_eq!(Json::float(214e6, 0).render(), "214000000");
        // Non-finite values cannot appear in JSON.
        assert_eq!(Json::float(f64::NAN, 2).render(), "null");
        assert_eq!(Json::float(f64::INFINITY, 2).render(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(escape("plain"), "\"plain\"");
        assert_eq!(escape("a\"b"), "\"a\\\"b\"");
        assert_eq!(escape("back\\slash"), "\"back\\\\slash\"");
        assert_eq!(
            escape("line\nbreak\ttab\rret"),
            "\"line\\nbreak\\ttab\\rret\""
        );
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
        // Non-ASCII passes through unescaped (JSON is UTF-8).
        assert_eq!(escape("Ω.A"), "\"Ω.A\"");
    }

    /// The escaper as it was before it copied plain runs whole: one
    /// character at a time.
    fn escape_by_char(s: &str) -> String {
        let mut out = String::from('"');
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
        out
    }

    /// A string mixing every byte class the escaper and the reader tell
    /// apart.
    fn mixed_string(rng: &mut impl rand::Rng) -> String {
        let mut s = String::new();
        for _ in 0..rng.gen_range(0..40usize) {
            match rng.gen_range(0..7u32) {
                0 => s.push('"'),
                1 => s.push('\\'),
                2 => s.push(char::from(rng.gen_range(0..0x20u8))),
                3 => s.push('\u{7f}'),
                4 => s.push(['é', 'Ω', '⟨', '\u{1d11e}'][rng.gen_range(0..4usize)]),
                5 => s.push_str(&"plain run ".repeat(rng.gen_range(1..40usize))),
                _ => s.push(char::from(rng.gen_range(0x20..0x7fu8))),
            }
        }
        s
    }

    #[test]
    fn escape_equals_the_char_by_char_escaper() {
        use rand::SeedableRng;
        for c in 0..=0x7fu8 {
            let s = format!("a{}b", char::from(c));
            assert_eq!(escape(&s), escape_by_char(&s), "byte 0x{c:02x}");
        }
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        for case in 0..2000 {
            let s = mixed_string(&mut rng);
            let escaped = escape(&s);
            assert_eq!(escaped, escape_by_char(&s), "case {case}: {s:?}");
            assert_eq!(parse(&escaped), Ok(Json::Str(s.clone())), "case {case}");
            let doc = Json::object([(s.clone(), Json::array([Json::from(s.as_str())]))]);
            assert_eq!(parse(&doc.render_compact()), Ok(doc.clone()), "case {case}");
            assert_eq!(parse(&doc.render()), Ok(doc), "case {case}");
        }
    }

    #[test]
    fn string_errors_keep_their_offsets_and_messages() {
        let err = |text: &str| {
            let e = parse(text).unwrap_err();
            (e.offset, e.message)
        };
        let at = |offset: usize, message: &str| (offset, message.to_string());
        assert_eq!(
            err("\"plain\u{1}tail\""),
            at(6, "raw control character in string")
        );
        assert_eq!(
            err("[\"a\\n\u{1f}\"]"),
            at(5, "raw control character in string")
        );
        assert_eq!(err("\"unterminated"), at(13, "unterminated string"));
        assert_eq!(err("\"Ω\\\"tail"), at(9, "unterminated string"));
        assert_eq!(err("\"dangling\\"), at(10, "unterminated escape"));
        assert_eq!(err("\"bad \\q escape\""), at(7, "unknown escape `\\q`"));
        assert_eq!(err("\"\\u12\""), at(5, "expected four hex digits"));
    }

    #[test]
    fn nested_document_renders_with_two_space_indent() {
        let doc = Json::object([
            ("schema", Json::from(1u64)),
            (
                "benchmarks",
                Json::Array(vec![
                    Json::object([("name", Json::from("a")), ("n", Json::from(1u64))]),
                    Json::object([("name", Json::from("b")), ("n", Json::from(2u64))]),
                ]),
            ),
            ("fleet", Json::Null),
        ]);
        let expect = "{\n  \"schema\": 1,\n  \"benchmarks\": [\n    {\n      \"name\": \"a\",\n      \"n\": 1\n    },\n    {\n      \"name\": \"b\",\n      \"n\": 2\n    }\n  ],\n  \"fleet\": null\n}";
        assert_eq!(doc.render(), expect);
    }

    #[test]
    fn empty_containers_render_compact() {
        assert_eq!(Json::Array(Vec::new()).render(), "[]");
        assert_eq!(Json::Object(Vec::new()).render(), "{}");
        assert_eq!(
            Json::object([("xs", Json::Array(Vec::new()))]).render(),
            "{\n  \"xs\": []\n}"
        );
    }

    #[test]
    fn option_conversion() {
        assert_eq!(Json::from(Some(3u64)), Json::UInt(3));
        assert_eq!(Json::from(None::<u64>), Json::Null);
    }

    #[test]
    fn compact_rendering_is_single_line() {
        let doc = Json::object([
            ("schema", Json::from(1u64)),
            ("xs", Json::array([1u64, 2])),
            ("empty", Json::Array(Vec::new())),
            ("name", Json::from("a\"b")),
            ("mean", Json::float(2.5, 4)),
            ("none", Json::Null),
        ]);
        assert_eq!(
            doc.render_compact(),
            "{\"schema\":1,\"xs\":[1,2],\"empty\":[],\"name\":\"a\\\"b\",\"mean\":2.5000,\"none\":null}"
        );
    }

    #[test]
    fn parse_inverts_both_renderings() {
        let doc = Json::object([
            ("schema", Json::from(4u64)),
            ("label", Json::from("div")),
            ("mean", Json::float(1.25, 4)),
            ("median", Json::float(4096.0, 1)),
            ("delta", Json::Int(-7)),
            ("flags", Json::array([true, false])),
            ("text", Json::from("Ω line\nbreak\ttab \"q\" \\")),
            ("nothing", Json::Null),
            (
                "nested",
                Json::object([
                    ("xs", Json::Array(Vec::new())),
                    ("o", Json::Object(Vec::new())),
                ]),
            ),
        ]);
        assert_eq!(parse(&doc.render_compact()).unwrap(), doc);
        assert_eq!(parse(&doc.render()).unwrap(), doc);
        // …and re-rendering the parse is byte-identical.
        let line = doc.render_compact();
        assert_eq!(parse(&line).unwrap().render_compact(), line);
    }

    #[test]
    fn parse_preserves_float_precision() {
        assert_eq!(parse("1.250").unwrap(), Json::float(1.25, 3));
        assert_eq!(parse("4096.0").unwrap(), Json::float(4096.0, 1));
        assert_eq!(parse("-0.25").unwrap(), Json::float(-0.25, 2));
        assert_eq!(parse("42").unwrap(), Json::UInt(42));
        assert_eq!(parse("-42").unwrap(), Json::Int(-42));
    }

    #[test]
    fn parse_handles_escapes() {
        assert_eq!(
            parse("\"a\\\"b\\\\c\\n\\t\\r\\/\\b\\f\"").unwrap(),
            Json::Str("a\"b\\c\n\t\r/\u{8}\u{c}".to_string())
        );
        assert_eq!(parse("\"\\u0041\"").unwrap(), Json::Str("A".to_string()));
        // Surrogate pair: U+1D11E (musical G clef).
        assert_eq!(
            parse("\"\\ud834\\udd1e\"").unwrap(),
            Json::Str("\u{1d11e}".to_string())
        );
        assert!(parse("\"\\ud834\"").is_err(), "lone high surrogate");
        assert!(parse("\"\\udd1e\"").is_err(), "lone low surrogate");
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for garbage in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "nul",
            "tru",
            "\"unterminated",
            "\"bad \\q escape\"",
            "1.2.3",
            "1e9",
            "01a",
            "{} trailing",
            "18446744073709551616",
            "-9223372036854775809",
            "\u{1}",
        ] {
            let err = parse(garbage).expect_err(garbage);
            assert!(!err.message.is_empty());
            assert!(err.to_string().contains("invalid JSON at byte"));
        }
    }

    #[test]
    fn validate_agrees_with_parse_on_every_edge_case() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let ok = "[".repeat(100) + &"]".repeat(100);
        for text in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "{\"a\" 1}",
            "nul",
            "1.2.3",
            "1e9",
            "01a",
            "{} trailing",
            "18446744073709551616",
            "-9223372036854775809",
            "\u{1}",
            "\"plain\u{1}tail\"",
            "\"dangling\\",
            "\"bad \\q escape\"",
            "\"\\u12\"",
            "\"\\ud834\"",
            "\"\\udd1e\"",
            "\"\\ud834\\udd1e\"",
            " {\"a\": [1, -2, 3.50, true, null, \"Ω\"]}\n",
            &deep,
            &ok,
        ] {
            assert_eq!(validate(text), parse(text).map(|_| ()), "{text:?}");
        }
    }

    #[test]
    fn parse_enforces_the_depth_limit() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&ok).is_ok());
    }
}
