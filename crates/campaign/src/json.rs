//! A minimal JSON tree, writer, and lexer.
//!
//! The workspace builds with zero external dependencies, so every
//! artifact serializes through this module instead of serde. There is
//! one lexer, a pull cursor (`Cursor`: what comes next, then take a
//! number, string or literal, walk an array's items or an object's
//! members, or skip a value whole), and it serves two consumers:
//! [`parse`] builds a [`Value`] tree on it — the run ledger, telemetry
//! sidecars and the store's header read trees — and the results store
//! pulls each row from it straight into typed records without building
//! one (see [`crate::store`]). Both writers, [`Value::render`] and the
//! store's, append numbers and strings through the same two functions,
//! so a value's text does not depend on the path that wrote it. Two
//! properties matter here and are guaranteed:
//!
//! * **Deterministic output.** Objects preserve insertion order (they are
//!   backed by a `Vec`, not a hash map) and numbers are written with
//!   Rust's shortest-round-trip float formatting, so serializing the same
//!   value twice produces byte-identical text.
//! * **Exact round trips.** `parse(write(v)) == v` for every finite
//!   number: Rust's float formatter/parser pair is exact. Non-finite
//!   floats have no JSON representation; [`Value::num`] maps them to
//!   `null` (the store reads `null` metrics back as `NaN`).

use std::borrow::Cow;
use std::fmt;

/// A JSON value. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` (also what non-finite numbers serialize as).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// A number — non-finite floats become `null` (JSON has no NaN/inf).
    pub fn num(x: f64) -> Value {
        if x.is_finite() {
            Value::Num(x)
        } else {
            Value::Null
        }
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Compact one-line serialization.
    pub fn render(&self) -> String {
        let mut out = String::new();
        write_value(self, &mut out);
        out
    }
}

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(x) => write_num(*x, out),
        Value::Str(s) => write_str(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Obj(members) => {
            out.push('{');
            for (i, (k, val)) in members.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

/// Append finite `x` as JSON: the text `format!("{x}")` gives (Rust's
/// shortest round-trip form, `-0` keeping its sign), which parses back
/// to the same bits.
pub(crate) fn write_num(x: f64, out: &mut String) {
    use fmt::Write;
    debug_assert!(
        x.is_finite(),
        "non-finite numbers must go through Value::num"
    );
    // Integer-valued floats print the same digits as the `i64` (no ".0"),
    // and the integer formatter is the cheaper one.
    if x.fract() == 0.0 && x.abs() < 9.0e15 && !(x == 0.0 && x.is_sign_negative()) {
        write!(out, "{}", x as i64).unwrap();
    } else {
        write!(out, "{x}").unwrap();
    }
}

/// Append `s` as a JSON string literal: quotes, backslashes and control
/// characters escaped, everything else verbatim.
pub(crate) fn write_str(s: &str, out: &mut String) {
    use fmt::Write;
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => write!(out, "\\u{:04x}", c).unwrap(),
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// How deep arrays and objects may nest. Every artifact this crate
/// writes nests a handful of levels; the bound keeps hostile input from
/// recursing the parser off the end of its stack, and it holds for
/// values a reader skips as well as for values it keeps.
pub const MAX_DEPTH: usize = 128;

/// Parse one JSON document (trailing whitespace allowed, nothing else).
pub fn parse(s: &str) -> Result<Value, JsonError> {
    let mut c = Cursor::new(s);
    let v = c.value()?;
    c.finish()?;
    Ok(v)
}

/// What the next value is, told by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Null,
    Bool,
    Num,
    Str,
    Arr,
    Obj,
}

/// A cursor position [`Cursor::rewind`] returns to.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Mark {
    pos: usize,
    depth: usize,
}

/// The JSON lexer: a pull cursor over one document. A reader asks what
/// comes next ([`Cursor::kind`]) and takes it — a number, a string, a
/// literal, an array's items, an object's members — or skips it whole.
/// Every error carries the byte offset [`parse`] reports for the same
/// input, because [`parse`] is built on the same calls.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(text: &'a str) -> Cursor<'a> {
        Cursor {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    /// Where the cursor is, to come back to.
    pub(crate) fn mark(&self) -> Mark {
        Mark {
            pos: self.pos,
            depth: self.depth,
        }
    }

    /// Go back to `mark`.
    pub(crate) fn rewind(&mut self, mark: Mark) {
        (self.pos, self.depth) = (mark.pos, mark.depth);
    }

    /// Past the document: only whitespace may follow it.
    pub(crate) fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(())
    }

    /// What the next value is; the cursor moves to its first byte.
    pub(crate) fn kind(&mut self) -> Result<Kind, JsonError> {
        self.skip_ws();
        Ok(match self.peek() {
            Some(b'n') => Kind::Null,
            Some(b't' | b'f') => Kind::Bool,
            Some(b'"') => Kind::Str,
            Some(b'[') => Kind::Arr,
            Some(b'{') => Kind::Obj,
            Some(c) if c == b'-' || c.is_ascii_digit() => Kind::Num,
            _ => return Err(self.err("expected a value")),
        })
    }

    fn literal(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(format!("expected {lit:?}")))
        }
    }

    /// The `null` the cursor is at.
    pub(crate) fn null(&mut self) -> Result<(), JsonError> {
        self.literal("null")
    }

    /// The `true` or `false` the cursor is at.
    fn bool(&mut self) -> Result<bool, JsonError> {
        let b = self.peek() == Some(b't');
        self.literal(if b { "true" } else { "false" })?;
        Ok(b)
    }

    /// Step into the array or object the cursor is at; `Ok(false)` if it
    /// closes at once.
    fn open(&mut self, open: u8, close: u8) -> Result<bool, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.expect(open)?;
        self.depth += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            return Ok(false);
        }
        Ok(true)
    }

    /// After an item or member: `Ok(true)` if another follows, `Ok(false)`
    /// once the container closes.
    fn more(&mut self, close: u8, message: &str) -> Result<bool, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(c) if c == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ => Err(self.err(message)),
        }
    }

    /// Call `item` once per element of the array the cursor is at; each
    /// call must take (or skip) exactly one value.
    pub(crate) fn items<E: From<JsonError>>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        if self.open(b'[', b']')? {
            loop {
                item(self)?;
                if !self.more(b']', "expected ',' or ']'")? {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Call `member` once per member of the object the cursor is at, with
    /// the key; each call must take (or skip) exactly the member's value.
    pub(crate) fn members<E: From<JsonError>>(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), E>,
    ) -> Result<(), E> {
        if self.open(b'{', b'}')? {
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                member(self, key)?;
                if !self.more(b'}', "expected ',' or '}'")? {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Skip the next value, checking it as [`parse`] would.
    pub(crate) fn skip(&mut self) -> Result<(), JsonError> {
        match self.kind()? {
            Kind::Null => self.null(),
            Kind::Bool => self.bool().map(drop),
            Kind::Num => self.number().map(drop),
            Kind::Str => self.string().map(drop),
            Kind::Arr => self.items(Self::skip),
            Kind::Obj => self.members(|c, _| c.skip()),
        }
    }

    /// The next value as a tree.
    fn value(&mut self) -> Result<Value, JsonError> {
        Ok(match self.kind()? {
            Kind::Null => {
                self.null()?;
                Value::Null
            }
            Kind::Bool => Value::Bool(self.bool()?),
            Kind::Num => Value::Num(self.number()?),
            Kind::Str => Value::Str(self.string()?.into_owned()),
            Kind::Arr => {
                let mut items = Vec::new();
                self.items(|c| {
                    items.push(c.value()?);
                    Ok::<_, JsonError>(())
                })?;
                Value::Arr(items)
            }
            Kind::Obj => {
                let mut members = Vec::new();
                self.members(|c, key| {
                    members.push((key.into_owned(), c.value()?));
                    Ok::<_, JsonError>(())
                })?;
                Value::Obj(members)
            }
        })
    }

    /// The string the cursor is at, borrowed from the input unless it
    /// holds escapes.
    pub(crate) fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let bytes = self.bytes;
        let mut out: Option<String> = None;
        loop {
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            let run = std::str::from_utf8(&bytes[start..self.pos])
                .map_err(|_| self.err("invalid UTF-8 in string"))?;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match out {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let s = out.get_or_insert_with(String::new);
                    s.push_str(run);
                    s.push(self.escape()?);
                }
                None => return Err(self.err("unterminated string")),
                _ => unreachable!(),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // surrogate pair: the second escape must be a low
                    // surrogate or the pair is malformed
                    self.expect(b'\\')?;
                    self.expect(b'u')?;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("unpaired surrogate in \\u escape"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"))?
            }
            _ => return Err(self.err("unknown escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit"))?;
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    /// The number the cursor is at.
    pub(crate) fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        // A literal past f64's range parses to ±∞, which JSON cannot hold
        // and the store would load as a metric: not a number either.
        match text.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(x),
            _ => Err(self.err(format!("invalid number {text:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let v = Value::Obj(vec![
            ("a".into(), Value::Num(1.5)),
            ("b".into(), Value::Arr(vec![Value::Null, Value::Bool(true)])),
            ("s".into(), Value::str("he said \"hi\"\n\tπ")),
        ]);
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [
            0.1,
            1.0 / 3.0,
            1e-300,
            123456789.123456,
            -0.0,
            2.0f64.powi(53),
        ] {
            let text = Value::num(x).render();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} rendered as {text}");
        }
    }

    /// The number text the store writes is `format!("{x}")` for every
    /// finite double, and it parses back to the same bits: 200 000 seeded
    /// doubles of every shape the store holds and then some.
    #[test]
    fn number_text_is_std_display_and_round_trips() {
        let mut state = 0x5EED_0FD0_B1E5_u64;
        let mut next = move || {
            // SplitMix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let decimal = |next: &mut dyn FnMut() -> u64| {
            // a short decimal: up to 6 digits over a power of ten
            let digits = (next() % 1_000_000) as f64;
            digits / 10f64.powi((next() % 7) as i32)
        };
        let specials = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            f64::MAX,
            f64::MIN,
        ];
        let mut checked = 0;
        for i in 0..200_000u64 {
            let x = match i % 6 {
                0 => f64::from_bits(next()),
                1 => decimal(&mut next),
                2 => decimal(&mut next) * decimal(&mut next),
                3 => (next() % 9_000_000_000_000_000) as f64 * if i % 4 == 1 { -1.0 } else { 1.0 },
                4 => (9.0e15 + (next() % (1 << 60)) as f64) * if i % 4 == 2 { -1.0 } else { 1.0 },
                // subnormals, and the specials
                _ if i % 5 == 0 => specials[(i / 30) as usize % specials.len()],
                _ => f64::from_bits(next() % (1 << 52)) * if i % 2 == 0 { -1.0 } else { 1.0 },
            };
            if !x.is_finite() {
                assert_eq!(Value::num(x).render(), "null");
                continue;
            }
            let text = Value::num(x).render();
            assert_eq!(text, format!("{x}"), "bits {:#x}", x.to_bits());
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{text}");
            checked += 1;
        }
        assert!(checked > 190_000, "only {checked} finite doubles");
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Value::num(42.0).render(), "42");
        assert_eq!(Value::num(-7.0).render(), "-7");
        assert_eq!(Value::num(0.5).render(), "0.5");
    }

    #[test]
    fn non_finite_becomes_null() {
        assert_eq!(Value::num(f64::NAN), Value::Null);
        assert_eq!(Value::num(f64::INFINITY), Value::Null);
    }

    #[test]
    fn overflowing_literals_are_invalid_numbers() {
        for text in ["1e999", "-1e999", "[0,1e999]"] {
            let err = parse(text).unwrap_err();
            let literal = text.trim_start_matches("[0,").trim_end_matches(']');
            assert_eq!(
                err.offset,
                text.find(literal).unwrap() + literal.len(),
                "{err}"
            );
            assert!(
                err.message.contains(&format!("invalid number {literal:?}")),
                "{err}"
            );
        }
        // the largest finite literals still parse
        assert_eq!(
            parse("1.7976931348623157e308").unwrap(),
            Value::Num(f64::MAX)
        );
        assert_eq!(parse("1e-999").unwrap(), Value::Num(0.0));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn surrogate_escapes_parse_or_error_cleanly() {
        let esc = |body: &str| format!("\"{body}\"");
        let hi = "\\ud83d"; // a high surrogate escape, as 6 raw bytes
        let lo = "\\ude00";
        let bad = "\\ud800";
        // a valid escaped pair decodes to the supplementary-plane char
        assert_eq!(
            parse(&esc(&format!("{hi}{lo}"))).unwrap(),
            Value::str("\u{1F600}")
        );
        // malformed pairs are errors, never panics or mojibake
        assert!(parse(&esc(&format!("{bad}{bad}"))).is_err());
        assert!(parse(&esc(&format!("{bad}x"))).is_err());
        assert!(parse(&esc(bad)).is_err());
        // a lone low surrogate is not a valid char either
        assert!(parse(&esc(lo)).is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000);
        let err = parse(&deep).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH, "{err}");
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn object_order_is_preserved() {
        let text = r#"{"z":1,"a":2}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.render(), text);
    }
}
