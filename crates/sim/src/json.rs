//! The workspace's one JSON implementation: a recursive [`Json`] value, its
//! depth-limited parser, the escaping and number rules every JSON byte is
//! written with, and typed field accessors.
//!
//! Three formats share it: experiment records ([`crate::record`]), the
//! daemon's wire codec ([`crate::jobs`]) and the `raa-audit` baseline and
//! report. The build has no serde, so the module is std-only.
//!
//! # Writing
//!
//! - [`write_string`] escapes `"`, `\`, newline, carriage return and tab
//!   with their short escapes, writes every other control character
//!   (below U+0020) as `\u00xx`, and copies everything else verbatim.
//! - `write_number` writes the shortest decimal that round-trips
//!   (`format!("{v}")`), and a non-finite value as `null`.
//!
//! Both are deterministic, so a record's bytes depend on its fields only.
//!
//! # Grammar
//!
//! [`Json::parse`] reads exactly one value, with optional whitespace
//! (space, tab, LF, CR) around it and between tokens:
//!
//! - `null`, `true`, `false`;
//! - a number: a `-` or a digit, then a run of digits and `-+.eE`, accepted
//!   when Rust's `f64` parser accepts the run (so `01`, `1.` and `-.5` are
//!   numbers) and its value is finite;
//! - a string: any characters up to the closing quote, raw control
//!   characters included, with the escapes `\"`, `\\`, `\/`, `\b`, `\f`,
//!   `\n`, `\r`, `\t` and `\uXXXX`. A `\u` escape names one Unicode scalar
//!   value, so surrogates (and surrogate pairs) are rejected;
//! - arrays and objects, nested at most `MAX_DEPTH` deep. Object fields
//!   keep document order; a repeated key keeps both entries, and lookups
//!   find the first.
//!
//! Every parse error is a message that names the byte offset where it was
//! found; the parser never panics.
//!
//! # Counts
//!
//! A count is a finite, non-negative integer no larger than 2⁵³, the range
//! in which every integer is exact in an `f64`. A `u32` is a count that fits
//! in a `u32`. Larger values are rejected, never wrapped or saturated.
//! A `u64` seed does not fit this rule, so seeds travel as decimal strings
//! (`Json::u64_str_field`).

use std::fmt::Write as _;

/// Deepest nesting [`Json::parse`] accepts. Requests are about three levels
/// deep; the limit keeps hostile input from exhausting the stack. The
/// top-level value sits at depth 0, so a scalar inside 17 nested arrays is
/// rejected.
pub(crate) const MAX_DEPTH: usize = 16;

/// The largest count: every integer up to 2⁵³ is exact in an `f64`.
const MAX_COUNT: f64 = 9_007_199_254_740_992.0;

/// A JSON value. Object fields keep insertion order, so encoding is
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number. Parsed numbers are finite; `write_number` writes a
    /// non-finite one as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON value; the whole input must be consumed. See the
    /// module docs for the grammar.
    ///
    /// Records, wire lines and the audit baseline all go through this
    /// parser. It accepts what the record format's former flat parser
    /// accepted, with two changes, and what the wire parser it grew from
    /// accepted, with the first change only:
    ///
    /// - a number that overflows to ±∞ (such as `1e999`) is rejected. The
    ///   writers print a non-finite value as `null`, so such a value could
    ///   never survive a round trip;
    /// - a nested value is accepted anywhere, so a record line may carry
    ///   one under an unknown key. `crate::ExperimentRecord::from_json`
    ///   ignores it, as it ignores any unknown key.
    ///
    /// The audit baseline's former parser also took a form feed as
    /// whitespace, a number starting with `+` or `.`, and nesting of any
    /// depth. The baseline writer produces none of them.
    ///
    /// # Errors
    ///
    /// A description of the first problem: a syntax error with its byte
    /// offset, a number that overflows, nesting deeper than `MAX_DEPTH`,
    /// or bytes after the value.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(value)
    }

    /// Serializes to a single line (no interior newlines: every newline in
    /// a string is escaped, so one value is always one line).
    pub fn to_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_number(out, *v),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Field lookup on an object (`None` on other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub(crate) fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a count (see the module docs), if it is one.
    fn as_count(&self) -> Option<u64> {
        let v = self.as_f64()?;
        (v.is_finite() && v >= 0.0 && v.fract() == 0.0 && v <= MAX_COUNT).then_some(v as u64)
    }

    /// The value as a count that fits in a `u32`, if it is one.
    fn as_u32(&self) -> Option<u32> {
        self.as_count().and_then(|n| u32::try_from(n).ok())
    }

    /// The field `key` of an object.
    ///
    /// # Errors
    ///
    /// When `self` is not an object or has no field `key`. The typed
    /// accessors below fail the same way, and also when the field holds
    /// the wrong kind of value; every message names `key`.
    pub(crate) fn field(&self, key: &str) -> Result<&Json, String> {
        match self {
            Json::Obj(_) => self
                .get(key)
                .ok_or_else(|| format!("missing field {key:?}")),
            _ => Err(format!("expected an object with field {key:?}")),
        }
    }

    /// Reads the field `key` with `get`; `what` names the expected value
    /// in the error.
    fn read<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        get: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        get(self.field(key)?).ok_or_else(|| format!("field {key:?}: expected {what}"))
    }

    /// The string field `key` (see `Json::field` for the errors).
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.read(key, "a string", Json::as_str)
    }

    /// The numeric field `key`.
    pub(crate) fn f64_field(&self, key: &str) -> Result<f64, String> {
        self.read(key, "a number", Json::as_f64)
    }

    /// The field `key` as a number, or `None` when it is `null`.
    pub(crate) fn opt_f64_field(&self, key: &str) -> Result<Option<f64>, String> {
        self.read(key, "a number or null", |v| match v {
            Json::Null => Some(None),
            other => other.as_f64().map(Some),
        })
    }

    /// The boolean field `key`.
    pub(crate) fn bool_field(&self, key: &str) -> Result<bool, String> {
        self.read(key, "a boolean", Json::as_bool)
    }

    /// The array field `key`.
    pub fn arr_field(&self, key: &str) -> Result<&[Json], String> {
        self.read(key, "an array", Json::as_arr)
    }

    /// The count field `key` (see the module docs).
    pub(crate) fn count_field(&self, key: &str) -> Result<usize, String> {
        self.read(key, "an integer in 0..=2^53", |v| {
            v.as_count().and_then(|n| usize::try_from(n).ok())
        })
    }

    /// The `u32` field `key`: a count that fits in a `u32`.
    pub fn u32_field(&self, key: &str) -> Result<u32, String> {
        self.read(key, U32_RANGE, Json::as_u32)
    }

    /// The array field `key`, every item a count that fits in a `u32`.
    pub(crate) fn u32_items(&self, key: &str) -> Result<Vec<u32>, String> {
        self.arr_field(key)?
            .iter()
            .map(|item| {
                item.as_u32()
                    .ok_or_else(|| format!("field {key:?}: expected items in {U32_RANGE}"))
            })
            .collect()
    }

    /// The array field `key`, every item a number.
    pub(crate) fn f64_items(&self, key: &str) -> Result<Vec<f64>, String> {
        self.arr_field(key)?
            .iter()
            .map(|item| {
                item.as_f64()
                    .ok_or_else(|| format!("field {key:?}: expected numbers"))
            })
            .collect()
    }

    /// The field `key` as a `u64` written as a decimal string (how seeds
    /// travel: a `u64` does not fit an `f64` exactly).
    pub(crate) fn u64_str_field(&self, key: &str) -> Result<u64, String> {
        self.read(key, "a decimal u64 string", |v| v.as_str()?.parse().ok())
    }
}

/// The range a `u32` field must lie in.
const U32_RANGE: &str = "an integer in 0..=4294967295";

/// Appends `s` as a JSON string literal, quotes included, with the
/// workspace's escaping rule (see the module docs).
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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

/// Appends `v` as the shortest decimal that round-trips, or `null` when it
/// is not finite.
pub(crate) fn write_number(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// A recursive-descent parser over one `&str`. `pos` is a byte offset and
/// always sits on a char boundary between tokens.
struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        let found = self
            .text
            .as_bytes()
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(lit.as_bytes()));
        if found {
            self.pos += lit.len();
        }
        found
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at offset {}",
                self.pos
            ));
        }
        self.skip_ws();
        match self.peek() {
            None => Err(format!("unexpected end of input at offset {}", self.pos)),
            Some(b'n') if self.literal("null") => Ok(Json::Null),
            Some(b't') if self.literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect_byte(b':')?;
                    let value = self.value(depth + 1)?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected byte {:?} at offset {}",
                other as char, self.pos
            )),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = self
            .text
            .get(start..self.pos)
            .ok_or_else(|| format!("malformed number at offset {start}"))?;
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            Ok(_) => Err(format!(
                "number {text:?} at offset {start} overflows an f64"
            )),
            Err(_) => Err(format!("malformed number {text:?} at offset {start}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        let start = self.pos;
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one step.
            // Both are ASCII, so the run ends on a char boundary.
            let rest = self.text.as_bytes().get(self.pos..).unwrap_or_default();
            let len = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            let run = self
                .text
                .get(self.pos..self.pos + len)
                .ok_or("invalid utf-8 in string")?;
            out.push_str(run);
            self.pos += len;
            match self.peek() {
                None => return Err(format!("unterminated string at offset {start}")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {
                    let at = self.pos;
                    self.pos += 1;
                    self.escape(&mut out)
                        .map_err(|e| format!("{e} at offset {at}"))?;
                }
            }
        }
    }

    /// Decodes one escape into `out`; `pos` is just past the backslash.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
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
                    .text
                    .as_bytes()
                    .get(self.pos + 1..self.pos + 5)
                    .ok_or("truncated \\u escape")?;
                let hex = std::str::from_utf8(hex).map_err(|_| "non-ascii \\u escape")?;
                let code = u32::from_str_radix(hex, 16)
                    .map_err(|_| format!("malformed \\u escape {hex:?}"))?;
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| format!("invalid \\u code point {code:#x}"))?,
                );
                self.pos += 4;
            }
            other => return Err(format!("unknown escape {other:?}")),
        }
        self.pos += 1;
        Ok(())
    }
}

/// The wire parser as it stood before the string scan became linear,
/// verbatim: the oracle the property test below holds [`Json::parse`] to.
#[cfg(test)]
mod reference {
    use super::{Json, MAX_DEPTH};

    pub(super) fn parse(text: &str) -> Result<Json, String> {
        let mut p = JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(value)
    }

    struct JsonParser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl JsonParser<'_> {
        fn skip_ws(&mut self) {
            while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
                self.pos += 1;
            }
        }

        fn expect_byte(&mut self, b: u8) -> Result<(), String> {
            if self.bytes.get(self.pos) == Some(&b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at offset {}", b as char, self.pos))
            }
        }

        fn literal(&mut self, lit: &str) -> bool {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                true
            } else {
                false
            }
        }

        fn value(&mut self, depth: usize) -> Result<Json, String> {
            if depth > MAX_DEPTH {
                return Err(format!("nesting deeper than {MAX_DEPTH}"));
            }
            self.skip_ws();
            match self.bytes.get(self.pos) {
                None => Err("unexpected end of input".into()),
                Some(b'n') if self.literal("null") => Ok(Json::Null),
                Some(b't') if self.literal("true") => Ok(Json::Bool(true)),
                Some(b'f') if self.literal("false") => Ok(Json::Bool(false)),
                Some(b'"') => self.string().map(Json::Str),
                Some(b'[') => {
                    self.pos += 1;
                    let mut items = Vec::new();
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b']') {
                        self.pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    loop {
                        items.push(self.value(depth + 1)?);
                        self.skip_ws();
                        match self.bytes.get(self.pos) {
                            Some(b',') => self.pos += 1,
                            Some(b']') => {
                                self.pos += 1;
                                return Ok(Json::Arr(items));
                            }
                            _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
                        }
                    }
                }
                Some(b'{') => {
                    self.pos += 1;
                    let mut fields = Vec::new();
                    self.skip_ws();
                    if self.bytes.get(self.pos) == Some(&b'}') {
                        self.pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    loop {
                        self.skip_ws();
                        let key = self.string()?;
                        self.skip_ws();
                        self.expect_byte(b':')?;
                        let value = self.value(depth + 1)?;
                        fields.push((key, value));
                        self.skip_ws();
                        match self.bytes.get(self.pos) {
                            Some(b',') => self.pos += 1,
                            Some(b'}') => {
                                self.pos += 1;
                                return Ok(Json::Obj(fields));
                            }
                            _ => {
                                return Err(format!("expected ',' or '}}' at offset {}", self.pos))
                            }
                        }
                    }
                }
                Some(b'-' | b'0'..=b'9') => self.number(),
                Some(&other) => Err(format!(
                    "unexpected byte {:?} at offset {}",
                    other as char, self.pos
                )),
            }
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.pos;
            while matches!(
                self.bytes.get(self.pos),
                Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            ) {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos])
                .map_err(|_| format!("malformed number at offset {start}"))?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| format!("malformed number {text:?} at offset {start}"))
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect_byte(b'"')?;
            let mut out = String::new();
            loop {
                match self.bytes.get(self.pos) {
                    None => return Err("unterminated string".into()),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.bytes.get(self.pos) {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                if self.pos + 4 >= self.bytes.len() {
                                    return Err("truncated \\u escape".into());
                                }
                                let hex =
                                    std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                        .map_err(|_| "non-ascii \\u escape".to_string())?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| format!("malformed \\u escape {hex:?}"))?;
                                out.push(
                                    char::from_u32(code).ok_or_else(|| {
                                        format!("invalid \\u code point {code:#x}")
                                    })?,
                                );
                                self.pos += 4;
                            }
                            other => return Err(format!("unknown escape {other:?}")),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (input is &str, so valid).
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|_| "invalid utf-8 in string".to_string())?;
                        let Some(ch) = rest.chars().next() else {
                            return Err("invalid utf-8 in string".to_string());
                        };
                        out.push(ch);
                        self.pos += ch.len_utf8();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngExt, SeedableRng};
    use std::time::{Duration, Instant};

    #[test]
    fn json_value_round_trips() {
        let line = r#"{"a":[1,2.5,-3e-2],"b":{"nested":"va\"l\nue"},"c":null,"d":true}"#;
        let v = Json::parse(line).unwrap();
        assert_eq!(Json::parse(&v.to_line()).unwrap(), v);
        assert_eq!(v.get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("b").unwrap().get("nested").unwrap().as_str(),
            Some("va\"l\nue")
        );
    }

    #[test]
    fn json_parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "{\"a\":1} trailing",
            "\"unterminated",
            "nul",
            "1e999",
            "\"\\ud800\"",
            "\"\\u12\"",
            "\"\\x\"",
            &format!(
                "{}1{}",
                "[".repeat(MAX_DEPTH + 2),
                "]".repeat(MAX_DEPTH + 2)
            ),
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn writers_follow_the_escaping_and_number_rules() {
        let mut out = String::new();
        write_string(&mut out, "a\"b\\c\nd\re\tf\u{1}g\u{1f}é/");
        assert_eq!(out, r#""a\"b\\c\nd\re\tf\u0001g\u001fé/""#);
        for (v, text) in [
            (0.1, "0.1"),
            (1e21, "1000000000000000000000"),
            (-0.0, "-0"),
            (f64::NAN, "null"),
            (f64::NEG_INFINITY, "null"),
        ] {
            let mut out = String::new();
            write_number(&mut out, v);
            assert_eq!(out, text);
        }
    }

    #[test]
    fn accessors_apply_the_count_rule_and_name_the_field() {
        let v = Json::parse(
            r#"{"n":9007199254740992,"n1":9007199254740993,"big":9007199254740994,
            "frac":1.5,"neg":-1,"zero":-0,"d":4294967295,"d_big":4294967296,"s":"x",
            "seed":"18446744073709551615","x":null,"arr":[3,5],"bad_arr":[3,1e20]}"#,
        )
        .unwrap();
        assert_eq!(v.count_field("n"), Ok(1 << 53));
        // 2^53 + 1 has no f64 of its own and reads as 2^53.
        assert_eq!(v.count_field("n1"), Ok(1 << 53));
        assert_eq!(v.count_field("zero"), Ok(0));
        for key in ["big", "frac", "neg", "s"] {
            let err = v.count_field(key).unwrap_err();
            assert!(err.contains(&format!("{key:?}")), "{err}");
        }
        assert_eq!(v.u32_field("d"), Ok(u32::MAX));
        let err = v.u32_field("d_big").unwrap_err();
        assert!(
            err.contains("\"d_big\"") && err.contains("0..=4294967295"),
            "{err}"
        );
        assert_eq!(v.u64_str_field("seed"), Ok(u64::MAX));
        assert!(v.u64_str_field("s").unwrap_err().contains("\"s\""));
        assert_eq!(v.opt_f64_field("x"), Ok(None));
        assert_eq!(v.opt_f64_field("frac"), Ok(Some(1.5)));
        assert!(v.opt_f64_field("s").unwrap_err().contains("\"s\""));
        assert_eq!(v.u32_items("arr"), Ok(vec![3, 5]));
        assert!(v
            .u32_items("bad_arr")
            .unwrap_err()
            .contains("0..=4294967295"));
        assert_eq!(v.f64_items("arr"), Ok(vec![3.0, 5.0]));
        assert!(v.f64_items("s").unwrap_err().contains("\"s\""));
        assert_eq!(v.str_field("s"), Ok("x"));
        assert_eq!(
            v.str_field("absent").unwrap_err(),
            "missing field \"absent\""
        );
        assert!(v.bool_field("s").unwrap_err().contains("\"s\""));
        assert!(v.arr_field("s").unwrap_err().contains("\"s\""));
        assert!(Json::Null.field("n").unwrap_err().contains("object"));
    }

    /// The daemon reads request lines of up to 1 MiB. The reference parser
    /// revalidates the rest of the input for every string character, so
    /// its time grows with the square of the string's length; the linear
    /// scan must read this line well inside the bound, even in a debug
    /// build.
    #[test]
    fn a_megabyte_string_parses_in_linear_time() {
        const RAW: &str = r#"plain text é€😀 \"quoted\" \\ \n\u0001 "#;
        const DECODED: &str = "plain text é€😀 \"quoted\" \\ \n\u{1} ";
        let copies = ((1 << 20) - 64) / RAW.len();
        let line = format!(r#"{{"type":"status","id":"{}"}}"#, RAW.repeat(copies));
        assert!(line.len() < 1 << 20);
        let start = Instant::now();
        let value = Json::parse(&line).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(value.str_field("id"), Ok(DECODED.repeat(copies).as_str()));
        assert!(elapsed < Duration::from_secs(2), "{elapsed:?}");
    }

    /// String characters the writer or the grammar treats specially: the
    /// two that must be escaped, those with short escapes, other control
    /// characters, and 2-, 3- and 4-byte UTF-8.
    const CHARS: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '/', '\u{0}', '\u{8}', '\u{c}', '\n', '\r', '\t', '\u{1f}',
        '\u{7f}', 'é', '€', '\u{2028}', '😀',
    ];

    const TWO_53: f64 = 9_007_199_254_740_992.0;

    fn arb_string(rng: &mut StdRng) -> String {
        let len = rng.random_range(0..8usize);
        (0..len)
            .map(|_| CHARS[rng.random_range(0..CHARS.len())])
            .collect()
    }

    fn arb_number(rng: &mut StdRng) -> f64 {
        match rng.random_range(0..8u32) {
            0 => f64::from(rng.random_range(0..1_000u32)),
            1 => -f64::from(rng.random_range(0..1_000u32)),
            2 => [TWO_53 - 1.0, TWO_53, TWO_53 + 2.0][rng.random_range(0..3usize)],
            3 => [f64::MAX, f64::MIN_POSITIVE, 5e-324, -0.0, 1e300][rng.random_range(0..5usize)],
            // A shortest round-trip float of moderate exponent.
            _ => {
                let mantissa = rng.random_range(-1_000_000i64..1_000_000) as f64;
                mantissa * 10f64.powi(rng.random_range(-12i32..12))
            }
        }
    }

    fn arb_scalar(rng: &mut StdRng) -> Json {
        match rng.random_range(0..5u32) {
            0 => Json::Null,
            1 => Json::Bool(rng.random()),
            2 => Json::Num(arb_number(rng)),
            _ => Json::Str(arb_string(rng)),
        }
    }

    /// A value whose deepest item sits `depth` levels down, with scalar
    /// siblings along the way.
    fn arb_value(rng: &mut StdRng, depth: usize) -> Json {
        if depth == 0 {
            return arb_scalar(rng);
        }
        let mut items: Vec<Json> = (0..rng.random_range(0..3usize))
            .map(|_| arb_scalar(rng))
            .collect();
        let at = rng.random_range(0..=items.len());
        items.insert(at, arb_value(rng, depth - 1));
        if rng.random() {
            Json::Arr(items)
        } else {
            Json::Obj(items.into_iter().map(|v| (arb_string(rng), v)).collect())
        }
    }

    fn arb_ws(rng: &mut StdRng, out: &mut String) {
        for _ in 0..rng.random_range(0..3usize) {
            out.push([' ', '\t', '\n', '\r'][rng.random_range(0..4usize)]);
        }
    }

    /// Writes `s` with each character raw or in any escape that decodes to
    /// it (`"` and `\` always escaped).
    fn write_noisy_string(s: &str, rng: &mut StdRng, out: &mut String) {
        out.push('"');
        for ch in s.chars() {
            let short = match ch {
                '"' => Some("\\\""),
                '\\' => Some("\\\\"),
                '/' => Some("\\/"),
                '\u{8}' => Some("\\b"),
                '\u{c}' => Some("\\f"),
                '\n' => Some("\\n"),
                '\r' => Some("\\r"),
                '\t' => Some("\\t"),
                _ => None,
            };
            let form = rng.random_range(0..3u32);
            if form == 0 && (ch as u32) <= 0xffff {
                let _ = if rng.random() {
                    write!(out, "\\u{:04x}", ch as u32)
                } else {
                    write!(out, "\\u{:04X}", ch as u32)
                };
            } else if let Some(esc) = short.filter(|_| form == 1 || matches!(ch, '"' | '\\')) {
                out.push_str(esc);
            } else {
                out.push(ch);
            }
        }
        out.push('"');
    }

    /// Writes `v` the long way: whitespace around every token, numbers in
    /// plain or exponent form (2⁵³ sometimes as `9007199254740993`, which
    /// rounds to it), and strings through [`write_noisy_string`].
    fn write_noisy(v: &Json, rng: &mut StdRng, out: &mut String) {
        arb_ws(rng, out);
        match v {
            Json::Null | Json::Bool(_) => out.push_str(&v.to_line()),
            Json::Num(x) if x.to_bits() == TWO_53.to_bits() && rng.random() => {
                out.push_str("9007199254740993");
            }
            Json::Num(x) => {
                let _ = match rng.random_range(0..3u32) {
                    0 => write!(out, "{x}"),
                    1 => write!(out, "{x:e}"),
                    _ => write!(out, "{x:E}"),
                };
            }
            Json::Str(s) => write_noisy_string(s, rng, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_noisy(item, rng, out);
                }
                arb_ws(rng, out);
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    arb_ws(rng, out);
                    write_noisy_string(key, rng, out);
                    arb_ws(rng, out);
                    out.push(':');
                    write_noisy(value, rng, out);
                }
                arb_ws(rng, out);
                out.push('}');
            }
        }
        arb_ws(rng, out);
    }

    fn has_infinity(v: &Json) -> bool {
        match v {
            Json::Num(x) => !x.is_finite(),
            Json::Arr(items) => items.iter().any(has_infinity),
            Json::Obj(fields) => fields.iter().any(|(_, v)| has_infinity(v)),
            _ => false,
        }
    }

    /// Both parsers return the same value, or both an error. The one
    /// exception: the reference reads an overflowing number as an infinity,
    /// which [`Json::parse`] rejects.
    fn assert_agree(line: &str) {
        match (Json::parse(line), reference::parse(line)) {
            (Ok(new), Ok(old)) => assert_eq!(new, old, "{line:?}"),
            (Err(_), Err(_)) => {}
            (Err(e), Ok(old)) => assert!(
                has_infinity(&old) && e.contains("overflows"),
                "{line:?}: rejected ({e}), reference read {old:?}"
            ),
            (Ok(new), Err(e)) => panic!("{line:?}: read {new:?}, reference rejected ({e})"),
        }
    }

    /// Bytes a mutation writes: structure, number and literal characters.
    const MUTATIONS: &[u8] = b"\"\\{}[],:0e-+. nu/";

    /// Holds the parsers to agree on `line`, on every prefix of it that ends
    /// on a char boundary, and on one single-byte mutation per position.
    fn check_line(line: &str, rng: &mut StdRng) {
        assert_agree(line);
        for end in (0..line.len()).filter(|&end| line.is_char_boundary(end)) {
            assert_agree(&line[..end]);
        }
        for at in 0..line.len() {
            let mut bytes = line.as_bytes().to_vec();
            bytes[at] = MUTATIONS[rng.random_range(0..MUTATIONS.len())];
            if let Ok(mutated) = String::from_utf8(bytes) {
                assert_agree(&mutated);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The linear parser accepts and rejects what the reference does,
        /// with the same values, on each value's line, a noisy rewrite of
        /// it, their truncations and their mutations.
        #[test]
        fn parser_matches_reference_on_lines_truncations_and_mutations(
            seed in any::<u64>(),
            depth in 0..MAX_DEPTH + 2,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let value = arb_value(&mut rng, depth);
            let mut noisy = String::new();
            write_noisy(&value, &mut rng, &mut noisy);
            for line in [value.to_line(), noisy] {
                let parsed = Json::parse(&line);
                if depth <= MAX_DEPTH {
                    prop_assert_eq!(parsed, Ok(value.clone()), "{}", line);
                } else {
                    prop_assert!(parsed.is_err(), "{}", line);
                }
                check_line(&line, &mut rng);
            }
        }
    }
}
