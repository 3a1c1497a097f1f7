//! A minimal, dependency-free JSON value type with a strict parser.
//!
//! The snapshot/telemetry layers already *write* JSON with hand-rolled
//! writers; the scenario-fuzzing corpus (see `hmc-fuzz`) also needs to
//! *read* it back. This module provides the shared value type for
//! both directions, with deliberate restrictions that suit
//! machine-written scenario files:
//!
//! * numbers are **integers only** (`i128`, covering the full `u64`
//!   and `i64` ranges exactly) — floats would round-trip lossily and
//!   no scenario field needs them; a float in the input is rejected
//!   with a clear message;
//! * object keys must be unique — a duplicate key is a parse error,
//!   never a silent override;
//! * parse errors carry the byte offset of the offending input.
//!
//! Rendering is deterministic: objects preserve insertion order and
//! produce identical bytes for identical values, which the fuzz
//! corpus relies on for stable round trips.

use std::fmt::{self, Write as _};

/// A parsed JSON value (integer-only numbers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (JSON numbers without fraction or exponent).
    Int(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse or extraction error, with human-readable context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(message: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError { message: message.into() })
}

/// Whether `b` ends a plain run inside a JSON string: the closing
/// quote, a backslash, or a control byte. The writer escapes exactly
/// these bytes; the parser stops at them. Non-short-circuit `|` keeps
/// the test branch-free, so [`plain_run`]'s block fold vectorizes.
fn ends_run(b: u8) -> bool {
    (b == b'"') | (b == b'\\') | (b < 0x20)
}

/// Length of the leading run of `bytes` that contains no [`ends_run`]
/// byte. Whole 16-byte blocks are tested with a branch-free fold the
/// compiler vectorizes; the block holding the stop byte is then
/// searched byte by byte.
fn plain_run(bytes: &[u8]) -> usize {
    let mut n = 0;
    for block in bytes.chunks_exact(16) {
        if block.iter().fold(false, |hit, &b| hit | ends_run(b)) {
            break;
        }
        n += 16;
    }
    n + bytes[n..].iter().position(|&b| ends_run(b)).unwrap_or(bytes.len() - n)
}

/// Appends `s` to `out` with JSON string escaping (without the
/// surrounding quotes). A string with nothing to escape is one scan and
/// one copy.
pub(crate) fn escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    let mut pos = 0;
    loop {
        let run = plain_run(&bytes[pos..]);
        out.push_str(&s[pos..pos + run]);
        pos += run;
        let Some(&b) = bytes.get(pos) else { return };
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[(b >> 4) as usize] as char);
                out.push(HEX[(b & 0xF) as usize] as char);
            }
        }
        pos += 1;
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn fail<T>(&self, what: impl fmt::Display) -> Result<T, JsonError> {
        err(format!("{what} at byte {}", self.pos))
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        match self.bump() {
            Some(got) if got == b => Ok(()),
            Some(got) => {
                self.pos -= 1;
                self.fail(format!("expected '{}', found '{}'", b as char, got as char))
            }
            None => self.fail(format!("expected '{}', found end of input", b as char)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.fail(format!("invalid literal (expected `{word}`)"))
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Copy everything up to the next quote, backslash or control
            // byte in one slice copy. Those stop bytes are ASCII and the
            // input is a `&str`, so both ends of the run are char
            // boundaries and multibyte UTF-8 needs no reassembly.
            let start = self.pos;
            self.pos += plain_run(&self.bytes[start..]);
            s.push_str(&self.text[start..self.pos]);
            match self.bump() {
                None => return self.fail("unterminated string"),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'r') => s.push('\r'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'u') => {
                        if self.pos + 4 > self.bytes.len() {
                            return self.fail("truncated \\u escape");
                        }
                        let hex = &self.bytes[self.pos..self.pos + 4];
                        let hex = std::str::from_utf8(hex)
                            .ok()
                            .and_then(|h| u32::from_str_radix(h, 16).ok());
                        let Some(code) = hex else {
                            return self.fail("invalid \\u escape");
                        };
                        self.pos += 4;
                        // Surrogate pairs are not needed by any writer
                        // in this workspace; reject rather than decode
                        // them wrongly.
                        match char::from_u32(code) {
                            Some(c) => s.push(c),
                            None => return self.fail("unsupported surrogate \\u escape"),
                        }
                    }
                    _ => return self.fail("invalid escape"),
                },
                Some(_) => return self.fail("raw control character in string"),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return self.fail("non-integer number (floats are not accepted)");
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        match text.parse::<i128>() {
            Ok(v) => Ok(Json::Int(v)),
            Err(_) => self.fail(format!("invalid integer `{text}`")),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > 64 {
            return self.fail("nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            None => self.fail("unexpected end of input"),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
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
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b']') => return Ok(Json::Arr(items)),
                        _ => {
                            self.pos = self.pos.saturating_sub(1);
                            return self.fail("expected ',' or ']' in array");
                        }
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields: Vec<(String, Json)> = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    if fields.iter().any(|(k, _)| *k == key) {
                        return self.fail(format!("duplicate object key `{key}`"));
                    }
                    self.skip_ws();
                    self.expect(b':')?;
                    let value = self.value(depth + 1)?;
                    fields.push((key, value));
                    self.skip_ws();
                    match self.bump() {
                        Some(b',') => continue,
                        Some(b'}') => return Ok(Json::Obj(fields)),
                        _ => {
                            self.pos = self.pos.saturating_sub(1);
                            return self.fail("expected ',' or '}' in object");
                        }
                    }
                }
            }
            Some(b) => self.fail(format!("unexpected byte '{}'", b as char)),
        }
    }
}

impl Json {
    /// Parses a complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return p.fail("trailing characters after JSON value");
        }
        Ok(v)
    }

    /// Renders the value as compact deterministic JSON.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, s: &mut String) {
        match self {
            Json::Null => s.push_str("null"),
            Json::Bool(b) => s.push_str(if *b { "true" } else { "false" }),
            Json::Int(v) => write!(s, "{v}").expect("writing to a String cannot fail"),
            Json::Str(v) => {
                s.push('"');
                escape_into(s, v);
                s.push('"');
            }
            Json::Arr(items) => {
                s.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    item.write(s);
                }
                s.push(']');
            }
            Json::Obj(fields) => {
                s.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push('"');
                    escape_into(s, k);
                    s.push_str("\":");
                    v.write(s);
                }
                s.push('}');
            }
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is an integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is an integer in range.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Int(v) => usize::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a `u32`, if it is an integer in range.
    pub fn as_u32(&self) -> Option<u32> {
        match self {
            Json::Int(v) => u32::try_from(*v).ok(),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Strict field-by-field reader over a JSON object.
///
/// Every scenario deserializer in this workspace funnels through this
/// type: each accessor marks its key as consumed, and [`finish`]
/// (`ObjReader::finish`) rejects any key that was never consumed — so
/// a corpus file with an unknown or misspelled field fails loudly
/// instead of silently dropping data.
pub struct ObjReader<'a> {
    ctx: &'a str,
    fields: &'a [(String, Json)],
    consumed: Vec<bool>,
}

impl<'a> ObjReader<'a> {
    /// Wraps `value`, which must be an object; `ctx` names the thing
    /// being parsed in error messages (e.g. `"fault_plan"`).
    pub fn new(ctx: &'a str, value: &'a Json) -> Result<Self, JsonError> {
        match value.as_obj() {
            Some(fields) => {
                Ok(ObjReader { ctx, fields, consumed: vec![false; fields.len()] })
            }
            None => err(format!("{ctx}: expected a JSON object")),
        }
    }

    fn take(&mut self, key: &str) -> Option<&'a Json> {
        let idx = self.fields.iter().position(|(k, _)| k == key)?;
        self.consumed[idx] = true;
        Some(&self.fields[idx].1)
    }

    /// A required field of any type.
    pub fn required(&mut self, key: &str) -> Result<&'a Json, JsonError> {
        match self.take(key) {
            Some(v) => Ok(v),
            None => err(format!("{}: missing field `{key}`", self.ctx)),
        }
    }

    /// An optional field (`None` when absent).
    pub fn optional(&mut self, key: &str) -> Option<&'a Json> {
        self.take(key)
    }

    /// A required `u64` field.
    pub fn u64(&mut self, key: &str) -> Result<u64, JsonError> {
        let ctx = self.ctx;
        self.required(key)?
            .as_u64()
            .ok_or(JsonError { message: format!("{ctx}: field `{key}` must be a u64") })
    }

    /// A required `u32` field.
    pub fn u32(&mut self, key: &str) -> Result<u32, JsonError> {
        let ctx = self.ctx;
        self.required(key)?
            .as_u32()
            .ok_or(JsonError { message: format!("{ctx}: field `{key}` must be a u32") })
    }

    /// A required `usize` field.
    pub fn usize(&mut self, key: &str) -> Result<usize, JsonError> {
        let ctx = self.ctx;
        self.required(key)?
            .as_usize()
            .ok_or(JsonError { message: format!("{ctx}: field `{key}` must be a usize") })
    }

    /// A required `bool` field.
    pub fn bool(&mut self, key: &str) -> Result<bool, JsonError> {
        let ctx = self.ctx;
        self.required(key)?
            .as_bool()
            .ok_or(JsonError { message: format!("{ctx}: field `{key}` must be a bool") })
    }

    /// A required string field.
    pub fn str(&mut self, key: &str) -> Result<&'a str, JsonError> {
        let ctx = self.ctx;
        self.required(key)?
            .as_str()
            .ok_or(JsonError { message: format!("{ctx}: field `{key}` must be a string") })
    }

    /// Rejects unknown fields: errors if any key was never consumed.
    pub fn finish(self) -> Result<(), JsonError> {
        let unknown: Vec<&str> = self
            .fields
            .iter()
            .zip(&self.consumed)
            .filter(|(_, &c)| !c)
            .map(|((k, _), _)| k.as_str())
            .collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            err(format!("{}: unknown field(s): {}", self.ctx, unknown.join(", ")))
        }
    }
}

/// Convenience constructor for object values.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars_and_structures() {
        let v = obj(vec![
            ("a", Json::Int(18_446_744_073_709_551_615i128)), // u64::MAX
            ("b", Json::Bool(true)),
            ("c", Json::Str("hi \"there\"\n".into())),
            ("d", Json::Arr(vec![Json::Int(-3), Json::Null])),
            ("e", obj(vec![("nested", Json::Int(0))])),
        ]);
        let text = v.render();
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(Json::parse(&text).unwrap().render(), text, "render is stable");
    }

    #[test]
    fn u64_max_is_exact() {
        let v = Json::parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn rejects_floats_duplicates_and_garbage() {
        assert!(Json::parse("1.5").unwrap_err().message.contains("float"));
        assert!(Json::parse("1e3").unwrap_err().message.contains("float"));
        assert!(Json::parse("{\"a\":1,\"a\":2}").unwrap_err().message.contains("duplicate"));
        assert!(Json::parse("{\"a\":1} trailing").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn errors_carry_byte_offsets() {
        let e = Json::parse("[1, x]").unwrap_err();
        assert!(e.message.contains("byte 4"), "{}", e.message);
    }

    #[test]
    fn obj_reader_rejects_unknown_fields() {
        let v = Json::parse("{\"known\":1,\"mystery\":2}").unwrap();
        let mut r = ObjReader::new("test", &v).unwrap();
        assert_eq!(r.u64("known").unwrap(), 1);
        let e = r.finish().unwrap_err();
        assert!(e.message.contains("mystery"), "{}", e.message);
    }

    #[test]
    fn obj_reader_reports_missing_and_mistyped() {
        let v = Json::parse("{\"a\":\"text\"}").unwrap();
        let mut r = ObjReader::new("thing", &v).unwrap();
        assert!(r.u64("a").unwrap_err().message.contains("must be a u64"));
        assert!(r.u64("b").unwrap_err().message.contains("missing field `b`"));
    }

    #[test]
    fn parses_unicode_and_escapes() {
        let v = Json::parse("\"caf\\u00e9 → ok\"").unwrap();
        assert_eq!(v.as_str(), Some("café → ok"));
    }

    /// A rendered snapshot of a two-link, one-vault device, plus a
    /// string field holding every kind of escape and multibyte
    /// character. The tag pools' free lists (18 KB of integers) are
    /// left out so the document is small enough to parse once per
    /// byte in a debug build.
    fn small_checkpoint() -> String {
        let config = crate::DeviceConfig {
            links: 2,
            quads: 1,
            vaults_per_quad: 1,
            banks_per_vault: 1,
            capacity: 1 << 12,
            ..crate::DeviceConfig::gen2_4link_4gb()
        };
        let sim = crate::HmcSim::new(config).unwrap();
        let mut v = sim.snapshot().to_json_value();
        let Json::Obj(fields) = &mut v else { panic!("a snapshot renders as an object") };
        fields.retain(|(k, _)| k != "tag_pools");
        fields.push(("note".into(), Json::Str("q\"b\\n\nc\u{1}é→😀".into())));
        v.render()
    }

    #[test]
    fn every_truncation_and_byte_mutation_parses_or_errs() {
        let text = small_checkpoint();
        assert_eq!(Json::parse(&text).unwrap().render(), text);
        for end in 0..text.len() {
            if let Some(prefix) = text.get(..end) {
                assert!(Json::parse(prefix).is_err(), "prefix of {end} bytes parsed");
            }
        }
        for i in 0..text.len() {
            for b in [b'"', b'\\', 0x01, b'z'] {
                let mut bytes = text.clone().into_bytes();
                bytes[i] = b;
                let Ok(mutated) = String::from_utf8(bytes) else { continue };
                if let Ok(v) = Json::parse(&mutated) {
                    assert_eq!(Json::parse(&v.render()).unwrap(), v, "byte {i} -> {b:#x}");
                }
            }
        }
    }

    #[test]
    fn strings_parse_and_render_as_pinned() {
        for (text, want) in [
            ("\"plain ascii run\"", "plain ascii run"),
            ("\"ab\\\"cd\\\\ef\\ngh\"", "ab\"cd\\ef\ngh"),
            ("\"caf\\u00e9 ok\"", "café ok"),
            ("\"x é y → z 😀 w\"", "x é y → z 😀 w"),
            ("\"é\"", "é"),
            ("\"😀\"", "😀"),
            ("\"ab\u{7f}cd\"", "ab\u{7f}cd"),
            ("\"a\\/b\\b\\f\\r\\t\"", "a/b\u{8}\u{c}\r\t"),
            ("\"\"", ""),
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.as_str(), Some(want), "{text}");
            assert_eq!(Json::parse(&v.render()).unwrap(), v, "{text}");
        }
        for (value, rendered) in [
            ("a\"b\\c", "\"a\\\"b\\\\c\""),
            ("x\u{1}\u{1f}\n\r\t\u{8}\u{c}y", "\"x\\u0001\\u001f\\n\\r\\t\\u0008\\u000cy\""),
            ("é → 😀\u{7f}", "\"é → 😀\u{7f}\""),
        ] {
            assert_eq!(Json::Str(value.into()).render(), rendered);
        }
    }

    #[test]
    fn string_errors_are_pinned() {
        for (text, message) in [
            ("\"abc", "unterminated string at byte 4"),
            ("\"ab\u{1}cd\"", "raw control character in string at byte 4"),
            ("\"ab\tcd\"", "raw control character in string at byte 4"),
            ("\"é\u{1}\"", "raw control character in string at byte 4"),
            ("{\"k\u{1}\":1}", "raw control character in string at byte 4"),
            ("\"ab\\qcd\"", "invalid escape at byte 5"),
            ("\"ab\\", "invalid escape at byte 4"),
            ("[\"a\",\"b\\", "invalid escape at byte 8"),
            ("\"ab\\u12\"", "truncated \\u escape at byte 5"),
            ("\"ab\\uzzzzx\"", "invalid \\u escape at byte 5"),
            ("\"ab\\ud800x\"", "unsupported surrogate \\u escape at byte 9"),
        ] {
            assert_eq!(Json::parse(text).unwrap_err().message, message, "{text:?}");
        }
    }

    #[test]
    fn escapes_at_every_block_offset_round_trip() {
        // Moves one escaped byte across the 16-byte scan blocks.
        for len in 0..40 {
            for at in 0..=len {
                for (raw, escaped) in [("\"", "\\\""), ("\\", "\\\\"), ("\u{1}", "\\u0001")] {
                    let value = format!("{}{raw}{}", "a".repeat(at), "é".repeat(len - at));
                    let text = format!("\"{}{escaped}{}\"", "a".repeat(at), "é".repeat(len - at));
                    assert_eq!(Json::Str(value.clone()).render(), text);
                    assert_eq!(Json::parse(&text).unwrap(), Json::Str(value));
                }
            }
        }
    }

    #[test]
    fn integers_parse_and_render_as_pinned() {
        for (text, rendered) in [
            ("-0", "0"),
            ("007", "7"),
            ("999999999999999999", "999999999999999999"),
            ("-999999999999999999", "-999999999999999999"),
            ("1000000000000000000", "1000000000000000000"),
            ("18446744073709551615", "18446744073709551615"),
            ("170141183460469231731687303715884105727", "170141183460469231731687303715884105727"),
            (
                "-170141183460469231731687303715884105728",
                "-170141183460469231731687303715884105728",
            ),
        ] {
            let v = Json::parse(text).unwrap();
            assert_eq!(v.render(), rendered);
        }
        for (text, message) in [
            ("-", "invalid integer `-` at byte 1"),
            ("[1,-]", "invalid integer `-` at byte 4"),
            (
                "170141183460469231731687303715884105728",
                "invalid integer `170141183460469231731687303715884105728` at byte 39",
            ),
            ("01.5", "non-integer number (floats are not accepted) at byte 2"),
        ] {
            assert_eq!(Json::parse(text).unwrap_err().message, message, "{text:?}");
        }
    }
}
