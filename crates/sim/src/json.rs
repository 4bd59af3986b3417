//! A minimal hand-rolled JSON layer.
//!
//! The workspace is offline (no serde), but `bench_report.json` still has to
//! be real JSON so CI artifacts are consumable by ordinary tooling. Every
//! JSON document the workspace writes (the report, the checkpoint journal's
//! records, the fuzz fixtures and telemetry, `scale_smoke`'s telemetry)
//! goes through this module, which provides three pieces and nothing more:
//!
//! * [`JsonValue`] — an ordered document model (object keys keep insertion
//!   order so reports are stable and diffable);
//! * a pretty writer ([`JsonValue::to_pretty`]) with full string escaping
//!   and RFC 8259-safe number handling (non-finite floats become `null`);
//! * a strict recursive-descent parser ([`parse`]) that reads the livelock
//!   fixtures and lets the integration tests prove the emitted report
//!   round-trips.

use std::fmt::Write as _;

/// An ordered JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept separate from floats so counts print as `3`, not
    /// `3.0`).
    Int(i64),
    /// A finite float. Non-finite values are rejected at write time.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// A float value, mapping non-finite inputs to `null` (JSON has no
    /// `NaN`/`Infinity`).
    pub fn num(v: f64) -> JsonValue {
        if v.is_finite() {
            JsonValue::Num(v)
        } else {
            JsonValue::Null
        }
    }

    /// An optional float: `None` and non-finite both become `null`.
    pub fn opt_num(v: Option<f64>) -> JsonValue {
        v.map_or(JsonValue::Null, JsonValue::num)
    }

    /// An optional integer-valued count.
    pub fn opt_int(v: Option<usize>) -> JsonValue {
        v.map_or(JsonValue::Null, |x| JsonValue::Int(x as i64))
    }

    /// Looks a key up in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements of an array; `None` for non-arrays.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The contents of a string; `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A non-negative integer; `None` for anything else.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// A float; `None` for anything else, integers included (the writer
    /// keeps the two apart).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// A boolean; `None` for non-booleans.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            JsonValue::Num(v) => {
                // `{:?}` is the shortest round-trippable decimal form that
                // keeps a decimal point on whole values (`1.0`, not `1`), so
                // floats never parse back as integers; `1e-3` style output
                // is valid JSON.
                debug_assert!(v.is_finite());
                let _ = write!(out, "{v:?}");
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push(']');
            }
            JsonValue::Obj(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document, rejecting trailing garbage.
///
/// Strict enough for round-trip tests: objects, arrays, strings with the
/// standard escapes (including `\uXXXX` with surrogate pairs), numbers,
/// booleans and `null`.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing garbage at byte {}", parser.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(entries));
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
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(entries));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: the low half must follow.
                                self.expect(b'\\')?;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("unpaired surrogate".into());
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code).ok_or("invalid surrogate pair")?
                            } else {
                                char::from_u32(hi).ok_or("unpaired surrogate")?
                            };
                            out.push(c);
                            continue;
                        }
                        other => return Err(format!("bad escape {:?}", other.map(|c| c as char))),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through unmodified;
                    // re-slice from the source to keep char boundaries.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().expect("peeked a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let digits = &self.bytes[self.pos..end];
        // from_str_radix alone is too lenient (it accepts a leading '+').
        if !digits.iter().all(u8::is_ascii_hexdigit) {
            return Err(format!("non-hex \\u escape at byte {}", self.pos));
        }
        let s = std::str::from_utf8(digits).map_err(|e| e.to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|e| e.to_string())?;
        self.pos = end;
        Ok(v)
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_start = self.pos;
        if self.digits() == 0 {
            return Err(format!("expected a digit at byte {}", self.pos));
        }
        if self.bytes[int_start] == b'0' && self.pos - int_start > 1 {
            return Err(format!("leading zero in number at byte {int_start}"));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if self.digits() == 0 {
                return Err(format!("expected a fraction digit at byte {}", self.pos));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return Err(format!("expected an exponent digit at byte {}", self.pos));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if is_float {
            text.parse::<f64>()
                .map(JsonValue::Num)
                .map_err(|e| e.to_string())
        } else {
            text.parse::<i64>()
                .map(JsonValue::Int)
                .map_err(|e| e.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretty_printing_nests_and_indents() {
        let doc = JsonValue::Obj(vec![
            ("name".into(), JsonValue::Str("report".into())),
            ("runs".into(), JsonValue::Int(3)),
            (
                "rates".into(),
                JsonValue::Arr(vec![JsonValue::Num(0.5), JsonValue::Null]),
            ),
            ("empty".into(), JsonValue::Obj(vec![])),
        ]);
        let text = doc.to_pretty();
        assert!(text.starts_with("{\n  \"name\": \"report\""));
        assert!(text.contains("\"rates\": [\n    0.5,\n    null\n  ]"));
        assert!(text.contains("\"empty\": {}"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn escaping_covers_quotes_backslashes_and_control_chars() {
        let doc = JsonValue::Str("a\"b\\c\nd\te\u{1}".into());
        assert_eq!(doc.to_pretty(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"\n");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(JsonValue::num(f64::NAN), JsonValue::Null);
        assert_eq!(JsonValue::num(f64::INFINITY), JsonValue::Null);
        assert_eq!(JsonValue::num(1.5), JsonValue::Num(1.5));
        assert_eq!(JsonValue::opt_num(None), JsonValue::Null);
        assert_eq!(JsonValue::opt_int(Some(7)), JsonValue::Int(7));
    }

    #[test]
    fn parser_round_trips_the_writer() {
        let doc = JsonValue::Obj(vec![
            ("s".into(), JsonValue::Str("quote \" slash \\ né\n".into())),
            ("i".into(), JsonValue::Int(-42)),
            ("f".into(), JsonValue::Num(1e-3)),
            // Whole-valued floats must stay floats across the round-trip.
            ("g".into(), JsonValue::Num(1.0)),
            ("b".into(), JsonValue::Bool(true)),
            ("z".into(), JsonValue::Null),
            (
                "a".into(),
                JsonValue::Arr(vec![JsonValue::Int(1), JsonValue::Num(2.25)]),
            ),
        ]);
        assert_eq!(parse(&doc.to_pretty()).unwrap(), doc);
    }

    #[test]
    fn parser_accepts_unicode_escapes_and_raw_unicode() {
        assert_eq!(parse(r#""é""#).unwrap(), JsonValue::Str("é".into()));
        assert_eq!(parse(r#""😀""#).unwrap(), JsonValue::Str("😀".into()));
        assert_eq!(parse(r#""é😀""#).unwrap(), JsonValue::Str("é😀".into()));
        assert_eq!(parse("\"\\u00e9\"").unwrap(), JsonValue::Str("é".into()));
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            JsonValue::Str("😀".into())
        );
        assert!(parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse(r#""\q""#).is_err());
        assert!(parse("tru").is_err());
    }

    #[test]
    fn parser_rejects_malformed_numbers_and_escapes() {
        assert!(parse("5.").is_err());
        assert!(parse(".5").is_err());
        assert!(parse("01").is_err());
        assert!(parse("-").is_err());
        assert!(parse("1e").is_err());
        assert!(parse("1e+").is_err());
        assert!(parse(r#""\u+abc""#).is_err());
        assert!(parse(r#""\u12g4""#).is_err());
        assert_eq!(parse("-0").unwrap(), JsonValue::Int(0));
        assert_eq!(parse("0.5").unwrap(), JsonValue::Num(0.5));
        assert_eq!(parse("1e5").unwrap(), JsonValue::Num(1e5));
        assert_eq!(parse("-0.25e-2").unwrap(), JsonValue::Num(-0.0025));
    }

    #[test]
    fn object_lookup_helpers() {
        let doc = parse(r#"{"a": [1, 2], "b": "x"}"#).unwrap();
        assert_eq!(doc.get("a").and_then(JsonValue::as_arr).unwrap().len(), 2);
        assert_eq!(doc.get("b").and_then(JsonValue::as_str), Some("x"));
        let scalars = parse(r#"{"u": 7, "neg": -1, "t": true}"#).unwrap();
        assert_eq!(scalars.get("u").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(scalars.get("neg").and_then(JsonValue::as_u64), None);
        assert_eq!(scalars.get("t").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(scalars.get("u").and_then(JsonValue::as_bool), None);
        assert_eq!(scalars.get("u").and_then(JsonValue::as_f64), None);
        assert_eq!(parse("2.5").unwrap().as_f64(), Some(2.5));
        assert!(doc.get("c").is_none());
    }
}
