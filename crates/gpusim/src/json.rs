//! A minimal JSON reader and writer, vendored-dependency-free.
//!
//! The build environment has no registry access, so the workspace cannot
//! pull in `serde`. Every JSON document the workspace reads or writes —
//! custom [`DeviceSpec`](crate::DeviceSpec) files, the autotune layer's
//! persisted tuning database, Chrome traces and the `BENCH_*.json`
//! reports — is small and machine-shaped, which this module covers
//! completely: objects, arrays, strings (with `\uXXXX` escapes),
//! numbers, booleans, and null.
//!
//! Documents are built as a [`Json`] tree and written with
//! [`Json::to_compact`] (one line, no whitespace: traces) or
//! [`Json::to_pretty`] (the outer two levels one item per line: reports
//! and databases). Numbers are written in their shortest round-trip
//! form, so [`parse`] recovers every `f64` bit-exactly and a
//! write → parse → write cycle is byte-identical.
//!
//! # Examples
//!
//! ```
//! use mg_gpusim::json::{parse, Json};
//!
//! let doc = parse(r#"{"name": "A100", "sm_count": 108}"#).unwrap();
//! assert_eq!(doc.get("name").and_then(Json::as_str), Some("A100"));
//! assert_eq!(doc.get("sm_count").and_then(Json::as_f64), Some(108.0));
//!
//! let written = Json::obj([("name", "A100".into()), ("sm_count", 108usize.into())]);
//! assert_eq!(written.to_compact(), r#"{"name":"A100","sm_count":108}"#);
//! assert_eq!(parse(&written.to_pretty()).unwrap(), doc);
//! ```

use std::fmt::Write as _;

/// One parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer, if exactly
    /// representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
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

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// An object from `(key, value)` members, in order.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// The value on one line with no whitespace — the form for
    /// documents only tools read, such as Chrome traces.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, &COMPACT, 0);
        out
    }

    /// The value with its outer two levels one item per line (two-space
    /// indent) and everything deeper inline, plus a final newline — the
    /// form of the `BENCH_*.json` reports and the tuning database, where
    /// each record reads as one line.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, &PRETTY, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, style: &Style, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_number(out, *n),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_seq(out, style, depth, ('[', ']'), items, |out, v| {
                v.write(out, style, depth + 1)
            }),
            Json::Obj(members) => {
                write_seq(out, style, depth, ('{', '}'), members, |out, (k, v)| {
                    write_string(out, k);
                    out.push_str(style.colon);
                    v.write(out, style, depth + 1);
                })
            }
        }
    }
}

/// Separators and line breaking of one output form.
struct Style {
    comma: &'static str,
    colon: &'static str,
    /// Containers nested shallower than this put each item on its own
    /// line.
    break_depth: usize,
}

const COMPACT: Style = Style {
    comma: ",",
    colon: ":",
    break_depth: 0,
};

const PRETTY: Style = Style {
    comma: ", ",
    colon: ": ",
    break_depth: 2,
};

fn write_seq<T>(
    out: &mut String,
    style: &Style,
    depth: usize,
    (open, close): (char, char),
    items: &[T],
    mut item: impl FnMut(&mut String, &T),
) {
    let broken = depth < style.break_depth && !items.is_empty();
    out.push(open);
    for (i, v) in items.iter().enumerate() {
        if broken {
            out.push_str(if i > 0 { ",\n" } else { "\n" });
            out.push_str(&"  ".repeat(depth + 1));
        } else if i > 0 {
            out.push_str(style.comma);
        }
        item(out, v);
    }
    if broken {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

/// Integral values print without a fraction (`64`, not `64.0`); the rest
/// in Rust's shortest round-trip form. JSON has no NaN or infinity, so
/// those print as `null`.
fn write_number(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 1e15 {
        let _ = write!(out, "{n:.0}");
    } else {
        let _ = write!(out, "{n:?}");
    }
}

/// Quotes `s`, escaping `"`, `\` and every control character, so the
/// result is valid JSON whatever the string holds.
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    /// Exact up to 2^53; larger values (hashes) belong in hex strings.
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// The deepest array/object nesting [`parse`] accepts. The parser
/// recurses once per level, so an unbounded depth would let a hostile
/// document overflow the stack; every document the workspace writes is
/// only a few levels deep.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document, rejecting trailing garbage.
///
/// # Errors
///
/// Returns a human-readable message naming the byte offset of the first
/// syntax error, or of the first container nested deeper than
/// [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", ch as char))
    }
}

/// Parses the value at `pos`, which sits inside `depth` open containers.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("expected '{literal}' at byte {pos}"))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_string())?,
                            16,
                        )
                        .map_err(|_| "bad \\u escape".to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar, not one byte.
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| format!("invalid UTF-8 at byte {pos}"))?;
                let ch = rest.chars().next().expect("non-empty");
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII span");
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number '{text}' at byte {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "e": "x\ny"}"#)
            .expect("parses");
        assert_eq!(
            doc.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
        assert_eq!(
            doc.get("a").unwrap().as_arr().unwrap()[2],
            Json::Num(-300.0)
        );
        assert_eq!(doc.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
        assert_eq!(doc.get("e").and_then(Json::as_str), Some("x\ny"));
    }

    #[test]
    fn round_trips_shortest_float_repr() {
        // The writers in this workspace format f64 with `{:?}` (shortest
        // round-trip form); the parser must recover the exact bits.
        for v in [1.0f64, 1e-7, 12.34159, 936.2e9, f64::MIN_POSITIVE] {
            let doc = parse(&format!("{v:?}")).expect("parses");
            assert_eq!(doc.as_f64().map(f64::to_bits), Some(v.to_bits()));
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"open"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn writer_round_trips_through_the_parser() {
        let doc = Json::obj([
            ("s", "tab\tquote\" nl\n bell\u{7} é".into()),
            (
                "n",
                Json::Arr(vec![0.0.into(), (-0.0).into(), 64.0.into(), 1e-7.into()]),
            ),
            ("big", 2f64.powi(60).into()),
            ("min", f64::MIN_POSITIVE.into()),
            (
                "flags",
                Json::Arr(vec![true.into(), false.into(), Json::Null]),
            ),
            ("empty", Json::obj([])),
            (
                "nested",
                Json::obj([("a", Json::Arr(vec![Json::obj([("b", 1usize.into())])]))]),
            ),
        ]);
        for text in [doc.to_compact(), doc.to_pretty()] {
            let back = parse(&text).expect("writer output parses");
            assert_eq!(back, doc, "{text}");
            let bits = |j: &Json| {
                j.get("n").unwrap().as_arr().unwrap()[1]
                    .as_f64()
                    .unwrap()
                    .to_bits()
            };
            assert_eq!(bits(&back), (-0.0f64).to_bits());
            assert!(text.bytes().all(|b| b >= 0x20 || b == b'\n'), "{text}");
        }
    }

    #[test]
    fn writer_layouts() {
        let doc = Json::obj([
            ("version", 1usize.into()),
            (
                "entries",
                Json::Arr(vec![Json::obj([("k", "v".into()), ("t", 0.5.into())]); 2]),
            ),
            ("none", Json::Arr(vec![])),
        ]);
        assert_eq!(
            doc.to_compact(),
            r#"{"version":1,"entries":[{"k":"v","t":0.5},{"k":"v","t":0.5}],"none":[]}"#
        );
        assert_eq!(
            doc.to_pretty(),
            "{\n  \"version\": 1,\n  \"entries\": [\n    {\"k\": \"v\", \"t\": 0.5},\n    \
             {\"k\": \"v\", \"t\": 0.5}\n  ],\n  \"none\": []\n}\n"
        );
        assert_eq!(Json::Num(f64::NAN).to_compact(), "null");
    }

    #[test]
    fn nesting_is_bounded() {
        // A hostile document must fail with an error, not overflow the
        // parser's stack.
        let deep = "[".repeat(100_000);
        let err = parse(&deep).expect_err("100k-deep array is rejected");
        assert!(err.contains("nesting deeper than"), "{err}");
        assert!(err.ends_with(&format!("at byte {MAX_DEPTH}")), "{err}");
        // Exactly MAX_DEPTH levels still parse, objects count too.
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let objs = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objs).is_err());
    }

    #[test]
    fn unicode_and_escapes_survive() {
        let doc = parse(r#""café — ok""#).expect("parses");
        assert_eq!(doc.as_str(), Some("café — ok"));
    }
}
