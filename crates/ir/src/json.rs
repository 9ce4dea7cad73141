//! Minimal, dependency-free JSON reader/writer.
//!
//! Two subsystems speak JSON formats this workspace owns end to end: the
//! telemetry schema (`BENCH.json`, written and gated by `shmls-bench`)
//! and the compile server's newline-delimited wire protocol
//! (`shmls-serve`). Both must parse documents written by *older*
//! revisions of their counterpart — so the round-trip is implemented
//! here in full rather than delegated, keeping the formats under this
//! workspace's control and their crates free of any serialisation
//! dependency. It lives in `shmls-ir` because that is the dependency
//! root every consumer already shares.
//!
//! Reading and writing are linear in the document: a string is copied a
//! run of plain bytes at a time, never re-validated byte by byte.

use std::fmt::{self, Write as _};

/// A JSON value. Objects preserve insertion order so emitted files diff
/// cleanly across runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// Numbers enter a document as `f64`, whatever width they were counted in.
macro_rules! json_from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n as f64)
            }
        }
    )*};
}
json_from_number!(f64, u64, u32, usize);

/// A parse error with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
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

impl Json {
    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an unsigned integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The object pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
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

    /// Pretty-print with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Print on a single line with no trailing newline — the form a
    /// newline-delimited protocol frame requires. Control characters in
    /// strings are escaped by the writer, so the output is guaranteed to
    /// contain no literal newline bytes.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&format_number(*n)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&format_number(*n)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

/// Numbers must stay valid JSON: non-finite values have no JSON spelling,
/// so they serialise as `null`. Readers that require a number (e.g. a
/// metric's `value`) then reject the document loudly instead of silently
/// recording a bogus finite value.
fn format_number(n: f64) -> String {
    if !n.is_finite() {
        return "null".to_string();
    }
    if n.fract() == 0.0 && n.abs() < (1u64 << 53) as f64 {
        format!("{}", n as i64)
    } else {
        // Rust's shortest-roundtrip float formatting is valid JSON.
        format!("{n}")
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Write `s` as a JSON string. Runs of characters that need no escape
/// are copied whole: every byte that does is ASCII, so a run always ends
/// on a char boundary.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[plain..i]);
        plain = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
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
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"` or `\` in one go: both are
            // ASCII, so the run ends on a char boundary of `text`.
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
            }
        }
    }

    /// The character an escape stands for; `pos` is just past the
    /// backslash and ends just past the escape.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let hi = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: require the low half.
                    if !self.bytes[self.pos..].starts_with(b"\\u") {
                        return Err(self.err("lone high surrogate"));
                    }
                    self.pos += 2;
                    let lo = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                // hex4 leaves pos after the digits.
                return char::from_u32(c).ok_or_else(|| self.err("invalid unicode escape"));
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        token
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number `{token}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" -12.5e2 ").unwrap(), Json::Num(-1250.0));
        assert_eq!(
            Json::parse(r#""a\nbA""#).unwrap(),
            Json::Str("a\nbA".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Json::parse(r#"{"a": [1, 2, {"b": "x"}], "c": {}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2]
                .get("b")
                .unwrap()
                .as_str(),
            Some("x")
        );
        assert_eq!(v.get("c").unwrap(), &Json::Obj(vec![]));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn pretty_round_trips() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("bench \"x\"\n".into())),
            ("n".into(), Json::Num(3.25)),
            ("k".into(), Json::Num(42.0)),
            (
                "flags".into(),
                Json::Arr(vec![Json::Bool(true), Json::Null]),
            ),
            ("empty".into(), Json::Obj(vec![])),
        ]);
        let text = v.pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, v);
        // Integral floats print without a decimal point.
        assert!(text.contains("\"k\": 42"), "{text}");
    }

    #[test]
    fn non_finite_numbers_serialise_as_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Num(v).pretty().trim(), "null");
        }
        // A reader requiring a number then rejects the field instead of
        // seeing a bogus finite value.
        let text = Json::Obj(vec![("value".into(), Json::Num(f64::NAN))]).pretty();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("value"), Some(&Json::Null));
        assert_eq!(back.get("value").unwrap().as_f64(), None);
    }

    #[test]
    fn surrogate_pairs_decode() {
        // Raw multi-byte UTF-8 passes through …
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        // … and escaped surrogate pairs combine.
        let v = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
        assert!(Json::parse("\"\\ud83d\"").is_err());
    }

    #[test]
    fn compact_is_single_line_and_round_trips() {
        let v = Json::Obj(vec![
            ("id".into(), Json::Num(7.0)),
            ("msg".into(), Json::Str("two\nlines".into())),
            ("xs".into(), Json::Arr(vec![Json::Num(1.0), Json::Null])),
            ("o".into(), Json::Obj(vec![])),
        ]);
        let line = v.compact();
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(Json::parse(&line).unwrap(), v);
        assert_eq!(line, r#"{"id":7,"msg":"two\nlines","xs":[1,null],"o":{}}"#);
    }

    /// A document holding one 4 MiB string parses and round-trips. A
    /// reader that re-validates the rest of the document per byte makes
    /// ~10¹³ byte checks here and never finishes.
    #[test]
    fn a_four_mib_string_parses_in_linear_time() {
        const PIECES: [(&str, &str); 7] = [
            ("plain ascii run, ", "plain ascii run, "),
            ("é£ ", "é£ "),
            ("€ह ", "€ह "),
            ("😀𝄞", "😀𝄞"),
            (r#"\"\\\/\b\f\n\r\t"#, "\"\\/\u{8}\u{c}\n\r\t"),
            (r"Aé€", "Aé€"),
            (r"😀", "😀"),
        ];
        let (mut text, mut value) = (String::from('"'), String::new());
        while text.len() < 4 << 20 {
            for (wire, decoded) in PIECES {
                text.push_str(wire);
                value.push_str(decoded);
            }
        }
        text.push('"');
        let doc = Json::parse(&text).unwrap();
        assert_eq!(doc.as_str(), Some(value.as_str()));
        assert_eq!(Json::parse(&doc.compact()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.pretty()).unwrap(), doc);
    }

    /// The reader's string scan before it copied runs: one char at a time,
    /// each escape decoded in place. Parses a document that is one string.
    fn reference_string_document(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        fn fail<T>(offset: usize, message: &str) -> Result<T, JsonError> {
            Err(JsonError {
                offset,
                message: message.to_string(),
            })
        }
        let hex4 = |pos: usize| -> Result<u32, JsonError> {
            if pos + 4 > bytes.len() {
                return fail(pos, "truncated \\u escape");
            }
            let digits = text.get(pos..pos + 4);
            match digits.and_then(|d| u32::from_str_radix(d, 16).ok()) {
                Some(v) => Ok(v),
                None => fail(pos, "invalid \\u escape"),
            }
        };
        if bytes.first() != Some(&b'"') {
            return fail(0, "expected `\"`");
        }
        let (mut pos, mut out) = (1, String::new());
        loop {
            let Some(c) = text[pos..].chars().next() else {
                return fail(pos, "unterminated string");
            };
            pos += c.len_utf8();
            match c {
                '"' => break,
                '\\' => {
                    let simple = match bytes.get(pos) {
                        Some(b'"') => Some('"'),
                        Some(b'\\') => Some('\\'),
                        Some(b'/') => Some('/'),
                        Some(b'b') => Some('\u{8}'),
                        Some(b'f') => Some('\u{c}'),
                        Some(b'n') => Some('\n'),
                        Some(b'r') => Some('\r'),
                        Some(b't') => Some('\t'),
                        Some(b'u') => None,
                        _ => return fail(pos, "invalid escape"),
                    };
                    if let Some(c) = simple {
                        out.push(c);
                        pos += 1;
                        continue;
                    }
                    let hi = hex4(pos + 1)?;
                    pos += 5;
                    let mut code = hi;
                    if (0xD800..0xDC00).contains(&hi) {
                        if !bytes[pos..].starts_with(b"\\u") {
                            return fail(pos, "lone high surrogate");
                        }
                        let lo = hex4(pos + 2)?;
                        pos += 6;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return fail(pos, "invalid low surrogate");
                        }
                        code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    }
                    match char::from_u32(code) {
                        Some(c) => out.push(c),
                        None => return fail(pos, "invalid unicode escape"),
                    }
                }
                c => out.push(c),
            }
        }
        if pos != bytes.len() {
            return fail(pos, "trailing characters after document");
        }
        Ok(Json::Str(out))
    }

    /// Pieces of generated string documents: plain and multi-byte text,
    /// every escape, good and broken surrogates, broken `\u` escapes and
    /// the raw control bytes the reader accepts.
    const STRING_PIECES: [&str; 24] = [
        "abc",
        "x",
        "é",
        "€",
        "😀",
        r#"\""#,
        r"\\",
        r"\/",
        r"\b\f\n\r\t",
        r"A",
        r"é",
        r"😀",
        r"\ud83d",
        r"\ud83dA",
        r"\ud83dx",
        r"\udc00",
        r"\u12",
        r"\u12G4",
        r"\u+123",
        r"\ué12",
        r"\x",
        "\u{1}\u{1f}",
        "\n\t",
        "\u{7f}",
    ];

    #[test]
    fn the_run_copying_reader_agrees_with_a_char_at_a_time_reference() {
        crate::rng::sweep(
            0x4a50,
            2_000,
            |rng| {
                let mut doc = String::from('"');
                for _ in 0..rng.range(0, 12) {
                    let piece: &&str = rng.pick(&STRING_PIECES);
                    doc.push_str(piece);
                }
                match rng.range(0, 9) {
                    0 => {} // unterminated
                    1 => doc.push_str("\"x"),
                    2 => doc.push('\\'),
                    _ => doc.push('"'),
                }
                doc
            },
            |doc| assert_eq!(Json::parse(doc), reference_string_document(doc)),
        );
    }

    #[test]
    fn object_order_is_preserved() {
        let v = Json::parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z", "a"]);
    }
}
