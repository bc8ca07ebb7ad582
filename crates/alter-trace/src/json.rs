//! The workspace's one JSON implementation: the string escaper, a value
//! type with two renderers, and a strict parser (no external deps).
//!
//! Every JSON document the workspace writes is built as a [`Json`] value
//! and rendered here: the committed baselines (`ANALYSIS.json`,
//! `STATIC.json`, `CHECK.json`, `PROFILE.json`), the bench summaries merged
//! into `BENCH_runtime.json`, and the linter's diagnostics. Every JSON
//! reader goes through [`parse`]: trace and journal lines, and the
//! `alter-check-json` grammar check. The per-event writers
//! ([`crate::jsonl::event_json`], [`crate::journal::JournalHeader::json_line`])
//! stay direct field writes, because their bytes are what the trace hash
//! covers, but they escape strings with this module's escaper.
//!
//! Two layouts:
//!
//! * [`Json::render_line`] — compact, one line: `{"k":1,"list":[1,2]}`;
//! * [`Json::render_pretty`] — the layout of committed files. A container
//!   whose members are all scalars prints inline as `{"k": 1, "k2": "v"}`;
//!   any other container prints one member per line, indented two spaces
//!   per level. The text ends with a newline.

use std::fmt::{self, Write as _};

/// A JSON value. Numbers keep their exact text, so a parsed document
/// renders back digit for digit and equality compares number text, never
/// rounded floats.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number, as its JSON text (`42`, `-0.5`, `1e9`).
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in document order.
    Obj(Vec<(String, Json)>),
}

macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Num(n.to_string())
            }
        }
    )*};
}
from_unsigned!(u32, u64, usize);

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
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

/// Builds a [`Json::Obj`] from `key => value` members, in order, converting
/// each value with `Json::from`:
/// `json_obj! { "workers" => 8usize, "sound" => true }`.
#[macro_export]
macro_rules! json_obj {
    ($($key:expr => $value:expr),* $(,)?) => {
        $crate::Json::Obj(vec![$((::std::string::String::from($key), $crate::Json::from($value))),*])
    };
}

impl Json {
    /// A ratio printed with two decimals, as the `*_x` columns are.
    pub fn fixed2(x: f64) -> Json {
        assert!(x.is_finite(), "JSON has no text for {x}");
        Json::Num(format!("{x:.2}"))
    }

    /// The first member named `key`, when `self` is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    /// Member `key` as an unsigned integer: plain digits, no sign,
    /// fraction or exponent.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        match self.field(key)? {
            Json::Num(t) if t.bytes().all(|b| b.is_ascii_digit()) => t
                .parse()
                .map_err(|_| format!("integer overflow in `{key}`")),
            Json::Num(t) => Err(format!("field `{key}` is not an unsigned integer: {t}")),
            _ => Err(format!("field `{key}` is not an integer")),
        }
    }

    /// Member `key` as a `u32` (see [`Json::u64_field`]).
    pub fn u32_field(&self, key: &str) -> Result<u32, String> {
        u32::try_from(self.u64_field(key)?).map_err(|_| format!("field `{key}` exceeds u32"))
    }

    /// Member `key` as a string.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        match self.field(key)? {
            Json::Str(s) => Ok(s),
            _ => Err(format!("field `{key}` is not a string")),
        }
    }

    /// The compact single-line form: no whitespace between tokens.
    pub fn render_line(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// The committed-file layout (see the module docs), newline-terminated.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Appends `self`; `depth` is `None` for the compact layout, else the
    /// nesting depth in the pretty layout.
    fn write(&self, out: &mut String, depth: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(text) => out.push_str(text),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_members(out, depth, "[]", items.iter().map(|v| (None, v))),
            Json::Obj(members) => {
                let members = members.iter().map(|(k, v)| (Some(k.as_str()), v));
                write_members(out, depth, "{}", members);
            }
        }
    }
}

/// Appends a container: its `brackets` around the members, each with its
/// key for an object.
fn write_members<'a>(
    out: &mut String,
    depth: Option<usize>,
    brackets: &str,
    members: impl Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
) {
    // A pretty container holding another container goes one member per
    // line; `multi` is then its depth.
    let multi = depth.filter(|_| {
        members
            .clone()
            .any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)))
    });
    out.push_str(&brackets[..1]);
    for (i, (key, v)) in members.enumerate() {
        if i > 0 {
            out.push(',');
        }
        match multi {
            Some(d) => {
                out.push('\n');
                out.push_str(&"  ".repeat(d + 1));
            }
            None if i > 0 && depth.is_some() => out.push(' '),
            None => {}
        }
        if let Some(k) = key {
            write_str(out, k);
            out.push_str(if depth.is_some() { ": " } else { ":" });
        }
        v.write(out, depth.map(|d| d + 1));
    }
    if let Some(d) = multi {
        out.push('\n');
        out.push_str(&"  ".repeat(d));
    }
    out.push_str(&brackets[1..]);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Escapes `s` as JSON string contents (without the surrounding quotes).
pub(crate) fn escape_into(out: &mut String, s: &str) {
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
}

/// A [`parse`] failure: where it happened (1-based line, and column in
/// bytes) and what went wrong.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based byte column of the offending byte.
    pub column: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "line {}, column {}: {}",
            self.line, self.column, self.msg
        )
    }
}

impl std::error::Error for ParseError {}

/// Nesting bound, so hostile input fails with an error instead of
/// overflowing the parser's stack.
const MAX_DEPTH: usize = 128;

/// Parses `text` as exactly one JSON value (RFC 8259), with nothing but
/// whitespace around it.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        text,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos < text.len() {
        return Err(p.err("trailing data after the top-level value"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        let before = &self.text.as_bytes()[..self.pos];
        let line_start = before
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        ParseError {
            line: 1 + before.iter().filter(|&&b| b == b'\n').count(),
            column: 1 + before.len() - line_start,
            msg: msg.to_owned(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8, what: &str) -> Result<(), ParseError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {what}")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.members(b'}', Self::member).map(Json::Obj),
            Some(b'[') => self.members(b']', Self::value).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// The members of the container opening at the cursor, up to its
    /// `close` bracket, each read by `member`.
    fn members<T>(
        &mut self,
        close: u8,
        member: fn(&mut Self) -> Result<T, ParseError>,
    ) -> Result<Vec<T>, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        self.pos += 1;
        let mut out = Vec::new();
        self.skip_ws();
        if !self.eat(close) {
            loop {
                self.skip_ws();
                out.push(member(self)?);
                self.skip_ws();
                if !self.eat(b',') {
                    let what = format!("',' or '{}'", char::from(close));
                    self.expect(close, &what)?;
                    break;
                }
            }
        }
        self.depth -= 1;
        Ok(out)
    }

    fn member(&mut self) -> Result<(String, Json), ParseError> {
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string object key"));
        }
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':', "':' after object key")?;
        self.skip_ws();
        Ok((key, self.value()?))
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "'\"'")?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, escape or control byte;
            // all three are ASCII, so the slice ends on a char boundary.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    /// One escape sequence, cursor just past the backslash.
    fn escape(&mut self) -> Result<char, ParseError> {
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
                let mut code = self.hex4()?;
                // A high surrogate must be followed by an escaped low one;
                // any other surrogate is left unpaired and rejected below.
                if (0xD800..0xDC00).contains(&code) && self.eat(b'\\') && self.eat(b'u') {
                    let low = self.hex4()?;
                    if (0xDC00..0xE000).contains(&low) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    }
                }
                return char::from_u32(code)
                    .ok_or_else(|| self.err("unpaired surrogate in \\u escape"));
            }
            _ => return Err(self.err("invalid escape sequence")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let mut code = 0;
        for _ in 0..4 {
            let digit = self
                .peek()
                .and_then(|b| char::from(b).to_digit(16))
                .ok_or_else(|| self.err("\\u needs four hex digits"))?;
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn digits(&mut self) -> Result<(), ParseError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("expected a digit"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        self.eat(b'-');
        // Integer part: a lone 0, or a nonzero digit followed by more.
        if self.eat(b'0') {
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("leading zeros are not allowed"));
            }
        } else {
            self.digits()?;
        }
        if self.eat(b'.') {
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        Ok(Json::Num(self.text[start..self.pos].to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_both_layouts() {
        let rows = Json::Arr(vec![
            Json::Arr(vec![1u64.into(), 2u64.into()]),
            json_obj! { "k" => Json::Null },
        ]);
        // (value, render_line, render_pretty)
        for (v, line, pretty) in [
            (Json::Null, "null", "null\n"),
            (json_obj! {}, "{}", "{}\n"),
            (Json::Arr(vec![]), "[]", "[]\n"),
            (
                json_obj! { "a" => 1u64, "b" => "x", "c" => true },
                r#"{"a":1,"b":"x","c":true}"#,
                "{\"a\": 1, \"b\": \"x\", \"c\": true}\n",
            ),
            (
                json_obj! { "g" => json_obj! { "w" => 4u64 }, "e" => Json::Arr(vec![]), "r" => Json::fixed2(5.375), "rows" => rows },
                r#"{"g":{"w":4},"e":[],"r":5.38,"rows":[[1,2],{"k":null}]}"#,
                "{\n  \"g\": {\"w\": 4},\n  \"e\": [],\n  \"r\": 5.38,\n  \"rows\": [\n    [1, 2],\n    {\"k\": null}\n  ]\n}\n",
            ),
        ] {
            assert_eq!(v.render_line(), line);
            assert_eq!(v.render_pretty(), pretty);
        }
    }

    #[test]
    fn special_strings_round_trip_through_both_layouts() {
        let nasty = [
            "q\"uote",
            "back\\slash",
            "new\nline",
            "tab\there",
            "ctl\u{1}",
            "é ✓",
        ];
        let v = json_obj! {
            "list" => Json::Arr(nasty.iter().map(|&t| t.into()).collect()),
            "nested" => Json::Obj(nasty.iter().map(|&t| (t.to_owned(), t.into())).collect()),
            "num" => Json::Num("-0.5e-7".into()),
        };
        for text in [v.render_line(), v.render_pretty()] {
            assert_eq!(parse(&text), Ok(v.clone()), "{text}");
        }
        let line = v.render_line();
        assert!(line.contains(r#""q\"uote","back\\slash","new\nline","tab\there","ctl\u0001""#));
    }

    #[test]
    fn accepts_valid_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            " {\"a\": [1, -2.5, 3e-7, 0.25], \"b\": {\"c\": \"x\"}} ",
            "{\"validation\":\n{\"workers\": 8, \"reduction_x\": 12.75},\n\"phases\":\n[]}",
            "{\"hash\": \"1f2e3d4c5b6a7988\", \"note\": \"a\\\"b\\\\c\\u00e9\"}",
            "[true, false, null, 0, -0.5, 1e9, 1E+2]",
            "[\"\\/\\b\\f\\ud83d\\ude00\"]",
        ] {
            assert!(parse(ok).is_ok(), "should accept: {ok}");
        }
        assert_eq!(
            parse("[\"\\u00e9\\ud83d\\ude00\"]"),
            Ok(Json::Arr(vec!["é😀".into()]))
        );
    }

    #[test]
    fn rejects_malformed_documents_with_a_location() {
        // The failure a printf splice of bench summaries can produce: a
        // missing comma between two spliced documents.
        let merged = "{\"validation\":\n{\"workers\": 8}\n\"phases\":\n{}}";
        let err = parse(merged).unwrap_err();
        assert!(
            err.to_string().starts_with("line 3, column 1:"),
            "got: {err}"
        );

        for (bad, why) in [
            ("", "empty input"),
            ("{", "unterminated object"),
            ("{\"a\" 1}", "missing colon"),
            ("{\"a\": 1,}", "trailing comma"),
            ("{a: 1}", "unquoted key"),
            ("[1 2]", "missing comma"),
            ("01", "leading zero"),
            ("{\"rounds\":01}", "leading zero in a member"),
            ("1.", "bare decimal point"),
            ("1e", "bare exponent"),
            ("-", "bare minus"),
            ("\"abc", "unterminated string"),
            ("\"\\x\"", "bad escape"),
            ("\"\\u12\"", "short \\u escape"),
            ("\"\\ud800\"", "lone high surrogate"),
            ("\"\\udc00\"", "lone low surrogate"),
            ("\"a\nb\"", "raw control character"),
            ("truthy", "trailing junk after literal"),
            ("{} {}", "two top-level values"),
        ] {
            assert!(parse(bad).is_err(), "should reject ({why}): {bad:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        assert!(parse(&deep).unwrap_err().msg.contains("nesting"));
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
    }
}
