//! The crate's one JSON lexer, the [`Json`] tree built on it, and the
//! JSON string escaper every writer in the crate uses.
//!
//! Producers across the workspace hand-write their JSON (stable field
//! order, no dependency risk), but two readers need it back: the farm's
//! JSON-over-TCP wire protocol (server, client and the bench/benchmark
//! drivers that speak it) parses whole documents with [`Json::parse`],
//! and [`TraceEvent::from_jsonl`](crate::TraceEvent::from_jsonl) reads
//! trace lines. Both stand on the crate-private `Lexer`: whitespace,
//! the string scan and unescape, the number lexeme, and a walk over an
//! object's entries in document order. `Json::parse` folds that walk
//! into a `BTreeMap` tree of `f64` numbers; the trace reader keeps the
//! emission order and types each number by its lexeme. The module lives
//! in the lowest shared layer so no consumer grows a serde dependency or
//! a copy of its own.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::str::FromStr;

/// A parsed JSON value. Numbers are kept as `f64` — the wire forms only
/// carry counters and timings, all exactly representable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; `BTreeMap` so re-serialization order is stable.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage and nesting deeper than 128 rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut lx = Lexer::new(text);
        lx.skip_ws();
        let v = lx.value()?;
        lx.finish()?;
        Ok(v)
    }

    /// The value at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// This value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// This value as an object map, if it is one.
    pub fn as_obj(&self) -> Option<&std::collections::BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// Serializes the value back to compact JSON (object keys in
    /// `BTreeMap` order). Round-trips everything this module can parse;
    /// integral numbers print without a fractional part.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Writes `s` as a quoted JSON string.
pub(crate) fn write_str(s: &str, out: &mut String) {
    out.push('"');
    escape_json_into(s, out);
    out.push('"');
}

/// Escapes `s` into `out` per JSON string rules (the body of a string,
/// without its quotes).
pub(crate) fn escape_json_into(s: &str, out: &mut String) {
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
}

/// Parses a number lexeme (from [`Lexer::number`]) as `T`.
pub(crate) fn parse_number<T: FromStr>(tok: &str) -> Result<T, String>
where
    T::Err: Display,
{
    tok.parse().map_err(|e| format!("bad number {tok:?}: {e}"))
}

/// The deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level and the farm parses request lines of up to
/// 1 MiB on connection threads, so without a bound one line of `[`s
/// overflows the stack and aborts the process.
const MAX_DEPTH: usize = 128;

/// A cursor over JSON text. `string`, `number` and `object` start on
/// their token (call `skip_ws` first) and leave the cursor just past it.
pub(crate) struct Lexer<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects [`Lexer::value`] has open around `pos`.
    depth: usize,
}

impl<'a> Lexer<'a> {
    pub(crate) fn new(text: &'a str) -> Lexer<'a> {
        Lexer {
            text,
            pos: 0,
            depth: 0,
        }
    }

    pub(crate) fn skip_ws(&mut self) {
        let rest = &self.text[self.pos..];
        self.pos += rest.len() - rest.trim_start_matches([' ', '\t', '\n', '\r']).len();
    }

    pub(crate) fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    /// Accepts the end of the text, after optional whitespace.
    pub(crate) fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(format!("trailing garbage at byte {}", self.pos))
        }
    }

    /// A quoted string, unescaped.
    pub(crate) fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go;
            // both are ASCII, so every stop is a char boundary.
            let rest = &self.text[self.pos..];
            let run = rest.find(['"', '\\']).ok_or("unterminated string")?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or("unterminated escape")?;
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    let hex = self
                        .text
                        .get(self.pos..self.pos + 4)
                        .ok_or("truncated \\u escape")?;
                    self.pos += 4;
                    hex.chars()
                        .try_fold(0, |code, h| Some(code * 16 + h.to_digit(16)?))
                        .and_then(char::from_u32)
                        .ok_or("invalid \\u escape")?
                }
                other => return Err(format!("bad escape '\\{}'", other as char)),
            });
        }
    }

    /// The lexeme of a number: a `-` or digit, then any run of digits,
    /// signs, `.`, `e` and `E`. [`parse_number`] judges its form.
    pub(crate) fn number(&mut self) -> Result<&'a str, String> {
        let rest = &self.text[self.pos..];
        if !rest.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
            return Err(format!("expected a number at byte {}", self.pos));
        }
        let len = rest
            .find(|c: char| !matches!(c, '-' | '+' | '.' | 'e' | 'E' | '0'..='9'))
            .unwrap_or(rest.len());
        self.pos += len;
        Ok(&rest[..len])
    }

    /// Walks an object, handing each key to `entry` in document order
    /// with the cursor on its value; `entry` must consume the value.
    pub(crate) fn object(
        &mut self,
        mut entry: impl FnMut(&mut Self, String) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            entry(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    let mut map = BTreeMap::new();
                    self.object(|lx, key| {
                        map.insert(key, lx.value()?);
                        Ok(())
                    })
                    .map(|()| Json::Obj(map))
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => Ok(Json::Num(parse_number(self.number()?)?)),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = Json::parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": null, "d": true}, "s": "x\ny"}"#)
            .unwrap();
        assert_eq!(
            v.get("a").and_then(|a| a.as_arr()).map(|a| a.len()),
            Some(3)
        );
        assert_eq!(
            v.get("a")
                .and_then(|a| a.as_arr())
                .and_then(|a| a[2].as_f64()),
            Some(-300.0)
        );
        assert_eq!(v.get("b").and_then(|b| b.get("c")), Some(&Json::Null));
        assert_eq!(v.get("s").and_then(|s| s.as_str()), Some("x\ny"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(Json::parse(&"{\"a\": ".repeat(MAX_DEPTH + 1)).is_err());
        // A whole farm request line of `[`: an error, not a stack
        // overflow.
        let err = Json::parse(&"[".repeat(1 << 20)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn a_4_mib_string_parses_in_one_pass() {
        // 64 KiB plain runs between escapes and non-ASCII chars, 4 MiB in
        // all: a string scan that is not linear in the string's length
        // takes minutes here.
        let run = "x".repeat(64 << 10);
        let unit = format!(r#"{run}é😀\n\u0041\""#);
        let text = format!("\"{}\"", unit.repeat(64));
        assert!(text.len() > 4 << 20);
        let want = format!("{run}é😀\nA\"").repeat(64);
        assert_eq!(Json::parse(&text).unwrap().as_str(), Some(&*want));
        assert!(Json::parse(&text[..text.len() - 1]).is_err());
    }

    #[test]
    fn unicode_escapes_round_trip() {
        let v = Json::parse(r#""éA""#).unwrap();
        assert_eq!(v.as_str(), Some("éA"));
    }

    #[test]
    fn serializer_round_trips() {
        let text = r#"{"entries": [{"n": 3456, "rate": 0.5, "tag": "1/8"}], "schema": 1}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(Json::parse(&v.to_json()).unwrap(), v);
        assert_eq!(v.to_json(), text);
    }
}
