//! A minimal, dependency-free JSON reader/writer for the serve protocol.
//!
//! The serve protocol is JSON-lines: one request object per line in, one
//! response object per line out. The repo deliberately carries no
//! third-party crates, so this module implements the small slice of JSON
//! the protocol needs: objects, arrays, strings (with `\uXXXX` escapes and
//! surrogate pairs), numbers, booleans and null.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; the protocol only uses integers
    /// that fit exactly).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys keep the last value on
    /// lookup).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document, requiring it to span the whole input.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message with a byte offset on malformed
    /// input.
    pub fn parse(s: &str) -> Result<Json, String> {
        let b = s.as_bytes();
        let mut p = Parser { s, b, i: 0 };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != b.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    /// Looks up a key in an object (last duplicate wins); `None` for
    /// non-objects or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number that is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", c as char, self.i))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at offset {}", self.i)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            let v = self.value()?;
            pairs.push((k, v));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, String> {
        if self.i + 4 > self.b.len() {
            return Err("truncated \\u escape".into());
        }
        // Exactly four ASCII hex digits. `u16::from_str_radix` is too
        // permissive here: it accepts a leading `+`, so it would parse
        // `\u+041` as U+0041.
        let mut v: u16 = 0;
        for &c in &self.b[self.i..self.i + 4] {
            let d = match c {
                b'0'..=b'9' => c - b'0',
                b'a'..=b'f' => c - b'a' + 10,
                b'A'..=b'F' => c - b'A' + 10,
                _ => return Err("bad \\u escape".to_string()),
            };
            v = (v << 4) | u16::from(d);
        }
        self.i += 4;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copies the run up to the next quote, backslash or control
            // byte in one piece. Those are ASCII, so the run ends on a
            // character boundary.
            let run = self.b[self.i..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .unwrap_or(self.b.len() - self.i);
            out.push_str(&self.s[self.i..self.i + run]);
            self.i += run;
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let e = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err("lone high surrogate".into());
                                }
                                self.i += 1;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err("bad low surrogate".into());
                                }
                                0x10000
                                    + ((u32::from(hi) - 0xd800) << 10)
                                    + (u32::from(lo) - 0xdc00)
                            } else if (0xdc00..0xe000).contains(&hi) {
                                return Err("lone low surrogate".into());
                            } else {
                                u32::from(hi)
                            };
                            out.push(char::from_u32(cp).ok_or("bad code point")?);
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    }
                }
                Some(_) => return Err("raw control char in string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let s = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number at offset {start}"))
    }
}

/// Appends `"s"`, escaped, to `buf`. Uses the driver's escaper, so the
/// serve responses and the telemetry lines agree byte-for-byte.
fn push_quoted(buf: &mut String, s: &str) {
    buf.reserve(s.len() + 2);
    buf.push('"');
    usher_driver::json_escape_into(buf, s);
    buf.push('"');
}

/// An incremental writer for one-line JSON objects.
///
/// Fields are appended in call order; the result never contains embedded
/// newlines, so it is safe to emit as one JSON-lines record.
#[derive(Debug)]
pub struct ObjWriter {
    /// Everything written so far, from the object's `{` on (after any
    /// prefix the writer was started behind).
    buf: String,
    any: bool,
}

impl Default for ObjWriter {
    fn default() -> ObjWriter {
        ObjWriter::after(String::new())
    }
}

impl ObjWriter {
    /// Starts an empty object.
    pub fn new() -> ObjWriter {
        ObjWriter::default()
    }

    /// Starts an object written into `prefix`, after its contents.
    pub(crate) fn after(mut prefix: String) -> ObjWriter {
        prefix.push('{');
        ObjWriter {
            buf: prefix,
            any: false,
        }
    }

    /// Closes the object and hands back the whole buffer, prefix
    /// included, without copying it.
    pub(crate) fn into_string(mut self) -> String {
        self.buf.push('}');
        self.buf
    }

    fn key(&mut self, k: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        push_quoted(&mut self.buf, k);
        self.buf.push(':');
    }

    /// Appends a string field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        push_quoted(&mut self.buf, v);
        self
    }

    /// Appends an unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Appends a float field (finite values only).
    pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.buf, "{v}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Appends a boolean field.
    pub fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Appends a raw, pre-serialized JSON fragment as the value.
    pub fn raw(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    /// Finishes the object.
    pub fn finish(&self) -> String {
        format!("{}}}", self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_values() {
        let v = Json::parse(r#"{"a":[1,2.5,-3],"b":{"c":true,"d":null},"e":"x"}"#).unwrap();
        assert_eq!(v.get("e").and_then(Json::as_str), Some("x"));
        assert_eq!(
            v.get("b").unwrap().get("c").and_then(Json::as_bool),
            Some(true)
        );
        match v.get("a").unwrap() {
            Json::Arr(items) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[0].as_u64(), Some(1));
                assert_eq!(items[1], Json::Num(2.5));
            }
            other => panic!("not an array: {other:?}"),
        }
    }

    #[test]
    fn parses_escapes_and_surrogates() {
        let v = Json::parse(r#""a\n\t\"\\\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"\\A\u{1f600}"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "{",
            "[1,",
            "\"abc",
            "{\"a\":}",
            "tru",
            "1 2",
            "{\"a\":1,}",
            r#""\ud800x""#,
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_adversarial_unicode_escapes() {
        // Every case must be a parse error — never a panic, never a
        // string containing an unpaired surrogate (invalid UTF-8 once
        // written back out).
        for bad in [
            r#""\u+041""#,       // from_str_radix leniency: '+' is not hex
            r#""\u 041""#,       // embedded space
            r#""\u004""#,        // truncated at the closing quote
            r#""\u""#,           // no digits at all
            r#""\ud800""#,       // lone high surrogate at end of string
            r#""\ud800x""#,      // high surrogate followed by a raw char
            r#""\ud800\n""#,     // high surrogate followed by a non-\u escape
            r#""\ud800\ud800""#, // high surrogate pair (second not a low)
            r#""\ud800A""#,      // high surrogate + non-surrogate
            r#""\ud800\u+dc0""#, // high surrogate + malformed low escape
            r#""\udc00""#,       // lone low surrogate
            r#""\udfff""#,       // lone low surrogate (upper edge)
            r#""\ud800"#,        // unterminated string mid-pair
        ] {
            let got = Json::parse(bad);
            assert!(got.is_err(), "accepted {bad:?} as {got:?}");
        }
        // The strict path must still accept every well-formed shape.
        let v = Json::parse(r#""\u0041\ud83d\ude00\ufffd""#).unwrap();
        assert_eq!(v.as_str(), Some("A\u{1f600}\u{fffd}"));
        for (input, want) in [
            (r#""\u0000""#, "\u{0}"),
            (r#""\ud7ff""#, "\u{d7ff}"),
            (r#""\ue000""#, "\u{e000}"),
        ] {
            assert_eq!(Json::parse(input).unwrap().as_str(), Some(want));
        }
    }

    /// Seed-enumerated strings mixing quotes, backslashes, every control
    /// character, multi-byte UTF-8 and long plain runs survive
    /// `json_escape` and `Json::parse`, and the escaper writes one line.
    #[test]
    fn escaped_strings_round_trip_through_the_parser() {
        const PIECES: [&str; 12] = [
            "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{1f}", "\u{7f}", "é", "€", "😀", "/",
        ];
        for seed in 1..=200u64 {
            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let mut s = String::new();
            for _ in 0..next() % 40 {
                match next() % 4 {
                    0 => s.push_str(PIECES[(next() % PIECES.len() as u64) as usize]),
                    1 => s.push(char::from_u32((next() % 0x20) as u32).unwrap()),
                    2 => s.push_str(&"plain text run ".repeat((next() % 300) as usize)),
                    _ => s.extend(char::from_u32((next() % 0x3000) as u32)),
                }
            }
            let quoted = format!("\"{}\"", usher_driver::json_escape(&s));
            assert!(
                !quoted.contains('\n'),
                "seed {seed}: the escape spans lines"
            );
            let back = Json::parse(&quoted).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(back.as_str(), Some(s.as_str()), "seed {seed}");
        }
    }

    #[test]
    fn string_rejections_name_their_cause() {
        let long = "x".repeat(1000);
        for (bad, why) in [
            ("\"a\u{1}b\"".to_string(), "raw control char in string"),
            (format!("\"{long}\n{long}\""), "raw control char in string"),
            (format!("\"{long}"), "unterminated string"),
            ("\"".to_string(), "unterminated string"),
            (format!("\"{long}\\"), "unterminated escape"),
            ("\"\\ud800\"".to_string(), "lone high surrogate"),
            ("\"\\ud800\\u0041\"".to_string(), "bad low surrogate"),
            ("\"\\udc00\"".to_string(), "lone low surrogate"),
        ] {
            assert_eq!(Json::parse(&bad), Err(why.to_string()), "{bad:?}");
        }
    }

    #[test]
    fn duplicate_keys_keep_last() {
        let v = Json::parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn writer_round_trips_through_parser() {
        let line = ObjWriter::new()
            .str("cmd", "an\"alyze\n")
            .u64("n", 7)
            .bool("ok", true)
            .f64("ms", 1.5)
            .raw("arr", "[1,2]")
            .finish();
        assert!(!line.contains('\n'));
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("an\"alyze\n"));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("arr").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])
        );
    }
}
