//! The workspace's one JSON reader ([`Json::parse`]), string escaper
//! ([`escape`]) and metric-field writer ([`push_metrics`]).
//!
//! The workspace is offline (no serde). Each document it writes (batch
//! reports, perf-gate rows, Chrome traces, daemon responses) keeps its own
//! hand-written layout and writes strings and metrics with these two
//! writers. The reader parses daemon requests, `bench_baselines.json` and
//! the artifacts the schema tests check: a small recursive-descent parser
//! for exactly what the writers emit, not a general-purpose JSON library.

use crate::metrics::{MetricValue, MetricsSnapshot};

/// The deepest nesting of arrays and objects [`Json::parse`] accepts: it
/// recurses per level, and a daemon request line nested without bound must
/// be an error, not a stack overflow that aborts the process. The deepest
/// document written here has 6 levels (envelope, report, jobs, job, points,
/// point).
const MAX_DEPTH: usize = 64;

/// Escapes `s` for the inside of a JSON string literal: `"` and `\` get a
/// backslash, every other character below U+0020 becomes a `\u00XX`
/// escape, and everything else passes through unchanged.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Appends each reading of `m` to the JSON object being written into `out`
/// as a `"name":value` member, comma-separated from any member before it
/// (`out` ends in `{` when there is none): counts as integers, derived
/// values with four decimals.
pub fn push_metrics(out: &mut String, m: &MetricsSnapshot) {
    for (name, value) in &m.entries {
        if !out.ends_with('{') {
            out.push(',');
        }
        match value {
            MetricValue::Count(c) => out.push_str(&format!("\"{name}\":{c}")),
            MetricValue::Value(v) => out.push_str(&format!("\"{name}\":{v:.4}")),
        }
    }
}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Key–value pairs in document order (duplicate keys are kept; lookups
    /// return the first).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Member lookup on an object (first match); `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
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
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
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
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    /// Parses one array or object a level deeper, up to [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting too deep at byte {}", self.pos));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
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
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            let mut code = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            // A high surrogate and the escaped low surrogate
                            // after it encode one character past U+FFFF.
                            if (0xD800..0xDC00).contains(&code)
                                && self.bytes[self.pos + 1..].starts_with(b"\\u")
                            {
                                let low = self.hex4(self.pos + 3)?;
                                if (0xDC00..0xE000).contains(&low) {
                                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    self.pos += 6;
                                }
                            }
                            // A lone surrogate is no character.
                            out.push(char::from_u32(code).ok_or_else(|| {
                                format!("unpaired surrogate \\u escape at byte {}", self.pos)
                            })?);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance over one UTF-8 scalar (input came from &str,
                    // so boundaries are well-formed).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|&b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    /// The code unit spelled by the four hex digits of a `\u` escape at `at`.
    fn hex4(&self, at: usize) -> Result<u32, String> {
        self.bytes
            .get(at..at + 4)
            .and_then(|hex| {
                hex.iter()
                    .try_fold(0, |code, &b| Some(code * 16 + char::from(b).to_digit(16)?))
            })
            .ok_or_else(|| format!("bad \\u escape at byte {at}"))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| {
            b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-'
        }) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, -2.5, 3e2], "b": {"c": "x\ny", "d": true}, "e": null}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1].as_f64(),
            Some(-2.5)
        );
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e"), Some(&Json::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = Json::parse(r#""a\"b\\cAü""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\cAü"));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("01a").is_err());
    }

    #[test]
    fn round_trips_engine_report_shape() {
        // The exact field layout BatchReport::to_json emits.
        let doc = r#"{"wall_time_ms":12.345,"workers":1,"jobs":[{"name":"steane","outcome":"enumerator","min_weight":3,"coefficients":[0, 0, 0, 21],"subtasks":1,"busy_ms":1.0,"conflicts":0,"decisions":0,"propagations":0,"restarts":0,"dd_nodes":42,"dd_cache_hits":7}]}"#;
        let v = Json::parse(doc).unwrap();
        let jobs = v.get("jobs").unwrap().as_arr().unwrap();
        assert_eq!(jobs[0].get("outcome").unwrap().as_str(), Some("enumerator"));
        let coeffs = jobs[0].get("coefficients").unwrap().as_arr().unwrap();
        assert_eq!(coeffs[3].as_f64(), Some(21.0));
    }

    #[test]
    fn rejects_nesting_past_the_depth_cap() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nest(MAX_DEPTH + 1)).is_err());
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objects).is_err());
        // Without the cap this line overflows the stack and aborts.
        let err = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn combines_surrogate_pair_escapes() {
        let smile = Json::parse(r#""\ud83d\ude00 \uD83D\uDE00""#).unwrap();
        assert_eq!(smile.as_str(), Some("\u{1F600} \u{1F600}"));
        for lone in [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ud83d\ud83d""#,
            r#""\ude00""#,
            r#""\ud83d\u12""#,
        ] {
            assert!(Json::parse(lone).is_err(), "{lone}");
        }
    }

    #[test]
    fn escaped_strings_parse_back_to_themselves() {
        let mut cases: Vec<String> = [
            "",
            "plain",
            "say \"hi\"",
            "back\\slash\\",
            "\u{7f}",
            "naïve Grüße, 量子 — ∑",
            "\u{1F600} astral",
        ]
        .map(String::from)
        .to_vec();
        cases.extend((0..0x20u8).map(|b| format!("a{}b", char::from(b))));
        cases.push((0..0x20u8).map(char::from).collect());
        for s in cases {
            let literal = format!("\"{}\"", escape(&s));
            assert!(
                literal.bytes().all(|b| b >= 0x20),
                "raw control byte in {literal:?}"
            );
            assert_eq!(Json::parse(&literal), Ok(Json::Str(s)), "{literal}");
        }
    }

    #[test]
    fn metrics_are_written_as_object_members() {
        let mut m = MetricsSnapshot::new();
        m.push_count("conflicts", 12);
        m.push_value("mean_lbd", 2.5);
        for (open, members) in [("{", ""), ("{\"a\":1", "\"a\":1,")] {
            let mut out = String::from(open);
            push_metrics(&mut out, &m);
            assert_eq!(
                out,
                format!("{{{members}\"conflicts\":12,\"mean_lbd\":2.5000")
            );
        }
    }
}
