//! Minimal JSON emission *and parsing* for `BENCH_results.json` (the
//! workspace vendors no serde; experiment results are flat enough to
//! handle by hand). Parsing exists for the `perf_trend` bin, which
//! diffs a fresh run against the checked-in baseline document.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number (emitted via `{:?}` on f64, integers exactly).
    Num(f64),
    /// An exact unsigned integer (u64 exceeds f64 precision at 2^53).
    UInt(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with deterministic (sorted) key order.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Builds an object from key/value pairs.
    #[must_use]
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// A string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Member lookup (`None` unless this is an object with the key).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// Numeric view of `Num`/`UInt` values.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            #[allow(clippy::cast_precision_loss)] // report-only trend data
            Json::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// String view of `Str` values.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Exact unsigned view of `UInt` values (counters; `Num` is rejected
    /// so 2^53-lossy floats can never masquerade as exact counts).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(n) => Some(*n),
            _ => None,
        }
    }

    /// Nested member lookup: `get_path(&["a", "b"])` ≡ `get("a")?.get("b")`.
    #[must_use]
    pub fn get_path(&self, path: &[&str]) -> Option<&Json> {
        path.iter().try_fold(self, |v, key| v.get(key))
    }

    /// Array view of `Arr` values.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document (the subset this module emits: no
    /// scientific notation is *required* but it is accepted, strings use
    /// the escapes [`Json`]'s emitter writes plus `\/`, `\b`, `\f` and
    /// `\uXXXX`).
    ///
    /// # Errors
    ///
    /// Returns a position-annotated message on malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// A cursor over the input. `pos` only ever advances over ASCII bytes
/// or over whole runs that end before one, so it always sits on a char
/// boundary of `text`.
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.bytes.get(self.pos) {
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
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
                    self.skip_ws();
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let val = self.value()?;
                    map.insert(key, val);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(map));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        if !fractional {
            if let Ok(u) = s.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
        }
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
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
                    let esc = self.bytes.get(self.pos).copied();
                    self.pos += 1;
                    match esc {
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
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(_) => {
                    // Copy the whole run up to the next quote or
                    // backslash. Both are ASCII, so the run ends on a
                    // char boundary.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .ok_or("unterminated string")?;
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::UInt(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::UInt(v as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

fn escape(s: &str, out: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(out, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(out, "\\\"")?,
            '\\' => write!(out, "\\\\")?,
            '\n' => write!(out, "\\n")?,
            '\r' => write!(out, "\\r")?,
            '\t' => write!(out, "\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => write!(out, "{c}")?,
        }
    }
    write!(out, "\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if n.is_finite() => write!(f, "{n:?}"),
            Json::Num(_) => f.write_str("null"),
            Json::UInt(n) => write!(f, "{n}"),
            Json::Str(s) => escape(s, f),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    escape(k, f)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values() {
        let v = Json::obj([
            ("name", Json::str("e01 \"solo\"")),
            ("wcet", Json::from(123_u64)),
            ("wall_ms", Json::from(1.5_f64)),
            ("rows", Json::Arr(vec![Json::Null, Json::from(true)])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"name":"e01 \"solo\"","rows":[null,true],"wall_ms":1.5,"wcet":123}"#
        );
    }

    #[test]
    fn exact_u64_round_trip() {
        let big = u64::MAX;
        assert_eq!(Json::from(big).to_string(), big.to_string());
    }

    #[test]
    fn parse_round_trips_what_the_emitter_writes() {
        let v = Json::obj([
            ("name", Json::str("e01 \"solo\"\nline2")),
            ("wcet", Json::from(u64::MAX)),
            ("wall_ms", Json::from(1.5_f64)),
            ("none", Json::Null),
            (
                "rows",
                Json::Arr(vec![Json::from(false), Json::from(3_u64)]),
            ),
            ("nested", Json::obj([("k", Json::from(-2.25_f64))])),
        ]);
        let parsed = Json::parse(&v.to_string()).expect("parses");
        assert_eq!(parsed, v);
    }

    #[test]
    fn multi_byte_text_next_to_escapes() {
        for text in [
            "é\"ü",
            "\\é\\",
            "日本\n語",
            "\u{1f600}\t",
            "é",
            "",
            "\\",
            "a\u{7}é",
        ] {
            let rendered = Json::str(text).to_string();
            assert_eq!(Json::parse(&rendered), Ok(Json::str(text)), "{rendered}");
        }
        assert_eq!(Json::parse(r#""\u00e9é\"ü""#), Ok(Json::str("éé\"ü")));
        assert!(
            Json::parse("\"é\\").is_err(),
            "unterminated after an escape"
        );
        assert!(
            Json::parse("\"日本").is_err(),
            "unterminated after multi-byte text"
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("123 456").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn accessors() {
        let v = Json::parse(r#"{"a": 1, "b": [2.5], "c": "x"}"#).expect("parses");
        assert_eq!(v.get("a").and_then(Json::as_f64), Some(1.0));
        assert_eq!(v.get("b").and_then(Json::as_arr).map(|a| a.len()), Some(1));
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn u64_and_path_accessors() {
        let v = Json::parse(r#"{"fixpoint": {"evaluated": 12, "sweep_evals": 40}, "f": 1.5}"#)
            .expect("parses");
        assert_eq!(
            v.get_path(&["fixpoint", "evaluated"])
                .and_then(Json::as_u64),
            Some(12)
        );
        assert_eq!(v.get_path(&["fixpoint", "missing"]), None);
        // Floats never pass as exact counters.
        assert_eq!(v.get("f").and_then(Json::as_u64), None);
        assert_eq!(v.get("f").and_then(Json::as_f64), Some(1.5));
    }

    /// A schema-4 experiment entry (no `fixpoint` / `sim_skip` members)
    /// and a schema-5 one parse through the same accessors; the schema-4
    /// lookups simply come back `None` — the compatibility contract the
    /// `perf_trend` bin relies on.
    #[test]
    fn schema_4_and_5_experiment_entries_coexist() {
        let doc = Json::parse(
            r#"{"schema": 5, "experiments": [
                {"id": "old", "wall_ms": 2.0},
                {"id": "new", "wall_ms": 1.0,
                 "fixpoint": {"evaluated": 7, "max_trips": 2, "sweep_evals": 30},
                 "sim_skip": {"fast_forwards": 3, "skipped_cycles": 999}}
            ]}"#,
        )
        .expect("parses");
        let exps = doc.get("experiments").and_then(Json::as_arr).expect("arr");
        assert_eq!(exps[0].get_path(&["fixpoint", "evaluated"]), None);
        assert_eq!(
            exps[1]
                .get_path(&["fixpoint", "evaluated"])
                .and_then(Json::as_u64),
            Some(7)
        );
        assert_eq!(
            exps[1]
                .get_path(&["sim_skip", "skipped_cycles"])
                .and_then(Json::as_u64),
            Some(999)
        );
    }
}
