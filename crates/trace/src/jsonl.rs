//! A minimal JSON value type with a compact writer and a strict parser.
//!
//! The result store keeps one JSON object per line (JSONL), and the trace
//! exporters build Chrome-trace documents from the same value type. The
//! workspace is dependency-free by design, so this module implements the
//! small JSON subset those consumers need: objects, arrays, strings,
//! finite numbers, booleans and null. Object key order is preserved
//! (records read back in the order they were written), and numbers
//! round-trip through `f64`.

use std::fmt;

/// A parsed or to-be-written JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; non-finite values serialize as
    /// `null`, since JSON has no NaN or infinity).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, with insertion order preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up `key` in an object; `None` for other variants or a missing
    /// key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as an unsigned integer, if whole and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Parses one JSON document from `input` (trailing whitespace allowed,
    /// trailing content is an error). Nesting deeper than [`MAX_DEPTH`]
    /// is rejected so adversarial input (e.g. `[[[[...`) cannot overflow
    /// the parser's recursion stack.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] describing the first offending byte offset.
    pub fn parse(input: &str) -> Result<Value, ParseError> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        skip_ws(bytes, &mut pos);
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(ParseError {
                at: pos,
                what: "trailing content after JSON value",
            });
        }
        Ok(value)
    }

    /// Serializes like `Display`, but returns a typed error instead of
    /// silently writing `null` when the tree contains a non-finite number.
    /// Use this when emitting records that must round-trip losslessly.
    ///
    /// # Errors
    ///
    /// Returns [`EmitError::NonFinite`] naming the first offending key
    /// path.
    pub fn to_string_checked(&self) -> Result<String, EmitError> {
        check_finite(self, &mut Vec::new())?;
        Ok(self.to_string())
    }
}

/// Maximum container nesting [`Value::parse`] accepts.
pub const MAX_DEPTH: usize = 64;

/// Why a checked serialization was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmitError {
    /// A number in the tree is NaN or infinite; JSON cannot represent it.
    NonFinite {
        /// Dotted key/index path to the offending number (e.g.
        /// `"kernels.2.self_ms"`), or empty for a bare number.
        path: String,
    },
}

impl fmt::Display for EmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmitError::NonFinite { path } => {
                write!(
                    f,
                    "non-finite number at {:?} cannot be emitted as JSON",
                    path
                )
            }
        }
    }
}

impl std::error::Error for EmitError {}

fn check_finite(value: &Value, path: &mut Vec<String>) -> Result<(), EmitError> {
    match value {
        Value::Num(n) if !n.is_finite() => Err(EmitError::NonFinite {
            path: path.join("."),
        }),
        Value::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                path.push(i.to_string());
                check_finite(item, path)?;
                path.pop();
            }
            Ok(())
        }
        Value::Obj(pairs) => {
            for (k, v) in pairs {
                path.push(k.clone());
                check_finite(v, path)?;
                path.pop();
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => f.write_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                if !n.is_finite() {
                    f.write_str("null")
                } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::Str(s) => write_escaped(f, s),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    v.fmt(f)?;
                }
                f.write_str("]")
            }
            Value::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    v.fmt(f)?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `s` as a JSON string literal. Runs of bytes that need no escape
/// go out in one `write_str`; only `"`, `\` and control characters break a
/// run (all ASCII, so every run boundary is a char boundary).
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => Some("\\\""),
            b'\\' => Some("\\\\"),
            b'\n' => Some("\\n"),
            b'\r' => Some("\\r"),
            b'\t' => Some("\\t"),
            0..=0x1f => None,
            _ => continue,
        };
        f.write_str(&s[run..i])?;
        match escape {
            Some(escape) => f.write_str(escape)?,
            None => write!(f, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

/// A JSON syntax error with its byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the offending input.
    pub at: usize,
    /// What the parser expected or found.
    pub what: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.what, self.at)
    }
}

impl std::error::Error for ParseError {}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    if depth > MAX_DEPTH {
        return Err(ParseError {
            at: *pos,
            what: "nesting too deep",
        });
    }
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        _ => Err(ParseError {
            at: *pos,
            what: "expected a JSON value",
        }),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &'static str,
    value: Value,
) -> Result<Value, ParseError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(ParseError {
            at: *pos,
            what: "invalid literal",
        })
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, ParseError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| ParseError {
        at: start,
        what: "invalid number",
    })?;
    text.parse::<f64>().map(Value::Num).map_err(|_| ParseError {
        at: start,
        what: "invalid number",
    })
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run of unescaped bytes up to the next quote or
        // backslash in one step. Both are ASCII, so the run ends on a char
        // boundary and one UTF-8 check per run keeps parsing linear.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or(ParseError {
                at: bytes.len(),
                what: "unterminated string",
            })?;
        let text = std::str::from_utf8(&bytes[*pos..*pos + run]).map_err(|_| ParseError {
            at: *pos,
            what: "invalid utf-8",
        })?;
        out.push_str(text);
        *pos += run;
        if bytes[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
        *pos += 1;
        match bytes.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'b') => out.push('\u{0008}'),
            Some(b'f') => out.push('\u{000c}'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'u') => {
                let code = parse_hex4(bytes, *pos + 1)?;
                *pos += 4;
                // Surrogate pairs: a high surrogate must be followed by an
                // escaped low surrogate.
                let c = if (0xD800..0xDC00).contains(&code) {
                    if bytes.get(*pos + 1) == Some(&b'\\') && bytes.get(*pos + 2) == Some(&b'u') {
                        let low = parse_hex4(bytes, *pos + 3)?;
                        *pos += 6;
                        let combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        char::from_u32(combined)
                    } else {
                        None
                    }
                } else {
                    char::from_u32(code)
                };
                out.push(c.ok_or(ParseError {
                    at: *pos,
                    what: "invalid unicode escape",
                })?);
            }
            _ => {
                return Err(ParseError {
                    at: *pos,
                    what: "invalid escape",
                })
            }
        }
        *pos += 1;
    }
}

fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32, ParseError> {
    let hex = bytes.get(at..at + 4).ok_or(ParseError {
        at,
        what: "truncated unicode escape",
    })?;
    let hex = std::str::from_utf8(hex).map_err(|_| ParseError {
        at,
        what: "invalid unicode escape",
    })?;
    u32::from_str_radix(hex, 16).map_err(|_| ParseError {
        at,
        what: "invalid unicode escape",
    })
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'['));
    *pos += 1;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        skip_ws(bytes, pos);
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => {
                return Err(ParseError {
                    at: *pos,
                    what: "expected ',' or ']'",
                })
            }
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, ParseError> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'{'));
    *pos += 1;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(ParseError {
                at: *pos,
                what: "expected object key",
            });
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(ParseError {
                at: *pos,
                what: "expected ':'",
            });
        }
        *pos += 1;
        skip_ws(bytes, pos);
        let value = parse_value(bytes, pos, depth + 1)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(pairs));
            }
            _ => {
                return Err(ParseError {
                    at: *pos,
                    what: "expected ',' or '}'",
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// The writer this module used before run-based escaping, one
    /// `write!` per character: the byte-for-byte oracle for the current
    /// writer.
    struct CharByChar<'a>(&'a Value);

    impl fmt::Display for CharByChar<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            fn escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
                write!(f, "\"")?;
                for c in s.chars() {
                    match c {
                        '"' => write!(f, "\\\"")?,
                        '\\' => write!(f, "\\\\")?,
                        '\n' => write!(f, "\\n")?,
                        '\r' => write!(f, "\\r")?,
                        '\t' => write!(f, "\\t")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => write!(f, "{c}")?,
                    }
                }
                write!(f, "\"")
            }
            match self.0 {
                Value::Null => write!(f, "null"),
                Value::Bool(b) => write!(f, "{b}"),
                Value::Num(n) => {
                    if !n.is_finite() {
                        write!(f, "null")
                    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
                        write!(f, "{}", *n as i64)
                    } else {
                        write!(f, "{n}")
                    }
                }
                Value::Str(s) => escaped(f, s),
                Value::Arr(items) => {
                    write!(f, "[")?;
                    for (i, v) in items.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{}", CharByChar(v))?;
                    }
                    write!(f, "]")
                }
                Value::Obj(pairs) => {
                    write!(f, "{{")?;
                    for (i, (k, v)) in pairs.iter().enumerate() {
                        if i > 0 {
                            write!(f, ",")?;
                        }
                        escaped(f, k)?;
                        write!(f, ":{}", CharByChar(v))?;
                    }
                    write!(f, "}}")
                }
            }
        }
    }

    /// Random `Value` trees up to the given depth, with strings drawn from
    /// everything the writer treats differently: quotes, backslashes,
    /// control characters, DEL, and 2-, 3- and 4-byte UTF-8.
    struct ValueTrees(u32);

    impl Strategy for ValueTrees {
        type Value = Value;
        fn generate(&self, rng: &mut TestRng) -> Value {
            tree(rng, self.0)
        }
    }

    fn pick(rng: &mut TestRng, n: usize) -> usize {
        (rng.next_u64() % n as u64) as usize
    }

    fn string(rng: &mut TestRng) -> String {
        const PIECES: [&str; 22] = [
            "a",
            "Z",
            "0",
            " ",
            "/",
            "plain run",
            "\"",
            "\\",
            "\n",
            "\r",
            "\t",
            "\u{0}",
            "\u{8}",
            "\u{c}",
            "\u{1f}",
            "\u{7f}",
            "é",
            "ß",
            "€",
            "中",
            "😀",
            "𝄞",
        ];
        let len = pick(rng, 12);
        (0..len).map(|_| PIECES[pick(rng, PIECES.len())]).collect()
    }

    fn number(rng: &mut TestRng) -> f64 {
        let n = match pick(rng, 4) {
            0 => pick(rng, 2001) as f64 - 1000.0,
            1 => (pick(rng, 1 << 20) as f64 - 524288.0) / 1024.0,
            2 => (rng.next_u64() >> 11) as f64 * 1e7,
            _ => f64::from_bits(rng.next_u64()),
        };
        if n.is_finite() {
            n
        } else {
            0.5
        }
    }

    fn tree(rng: &mut TestRng, depth: u32) -> Value {
        match pick(rng, if depth == 0 { 4 } else { 6 }) {
            0 => Value::Null,
            1 => Value::Bool(pick(rng, 2) == 0),
            2 => Value::Num(number(rng)),
            3 => Value::Str(string(rng)),
            4 => Value::Arr((0..pick(rng, 5)).map(|_| tree(rng, depth - 1)).collect()),
            _ => Value::Obj(
                (0..pick(rng, 5))
                    .map(|_| (string(rng), tree(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn writer_matches_the_char_by_char_oracle_and_parses_back(v in ValueTrees(4)) {
            let text = v.to_string();
            prop_assert_eq!(&text, &CharByChar(&v).to_string());
            prop_assert_eq!(Value::parse(&text).ok(), Some(v));
        }
    }

    #[test]
    fn a_one_mebibyte_string_parses_in_linear_time() {
        // The HTTP front caps a request body at 1 MiB (`MAX_BODY` in
        // sdvbs-serve), so one string of that size is the largest a client
        // can send. Re-validating the rest of the document per character
        // took about 20 s on it; a linear parse takes milliseconds.
        let unit = "plain text, é € 😀, \"quoted\" \\ and\ta control \u{1}\n";
        let s = unit.repeat((1 << 20) / unit.len() + 1);
        let text = Value::Str(s.clone()).to_string();
        assert!(text.len() > 1 << 20);
        let started = std::time::Instant::now();
        let parsed = Value::parse(&text).expect("a written string parses");
        let elapsed = started.elapsed();
        assert_eq!(parsed, Value::Str(s));
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "1 MiB string took {elapsed:?} to parse"
        );
    }

    #[test]
    fn scalars_roundtrip() {
        for text in ["null", "true", "false", "0", "-3", "2.5", "\"hi\""] {
            let v = Value::parse(text).unwrap();
            assert_eq!(Value::parse(&v.to_string()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn nested_structures_roundtrip() {
        let v = Value::Obj(vec![
            ("name".into(), Value::Str("Disparity \"Map\"\n".into())),
            (
                "times".into(),
                Value::Arr(vec![Value::Num(1.5), Value::Num(2.0)]),
            ),
            ("quality".into(), Value::Null),
            ("ok".into(), Value::Bool(true)),
            (
                "nested".into(),
                Value::Obj(vec![("n".into(), Value::Num(42.0))]),
            ),
        ]);
        let text = v.to_string();
        assert_eq!(Value::parse(&text).unwrap(), v);
        // Stays on one line — a JSONL requirement.
        assert!(!text.contains('\n'));
    }

    #[test]
    fn integers_write_without_exponent_or_fraction() {
        assert_eq!(Value::Num(1234567.0).to_string(), "1234567");
        assert_eq!(Value::Num(-2.0).to_string(), "-2");
        assert_eq!(Value::Num(0.125).to_string(), "0.125");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Value::Num(f64::NAN).to_string(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn accessors_navigate_objects() {
        let v = Value::parse(r#"{"a": {"b": [1, 2, 3]}, "s": "x", "f": 1.5}"#).unwrap();
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x"));
        assert_eq!(v.get("f").and_then(Value::as_f64), Some(1.5));
        assert_eq!(v.get("f").and_then(Value::as_u64), None);
        let arr = v
            .get("a")
            .and_then(|a| a.get("b"))
            .and_then(Value::as_array);
        assert_eq!(arr.map(<[Value]>::len), Some(3));
        assert_eq!(arr.unwrap()[2].as_u64(), Some(3));
    }

    #[test]
    fn unicode_content_and_escapes_parse() {
        // Raw UTF-8 passes through.
        assert_eq!(
            Value::parse(r#""aéb😀c""#).unwrap(),
            Value::Str("aéb\u{1F600}c".into())
        );
        // \uXXXX escapes, including a surrogate pair.
        assert_eq!(
            Value::parse(r#""\u00e9 \ud83d\ude00""#).unwrap(),
            Value::Str("é \u{1F600}".into())
        );
        // A lone high surrogate is rejected.
        assert!(Value::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn errors_carry_positions() {
        assert!(Value::parse("{\"a\":}").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("12 34").is_err());
        assert!(Value::parse("").is_err());
    }

    #[test]
    fn absurd_nesting_is_rejected_not_a_stack_overflow() {
        // Within the cap parses fine...
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&ok).is_ok());
        // ...one past it (and far past it) is a typed error.
        for depth in [MAX_DEPTH + 1, 100_000] {
            let deep = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
            match Value::parse(&deep) {
                Err(e) => assert_eq!(e.what, "nesting too deep"),
                Ok(_) => panic!("depth {depth} should be rejected"),
            }
        }
    }

    #[test]
    fn checked_emission_rejects_non_finite_numbers() {
        let bad = Value::Obj(vec![(
            "kernels".into(),
            Value::Arr(vec![Value::Obj(vec![(
                "self_ms".into(),
                Value::Num(f64::NAN),
            )])]),
        )]);
        match bad.to_string_checked() {
            Err(EmitError::NonFinite { path }) => assert_eq!(path, "kernels.0.self_ms"),
            other => panic!("expected NonFinite, got {other:?}"),
        }
        let good = Value::Obj(vec![("x".into(), Value::Num(1.5))]);
        assert_eq!(good.to_string_checked().unwrap(), good.to_string());
    }
}
