//! The crate's one JSON reader.
//!
//! The repo builds offline with zero third-party dependencies, so JSON is
//! read with this hand-rolled parser instead of serde: the flat lines of
//! the sweep checkpoint and the worker wire protocol, whose format and one
//! schema `crate::flat` owns, and the reports `simbench` writes. It covers
//! objects, arrays, strings, finite numbers, bools and null, and is
//! deliberately strict about nothing else: unknown shapes simply return
//! `None` from the typed getters.
//!
//! An integral literal without sign, fraction or exponent that fits a
//! `u64` is held exactly as [`Value::U64`], so the flat lines'
//! `f64::to_bits` patterns survive up to `u64::MAX`. Every other number is
//! an `f64`.

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integral literal (no sign, fraction or exponent),
    /// held exactly.
    U64(u64),
    /// Any other JSON number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order (keys are not deduplicated).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parses `text` as a single JSON value (surrounding whitespace
    /// allowed). Returns `None` on any syntax error or trailing garbage.
    pub fn parse(text: &str) -> Option<Value> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        (pos == bytes.len()).then_some(v)
    }

    /// Member of an object by key (first occurrence), or `None`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(x) => Some(*x as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an exact `u64`, if it was written as an unsigned
    /// integral literal.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Escapes `s` for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn eat(b: &[u8], pos: &mut usize, lit: &str) -> Option<()> {
    let end = *pos + lit.len();
    if b.len() >= end && &b[*pos..end] == lit.as_bytes() {
        *pos = end;
        Some(())
    } else {
        None
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Option<Value> {
    skip_ws(b, pos);
    match *b.get(*pos)? {
        b'n' => eat(b, pos, "null").map(|()| Value::Null),
        b't' => eat(b, pos, "true").map(|()| Value::Bool(true)),
        b'f' => eat(b, pos, "false").map(|()| Value::Bool(false)),
        b'"' => parse_string(b, pos).map(Value::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Some(Value::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos)? {
                    b',' => *pos += 1,
                    b']' => {
                        *pos += 1;
                        return Some(Value::Arr(items));
                    }
                    _ => return None,
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Some(Value::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                (b.get(*pos) == Some(&b':')).then_some(())?;
                *pos += 1;
                let val = parse_value(b, pos)?;
                members.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos)? {
                    b',' => *pos += 1,
                    b'}' => {
                        *pos += 1;
                        return Some(Value::Obj(members));
                    }
                    _ => return None,
                }
            }
        }
        _ => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Option<String> {
    (b.get(*pos) == Some(&b'"')).then_some(())?;
    *pos += 1;
    let mut out = String::new();
    loop {
        match *b.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match *b.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b.get(*pos + 1..*pos + 5)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        *pos += 4;
                    }
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Consume one UTF-8 character (the input is a &str, so the
                // byte stream is valid UTF-8 by construction).
                let start = *pos;
                *pos += 1;
                while *pos < b.len() && (b[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).ok()?);
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Option<Value> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).ok()?;
    if text.bytes().all(|c| c.is_ascii_digit()) {
        if let Ok(x) = text.parse() {
            return Some(Value::U64(x));
        }
    }
    let n: f64 = text.parse().ok()?;
    n.is_finite().then_some(Value::Num(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Value::parse("null"), Some(Value::Null));
        assert_eq!(Value::parse(" true "), Some(Value::Bool(true)));
        assert_eq!(Value::parse("false"), Some(Value::Bool(false)));
        assert_eq!(Value::parse("42"), Some(Value::U64(42)));
        assert_eq!(Value::parse("-1.5e3"), Some(Value::Num(-1500.0)));
        assert_eq!(
            Value::parse("\"hi\\n\\\"there\\\"\""),
            Some(Value::Str("hi\n\"there\"".into()))
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = Value::parse(r#"{"a": [1, 2, {"b": "c"}], "d": {}}"#).expect("valid");
        let arr = v.get("a").and_then(Value::as_arr).expect("array");
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].as_u64(), Some(2));
        assert_eq!(arr[2].get("b").and_then(Value::as_str), Some("c"));
        assert_eq!(v.get("d"), Some(&Value::Obj(Vec::new())));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,", "{\"a\":}", "tru", "1 2", "{\"a\" 1}", "nan"] {
            assert_eq!(Value::parse(bad), None, "{bad:?} should not parse");
        }
    }

    #[test]
    fn unicode_escapes_and_literals_round_trip() {
        let v = Value::parse("\"\\u0041µ\"").expect("valid");
        assert_eq!(v.as_str(), Some("Aµ"));
    }

    #[test]
    fn escape_emits_valid_literals() {
        let s = "line\nquote\" back\\slash\ttab µ\u{1}";
        let quoted = format!("\"{}\"", escape(s));
        assert_eq!(
            Value::parse(&quoted).and_then(|v| match v {
                Value::Str(s) => Some(s),
                _ => None,
            }),
            Some(s.to_string())
        );
    }

    #[test]
    fn only_unsigned_integral_literals_are_u64() {
        let num = |text: &str| Value::parse(text).expect(text);
        assert_eq!(num("123").as_u64(), Some(123));
        assert_eq!(num("123").as_f64(), Some(123.0));
        for text in [
            "1.5",
            "-1",
            "-0",
            "+1",
            "1e3",
            "123.0",
            "18446744073709551616",
        ] {
            assert_eq!(num(text).as_u64(), None, "{text}");
            assert!(num(text).as_f64().is_some(), "{text}");
        }
    }

    #[test]
    fn u64_literals_round_trip_exactly() {
        let subnormal = f64::from_bits(1);
        assert!(subnormal.is_subnormal());
        for bits in [
            u64::MAX,
            f64::NAN.to_bits(),
            (-0.0f64).to_bits(),
            subnormal.to_bits(),
        ] {
            let v = Value::parse(&format!("{{\"x\":[{bits}]}}")).expect("valid");
            let x = v.get("x").and_then(Value::as_arr).expect("array")[0].as_u64();
            assert_eq!(x, Some(bits), "{bits:#x}");
        }
    }
}
