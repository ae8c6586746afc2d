//! The workspace's one JSON codec, with nothing from outside std (the
//! workspace builds `--offline`). The gateway's `bifft-wire-v1` frame
//! bodies go through it both ways; every document reader (bench baselines,
//! `metrics.json`, the metrics and attribution documents) parses through
//! [`parse`] and then checks its own schema on the [`Value`] with the
//! typed `need_*` lookups.
//!
//! Two deliberate departures from a general-purpose JSON crate:
//!
//! - integers that fit `u64` keep their exact bits in [`Value::Int`] rather
//!   than collapsing into `f64` — payload seeds are full-width `u64`s and a
//!   double would silently round them, breaking the same-seed determinism
//!   the gateway exists to preserve;
//! - the parser is hardened, not fast: recursion depth and token length are
//!   bounded, and every malformed input returns `Err` naming the object
//!   keys it was inside and the bad token — a hostile client must never
//!   panic the gateway.

/// One JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`, kept exact.
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved so encodes are canonical.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match), `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an exact `u64`, when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(i) => Some(i),
            Value::Num(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => Some(f as u64),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::Num(f) => Some(f),
            _ => None,
        }
    }

    /// The value as `&str`, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `bool`, when it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice, when it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON. `f64`s use Rust's
    /// shortest-roundtrip formatting, so encode∘decode is the identity on
    /// every finite double; non-finite doubles render as `null` (JSON has
    /// no spelling for them).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(i) => out.push_str(&i.to_string()),
            Value::Num(f) if !f.is_finite() => out.push_str("null"),
            Value::Num(f) => {
                let a = f.abs();
                if *f == f.trunc() && a < 1e15 {
                    // Keep integral doubles visibly floating ("2.0", not
                    // "2"), so decode lands back in Num, not Int.
                    out.push_str(&format!("{f:.1}"));
                } else if a != 0.0 && !(1e-4..1e15).contains(&a) {
                    // Display never uses scientific notation — a denormal
                    // would print hundreds of digits into a frame.
                    // LowerExp stays shortest-roundtrip.
                    out.push_str(&format!("{f:e}"));
                } else {
                    out.push_str(&format!("{f}"));
                }
            }
            Value::Str(s) => write_str(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses one JSON document. Trailing non-whitespace, over-deep nesting and
/// every syntax error are `Err` — never a panic. The error names the keys of
/// the objects the parser was inside (`"serving: slo_ok: bad literal …"`).
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

/// Nesting depth bound: frame bodies nest ≤4 levels and attribution
/// documents 6; 32 leaves headroom while keeping hostile `[[[[…` inputs
/// from exhausting the stack.
const MAX_DEPTH: usize = 32;

/// Number token bound: the longest `f64` `Display` prints (it never uses an
/// exponent, so a subnormal spells out ~325 digits), which is what every
/// document writer emits. Frames are length-bounded before parsing.
const MAX_NUMBER_LEN: usize = 330;

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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at offset {}, found '{}'",
                b as char,
                self.pos,
                self.word()
            ))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        self.skip_ws();
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let v = self.value(depth + 1).map_err(|e| format!("{key}: {e}"))?;
                    fields.push((key, v));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!(
                "bad literal '{}' at offset {}",
                self.word(),
                self.pos
            ))
        }
    }

    /// The token at the cursor (its alphanumeric run, at least one byte),
    /// for error messages.
    fn word(&self) -> String {
        let rest = &self.bytes[self.pos..];
        let len = rest
            .iter()
            .take_while(|b| b.is_ascii_alphanumeric())
            .count();
        String::from_utf8_lossy(&rest[..len.max(1).min(rest.len())]).into_owned()
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
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
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            // Surrogates and friends fold to the
                            // replacement char rather than erroring: frame
                            // bodies never need them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => {
                    return Err(format!("raw control byte in string at offset {}", self.pos))
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through unchanged; the frame
                    // body was validated as UTF-8 before parsing.
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&b| (0x80..0xc0).contains(&b))
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid UTF-8 in string")?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|&b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        if token.is_empty() {
            return Err(format!("unexpected '{}' at offset {start}", self.word()));
        }
        if token.len() > MAX_NUMBER_LEN {
            return Err(format!(
                "number longer than {MAX_NUMBER_LEN} bytes at offset {start}"
            ));
        }
        // Plain non-negative integers keep exact u64 bits (seeds!).
        if token.bytes().all(|b| b.is_ascii_digit()) {
            if let Ok(i) = token.parse::<u64>() {
                return Ok(Value::Int(i));
            }
        }
        let f: f64 = token
            .parse()
            .map_err(|_| format!("bad number '{token}' at offset {start}"))?;
        if !f.is_finite() {
            return Err(format!("non-finite number '{token}'"));
        }
        Ok(Value::Num(f))
    }
}

/// Builds an object from `(key, value)` pairs — the frame-body constructor.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The field `key` of object `v`, or an error naming it.
pub fn need<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    v.get(key).ok_or_else(|| format!("missing field '{key}'"))
}

/// The field `key` read by `read`; a missing field or one `read` refuses is
/// an error naming the key and the expected kind (`what`).
fn typed<'v, T>(
    v: &'v Value,
    key: &str,
    what: &str,
    read: fn(&'v Value) -> Option<T>,
) -> Result<T, String> {
    read(need(v, key)?).ok_or_else(|| format!("field '{key}' is not {what}"))
}

/// The string field `key` of `v`.
pub fn need_str(v: &Value, key: &str) -> Result<String, String> {
    typed(v, key, "a string", Value::as_str).map(str::to_string)
}

/// The exact `u64` field `key` of `v`.
pub fn need_u64(v: &Value, key: &str) -> Result<u64, String> {
    typed(v, key, "an integer", Value::as_u64)
}

/// The number field `key` of `v`.
pub fn need_f64(v: &Value, key: &str) -> Result<f64, String> {
    typed(v, key, "a number", Value::as_f64)
}

/// The bool field `key` of `v`.
pub fn need_bool(v: &Value, key: &str) -> Result<bool, String> {
    typed(v, key, "a bool", Value::as_bool)
}

/// The array field `key` of `v`.
pub fn need_arr<'v>(v: &'v Value, key: &str) -> Result<&'v [Value], String> {
    typed(v, key, "an array", Value::as_arr)
}

/// The object field `key` of `v`.
pub fn need_obj<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    typed(v, key, "an object", |x| {
        matches!(x, Value::Obj(_)).then_some(x)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_exact_u64_and_doubles() {
        let v = obj(vec![
            ("seed", Value::Int(u64::MAX - 3)),
            ("at", Value::Num(0.1 + 0.2)),
            ("whole", Value::Num(2.0)),
            ("label", Value::Str("a\"b\\c\nd".to_string())),
            ("flag", Value::Bool(true)),
            ("none", Value::Null),
            ("list", Value::Arr(vec![Value::Int(1), Value::Num(-1.5)])),
            ("tiny", Value::Num(f64::MIN_POSITIVE)),
            ("huge", Value::Num(-1.7e308)),
        ]);
        let text = v.encode();
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.get("seed").unwrap().as_u64(), Some(u64::MAX - 3));
        assert_eq!(back.get("at").unwrap().as_f64(), Some(0.1 + 0.2));
    }

    #[test]
    fn hostile_inputs_error_instead_of_panicking() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "\"unterminated",
            "tru",
            "1e999",
            "nan",
            "--5",
            "{\"a\" 1}",
            "[]]",
            "\u{1}",
            "\"\\u12\"",
            "\"\u{7}\"",
            "0x10",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err(), "over-deep nesting must error");
    }

    #[test]
    fn display_of_every_finite_double_parses_back() {
        // The document writers print f64 with `Display`, which never uses
        // an exponent: a subnormal spells out hundreds of digits.
        let mut rng = crate::rng::SplitMix64::new(7);
        let extremes = [
            1e-70,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE * 0.123_456_789_012_345_67,
            f64::MAX,
            -f64::MAX,
            -0.0,
            2f64.powi(60),
        ];
        let random = (0..20_000).map(|_| f64::from_bits(rng.next_u64()));
        for x in extremes.into_iter().chain(random).filter(|x| x.is_finite()) {
            let text = format!("{x}");
            assert!(text.len() <= MAX_NUMBER_LEN, "{} bytes: {text}", text.len());
            let back = parse(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(back.as_f64().map(f64::to_bits), Some(x.to_bits()), "{text}");
        }
    }

    #[test]
    fn errors_name_the_keys_and_the_bad_token() {
        let err = parse(r#"{"serving": [{"slo_ok": ture}]}"#).unwrap_err();
        assert!(
            err.starts_with("serving: slo_ok: bad literal 'ture'"),
            "{err}"
        );
        let err = parse(r#"{"schema": "x", "tick_s": garbage}"#).unwrap_err();
        assert!(err.starts_with("tick_s: unexpected 'garbage'"), "{err}");
        let long = format!("[{}]", "1".repeat(MAX_NUMBER_LEN + 1));
        assert!(parse(&long).unwrap_err().contains("longer than"));
    }

    #[test]
    fn typed_lookups_name_missing_and_mistyped_fields() {
        let v = parse(r#"{"requests": "64", "ok": 1, "n": 3, "list": [], "o": {}}"#).unwrap();
        assert_eq!(need_u64(&v, "n"), Ok(3));
        assert_eq!(need_f64(&v, "n"), Ok(3.0));
        assert_eq!(need_str(&v, "requests").as_deref(), Ok("64"));
        assert!(need_arr(&v, "list").unwrap().is_empty());
        assert!(need_obj(&v, "o").is_ok());
        assert_eq!(
            need_u64(&v, "requests"),
            Err("field 'requests' is not an integer".to_string())
        );
        assert_eq!(
            need_bool(&v, "ok"),
            Err("field 'ok' is not a bool".to_string())
        );
        assert_eq!(
            need_obj(&v, "list").unwrap_err(),
            "field 'list' is not an object"
        );
        assert_eq!(need(&v, "gone").unwrap_err(), "missing field 'gone'");
    }

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#" { "a" : [ 1 , 2.5 , { "b" : null } ] , "c" : "x" } "#).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("x"));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].get("b"), Some(&Value::Null));
    }
}
