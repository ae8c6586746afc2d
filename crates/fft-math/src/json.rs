//! The workspace's one JSON codec, with nothing from outside std (the
//! workspace builds `--offline`). The gateway's `bifft-wire-v1` frame
//! bodies go through it both ways; every document reader (bench baselines,
//! `metrics.json`, the metrics and attribution documents) parses through
//! [`parse`] and then checks its own schema with the typed `need_*`
//! lookups.
//!
//! **Reading.** One tokenizer turns a text into a [`Tape`]: a flat list of
//! tokens in document order, where each array and object records where its
//! subtree ends. Nothing on the tape owns text: a string token is a span of
//! the input, and only a string that contains an escape is unescaped, into
//! the tape's one side buffer. A frame decoder keeps its tape between
//! frames and reads fields in place through [`Node`] views, so a decode
//! allocates nothing once the tape has grown to the frame size. [`parse`]
//! builds a [`Value`] tree from a fresh tape for the document readers; its
//! keys and strings borrow from the text, and only an escaped string owns
//! its copy.
//!
//! **Writing.** [`write_u64`], [`write_f64`] and [`write_str`] render
//! straight into a byte buffer, and [`ObjWriter`] lays out an object
//! member by member, so a frame body is written where it is sent from.
//!
//! Two deliberate departures from a general-purpose JSON crate:
//!
//! - integers that fit `u64` keep their exact bits ([`Value::Int`]) rather
//!   than collapsing into `f64` — payload seeds are full-width `u64`s and a
//!   double would silently round them, breaking the same-seed determinism
//!   the gateway exists to preserve;
//! - the tokenizer is hardened: recursion depth and token length are
//!   bounded, and every malformed input returns `Err` naming the object
//!   keys it was inside and the bad token — a hostile client must never
//!   panic the gateway.

use std::borrow::Cow;
use std::io::Write as _;

/// One JSON value. Strings and keys borrow from the parsed text; only a
/// string that held an escape owns its unescaped copy.
#[derive(Clone, Debug, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`, kept exact.
    Int(u64),
    /// Any other number.
    Num(f64),
    /// A string.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Value<'a>>),
    /// An object; insertion order is preserved so encodes are canonical.
    Obj(Vec<(Cow<'a, str>, Value<'a>)>),
}

/// A double that holds a whole non-negative `u64` value, as that `u64`.
fn whole_u64(f: f64) -> Option<u64> {
    (f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64).then_some(f as u64)
}

impl<'a> Value<'a> {
    /// Object field lookup (first match), `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Value<'a>> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an exact `u64`, when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(i) => Some(i),
            Value::Num(f) => whole_u64(f),
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
    pub fn as_arr(&self) -> Option<&[Value<'a>]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact JSON. `f64`s use Rust's
    /// shortest-roundtrip formatting, so encode∘decode is the identity on
    /// every finite double ([`write_f64`]).
    pub fn encode(&self) -> String {
        let mut out = Vec::new();
        self.write(&mut out);
        String::from_utf8(out).expect("the writer emits UTF-8")
    }

    fn write(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.extend_from_slice(b"null"),
            Value::Bool(b) => write_bool(out, *b),
            Value::Int(i) => write_u64(out, *i),
            Value::Num(f) => write_f64(out, *f),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                out.push(b'[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    v.write(out);
                }
                out.push(b']');
            }
            Value::Obj(fields) => {
                let mut obj = ObjWriter::new(out);
                for (k, v) in fields {
                    v.write(obj.key(k));
                }
                obj.end();
            }
        }
    }
}

/// Appends `i` in decimal.
#[inline]
pub fn write_u64(out: &mut Vec<u8>, mut i: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (i % 10) as u8;
        i /= 10;
        if i == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends `f`: shortest round-trip digits; integral doubles below 1e15
/// keep a `.0` so they read back as numbers, not integers; magnitudes
/// outside `1e-4..1e15` use an exponent; non-finite doubles are `null`
/// (JSON has no spelling for them).
pub fn write_f64(out: &mut Vec<u8>, f: f64) {
    let a = f.abs();
    // Writes into a `Vec` cannot fail.
    let _ = if !f.is_finite() {
        out.write_all(b"null")
    } else if f == f.trunc() && a < 1e15 {
        write!(out, "{f:.1}")
    } else if a != 0.0 && !(1e-4..1e15).contains(&a) {
        // Display never uses scientific notation — a denormal would print
        // hundreds of digits into a frame. LowerExp stays
        // shortest-roundtrip.
        write!(out, "{f:e}")
    } else {
        write!(out, "{f}")
    };
}

/// Appends `true` or `false`.
#[inline]
pub fn write_bool(out: &mut Vec<u8>, b: bool) {
    let word: &[u8] = if b { b"true" } else { b"false" };
    out.extend_from_slice(word);
}

/// Appends `s` as a quoted JSON string. Runs of bytes that need no escape
/// are copied whole.
#[inline]
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let short = match b {
            b'"' => b'"',
            b'\\' => b'\\',
            b'\n' => b'n',
            b'\r' => b'r',
            b'\t' => b't',
            0..=0x1f => 0,
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        if short == 0 {
            let hex = |nibble: u8| HEX[usize::from(nibble)];
            out.extend_from_slice(&[b'\\', b'u', b'0', b'0', hex(b >> 4), hex(b & 15)]);
        } else {
            out.extend_from_slice(&[b'\\', short]);
        }
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

/// Writes one JSON object into a byte buffer, member by member.
pub struct ObjWriter<'o> {
    out: &'o mut Vec<u8>,
    first: bool,
}

impl<'o> ObjWriter<'o> {
    /// Opens the object.
    #[inline]
    pub fn new(out: &'o mut Vec<u8>) -> Self {
        out.push(b'{');
        ObjWriter { out, first: true }
    }

    /// Starts member `key` and returns the buffer its value goes into.
    #[inline]
    pub fn key(&mut self, key: &str) -> &mut Vec<u8> {
        if !self.first {
            self.out.push(b',');
        }
        self.first = false;
        write_str(self.out, key);
        self.out.push(b':');
        self.out
    }

    /// Closes the object.
    #[inline]
    pub fn end(self) {
        self.out.push(b'}');
    }
}

/// Parses one JSON document into a [`Value`] tree. Trailing
/// non-whitespace, over-deep nesting and every syntax error are `Err` —
/// never a panic. The error names the keys of the objects the parser was
/// inside (`"serving: slo_ok: bad literal …"`).
pub fn parse(text: &str) -> Result<Value<'_>, String> {
    let mut tape = Tape::default();
    tape.tokenize(text)?;
    Ok(tape.build(text, &mut 0))
}

/// Nesting depth bound: frame bodies nest ≤4 levels and attribution
/// documents 6; 32 leaves headroom while keeping hostile `[[[[…` inputs
/// from exhausting the stack.
const MAX_DEPTH: usize = 32;

/// Number token bound: the longest `f64` `Display` prints (it never uses an
/// exponent, so a subnormal spells out ~325 digits), which is what every
/// document writer emits. Frames are length-bounded before parsing.
const MAX_NUMBER_LEN: usize = 330;

/// Tokens a tape keeps capacity for from one parse to the next: far more
/// than any frame but a hostile one needs, so one huge frame does not pin
/// its token list for a connection's lifetime.
const RETAIN_TOKENS: usize = 4096;

/// A span of text a string token stands for: of the input, or of the
/// tape's unescaped side buffer when the string held an escape.
#[derive(Clone, Copy, Debug)]
struct Span {
    escaped: bool,
    start: usize,
    end: usize,
}

#[derive(Clone, Copy, Debug)]
enum Tok {
    Null,
    Bool(bool),
    Int(u64),
    Num(f64),
    Str(Span),
    /// `len` items; the subtree ends before token `end`.
    Arr {
        len: usize,
        end: usize,
    },
    /// `len` members, each a key [`Tok::Str`] and then its value's subtree;
    /// the subtree ends before token `end`.
    Obj {
        len: usize,
        end: usize,
    },
}

/// A tokenized JSON text: every value once, in document order, with each
/// container's extent recorded so lookups step over whole members. Reuse
/// one tape across texts and parsing stops allocating once it has grown
/// to the largest of them, up to a few thousand tokens; the capacity a
/// larger text took is dropped at the next parse.
#[derive(Debug, Default)]
pub struct Tape {
    toks: Vec<Tok>,
    unescaped: String,
}

impl Tape {
    /// Tokenizes `text` (replacing what the tape held) and returns its root
    /// value. Errors exactly as [`parse`] does.
    pub fn parse<'t>(&'t mut self, text: &'t str) -> Result<Node<'t>, String> {
        self.tokenize(text)?;
        Ok(Node {
            text,
            tape: self,
            at: 0,
        })
    }

    fn tokenize(&mut self, text: &str) -> Result<(), String> {
        if self.toks.capacity() > RETAIN_TOKENS {
            *self = Tape::default();
        }
        self.toks.clear();
        self.unescaped.clear();
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            tape: self,
        };
        p.skip_ws();
        p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(())
    }

    #[inline]
    fn str<'t>(&'t self, text: &'t str, s: Span) -> &'t str {
        if s.escaped {
            &self.unescaped[s.start..s.end]
        } else {
            &text[s.start..s.end]
        }
    }

    /// The key token at `i`; object members always start with one.
    #[inline]
    fn key(&self, i: usize) -> Span {
        match self.toks[i] {
            Tok::Str(s) => s,
            other => unreachable!("object member starts with {other:?}"),
        }
    }

    /// The value whose subtree starts at token `*at`, as a tree; `*at`
    /// moves past it.
    fn build<'a>(&self, text: &'a str, at: &mut usize) -> Value<'a> {
        let cow = |s: Span| -> Cow<'a, str> {
            if s.escaped {
                Cow::Owned(self.unescaped[s.start..s.end].to_string())
            } else {
                Cow::Borrowed(&text[s.start..s.end])
            }
        };
        let tok = self.toks[*at];
        *at += 1;
        match tok {
            Tok::Null => Value::Null,
            Tok::Bool(b) => Value::Bool(b),
            Tok::Int(i) => Value::Int(i),
            Tok::Num(f) => Value::Num(f),
            Tok::Str(s) => Value::Str(cow(s)),
            Tok::Arr { len, .. } => Value::Arr((0..len).map(|_| self.build(text, at)).collect()),
            Tok::Obj { len, .. } => Value::Obj(
                (0..len)
                    .map(|_| {
                        let key = cow(self.key(*at));
                        *at += 1;
                        (key, self.build(text, at))
                    })
                    .collect(),
            ),
        }
    }
}

struct Parser<'a, 't> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    tape: &'t mut Tape,
}

// `skip_ws`, `string` and `number` run once per token and are forced
// inline: left as calls, they cost a third of a frame body's tokenize time.
impl Parser<'_, '_> {
    #[inline(always)]
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.unexpected(b))
        }
    }

    #[cold]
    fn unexpected(&self, b: u8) -> String {
        format!(
            "expected '{}' at offset {}, found '{}'",
            b as char,
            self.pos,
            self.word()
        )
    }

    /// Tokenizes one value (and, for a container, its whole subtree).
    #[inline]
    fn value(&mut self, depth: usize) -> Result<(), String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        self.skip_ws();
        let tok = match self.bytes.get(self.pos) {
            None => return Err("unexpected end of input".to_string()),
            Some(b'n') => self.literal("null", Tok::Null)?,
            Some(b't') => self.literal("true", Tok::Bool(true))?,
            Some(b'f') => self.literal("false", Tok::Bool(false))?,
            Some(b'"') => Tok::Str(self.string()?),
            Some(&open @ (b'[' | b'{')) => return self.container(open, depth),
            Some(_) => self.number()?,
        };
        self.tape.toks.push(tok);
        Ok(())
    }

    /// An array (`open` is `[`) or an object (`{`): a placeholder token,
    /// the members, then the placeholder patched with the count and extent.
    fn container(&mut self, open: u8, depth: usize) -> Result<(), String> {
        let (close, is_obj) = if open == b'{' {
            (b'}', true)
        } else {
            (b']', false)
        };
        self.pos += 1;
        let at = self.tape.toks.len();
        self.tape.toks.push(Tok::Null);
        let mut len = 0;
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&close) {
            self.pos += 1;
        } else {
            loop {
                if is_obj {
                    self.skip_ws();
                    let key = self.string()?;
                    self.tape.toks.push(Tok::Str(key));
                    self.skip_ws();
                    self.expect(b':')?;
                    self.value(depth + 1)
                        .map_err(|e| format!("{}: {e}", self.tape.str(self.text, key)))?;
                } else {
                    self.value(depth + 1)?;
                }
                len += 1;
                self.skip_ws();
                match self.bytes.get(self.pos) {
                    Some(b',') => self.pos += 1,
                    Some(&b) if b == close => {
                        self.pos += 1;
                        break;
                    }
                    _ => {
                        return Err(format!(
                            "expected ',' or '{}' at offset {}",
                            close as char, self.pos
                        ))
                    }
                }
            }
        }
        let end = self.tape.toks.len();
        self.tape.toks[at] = if is_obj {
            Tok::Obj { len, end }
        } else {
            Tok::Arr { len, end }
        };
        Ok(())
    }

    #[inline]
    fn literal(&mut self, word: &str, tok: Tok) -> Result<Tok, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(tok)
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

    /// A string: the span of the input between the quotes, or — once an
    /// escape turns up — its unescaped copy in the tape's side buffer.
    #[inline(always)]
    fn string(&mut self) -> Result<Span, String> {
        self.expect(b'"')?;
        let start = self.pos;
        // Where the unescaped copy starts, once there is one.
        let mut copy: Option<usize> = None;
        loop {
            let run = self.pos;
            self.pos += self.bytes[run..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - run);
            // The run stops at an ASCII byte, so it ends on a char boundary.
            if copy.is_some() {
                self.tape.unescaped.push_str(&self.text[run..self.pos]);
            }
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    let span = match copy {
                        None => Span {
                            escaped: false,
                            start,
                            end: self.pos,
                        },
                        Some(at) => Span {
                            escaped: true,
                            start: at,
                            end: self.tape.unescaped.len(),
                        },
                    };
                    self.pos += 1;
                    return Ok(span);
                }
                Some(b'\\') => {
                    if copy.is_none() {
                        copy = Some(self.tape.unescaped.len());
                        self.tape.unescaped.push_str(&self.text[start..self.pos]);
                    }
                    self.escape()?;
                }
                Some(_) => {
                    return Err(format!("raw control byte in string at offset {}", self.pos))
                }
            }
        }
    }

    /// One escape sequence at the cursor (the backslash), appended to the
    /// side buffer unescaped.
    fn escape(&mut self) -> Result<(), String> {
        self.pos += 1;
        let out = &mut self.tape.unescaped;
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
                let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                // Surrogates and friends fold to the replacement char
                // rather than erroring: frame bodies never need them.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                self.pos += 4;
            }
            _ => return Err(format!("bad escape at offset {}", self.pos)),
        }
        self.pos += 1;
        Ok(())
    }

    #[inline(always)]
    fn number(&mut self) -> Result<Tok, String> {
        let start = self.pos;
        // Plain non-negative integers keep exact u64 bits (seeds!): the
        // leading digit run is accumulated as it is scanned.
        let mut int = Some(0u64);
        while let Some(&b) = self.bytes.get(self.pos) {
            if !b.is_ascii_digit() {
                break;
            }
            int = int.and_then(|i| i.checked_mul(10)?.checked_add(u64::from(b - b'0')));
            self.pos += 1;
        }
        let number_byte =
            |b: &u8| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E');
        let digits = self.pos - start;
        if let Some(i) = int.filter(|_| (1..=MAX_NUMBER_LEN).contains(&digits)) {
            if !self.bytes.get(self.pos).is_some_and(number_byte) {
                return Ok(Tok::Int(i));
            }
        }
        while self.bytes.get(self.pos).is_some_and(number_byte) {
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        if token.is_empty() {
            return Err(format!("unexpected '{}' at offset {start}", self.word()));
        }
        if token.len() > MAX_NUMBER_LEN {
            return Err(format!(
                "number longer than {MAX_NUMBER_LEN} bytes at offset {start}"
            ));
        }
        let f: f64 = token
            .parse()
            .map_err(|_| format!("bad number '{token}' at offset {start}"))?;
        if !f.is_finite() {
            return Err(format!("non-finite number '{token}'"));
        }
        Ok(Tok::Num(f))
    }
}

/// One value of a [`Tape`], read in place: no tree is built, and strings
/// come back borrowed from the text (or from the tape, when escaped).
#[derive(Clone, Copy, Debug)]
pub struct Node<'t> {
    text: &'t str,
    tape: &'t Tape,
    at: usize,
}

impl<'t> Node<'t> {
    #[inline]
    fn tok(self) -> Tok {
        self.tape.toks[self.at]
    }

    /// The node after this one's subtree.
    #[inline]
    fn next(self) -> Node<'t> {
        let at = match self.tok() {
            Tok::Arr { end, .. } | Tok::Obj { end, .. } => end,
            _ => self.at + 1,
        };
        Node { at, ..self }
    }

    /// The first value of each of `keys` in this object (`None` where a
    /// key is absent, and everywhere when this is not an object), found in
    /// one pass over the members: each member's key is tried first against
    /// the key after the last one matched, so members that come in `keys`
    /// order cost one comparison each.
    pub fn fields<const N: usize>(self, keys: [&str; N]) -> [Option<Node<'t>>; N] {
        let mut found = [None; N];
        let Tok::Obj { len, .. } = self.tok() else {
            return found;
        };
        let mut member = self.at + 1;
        let mut hint = 0;
        for _ in 0..len {
            let value = Node {
                at: member + 1,
                ..self
            };
            let key = self.tape.str(self.text, self.tape.key(member));
            let slot = if keys.get(hint) == Some(&key) {
                Some(hint)
            } else {
                keys.iter().position(|&k| k == key)
            };
            if let Some(i) = slot {
                found[i] = found[i].or(Some(value));
                hint = i + 1;
            }
            member = value.next().at;
        }
        found
    }
}

/// The items of an array [`Node`].
#[derive(Clone, Debug)]
pub struct Items<'t> {
    next: Node<'t>,
    left: usize,
}

impl<'t> Iterator for Items<'t> {
    type Item = Node<'t>;

    fn next(&mut self) -> Option<Node<'t>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let item = self.next;
        self.next = item.next();
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Items<'_> {}

/// Read access to a JSON value, shared by a [`Value`] tree (`&Value`) and
/// a tape [`Node`], so one set of typed `need_*` lookups serves both.
pub trait Lookup<'v>: Copy {
    /// The items of an array.
    type Items: ExactSizeIterator<Item = Self>;
    /// Object field lookup (first match), `None` on non-objects.
    fn get(self, key: &str) -> Option<Self>;
    /// The value as an exact `u64`, when it is one.
    fn as_u64(self) -> Option<u64>;
    /// The value as `f64` (integers widen).
    fn as_f64(self) -> Option<f64>;
    /// The value as `bool`, when it is one.
    fn as_bool(self) -> Option<bool>;
    /// The value as `&str`, when it is a string.
    fn as_str(self) -> Option<&'v str>;
    /// The items, when the value is an array.
    fn items(self) -> Option<Self::Items>;
    /// Whether the value is an object.
    fn is_obj(self) -> bool;
    /// Whether the value is `null`.
    fn is_null(self) -> bool;
}

impl<'v, 'a> Lookup<'v> for &'v Value<'a> {
    type Items = std::slice::Iter<'v, Value<'a>>;

    fn get(self, key: &str) -> Option<Self> {
        Value::get(self, key)
    }
    fn as_u64(self) -> Option<u64> {
        Value::as_u64(self)
    }
    fn as_f64(self) -> Option<f64> {
        Value::as_f64(self)
    }
    fn as_bool(self) -> Option<bool> {
        Value::as_bool(self)
    }
    fn as_str(self) -> Option<&'v str> {
        Value::as_str(self)
    }
    fn items(self) -> Option<Self::Items> {
        self.as_arr().map(<[Value<'a>]>::iter)
    }
    fn is_obj(self) -> bool {
        matches!(self, Value::Obj(_))
    }
    fn is_null(self) -> bool {
        matches!(self, Value::Null)
    }
}

impl<'t> Lookup<'t> for Node<'t> {
    type Items = Items<'t>;

    #[inline]
    fn get(self, key: &str) -> Option<Self> {
        let [value] = self.fields([key]);
        value
    }
    #[inline]
    fn as_u64(self) -> Option<u64> {
        match self.tok() {
            Tok::Int(i) => Some(i),
            Tok::Num(f) => whole_u64(f),
            _ => None,
        }
    }
    #[inline]
    fn as_f64(self) -> Option<f64> {
        match self.tok() {
            Tok::Int(i) => Some(i as f64),
            Tok::Num(f) => Some(f),
            _ => None,
        }
    }
    #[inline]
    fn as_bool(self) -> Option<bool> {
        match self.tok() {
            Tok::Bool(b) => Some(b),
            _ => None,
        }
    }
    #[inline]
    fn as_str(self) -> Option<&'t str> {
        match self.tok() {
            Tok::Str(s) => Some(self.tape.str(self.text, s)),
            _ => None,
        }
    }
    #[inline]
    fn items(self) -> Option<Items<'t>> {
        match self.tok() {
            Tok::Arr { len, .. } => Some(Items {
                next: Node {
                    at: self.at + 1,
                    ..self
                },
                left: len,
            }),
            _ => None,
        }
    }
    #[inline]
    fn is_obj(self) -> bool {
        matches!(self.tok(), Tok::Obj { .. })
    }
    #[inline]
    fn is_null(self) -> bool {
        matches!(self.tok(), Tok::Null)
    }
}

/// The typed reads of one field. Each takes the field's value as found
/// (`None` when the key is absent, as [`Lookup::get`] and [`Node::fields`]
/// return it) and its key, and errors naming the key: missing, or not of
/// the expected kind.
pub mod field {
    use super::Lookup;

    /// The value itself, when present.
    pub fn any<V>(field: Option<V>, key: &str) -> Result<V, String> {
        field.ok_or_else(|| format!("missing field '{key}'"))
    }

    /// The value read by `read`, which names the expected kind `what`.
    fn typed<V, T>(
        field: Option<V>,
        key: &str,
        what: &str,
        read: fn(V) -> Option<T>,
    ) -> Result<T, String> {
        read(any(field, key)?).ok_or_else(|| format!("field '{key}' is not {what}"))
    }

    /// A string.
    pub fn str<'v, V: Lookup<'v>>(field: Option<V>, key: &str) -> Result<&'v str, String> {
        typed(field, key, "a string", V::as_str)
    }

    /// An exact `u64`.
    pub fn u64<'v, V: Lookup<'v>>(field: Option<V>, key: &str) -> Result<u64, String> {
        typed(field, key, "an integer", V::as_u64)
    }

    /// A number.
    pub fn f64<'v, V: Lookup<'v>>(field: Option<V>, key: &str) -> Result<f64, String> {
        typed(field, key, "a number", V::as_f64)
    }

    /// A bool.
    pub fn bool<'v, V: Lookup<'v>>(field: Option<V>, key: &str) -> Result<bool, String> {
        typed(field, key, "a bool", V::as_bool)
    }

    /// An array's items.
    pub fn arr<'v, V: Lookup<'v>>(field: Option<V>, key: &str) -> Result<V::Items, String> {
        typed(field, key, "an array", V::items)
    }

    /// An object.
    pub fn obj<'v, V: Lookup<'v>>(field: Option<V>, key: &str) -> Result<V, String> {
        typed(field, key, "an object", |x| x.is_obj().then_some(x))
    }
}

/// The field `key` of object `v`, or an error naming it.
pub fn need<'v, V: Lookup<'v>>(v: V, key: &str) -> Result<V, String> {
    field::any(v.get(key), key)
}

/// The string field `key` of `v`.
pub fn need_str<'v, V: Lookup<'v>>(v: V, key: &str) -> Result<&'v str, String> {
    field::str(v.get(key), key)
}

/// The exact `u64` field `key` of `v`.
pub fn need_u64<'v, V: Lookup<'v>>(v: V, key: &str) -> Result<u64, String> {
    field::u64(v.get(key), key)
}

/// The number field `key` of `v`.
pub fn need_f64<'v, V: Lookup<'v>>(v: V, key: &str) -> Result<f64, String> {
    field::f64(v.get(key), key)
}

/// The bool field `key` of `v`.
pub fn need_bool<'v, V: Lookup<'v>>(v: V, key: &str) -> Result<bool, String> {
    field::bool(v.get(key), key)
}

/// The items of the array field `key` of `v`.
pub fn need_arr<'v, V: Lookup<'v>>(v: V, key: &str) -> Result<V::Items, String> {
    field::arr(v.get(key), key)
}

/// The object field `key` of `v`.
pub fn need_obj<'v, V: Lookup<'v>>(v: V, key: &str) -> Result<V, String> {
    field::obj(v.get(key), key)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj<'a>(fields: Vec<(&'a str, Value<'a>)>) -> Value<'a> {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    #[test]
    fn round_trips_exact_u64_and_doubles() {
        let v = obj(vec![
            ("seed", Value::Int(u64::MAX - 3)),
            ("at", Value::Num(0.1 + 0.2)),
            ("whole", Value::Num(2.0)),
            ("label", Value::Str("a\"b\\c\nd".into())),
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
        let err = parse(r#"{"a\"b": [1 2]}"#).unwrap_err();
        assert_eq!(err, "a\"b: expected ',' or ']' at offset 12");
        for digit in ["1", "0"] {
            let long = format!("[{}]", digit.repeat(MAX_NUMBER_LEN + 1));
            assert!(parse(&long).unwrap_err().contains("longer than"));
        }
    }

    #[test]
    fn typed_lookups_name_missing_and_mistyped_fields() {
        let v = parse(r#"{"requests": "64", "ok": 1, "n": 3, "list": [], "o": {}}"#).unwrap();
        assert_eq!(need_u64(&v, "n"), Ok(3));
        assert_eq!(need_f64(&v, "n"), Ok(3.0));
        assert_eq!(need_str(&v, "requests"), Ok("64"));
        assert_eq!(need_arr(&v, "list").unwrap().len(), 0);
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

    #[test]
    fn strings_borrow_unless_escaped() {
        let text = r#"{"plain": "abc", "esc\u0041": "a\"b\u00e9\n", "n": 1}"#;
        let v = parse(text).unwrap();
        let Value::Obj(fields) = &v else {
            panic!("an object")
        };
        assert!(matches!(fields[0].0, Cow::Borrowed("plain")));
        assert!(matches!(fields[0].1, Value::Str(Cow::Borrowed("abc"))));
        assert!(matches!(&fields[1].0, Cow::Owned(k) if k == "escA"));
        assert!(matches!(&fields[1].1, Value::Str(Cow::Owned(s)) if s == "a\"b\u{e9}\n"));
        let mut tape = Tape::default();
        let root = tape.parse(text).unwrap();
        assert_eq!(need_str(root, "escA"), Ok("a\"b\u{e9}\n"));
        assert_eq!(need_str(root, "plain"), Ok("abc"));
    }

    /// A tape node reads every field the tree does: same lookups, first
    /// duplicate wins, arrays in order — also on a reused tape.
    #[test]
    fn tape_nodes_read_what_the_tree_reads() {
        let mut tape = Tape::default();
        let docs = [
            r#"{"k": 1, "k": 2, "deep": {"x": [3, {"y": "z"}, null]}, "f": -0.5, "t": true}"#,
            r#"[{"k": "first"}, {"k": 7}, []]"#,
            r#"{"k": [1, [2, [3]], 4], "after": 5}"#,
        ];
        for text in docs {
            let tree = parse(text).unwrap();
            let node = tape.parse(text).unwrap();
            same(&tree, node);
        }
        let node = tape.parse(docs[0]).unwrap();
        assert_eq!(node.get("k").and_then(Lookup::as_u64), Some(1));
        assert!(node.get("missing").is_none());
        assert!(node.items().is_none());
        assert_eq!(tape.parse("{]").unwrap_err(), parse("{]").unwrap_err());
    }

    fn same(tree: &Value<'_>, node: Node<'_>) {
        assert_eq!(tree.as_u64(), node.as_u64());
        assert_eq!(
            tree.as_f64().map(f64::to_bits),
            node.as_f64().map(f64::to_bits)
        );
        assert_eq!(tree.as_bool(), node.as_bool());
        assert_eq!(tree.as_str(), node.as_str());
        assert_eq!(matches!(tree, Value::Null), node.is_null());
        match tree {
            Value::Arr(items) => {
                let got = node.items().expect("an array");
                assert_eq!(got.len(), items.len());
                items.iter().zip(got).for_each(|(t, n)| same(t, n));
            }
            Value::Obj(fields) => {
                assert!(node.is_obj());
                for (k, _) in fields {
                    same(tree.get(k).unwrap(), node.get(k).unwrap());
                }
            }
            _ => assert!(node.items().is_none() && !node.is_obj()),
        }
    }

    /// One huge text does not pin its token capacity: the next parse
    /// drops it, and ordinary texts then reuse a small list.
    #[test]
    fn a_reused_tape_sheds_a_huge_texts_capacity() {
        let mut tape = Tape::default();
        let huge = format!("[{}0]", "0,".repeat(3 * RETAIN_TOKENS));
        assert_eq!(
            tape.parse(&huge).unwrap().items().map(|i| i.len()),
            Some(3 * RETAIN_TOKENS + 1)
        );
        assert!(tape.toks.capacity() > RETAIN_TOKENS);
        tape.parse(r#"{"a": [1, 2]}"#).unwrap();
        assert!(tape.toks.capacity() <= RETAIN_TOKENS);
    }

    /// The writers produce what `to_string`, `format!` and a char-by-char
    /// escaper produce.
    #[test]
    fn writers_match_the_std_formatters() {
        let mut rng = crate::rng::SplitMix64::new(11);
        let mut out = Vec::new();
        for i in [0, 9, 10, 99, 1_000_000, u64::MAX]
            .into_iter()
            .chain((0..1000).map(|_| rng.next_u64() >> (rng.next_u64() % 64)))
        {
            out.clear();
            write_u64(&mut out, i);
            assert_eq!(out, i.to_string().as_bytes());
        }
        let doubles = [
            0.0,
            -0.0,
            1.0,
            -3.0,
            1e15,
            1e-4,
            9.999e-5,
            0.1,
            f64::NAN,
            f64::INFINITY,
            5e-324,
        ];
        for f in doubles
            .into_iter()
            .chain((0..5000).map(|_| f64::from_bits(rng.next_u64())))
        {
            out.clear();
            write_f64(&mut out, f);
            let a = f.abs();
            let want = if !f.is_finite() {
                "null".to_string()
            } else if f == f.trunc() && a < 1e15 {
                format!("{f:.1}")
            } else if a != 0.0 && !(1e-4..1e15).contains(&a) {
                format!("{f:e}")
            } else {
                format!("{f}")
            };
            assert_eq!(String::from_utf8_lossy(&out), want);
        }
        let every_ascii: String = (0u8..128).map(char::from).collect();
        for s in [
            every_ascii.as_str(),
            "",
            "plain",
            "é\u{1f}ü\"\\",
            "\u{7f}\u{2028}",
        ] {
            let mut want = String::from("\"");
            for c in s.chars() {
                match c {
                    '"' => want.push_str("\\\""),
                    '\\' => want.push_str("\\\\"),
                    '\n' => want.push_str("\\n"),
                    '\r' => want.push_str("\\r"),
                    '\t' => want.push_str("\\t"),
                    c if (c as u32) < 0x20 => want.push_str(&format!("\\u{:04x}", c as u32)),
                    c => want.push(c),
                }
            }
            want.push('"');
            out.clear();
            write_str(&mut out, s);
            assert_eq!(String::from_utf8(out.clone()).unwrap(), want);
            assert_eq!(parse(&want).unwrap().as_str(), Some(s));
        }
    }
}
