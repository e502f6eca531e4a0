//! The workspace's JSON dialect: one writer, one reader, no serde (the
//! build container has none).
//!
//! Everything that leaves the process as JSON — careserve frames, carestore
//! log lines, the telemetry JSONL sink — is written through [`Obj`] and
//! read back through [`JsonRef::parse`] and the typed member reads
//! [`JsonRef::req`] / [`JsonRef::opt`]. The reader is a minimal
//! recursive-descent parser for RFC 8259's grammar — objects, arrays,
//! strings, numbers, booleans and null — that rejects trailing garbage. It
//! decodes exactly what the writers here produce; a `\u` surrogate escape,
//! which they never write, becomes U+FFFD.
//!
//! ## A tree that borrows
//!
//! [`JsonRef`] points into the parsed text: a string without escapes is a
//! slice of it, and only a string with escapes is copied. An object is a
//! `Vec` of its members in document order; a lookup scans it from the
//! end, so of a duplicated key the last member wins. Document order is a
//! measured choice: with each object's members sorted, a prototype took
//! 2.6× as long to parse and decode a record, and a stable sort adds a
//! fifth to this parser's time on a record line. [`Json`] and
//! [`parse_json`] are the owned form of the same tree, built by
//! [`JsonRef::into_owned`] (objects as key-sorted maps), and
//! [`Json::to_ref`] turns one back for a decoder; there is one grammar and
//! one set of error texts.
//!
//! ## One pass, bounded
//!
//! The reader is linear in its input, which may be hostile (a server frame,
//! a damaged log line):
//! - **Strings are scanned once.** Each run of ordinary bytes up to the
//!   next `"`, `\` or control byte is taken in one piece. The input is
//!   already a `&str`, so nothing is re-validated as UTF-8.
//! - **Short integers skip `str::parse`.** An integer of at most 15 digits
//!   is below 2⁵³, so summing its digits gives the f64 `str::parse` would
//!   (`-0` included); every other number goes through `str::parse`.
//! - **Nesting is capped** at 64 arrays and objects. A deeper document is
//!   an error ("nesting deeper than 64"), not a stack overflow.
//! - **The grammar is strict.** Numbers follow RFC 8259: no leading zero,
//!   no bare `.`, a digit on both sides of the point and after the
//!   exponent. So `01`, `1.`, `-.5` and `1.e3` are "bad number". A `\u`
//!   escape takes exactly four hex digits, so `\u+041` is a "bad \u
//!   escape".
//!
//! ## Integer fidelity
//!
//! [`Json`] holds every number as `f64`, so an integer above 2⁵³ would
//! silently lose bits through a naive round trip. Wire and log integers
//! therefore go through [`push_u64`]: plain JSON numbers while exactly
//! representable, decimal *strings* beyond that; [`Json::uint`] accepts both
//! spellings (and nothing a cast would mangle). The telemetry JSONL sink
//! writes every integer plain ([`push_int`]). `f64` payloads (modelled
//! recovery times) are safe as-is: the shortest-round-trip rendering parses
//! back to identical bits.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Largest u64 exactly representable as an f64-backed JSON number.
const MAX_SAFE_INT: u64 = 1 << 53;

/// Escape and append a JSON string literal.
pub fn push_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Append a finite f64 as JSON (NaN/inf degrade to null, which JSON lacks
/// a number for). The `{v}` shortest-round-trip rendering parses back to
/// the identical bits, which the server's record framing relies on; an
/// integral float prints no decimal point and is a JSON number either way.
pub fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Append `v` in the wire and log spelling, which survives the f64-backed
/// parser: a number while exact, a decimal string beyond 2⁵³.
pub fn push_u64(out: &mut String, v: u64) {
    let _ = if v <= MAX_SAFE_INT { write!(out, "{v}") } else { write!(out, "\"{v}\"") };
}

/// Append an integer as a plain JSON number whatever its size (the
/// telemetry JSONL spelling).
pub fn push_int(out: &mut String, v: impl Into<i128>) {
    let _ = write!(out, "{}", v.into());
}

/// Append `[e0,e1,...]`, each element written by `each`.
pub fn push_arr<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut each: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(out, item);
    }
    out.push(']');
}

/// A JSON object being written, members in call order. The buffer ends
/// with `{` exactly while the innermost open object has no member yet,
/// which is all the state comma placement needs.
pub struct Obj(String);

impl Obj {
    /// Open `{"kind":"<kind>"` — the first member of every frame, log line
    /// and JSONL line in the workspace.
    pub fn new(kind: &str) -> Obj {
        let mut o = Obj(String::with_capacity(128));
        o.0.push('{');
        o.str("kind", kind);
        o
    }

    /// Append members to an object a caller already opened in `out` and
    /// will close itself.
    pub fn append(out: &mut String, fill: impl FnOnce(&mut Obj)) {
        let mut o = Obj(std::mem::take(out));
        fill(&mut o);
        *out = o.0;
    }

    fn key(&mut self, key: &str) -> &mut String {
        if !self.0.ends_with('{') {
            self.0.push(',');
        }
        push_str(&mut self.0, key);
        self.0.push(':');
        &mut self.0
    }

    /// `"key":"val"`, escaped.
    pub fn str(&mut self, key: &str, val: &str) -> &mut Obj {
        push_str(self.key(key), val);
        self
    }

    /// `"key":<u64>` in the wire spelling ([`push_u64`]).
    pub fn u64(&mut self, key: &str, val: u64) -> &mut Obj {
        push_u64(self.key(key), val);
        self
    }

    /// `"key":<integer>` in the plain spelling ([`push_int`]).
    pub fn int(&mut self, key: &str, val: impl Into<i128>) -> &mut Obj {
        push_int(self.key(key), val);
        self
    }

    /// `"key":<f64>` (shortest round-trip form, [`push_f64`]).
    pub fn f64(&mut self, key: &str, val: f64) -> &mut Obj {
        push_f64(self.key(key), val);
        self
    }

    /// `"key":true|false`.
    pub fn bool(&mut self, key: &str, val: bool) -> &mut Obj {
        self.key(key).push_str(if val { "true" } else { "false" });
        self
    }

    /// `"key":[...]` ([`push_arr`]).
    pub fn arr<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        each: impl FnMut(&mut String, T),
    ) -> &mut Obj {
        push_arr(self.key(key), items, each);
        self
    }

    /// `"key":{...}`, the nested object's members written by `fill`.
    pub fn obj(&mut self, key: &str, fill: impl FnOnce(&mut Obj)) -> &mut Obj {
        self.key(key).push('{');
        fill(self);
        self.0.push('}');
        self
    }

    /// Close the object and take the finished text.
    pub fn end(&mut self) -> String {
        self.0.push('}');
        std::mem::take(&mut self.0)
    }
}

/// A parsed JSON value that owns its text: [`JsonRef::into_owned`] of the
/// borrowed tree [`parse_json`] builds.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as f64 (see the module docs for how integers
    /// above 2⁵³ survive that).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key-sorted; of a duplicated key, the last member).
    Obj(BTreeMap<String, Json>),
}

/// A parsed JSON value that borrows from the text it was parsed from
/// ([`JsonRef::parse`]): the tree every decoder in the workspace reads.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonRef<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as f64, as in [`Json::Num`].
    Num(f64),
    /// A string: a slice of the text, or an owned copy if it had escapes.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<JsonRef<'a>>),
    /// An object: its members in document order, duplicates included.
    /// [`get`](Self::get) takes the last member of a key, as
    /// [`Json::Obj`]'s map keeps it.
    Obj(Vec<(Cow<'a, str>, JsonRef<'a>)>),
}

/// [`Json::uint`]'s rule for either tree, given the value's number or
/// string payload.
fn uint_of<T: TryFrom<u64>>(num: Option<f64>, text: Option<&str>) -> Option<T> {
    let n = match (num, text) {
        (Some(n), _) if n >= 0.0 && n.fract() == 0.0 && n <= MAX_SAFE_INT as f64 => n as u64,
        (_, Some(s)) => s.parse().ok()?,
        _ => return None,
    };
    T::try_from(n).ok()
}

impl Json {
    /// Member lookup on objects; `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an unsigned integer that fits `T`, in either spelling
    /// [`push_u64`] writes: a non-negative integral number no larger than
    /// 2⁵³ (beyond that an f64 no longer names one integer, so a cast would
    /// invent bits), or a decimal string. Out of range for `T` is `None`,
    /// never a truncation: decoders narrow here, not with `as`.
    pub fn uint<T: TryFrom<u64>>(&self) -> Option<T> {
        uint_of(self.as_f64(), self.as_str())
    }

    /// The same tree, borrowing this one's strings, for the decoders that
    /// read [`JsonRef`]. Members come in key order, one per key.
    pub fn to_ref(&self) -> JsonRef<'_> {
        match self {
            Json::Null => JsonRef::Null,
            Json::Bool(b) => JsonRef::Bool(*b),
            Json::Num(n) => JsonRef::Num(*n),
            Json::Str(s) => JsonRef::Str(Cow::Borrowed(s)),
            Json::Arr(items) => JsonRef::Arr(items.iter().map(Json::to_ref).collect()),
            Json::Obj(m) => JsonRef::Obj(
                m.iter().map(|(k, v)| (Cow::Borrowed(k.as_str()), v.to_ref())).collect(),
            ),
        }
    }
}

impl<'a> JsonRef<'a> {
    /// Parse one complete JSON document, rejecting trailing non-whitespace.
    /// The tree borrows every string without an escape from `text`.
    pub fn parse(text: &'a str) -> Result<JsonRef<'a>, String> {
        let mut p = Parser { text, pos: 0, depth: 0 };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing garbage after value"));
        }
        Ok(v)
    }

    /// The owned tree: strings copied, each object's members sorted by key
    /// with the last of a duplicated key kept.
    pub fn into_owned(self) -> Json {
        match self {
            JsonRef::Null => Json::Null,
            JsonRef::Bool(b) => Json::Bool(b),
            JsonRef::Num(n) => Json::Num(n),
            JsonRef::Str(s) => Json::Str(s.into_owned()),
            JsonRef::Arr(items) => Json::Arr(items.into_iter().map(JsonRef::into_owned).collect()),
            JsonRef::Obj(mut members) => {
                // Stable: of equal keys, document order stays, and the
                // dedup keeps the last by swapping it into the survivor.
                members.sort_by(|a, b| a.0.cmp(&b.0));
                members.dedup_by(|later, kept| {
                    let same = later.0 == kept.0;
                    if same {
                        std::mem::swap(later, kept);
                    }
                    same
                });
                let owned = members.into_iter().map(|(k, v)| (k.into_owned(), v.into_owned()));
                Json::Obj(owned.collect())
            }
        }
    }

    /// Member lookup on objects (the last member of `key`); `None`
    /// otherwise.
    pub fn get(&self, key: &str) -> Option<&JsonRef<'a>> {
        match self {
            JsonRef::Obj(members) => members
                .iter()
                .rev()
                // Length and first byte before the rest: the keys of one
                // object mostly differ in one of them.
                .find(|(k, _)| {
                    let (k, key) = (k.as_bytes(), key.as_bytes());
                    k.len() == key.len() && k.first() == key.first() && k == key
                })
                .map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonRef::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonRef::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonRef::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// [`Json::uint`]: an unsigned integer that fits `T`, in either
    /// spelling [`push_u64`] writes, never a truncation.
    pub fn uint<T: TryFrom<u64>>(&self) -> Option<T> {
        uint_of(self.as_f64(), self.as_str())
    }

    /// The elements, each read by `item`, if this is an array of them.
    pub fn list<'v, T>(&'v self, item: impl Fn(&'v JsonRef<'a>) -> Option<T>) -> Option<Vec<T>> {
        match self {
            JsonRef::Arr(items) => items.iter().map(item).collect(),
            _ => None,
        }
    }

    /// Read member `key` with `read` (`JsonRef::uint`, `JsonRef::as_str`,
    /// a closure). The error names the key, so decoders need no per-field
    /// error plumbing.
    pub fn req<'v, T>(
        &'v self,
        key: &str,
        read: impl FnOnce(&'v JsonRef<'a>) -> Option<T>,
    ) -> Result<T, String> {
        self.opt(key, read)?.ok_or_else(|| format!("missing {key:?}"))
    }

    /// Like [`req`](Self::req), but an absent member is `Ok(None)`. A member
    /// that is present and malformed is an error, never a silent default.
    pub fn opt<'v, T>(
        &'v self,
        key: &str,
        read: impl FnOnce(&'v JsonRef<'a>) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => {
                read(v).map(Some).ok_or_else(|| format!("malformed or out-of-range {key:?}"))
            }
        }
    }
}

/// Deepest array/object nesting [`JsonRef::parse`] accepts. The workspace
/// writes at most 3 levels; the cap keeps a hostile line from overflowing
/// the reading thread's stack.
const MAX_DEPTH: usize = 64;

/// Members an object's `Vec` starts with room for: a record line or frame
/// has 13–18, so it takes one allocation, not four doublings.
const OBJ_CAPACITY: usize = 18;

/// A decimal integer of at most this many digits is below 2⁵³, so it is
/// an exact f64 and is read without `str::parse`.
const FAST_INT_DIGITS: usize = 15;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    #[cold]
    #[inline(never)]
    fn err(&self, msg: &str) -> String {
        format!("json error at byte {}: {msg}", self.pos)
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    /// Skip a run of ASCII digits and return its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    #[inline]
    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.expected(b))
        }
    }

    #[cold]
    #[inline(never)]
    fn expected(&self, b: u8) -> String {
        self.err(&format!("expected '{}'", b as char))
    }

    fn eat_lit(&mut self, lit: &str, v: JsonRef<'a>) -> Result<JsonRef<'a>, String> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<JsonRef<'a>, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonRef::Str(self.string()?)),
            Some(b't') => self.eat_lit("true", JsonRef::Bool(true)),
            Some(b'f') => self.eat_lit("false", JsonRef::Bool(false)),
            Some(b'n') => self.eat_lit("null", JsonRef::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Parse one array or object a level deeper, refusing past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<JsonRef<'a>, String>,
    ) -> Result<JsonRef<'a>, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<JsonRef<'a>, String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonRef::Obj(Vec::new()));
        }
        let mut members = Vec::with_capacity(OBJ_CAPACITY);
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            members.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonRef::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonRef<'a>, String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonRef::Arr(Vec::new()));
        }
        let mut items = Vec::new();
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonRef::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    /// A string literal: a slice of the text if it has no escape,
    /// [`escaped`](Self::escaped)'s copy if it has.
    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.expect(b'"')?;
        let start = self.pos;
        match self.plain_run() {
            Some(len) if self.bytes()[start + len] == b'"' => {
                self.pos = start + len + 1;
                Ok(Cow::Borrowed(&self.text[start..start + len]))
            }
            _ => self.escaped(start).map(Cow::Owned),
        }
    }

    /// The length of the run of ordinary bytes at `pos`: up to the next
    /// quote, backslash or control byte, `None` if the text ends first.
    /// All three are ASCII, so both ends of the run are char boundaries.
    fn plain_run(&self) -> Option<usize> {
        self.bytes()[self.pos..].iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20)
    }

    /// The rest of a string literal that began at `start` and has an
    /// escape, a control byte or no end. Each plain run is copied in one
    /// piece.
    #[inline(never)]
    fn escaped(&mut self, start: usize) -> Result<String, String> {
        let mut s = String::new();
        self.pos = start;
        loop {
            let Some(len) = self.plain_run() else {
                self.pos = self.text.len();
                return Err(self.err("unterminated string"));
            };
            s.push_str(&self.text[self.pos..self.pos + len]);
            self.pos += len;
            match self.bytes()[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes()
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            // Exactly four hex digits (`from_str_radix`
                            // would also take a sign).
                            let code = hex
                                .iter()
                                .try_fold(0, |code, &b| Some(code << 4 | (b as char).to_digit(16)?))
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogates never appear in our output; map them
                            // to the replacement char rather than erroring.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// RFC 8259's number grammar: `-? (0 | [1-9][0-9]*) (. [0-9]+)?
    /// ([eE] [+-]? [0-9]+)?`. An integer of at most [`FAST_INT_DIGITS`]
    /// digits is summed directly (the f64 `str::parse` would give, `-0`
    /// included); any other checked text goes through `str::parse`.
    fn number(&mut self) -> Result<JsonRef<'a>, String> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        let int = self.pos;
        let int_len = self.digits();
        let mut valid = int_len == 1 || (int_len > 1 && self.bytes()[int] != b'0');
        let mut integer = true;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            valid &= self.digits() > 0;
            integer = false;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            valid &= self.digits() > 0;
            integer = false;
        }
        if !valid {
            return Err(self.err("bad number"));
        }
        if integer && int_len <= FAST_INT_DIGITS {
            let n = self.bytes()[int..self.pos]
                .iter()
                .fold(0u64, |n, &d| n * 10 + u64::from(d - b'0')) as f64;
            return Ok(JsonRef::Num(if negative { -n } else { n }));
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(JsonRef::Num)
            .map_err(|_| self.err("bad number"))
    }
}

/// Parse one complete JSON document into the owned tree:
/// [`JsonRef::parse`], then [`JsonRef::into_owned`]. Grammar and error
/// text are the borrowed parser's.
pub fn parse_json(text: &str) -> Result<Json, String> {
    JsonRef::parse(text).map(JsonRef::into_owned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse_json(r#"{"a":[1,2.5,-3,1e3],"b":{"c":"x\n","d":true,"e":null}}"#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.5),
                Json::Num(-3.0),
                Json::Num(1000.0),
            ]))
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\n"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("e"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{\"a\":1} x").is_err());
        assert!(parse_json("\"unterminated").is_err());
        assert!(parse_json("nul").is_err());
        let error = |text: &str| parse_json(text).unwrap_err();
        for bad in ["1.", "-.5", "01", "-01", "1.e3", "1e", "1e+", "-", "00"] {
            assert!(error(bad).ends_with("bad number"), "{bad}: {}", error(bad));
        }
        for good in ["0", "-0", "0.5", "-0e1", "10", "1E+2", "1.25e-3"] {
            assert_eq!(parse_json(good), Ok(Json::Num(good.parse().unwrap())), "{good}");
        }
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u 041""#, r#""\u004g""#, r#""\u00é""#] {
            assert!(error(bad).ends_with("bad \\u escape"), "{bad}: {}", error(bad));
        }
        assert!(error(r#""\u00""#).ends_with("truncated \\u escape"));
        assert_eq!(error("\"a\u{1}\""), "json error at byte 2: raw control character in string");
        assert_eq!(error("\"ab"), "json error at byte 3: unterminated string");
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse_json(&nest(MAX_DEPTH)).is_ok());
        assert!(parse_json(&format!("{{\"a\":{}}}", nest(MAX_DEPTH - 1))).is_ok());
        let deeper = "json error at byte 64: nesting deeper than 64";
        assert_eq!(parse_json(&nest(MAX_DEPTH + 1)).unwrap_err(), deeper);
        assert_eq!(parse_json(&"[".repeat(100_000)).unwrap_err(), deeper);
        let objects = "{\"a\":".repeat(100_000);
        assert!(parse_json(&objects).unwrap_err().ends_with("nesting deeper than 64"));
    }

    #[test]
    fn unicode_escapes_round_trip() {
        let v = parse_json(r#""A\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
        // A lone surrogate decodes to the replacement char.
        let v = parse_json("\"\\ud800\\u00E9\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{fffd}é"));
    }

    /// One char from a class [`push_str`] treats differently: control,
    /// quote or backslash, ASCII, and 2-, 3- and 4-byte UTF-8.
    fn any_char() -> impl Strategy<Value = char> {
        let from =
            |r: std::ops::Range<u32>| r.prop_map(|c| char::from_u32(c).expect("no surrogates"));
        prop_oneof![
            from(0..0x20),
            prop_oneof![Just('"'), Just('\\'), Just('/')],
            from(0x20..0x80),
            from(0x80..0x800),
            from(0x800..0xd800),
            from(0x10000..0x110000),
        ]
    }

    /// Runs of one char (up to thousands of bytes) between single chars.
    fn any_string() -> impl Strategy<Value = String> {
        let piece = prop_oneof![
            any_char().prop_map(String::from),
            (any_char(), 1usize..3000).prop_map(|(c, n)| c.to_string().repeat(n)),
        ];
        proptest::collection::vec(piece, 0..12).prop_map(|pieces| pieces.concat())
    }

    fn quoted(s: &str) -> String {
        let mut out = String::new();
        push_str(&mut out, s);
        out
    }

    #[test]
    fn every_control_character_and_multibyte_neighbour_round_trips() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        assert_eq!(parse_json(&quoted(&controls)), Ok(Json::Str(controls.clone())));
        for c in ['é', '€', '😀'] {
            for special in controls.chars().chain(['"', '\\']) {
                let s = format!("{c}{special}{c}{c}{special}{special}{c}");
                assert_eq!(parse_json(&quoted(&s)), Ok(Json::Str(s)));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        #[test]
        fn strings_round_trip_through_push_str(s in any_string()) {
            prop_assert_eq!(parse_json(&quoted(&s)), Ok(Json::Str(s.clone())));
        }

        #[test]
        fn push_f64_round_trips_bit_exactly(
            bits in any::<u64>(),
            small in -1_000_000i64..1_000_000,
        ) {
            for v in [f64::from_bits(bits), small as f64, -(small as f64), small as f64 / 8.0] {
                if v.is_finite() {
                    let mut text = String::new();
                    push_f64(&mut text, v);
                    let got = parse_json(&text).unwrap().as_f64().unwrap();
                    prop_assert_eq!(got.to_bits(), v.to_bits(), "{}", text);
                }
            }
        }
    }

    /// A JSON document drawn from a seed, written as text beside the owned
    /// tree it must parse to: duplicate keys (one spelled with an escape),
    /// escaped and plain strings, whitespace, and numbers at the edges of
    /// the integer fast path.
    struct Doc {
        rng: u64,
        text: String,
        /// Deepest array/object nesting written so far.
        depth: usize,
    }

    /// Spellings whose f64 the fast path and `str::parse` must agree on:
    /// `-0`, 15 and 16 digits, 2⁵³ − 1, 2⁵³, 2⁵³ + 1, and what takes
    /// `str::parse` (fractions, exponents, too many digits).
    const NUMBERS: [&str; 16] = [
        "0",
        "-0",
        "-7",
        "999999999999999",
        "-999999999999999",
        "1000000000000000",
        "9007199254740991",
        "9007199254740992",
        "9007199254740993",
        "-9007199254740993",
        "123456789012345678901",
        "0.5",
        "-0.0",
        "1e3",
        "2.5E-3",
        "1.7976931348623157e308",
    ];

    /// Object keys: few, so members collide, and `"\u0061"` is `"a"`.
    const KEYS: [(&str, &str); 4] = [("a", "a"), ("b", "b"), ("\\u0061", "a"), ("k\\\"", "k\"")];

    impl Doc {
        fn new(seed: u64) -> Doc {
            Doc { rng: seed, text: String::new(), depth: 0 }
        }

        /// SplitMix64.
        fn below(&mut self, n: u64) -> u64 {
            self.rng = self.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }

        fn ws(&mut self) {
            let ws = ["", "", "", " ", "\n", "\t", "\r\n"][self.below(7) as usize];
            self.text.push_str(ws);
        }

        fn string(&mut self) -> String {
            self.text.push('"');
            let mut s = String::new();
            for _ in 0..self.below(5) {
                let (text, value) = [
                    ("plain", "plain"),
                    ("é€😀", "é€😀"),
                    ("\\n", "\n"),
                    ("\\\"", "\""),
                    ("\\\\", "\\"),
                    ("\\/", "/"),
                    ("\\u00e9", "é"),
                    ("\\ud800", "\u{fffd}"),
                ][self.below(8) as usize];
                self.text.push_str(text);
                s.push_str(value);
            }
            self.text.push('"');
            s
        }

        fn number(&mut self) -> f64 {
            let spelling = match self.below(3) {
                0 => {
                    let digits = 1 + self.below(18) as u32;
                    (self.below(10u64.pow(digits - 1) * 9) + 10u64.pow(digits - 1)).to_string()
                }
                _ => NUMBERS[self.below(NUMBERS.len() as u64) as usize].to_string(),
            };
            self.text.push_str(&spelling);
            spelling.parse().unwrap()
        }

        fn value(&mut self, depth: usize) -> Json {
            self.ws();
            let kinds = if depth < 4 { 7 } else { 5 };
            let v = match self.below(kinds) {
                0 => {
                    let (lit, v) = [
                        ("null", Json::Null),
                        ("true", Json::Bool(true)),
                        ("false", Json::Bool(false)),
                    ][self.below(3) as usize]
                        .clone();
                    self.text.push_str(lit);
                    v
                }
                1 | 2 => Json::Num(self.number()),
                3 | 4 => Json::Str(self.string()),
                5 => {
                    self.depth = self.depth.max(depth + 1);
                    self.text.push('[');
                    let mut items = Vec::new();
                    for i in 0..self.below(4) {
                        if i > 0 {
                            self.text.push(',');
                        }
                        items.push(self.value(depth + 1));
                    }
                    self.ws();
                    self.text.push(']');
                    Json::Arr(items)
                }
                _ => {
                    self.depth = self.depth.max(depth + 1);
                    self.text.push('{');
                    let mut map = BTreeMap::new();
                    for i in 0..self.below(6) {
                        if i > 0 {
                            self.text.push(',');
                        }
                        self.ws();
                        let (text, key) = KEYS[self.below(KEYS.len() as u64) as usize];
                        self.text.push_str(&format!("\"{text}\""));
                        self.ws();
                        self.text.push(':');
                        map.insert(key.to_string(), self.value(depth + 1));
                    }
                    self.ws();
                    self.text.push('}');
                    Json::Obj(map)
                }
            };
            self.ws();
            v
        }
    }

    /// Trees compared by their `Debug` text, which tells `-0.0` from `0.0`.
    fn shown(v: &Result<Json, String>) -> String {
        format!("{v:?}")
    }

    /// The borrowed tree answers every lookup as the owned tree built from
    /// it does: the last member of a key, recursively.
    fn lookups_agree(r: &JsonRef, j: &Json) -> bool {
        match (r, j) {
            (JsonRef::Obj(members), Json::Obj(map)) => {
                let keys: std::collections::BTreeSet<&str> =
                    members.iter().map(|(k, _)| &**k).collect();
                keys.len() == map.len()
                    && keys.iter().all(|&k| match (r.get(k), j.get(k)) {
                        (Some(r), Some(j)) => lookups_agree(r, j),
                        _ => false,
                    })
            }
            (JsonRef::Arr(a), Json::Arr(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(r, j)| lookups_agree(r, j))
            }
            (r, j) => format!("{:?}", r.clone().into_owned()) == format!("{j:?}"),
        }
    }

    /// The one parser, read both ways, on `text`: `parse_json` is the
    /// borrowed parse made owned (the same tree or the same error), the
    /// borrowed tree's lookups agree with the owned tree's, and the owned
    /// tree survives [`Json::to_ref`].
    fn one_parser(text: &str) -> Result<(), String> {
        let owned = parse_json(text);
        let borrowed = JsonRef::parse(text);
        if shown(&owned) != shown(&borrowed.clone().map(JsonRef::into_owned)) {
            return Err(format!("{text:?}: the two reads differ"));
        }
        if let (Ok(r), Ok(j)) = (&borrowed, &owned) {
            if !lookups_agree(r, j) {
                return Err(format!("{text:?}: lookups disagree"));
            }
            if shown(&Ok(j.to_ref().into_owned())) != shown(&owned) {
                return Err(format!("{text:?}: to_ref loses something"));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

        /// Every generated document parses to its own tree, and it and
        /// each of its truncations and byte flips reads alike both ways.
        #[test]
        fn one_parser_reads_documents_and_their_damage_alike(
            seed in any::<u64>(),
            salt in any::<u8>(),
        ) {
            let mut doc = Doc::new(seed);
            let want = Ok(doc.value(0));
            prop_assert_eq!(shown(&parse_json(&doc.text)), shown(&want), "{:?}", doc.text);
            prop_assert_eq!(one_parser(&doc.text), Ok(()));
            let bytes = doc.text.as_bytes();
            for i in 0..bytes.len() {
                let mut flipped = bytes.to_vec();
                flipped[i] ^= 1 << ((i as u8).wrapping_add(salt) % 8);
                for damaged in [&bytes[..i], &flipped[..]] {
                    prop_assert_eq!(one_parser(&String::from_utf8_lossy(damaged)), Ok(()));
                }
            }
            // Wrapped to a nesting of exactly 64, and of 65.
            let wrap = |levels: usize| {
                let (open, close): (String, String) = (0..levels)
                    .map(|l| if l % 2 == 0 { ("[", "]") } else { ("{\"n\":", "}") })
                    .fold(Default::default(), |(o, c), (l, r)| (o + l, r.to_string() + &c));
                format!("{open}{}{close}", doc.text)
            };
            let at_cap = wrap(MAX_DEPTH - doc.depth);
            prop_assert!(parse_json(&at_cap).is_ok(), "{:?}", at_cap);
            prop_assert_eq!(one_parser(&at_cap), Ok(()));
            let over = wrap(MAX_DEPTH + 1 - doc.depth);
            let err = parse_json(&over).unwrap_err();
            prop_assert!(err.ends_with("nesting deeper than 64"), "{}", err);
            prop_assert_eq!(one_parser(&over), Ok(()));
        }
    }

    #[test]
    fn uint_rejects_what_a_cast_would_mangle() {
        let read = |text: &str| parse_json(text).unwrap().uint::<u64>();
        for bad in ["1e300", "-1", "1.5", "9007199254740994", "true", "null", "\"x\""] {
            assert_eq!(read(bad), None, "{bad}");
        }
        assert_eq!(read("9007199254740992"), Some(1 << 53));
        assert_eq!(read("\"18446744073709551615\""), Some(u64::MAX));
    }

    #[test]
    fn u64_members_round_trip_above_53_bits() {
        for v in [0u64, 1, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX] {
            let text = Obj::new("t").u64("x", v).end();
            let j = JsonRef::parse(&text).unwrap();
            assert_eq!(j.req("x", JsonRef::uint), Ok(v), "round-trip of {v}");
        }
    }

    #[test]
    fn typed_reads_name_the_key_and_check_every_narrowing() {
        let v = JsonRef::parse(r#"{"big":4294967297,"small":259,"neg":-4,"n":[1,2,"3"]}"#).unwrap();
        assert_eq!(v.req("big", JsonRef::uint), Ok(4294967297u64));
        assert!(v.req("big", JsonRef::uint::<u32>).unwrap_err().contains("\"big\""));
        assert_eq!(v.req("small", JsonRef::uint), Ok(259u32));
        assert!(v.req("small", JsonRef::uint::<u8>).is_err());
        assert!(v.req("neg", JsonRef::uint::<u64>).is_err());
        assert_eq!(v.req("n", |n| n.list(JsonRef::uint)), Ok(vec![1usize, 2, 3]));
        assert!(v.req("n", |n| n.list(JsonRef::as_f64)).is_err(), "one element is a string");
        assert!(v.req("absent", JsonRef::as_bool).unwrap_err().contains("\"absent\""));
        assert_eq!(v.opt("absent", JsonRef::as_bool), Ok(None));
        assert!(v.opt("n", JsonRef::as_bool).is_err(), "present but malformed is not a default");
    }

    #[test]
    fn writer_nests_and_places_commas() {
        let text = Obj::new("t")
            .obj("empty", |_| {})
            .obj("m", |m| {
                m.int("a", 1u64).int("b", -2i64);
            })
            .arr("pairs", [(1u64, 2u64)], |s, (a, b)| push_arr(s, [a, b], push_u64))
            .bool("ok", true)
            .f64("nan", f64::NAN)
            .end();
        assert_eq!(
            text,
            r#"{"kind":"t","empty":{},"m":{"a":1,"b":-2},"pairs":[[1,2]],"ok":true,"nan":null}"#
        );
        let mut open = String::from("{\"kind\":\"x\"");
        Obj::append(&mut open, |o| {
            o.str("s", "a\"b\\c\nd\u{1}");
        });
        assert_eq!(open, "{\"kind\":\"x\",\"s\":\"a\\\"b\\\\c\\nd\\u0001\"");
    }
}
