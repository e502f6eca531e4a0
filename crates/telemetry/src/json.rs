//! The workspace's JSON dialect: one writer, one reader, no serde (the
//! build container has none).
//!
//! Everything that leaves the process as JSON — careserve frames, carestore
//! log lines, the telemetry JSONL sink — is written through [`Obj`] and
//! read back through [`parse_json`] and the typed member reads
//! [`Json::req`] / [`Json::opt`]. The reader is a minimal recursive-descent
//! parser for RFC 8259's grammar — objects, arrays, strings, numbers,
//! booleans and null — that rejects trailing garbage. It decodes exactly
//! what the writers here produce; a `\u` surrogate escape, which they never
//! write, becomes U+FFFD.
//!
//! ## One pass, bounded
//!
//! The reader is linear in its input, which may be hostile (a server frame,
//! a damaged log line):
//! - **Strings are scanned once.** Each run of ordinary bytes up to the
//!   next `"`, `\` or control byte is copied in one piece. The input is
//!   already a `&str`, so nothing is re-validated as UTF-8.
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

/// A parsed JSON value.
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
    /// An object (key-sorted).
    Obj(BTreeMap<String, Json>),
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

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an unsigned integer that fits `T`, in either spelling
    /// [`push_u64`] writes: a non-negative integral number no larger than
    /// 2⁵³ (beyond that an f64 no longer names one integer, so a cast would
    /// invent bits), or a decimal string. Out of range for `T` is `None`,
    /// never a truncation: decoders narrow here, not with `as`.
    pub fn uint<T: TryFrom<u64>>(&self) -> Option<T> {
        let n = match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_SAFE_INT as f64 => *n as u64,
            Json::Str(s) => s.parse().ok()?,
            _ => return None,
        };
        T::try_from(n).ok()
    }

    /// The elements, each read by `item`, if this is an array of them.
    pub fn list<'a, T>(&'a self, item: impl Fn(&'a Json) -> Option<T>) -> Option<Vec<T>> {
        match self {
            Json::Arr(items) => items.iter().map(item).collect(),
            _ => None,
        }
    }

    /// Read member `key` with `read` (`Json::uint`, `Json::as_str`, a
    /// closure). The error names the key, so decoders need no per-field
    /// error plumbing.
    pub fn req<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        self.opt(key, read)?.ok_or_else(|| format!("missing {key:?}"))
    }

    /// Like [`req`](Self::req), but an absent member is `Ok(None)`. A member
    /// that is present and malformed is an error, never a silent default.
    pub fn opt<'a, T>(
        &'a self,
        key: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => read(v).map(Some).ok_or_else(|| format!("malformed or out-of-range {key:?}")),
        }
    }
}

/// Deepest array/object nesting [`parse_json`] accepts. The workspace
/// writes at most 3 levels; the cap keeps a hostile line from overflowing
/// the reading thread's stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat_lit("true", Json::Bool(true)),
            Some(b'f') => self.eat_lit("false", Json::Bool(false)),
            Some(b'n') => self.eat_lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Parse one array or object a level deeper, refusing past [`MAX_DEPTH`].
    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
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
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Copy everything up to the next quote, backslash or control
            // byte in one piece. All three are ASCII, so both ends of the
            // run are char boundaries.
            let run = self.bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20);
            let Some(len) = run else {
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
    /// ([eE] [+-]? [0-9]+)?`; the checked text then goes through `str::parse`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int = self.pos;
        let int_len = self.digits();
        let mut valid = int_len == 1 || (int_len > 1 && self.bytes()[int] != b'0');
        if self.peek() == Some(b'.') {
            self.pos += 1;
            valid &= self.digits() > 0;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            valid &= self.digits() > 0;
        }
        if !valid {
            return Err(self.err("bad number"));
        }
        self.text[start..self.pos]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

/// Parse one complete JSON document, rejecting trailing non-whitespace.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, pos: 0, depth: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(p.err("trailing garbage after value"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = parse_json(r#"{"a":[1,2.5,-3,1e3],"b":{"c":"x\n","d":true,"e":null}}"#).unwrap();
        assert_eq!(v.get("a"), Some(&Json::Arr(vec![
            Json::Num(1.0),
            Json::Num(2.5),
            Json::Num(-3.0),
            Json::Num(1000.0),
        ])));
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
            let j = parse_json(&Obj::new("t").u64("x", v).end()).unwrap();
            assert_eq!(j.req("x", Json::uint), Ok(v), "round-trip of {v}");
        }
    }

    #[test]
    fn typed_reads_name_the_key_and_check_every_narrowing() {
        let v = parse_json(r#"{"big":4294967297,"small":259,"neg":-4,"n":[1,2,"3"]}"#).unwrap();
        assert_eq!(v.req("big", Json::uint), Ok(4294967297u64));
        assert!(v.req("big", Json::uint::<u32>).unwrap_err().contains("\"big\""));
        assert_eq!(v.req("small", Json::uint), Ok(259u32));
        assert!(v.req("small", Json::uint::<u8>).is_err());
        assert!(v.req("neg", Json::uint::<u64>).is_err());
        assert_eq!(v.req("n", |n| n.list(Json::uint)), Ok(vec![1usize, 2, 3]));
        assert!(v.req("n", |n| n.list(Json::as_f64)).is_err(), "one element is a string");
        assert!(v.req("absent", Json::as_bool).unwrap_err().contains("\"absent\""));
        assert_eq!(v.opt("absent", Json::as_bool), Ok(None));
        assert!(v.opt("n", Json::as_bool).is_err(), "present but malformed is not a default");
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
