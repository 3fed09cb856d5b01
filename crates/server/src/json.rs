//! A hand-rolled JSON value model, serializer, and parser — the wire
//! encoding of the serving layer, with **no serde** (every dependency
//! in this workspace is vendored; a JSON crate would be the first
//! external one).
//!
//! Design constraints, in order:
//!
//! 1. **Bit-faithful numbers.** Served distances are `f64`s that must
//!    round-trip exactly (the protocol's bit-identity contract). Rust's
//!    `{}` formatting emits the shortest decimal that parses back to
//!    the same bits, and `str::parse::<f64>` is correctly rounded, so
//!    serialize-then-parse is the identity on finite floats. Integers
//!    keep their own variants ([`Json::U64`] / [`Json::I64`]) so `u64`
//!    counters (epochs, nanosecond timestamps) never squeeze through
//!    an `f64` and lose low bits.
//! 2. **Bounded parsing.** The parser enforces a nesting-depth cap, so
//!    a hostile request cannot trigger unbounded recursion; byte-size
//!    caps live one layer down, in the HTTP body limits.
//! 3. **Deterministic output.** Objects preserve insertion order
//!    (`Vec` of pairs, not a hash map), so equal values serialize to
//!    equal bytes — which lets tests compare wire strings directly.
//! 4. **Linear time in the document.** Every byte is looked at a
//!    bounded number of times, in both directions: the string scanner
//!    and the string writer copy each *run* of plain bytes with one
//!    `push_str` and only slow down for escapes. The scanner used to
//!    re-validate the whole remaining document as UTF-8 for every
//!    character of every string, which made parsing quadratic: a 1 MiB
//!    body holding one long string — which the default body cap admits
//!    — pinned a worker for 22.9 s (64 KiB: 82 ms, 256 KiB: 1.49 s);
//!    it now parses in about a millisecond, and the per-byte cost is
//!    flat from 1 KiB to 1 MiB (gated by `serve_baseline`'s `wire`
//!    block and pinned by `a_body_sized_string_parses_in_linear_time`).
//!    `#![forbid(unsafe_code)]` still holds: the input is a `&str`, a
//!    run starts after and ends before an ASCII byte (quote, backslash,
//!    control character, or the end of the text), so both ends are
//!    `char` boundaries and the run is an ordinary checked `&str`
//!    slice — no `from_utf8_unchecked`, no second validation pass.

use std::fmt;

/// Maximum nesting depth the parser accepts. Deep enough for any real
/// request (ours nest 4–5 levels), shallow enough that recursion can
/// never approach the stack limit.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer literal (no `.`/`e`, no sign).
    U64(u64),
    /// A negative integer literal.
    I64(i64),
    /// Any other number literal (fractional, exponent, or out of
    /// integer range), plus negative zero.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; pairs keep insertion order, lookups are linear
    /// (wire objects have a handful of keys).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float: accepts any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(u) => Some(u as f64),
            Json::I64(i) => Some(i as f64),
            Json::F64(x) => Some(x),
            _ => None,
        }
    }

    /// The value as a `u64`: integer literals only (a fractional
    /// number is not silently truncated).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(u) => Some(u),
            Json::I64(i) => u64::try_from(i).ok(),
            _ => None,
        }
    }

    /// The value as a `usize` (via [`Json::as_u64`]).
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|u| usize::try_from(u).ok())
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Json::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serializes to a compact string (no whitespace).
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Appends the compact serialization to `out` (what
    /// [`Json::to_string_compact`] returns, without the fresh `String`).
    pub(crate) fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write_bool(*b, out),
            Json::U64(u) => write_u64(*u, out),
            Json::I64(i) => {
                if *i < 0 {
                    out.push('-');
                }
                write_u64(i.unsigned_abs(), out);
            }
            Json::F64(x) => write_f64(*x, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
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

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string_compact())
    }
}

// The number and string formatters below are the only ones on the
// wire: `Json::write` and the streaming response encoder
// (`wire::write_response`) both call them, so the two cannot drift.

/// Appends `true` / `false`.
pub(crate) fn write_bool(b: bool, out: &mut String) {
    out.push_str(if b { "true" } else { "false" });
}

/// Appends a `u64` in decimal, formatted in a stack buffer (no heap
/// `String` per counter).
pub(crate) fn write_u64(mut v: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    // Digits are ASCII by construction.
    out.push_str(std::str::from_utf8(&buf[at..]).expect("ascii digits"));
}

/// Writes a float with Rust's shortest-round-trip formatting. JSON has
/// no NaN/Infinity literal; non-finite values serialize as `null`
/// (served distances are finite by construction — √(h/p) of
/// non-negative finite inputs — so this path is a safety net, not a
/// code path requests exercise).
pub(crate) fn write_f64(x: f64, out: &mut String) {
    use std::fmt::Write as _;
    if !x.is_finite() {
        out.push_str("null");
    } else {
        // Integral floats print without a fraction ("3", "-3", "-0")
        // and re-parse as integer variants (negative zero excepted —
        // the parser keeps its sign as F64); `as_f64` reads every
        // numeric variant identically, so values stay bit-faithful.
        let _ = write!(out, "{x}");
    }
}

/// Whether a byte of string content stands for itself on the wire:
/// everything but the quote, the backslash and the control characters.
/// All three exceptions are ASCII, so in valid UTF-8 a maximal run of
/// plain bytes starts and ends on a `char` boundary.
fn is_plain(b: u8) -> bool {
    b >= 0x20 && b != b'"' && b != b'\\'
}

/// Appends `s` as a JSON string literal; each run of plain bytes is
/// copied with one `push_str`.
pub(crate) fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if is_plain(b) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    Parser {
        text,
        bytes: text.as_bytes(),
        at: 0,
        #[cfg(test)]
        reference_strings: false,
    }
    .document()
}

struct Parser<'a> {
    /// The document, and the same bytes for cheap peeking.
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
    /// Tests only: scan strings with the superseded one-`char`-at-a-time
    /// scanner, the reference the accept/reject proptest compares with.
    #[cfg(test)]
    reference_strings: bool,
}

impl<'a> Parser<'a> {
    fn document(mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        let value = self.value(0)?;
        self.skip_ws();
        if self.at != self.bytes.len() {
            return Err(self.err("trailing characters after the document"));
        }
        Ok(value)
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.at,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {lit:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        #[cfg(test)]
        if self.reference_strings {
            return self.string_reference();
        }
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // One `push_str` per run of plain bytes: the scan stops on
            // an ASCII byte or at the end of the text, so the slice is
            // on `char` boundaries (see `is_plain`).
            let run = self.at;
            while self.peek().is_some_and(is_plain) {
                self.at += 1;
            }
            out.push_str(&self.text[run..self.at]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.at += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.at += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.at += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                            // hex4 advanced past the digits; skip the
                            // generic advance below.
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.at += 1;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.at + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.at..end])
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.at = end;
        Ok(hex)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        let mut fractional = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.at += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.at += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ascii number");
        if text.is_empty() || text == "-" {
            return Err(self.err("malformed number"));
        }
        if !fractional {
            if let Some(digits) = text.strip_prefix('-') {
                // "-0" keeps the sign as an f64 so negative zero
                // round-trips bit-faithfully.
                if digits.chars().all(|c| c == '0') {
                    return Ok(Json::F64(-0.0));
                }
                if let Ok(i) = text.parse::<i64>() {
                    return Ok(Json::I64(i));
                }
            } else if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::U64(u));
            }
        }
        text.parse::<f64>().map(Json::F64).map_err(|_| JsonError {
            offset: start,
            message: "malformed number".to_string(),
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Parser<'_> {
        /// The string scanner this module shipped before the run-copying
        /// one, body verbatim: it re-validates the whole rest of the
        /// document per character (quadratic), which is why it lives
        /// here, as the reference for the accept/reject proptest below.
        pub(super) fn string_reference(&mut self) -> Result<String, JsonError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.at += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.at += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                self.at += 1;
                                let cp = self.hex4()?;
                                // Surrogate pairs: a high surrogate must be
                                // followed by an escaped low surrogate.
                                let c = if (0xD800..0xDC00).contains(&cp) {
                                    if self.peek() != Some(b'\\') {
                                        return Err(self.err("lone high surrogate"));
                                    }
                                    self.at += 1;
                                    if self.peek() != Some(b'u') {
                                        return Err(self.err("lone high surrogate"));
                                    }
                                    self.at += 1;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    char::from_u32(cp)
                                };
                                match c {
                                    Some(c) => out.push(c),
                                    None => return Err(self.err("invalid unicode escape")),
                                }
                                // hex4 advanced past the digits; skip the
                                // generic advance below.
                                continue;
                            }
                            _ => return Err(self.err("invalid escape")),
                        }
                        self.at += 1;
                    }
                    Some(c) if c < 0x20 => {
                        return Err(self.err("unescaped control character in string"))
                    }
                    Some(_) => {
                        // Copy one UTF-8 scalar (input is a &str, so the
                        // bytes are valid UTF-8 by construction).
                        let rest = &self.bytes[self.at..];
                        let s = std::str::from_utf8(rest).expect("input is valid utf-8");
                        let c = s.chars().next().expect("peeked non-empty");
                        out.push(c);
                        self.at += c.len_utf8();
                    }
                }
            }
        }
    }

    /// [`parse`] with every string read by [`Parser::string_reference`].
    fn parse_reference(text: &str) -> Result<Json, JsonError> {
        Parser {
            text,
            bytes: text.as_bytes(),
            at: 0,
            reference_strings: true,
        }
        .document()
    }

    /// Valid documents the mutation proptests start from: the served
    /// shapes, every escape, 2–4-byte UTF-8, surrogate pairs, and (the
    /// last [`COMPACT_BODIES`]) compact `/search` and `/insert` bodies —
    /// the shape the one-pass decoders accept, which `wire::tests`
    /// mutates too.
    pub(crate) const CORPUS: [&str; 8] = [
        "{\"hits\":[{\"id\":3,\"distance\":0.25},{\"id\":9,\"distance\":1e-7}],\
         \"stats\":{\"epoch\":18446744073709551615,\"kernel\":\"avx2\",\"approximate\":false,\
         \"stages\":{\"map\":1200,\"scan\":-0}}}",
        "{\"query\": {\"graph\": {\"v\": [0, 1, 2], \"e\": [[0, 1, 1], [1, 2, 0]]}}, \"k\": 10,\n\
         \"ranker\": {\"approx\": {\"ef\": 64, \"verify\": null}}, \"mapping\": \"binary\"}",
        "[\"plain\", \"q\\\"b\\\\s\\/n\\nr\\rt\\tb\\bf\\f\", \"\\u0041\\u00e9\\u20ac\\ud83d\\ude00\\u001f\"]",
        "{\"λ é\": \"€ 😀 \u{7f}\", \"\": [true, null, -12, 2.5e+3, \"\"]}",
        "\"one string, nothing else: \\u00e9\\\\ 😀\"",
        "{\"query\":{\"graph\":{\"v\":[0,1,2,3],\"e\":[[0,1,1],[1,2,0],[2,3,2],[3,0,1]]}},\"k\":10,\
         \"ranker\":{\"approx\":{\"ef\":64,\"verify\":null}},\"mapping\":\"binary\"}",
        "{\"mapping\":\"weighted\",\"ranker\":{\"refined\":{\"candidates\":20}},\"k\":7,\
         \"query\":{\"graph\":{\"e\":[[0,2,1],[1,2,0]],\"v\":[6,0,4294967295]}}}",
        "{\"graph\":{\"v\":[1,0,2],\"e\":[[2,0,3],[0,1,0],[1,2,1]]}}",
    ];

    /// How many of [`CORPUS`]'s last entries are compact request bodies.
    pub(crate) const COMPACT_BODIES: usize = 3;

    /// What a mutation writes: every byte the scanner branches on, the
    /// pieces of escapes and numbers, a control character, and 2-, 3-
    /// and 4-byte UTF-8.
    const PALETTE: [char; 32] = [
        '"', '\\', '/', 'u', 'n', 'b', 'd', 'D', '8', 'c', 'f', 'a', '0', '9', '-', '+', 'e', '.',
        '{', '}', '[', ']', ',', ':', ' ', '\n', '\u{1}', '\u{7f}', 'é', '€', '😀', 'x',
    ];

    /// Applies one replace / insert / delete per `(kind, at, pick)`
    /// triple, on `char`s so the result is still a `&str`.
    pub(crate) fn mutate(doc: &str, edits: &[(u8, usize, usize)]) -> String {
        let mut chars: Vec<char> = doc.chars().collect();
        for &(kind, at, pick) in edits {
            let c = PALETTE[pick % PALETTE.len()];
            match kind % 3 {
                _ if chars.is_empty() => chars.push(c),
                0 => {
                    let i = at % chars.len();
                    chars[i] = c;
                }
                1 => chars.insert(at % (chars.len() + 1), c),
                _ => {
                    chars.remove(at % chars.len());
                }
            }
        }
        chars.into_iter().collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The run-copying scanner accepts and rejects exactly what the
        /// scanner it replaced did — same value, same error, same
        /// offset — on valid documents with one to three characters
        /// replaced, inserted or deleted.
        #[test]
        fn mutated_documents_get_the_reference_scanners_verdict(
            doc in 0usize..CORPUS.len(),
            edits in proptest::collection::vec(
                (any::<u8>(), any::<usize>(), any::<usize>()), 1..=3),
        ) {
            let text = mutate(CORPUS[doc], &edits);
            prop_assert_eq!(parse(&text), parse_reference(&text), "{:?}", text);
        }
    }

    #[test]
    fn the_corpus_is_valid_and_agrees_with_the_reference_scanner() {
        for doc in CORPUS {
            let v = parse(doc).unwrap_or_else(|e| panic!("{doc:?}: {e}"));
            assert_eq!(Ok(v), parse_reference(doc), "{doc:?}");
        }
    }

    #[test]
    fn a_body_sized_string_parses_in_linear_time() {
        // Both documents fit the default 1 MiB body cap. The scanner
        // that re-validated the rest of the document per character
        // needed ~23 s for the first one.
        let n = crate::http::DEFAULT_MAX_BODY_BYTES - 2;
        let plain = format!("\"{}\"", "x".repeat(n));
        let escapes = format!("\"{}\"", "\\u0041".repeat(n / 6));
        for (doc, want_len) in [(plain, n), (escapes, n / 6)] {
            let t = std::time::Instant::now();
            let v = parse(&doc).unwrap();
            let took = t.elapsed();
            assert_eq!(v.as_str().map(str::len), Some(want_len));
            assert!(
                took.as_millis() < 500,
                "a {}-byte string took {took:?}",
                doc.len()
            );
        }
    }

    #[test]
    fn strings_serialize_by_runs_with_every_escape_in_place() {
        let s = "a\"b\\c\nd\re\tf\u{1}g\u{1f}h λ€😀\u{7f}";
        let wire = Json::Str(s.to_string()).to_string_compact();
        assert_eq!(
            wire,
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fh λ€😀\u{7f}\""
        );
        assert_eq!(parse(&wire).unwrap().as_str(), Some(s));
        assert_eq!(
            Json::I64(i64::MIN).to_string_compact(),
            i64::MIN.to_string()
        );
        assert_eq!(Json::I64(-7).to_string_compact(), "-7");
    }

    fn round_trip(v: &Json) -> Json {
        parse(&v.to_string_compact()).expect("round trip parses")
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::U64(0),
            Json::U64(u64::MAX),
            Json::I64(-42),
            Json::I64(i64::MIN),
            Json::F64(0.25),
            Json::F64(1.0 / 3.0),
            Json::Str("hello \"world\"\n\t\\ λ €".to_string()),
            Json::Str(String::new()),
        ] {
            assert_eq!(round_trip(&v), v, "{v:?}");
        }
    }

    #[test]
    fn floats_round_trip_bit_faithfully() {
        for bits in [
            0x3FD5555555555555u64, // 1/3
            0x3FF0000000000001,    // 1 + ulp
            0x0000000000000001,    // smallest subnormal
            0x7FEFFFFFFFFFFFFF,    // f64::MAX
            0x8000000000000000,    // -0.0
            0x4049_0FDB_5444_2D18, // ~pi * 10ish, arbitrary
        ] {
            let x = f64::from_bits(bits);
            let back = round_trip(&Json::F64(x));
            let got = match back {
                Json::F64(y) => y,
                Json::U64(u) => u as f64,
                Json::I64(i) => i as f64,
                other => panic!("non-numeric round trip: {other:?}"),
            };
            assert_eq!(got.to_bits(), x.to_bits(), "bits 0x{bits:016x}");
        }
    }

    #[test]
    fn integral_floats_may_come_back_as_integers_with_equal_value() {
        // 3.0 serializes as "3" (shortest form); the parser reads it
        // as U64(3). as_f64 recovers the identical value.
        let v = round_trip(&Json::F64(3.0));
        assert_eq!(v.as_f64(), Some(3.0));
        assert_eq!(v.as_f64().unwrap().to_bits(), 3.0f64.to_bits());
        let neg = round_trip(&Json::F64(-3.0));
        assert_eq!(neg.as_f64().unwrap().to_bits(), (-3.0f64).to_bits());
    }

    #[test]
    fn containers_round_trip_and_preserve_order() {
        let v = Json::obj([
            (
                "zeta",
                Json::Arr(vec![Json::U64(1), Json::Null, Json::Bool(false)]),
            ),
            ("alpha", Json::obj([("nested", Json::Str("x".into()))])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
        ]);
        assert_eq!(round_trip(&v), v);
        // Key order is preserved, so equal values have equal bytes.
        let s = v.to_string_compact();
        assert!(s.find("zeta").unwrap() < s.find("alpha").unwrap());
    }

    #[test]
    fn whitespace_and_escapes_parse() {
        let v = parse(" { \"a\" : [ 1 , 2.5 , \"\\u0041\\u00e9\\ud83d\\ude00\" ] } ").unwrap();
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_str(),
            Some("Aé😀")
        );
    }

    #[test]
    fn malformed_inputs_yield_typed_errors() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "01x",
            "\"unterminated",
            "{\"a\":1} extra",
            "[1 2]",
            "\"bad \\q escape\"",
            "nul",
            "-",
            "\"\\ud800\"", // lone high surrogate
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("deep"));
        let ok = "[".repeat(20) + &"]".repeat(20);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn accessors_are_type_strict() {
        let v = parse("{\"n\": 3, \"x\": 2.5, \"s\": \"hi\", \"b\": true}").unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("x").unwrap().as_u64(), None, "no silent truncation");
        assert_eq!(v.get("x").unwrap().as_f64(), Some(2.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi"));
        assert_eq!(v.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(Json::F64(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_string_compact(), "null");
    }
}
