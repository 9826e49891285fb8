//! JSON text: the byte primitives every renderer writes through (the
//! [`Value`] tree walker and the direct writers of the derived and std
//! impls alike, so the two paths cannot drift apart), and the one
//! [`Reader`] every type reads through. See the crate docs for the
//! format.
//!
//! [`Value`]: crate::Value

use crate::{DeError, SerError, Serialize, Value};
use std::borrow::Cow;
use std::fmt::Write as _;

/// Decimal digits, through a stack buffer.
pub(crate) fn write_u64(mut x: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// A sign, then [`write_u64`] of the magnitude.
pub(crate) fn write_i64(x: i64, out: &mut String) {
    if x < 0 {
        out.push('-');
    }
    write_u64(x.unsigned_abs(), out);
}

/// Shortest round-trip formatting, as the real crate produces ("0.4",
/// "1.0"). An integral float below 1e16 is exactly an integer (2^53 <
/// 1e16 < 2^54), so it is written as one plus `.0`.
pub(crate) fn write_f64(x: f64, out: &mut String) -> Result<(), SerError> {
    if !x.is_finite() {
        return Err(SerError(format!("cannot serialize non-finite float {x}")));
    }
    if x == x.trunc() && x.abs() < 1e16 {
        if x.is_sign_negative() {
            out.push('-');
        }
        write_u64(x.abs() as u64, out);
        out.push_str(".0");
    } else {
        write!(out, "{x}").expect("writing to a String cannot fail");
    }
    Ok(())
}

/// A quoted JSON string: runs that need no escape are copied whole (a
/// string with none is one copy). Every escaped character is ASCII, so a
/// byte scan never splits a UTF-8 sequence.
pub(crate) fn write_string(s: &str, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, &byte) in s.as_bytes().iter().enumerate() {
        if byte >= 0x20 && byte != b'"' && byte != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        out.push('\\');
        match byte {
            b'"' | b'\\' => out.push(byte as char),
            b'\n' => out.push('n'),
            b'\r' => out.push('r'),
            b'\t' => out.push('t'),
            _ => {
                out.push_str("u00");
                out.push(HEX[usize::from(byte >> 4)] as char);
                out.push(HEX[usize::from(byte & 0xf)] as char);
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// A JSON array of `items`.
pub(crate) fn write_seq<T: Serialize>(items: &[T], out: &mut String) -> Result<(), SerError> {
    out.push('[');
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item.write_json(out)?;
    }
    out.push(']');
    Ok(())
}

/// A pull reader over JSON text: the one JSON parser. Every
/// [`Deserialize::read_json`] reads its value straight off the text, and
/// the [`Value`] impl builds a tree from the same reads, so there is one
/// grammar whatever the target type:
///
/// - a number token is the longest run of `0-9 . e E + -` (after an
///   optional leading `-`); with any of `. e E +` or a later `-` it is an
///   `f64`, otherwise an `i64` if it starts with `-`, else a `u64`, and a
///   token its type cannot parse is an error ([`read_scalar`]);
/// - strings decode `\" \\ \/ \b \f \n \r \t` and `\uXXXX` (one scalar
///   value per escape, no surrogate pairs); raw control characters are
///   accepted;
/// - whitespace is space, tab, newline and carriage return.
///
/// A value nobody reads is still checked against the same grammar
/// ([`skip_value`]), without building anything.
///
/// Errors carry the byte offset they were found at.
///
/// [`Deserialize::read_json`]: crate::Deserialize::read_json
/// [`Value`]: crate::Value
/// [`read_scalar`]: Reader::read_scalar
/// [`skip_value`]: Reader::skip_value
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader { text, pos: 0 }
    }

    /// An error at the current offset.
    pub fn error(&self, what: impl std::fmt::Display) -> DeError {
        DeError(format!("{what} at offset {}", self.pos))
    }

    /// The first byte of the next token, after any whitespace; `None` at
    /// the end of the text.
    pub fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    /// Check that only whitespace is left.
    pub fn finish(mut self) -> Result<(), DeError> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters")),
        }
    }

    /// Consume `byte` as the next token.
    fn expect(&mut self, byte: u8) -> Result<(), DeError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format_args!("expected `{}`", byte as char)))
        }
    }

    /// Read `null`, `true`, `false` or a number as a [`Value`]: `Null`,
    /// `Bool`, or `U64`, `I64` or `F64` by the number token's form (see
    /// the type docs). Any other token is an error.
    ///
    /// [`Value`]: crate::Value
    pub fn read_scalar(&mut self) -> Result<Value, DeError> {
        match self.peek() {
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(self.error(format_args!("unexpected {:?}", other.map(char::from)))),
        }
    }

    fn keyword(&mut self, word: &str, value: Value) -> Result<Value, DeError> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("invalid literal"))
        }
    }

    fn number(&mut self) -> Result<Value, DeError> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        if bytes[self.pos] == b'-' {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&byte) = bytes.get(self.pos) {
            match byte {
                b'0'..=b'9' => {}
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        let parsed = if is_float {
            token.parse().map(Value::F64).map_err(|e| e.to_string())
        } else if token.starts_with('-') {
            token.parse().map(Value::I64).map_err(|e| e.to_string())
        } else {
            token.parse().map(Value::U64).map_err(|e| e.to_string())
        };
        parsed.map_err(|e| self.error(format_args!("number {token:?}: {e}")))
    }

    /// Read a string: borrowed from the text when it holds no escape,
    /// decoded otherwise.
    pub fn read_str(&mut self) -> Result<Cow<'a, str>, DeError> {
        self.expect(b'"')?;
        let start = self.pos;
        self.skip_run();
        if self.text.as_bytes().get(self.pos) == Some(&b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut decoded = String::from(&self.text[start..self.pos]);
        self.string_tail(Some(&mut decoded))?;
        Ok(Cow::Owned(decoded))
    }

    /// Advance over bytes that need no decoding: up to the next `"` or
    /// `\`, or the end of the text.
    fn skip_run(&mut self) {
        let rest = &self.text.as_bytes()[self.pos..];
        self.pos += rest
            .iter()
            .position(|&byte| byte == b'"' || byte == b'\\')
            .unwrap_or(rest.len());
    }

    /// The rest of a string after a run, through its closing quote,
    /// decoding into `out` if there is one (otherwise only checking).
    fn string_tail(&mut self, mut out: Option<&mut String>) -> Result<(), DeError> {
        loop {
            let start = self.pos;
            self.skip_run();
            if let Some(out) = out.as_deref_mut() {
                out.push_str(&self.text[start..self.pos]);
            }
            match self.text.as_bytes().get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let decoded = self.escape()?;
                    if let Some(out) = out.as_deref_mut() {
                        out.push(decoded);
                    }
                }
                _ => return Err(self.error("unterminated string")),
            }
        }
    }

    /// One escape, after its backslash.
    fn escape(&mut self) -> Result<char, DeError> {
        let Some(&escape) = self.text.as_bytes().get(self.pos) else {
            return Err(self.error("unterminated escape"));
        };
        self.pos += 1;
        Ok(match escape {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let code = self
                    .text
                    .get(self.pos..self.pos + 4)
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .ok_or_else(|| self.error("invalid \\u escape"))?;
                self.pos += 4;
                char::from_u32(code)
                    .ok_or_else(|| self.error(format_args!("invalid codepoint {code}")))?
            }
            other => return Err(self.error(format_args!("invalid escape `\\{}`", other as char))),
        })
    }

    /// Read an array, calling `element` to read each item (which must
    /// read exactly one value).
    pub fn read_seq(
        &mut self,
        element: impl FnMut(&mut Self) -> Result<(), DeError>,
    ) -> Result<(), DeError> {
        self.delimited(b'[', b']', element)
    }

    /// Read an object, calling `entry` with each key in text order (which
    /// must read exactly one value, or skip it).
    pub fn read_map(
        &mut self,
        mut entry: impl FnMut(&mut Self, &str) -> Result<(), DeError>,
    ) -> Result<(), DeError> {
        self.delimited(b'{', b'}', |reader| {
            let key = reader.read_str()?;
            reader.expect(b':')?;
            entry(reader, &key)
        })
    }

    /// `open`, then `item`s separated by commas, then `close`.
    fn delimited(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), DeError>,
    ) -> Result<(), DeError> {
        self.expect(open)?;
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(byte) if byte == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => {
                    let (open, close) = (open as char, close as char);
                    return Err(self.error(format_args!("expected `,` or `{close}` in `{open}`")));
                }
            }
        }
    }

    /// Check and pass over the next value, whatever it is, allocating
    /// nothing: it must be valid JSON just as if it were read.
    pub fn skip_value(&mut self) -> Result<(), DeError> {
        match self.peek() {
            Some(b'"') => {
                self.pos += 1;
                self.string_tail(None)
            }
            Some(b'[') => self.delimited(b'[', b']', Self::skip_value),
            Some(b'{') => self.delimited(b'{', b'}', |reader| {
                reader.expect(b'"')?;
                reader.string_tail(None)?;
                reader.expect(b':')?;
                reader.skip_value()
            }),
            _ => self.read_scalar().map(drop),
        }
    }
}
