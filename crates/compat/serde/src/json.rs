//! The byte primitives every JSON renderer writes through: the [`Value`]
//! tree walker and the direct writers of the derived and std impls alike,
//! so the two paths cannot drift apart. See the crate docs for the format.
//!
//! [`Value`]: crate::Value

use crate::{SerError, Serialize};
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
