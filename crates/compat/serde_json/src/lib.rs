//! A minimal, vendored stand-in for `serde_json`: writes any
//! `serde::Serialize` type as compact JSON text and reads any
//! `serde::Deserialize` type back from it.
//!
//! Supports everything the workspace's round-trip tests exercise: objects,
//! arrays, strings with escapes, booleans, null, and numbers (shortest
//! round-trip float formatting, like the real crate).
//!
//! [`to_string`] builds no tree: it calls [`Serialize::write_json`], which
//! derived types and the std impls override to append their JSON straight
//! into the output (a [`Value`](serde::Value) is walked in place). The
//! bytes, which the durable serving tier's snapshots store, are specified
//! in the `serde` crate docs; non-finite floats are an error.
//!
//! [`from_str`] builds no tree either: it hands a [`serde::Reader`] over
//! the text to [`Deserialize::read_json`], which the derived and std impls
//! implement by reading their fields straight off it and skipping, after
//! checking, whatever they do not read. Reading a `serde::Value` builds
//! the tree.

use serde::{DeError, Deserialize, Reader, SerError, Serialize};
use std::fmt;

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.0)
    }
}

impl From<SerError> for Error {
    fn from(e: SerError) -> Self {
        Error(e.0)
    }
}

/// Result alias matching the real crate's.
pub type Result<T> = std::result::Result<T, Error>;

/// Serialize a value to compact JSON text.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.write_json(&mut out)?;
    Ok(out)
}

/// Deserialize a value from JSON text: the value's tokens, then nothing
/// but whitespace.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    let mut reader = Reader::new(text);
    let value = T::read_json(&mut reader)?;
    reader.finish()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use serde::Value;

    /// The writer as it was before it wrote in place: `to_string` through
    /// a fresh string per number, `format!` floats, a char-by-char
    /// escaper. [`to_string`] must produce exactly these bytes, for a
    /// scalar written directly and for a `Value` tree alike.
    mod reference {
        use super::*;

        pub fn to_string(value: &Value) -> Result<String> {
            let mut out = String::new();
            write_value(value, &mut out)?;
            Ok(out)
        }

        fn write_value(value: &Value, out: &mut String) -> Result<()> {
            match value {
                Value::Null => out.push_str("null"),
                Value::Bool(true) => out.push_str("true"),
                Value::Bool(false) => out.push_str("false"),
                Value::I64(x) => out.push_str(&x.to_string()),
                Value::U64(x) => out.push_str(&x.to_string()),
                Value::F64(x) => out.push_str(&format_f64(*x)?),
                Value::Str(s) => write_string(s, out),
                Value::Seq(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        write_value(item, out)?;
                    }
                    out.push(']');
                }
                Value::Map(entries) => {
                    out.push('{');
                    for (i, (key, item)) in entries.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        write_string(key, out);
                        out.push(':');
                        write_value(item, out)?;
                    }
                    out.push('}');
                }
            }
            Ok(())
        }

        fn format_f64(x: f64) -> Result<String> {
            if !x.is_finite() {
                return Err(Error(format!("cannot serialize non-finite float {x}")));
            }
            if x == x.trunc() && x.abs() < 1e16 {
                Ok(format!("{x:.1}"))
            } else {
                Ok(format!("{x}"))
            }
        }

        fn write_string(s: &str, out: &mut String) {
            out.push('"');
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
            out.push('"');
        }
    }

    /// Floats of every kind: raw bit patterns (non-finite included),
    /// integral values on both sides of 1e16, and everyday magnitudes.
    fn floats() -> impl Strategy<Value = f64> {
        prop_oneof![
            prop::num::u64::ANY.prop_map(f64::from_bits),
            prop::num::u64::ANY.prop_map(|x| (x % 20_000_000_000_000_000) as f64 - 1e16),
            (0u64..64).prop_map(|ulps| f64::from_bits(1e16f64.to_bits() - 32 + ulps)),
            (0u64..64).prop_map(|ulps| -f64::from_bits(1e16f64.to_bits() - 32 + ulps)),
            prop::num::f64::ANY,
        ]
    }

    /// Strings mixing every escape class with plain ASCII, multi-byte
    /// characters and arbitrary scalar values.
    fn strings() -> impl Strategy<Value = String> {
        const POOL: [char; 16] = [
            'a', 'Z', ' ', '/', '"', '\\', '\n', '\r', '\t', '\0', '\u{8}', '\u{1f}', '\u{7f}',
            'é', '€', '𝄞',
        ];
        let character = prop_oneof![
            (0usize..POOL.len()).prop_map(|i| POOL[i]),
            (0u32..0x11_0000).prop_map(|x| char::from_u32(x).unwrap_or('\u{fffd}')),
        ];
        prop::collection::vec(character, 0..24).prop_map(String::from_iter)
    }

    fn scalars() -> impl Strategy<Value = Value> {
        prop_oneof![
            Just(Value::Null),
            prop::bool::ANY.prop_map(Value::Bool),
            prop::num::u64::ANY.prop_map(Value::U64),
            prop::num::u64::ANY.prop_map(|x| Value::I64(x as i64)),
            floats().prop_map(Value::F64),
            strings().prop_map(Value::Str),
        ]
    }

    proptest! {
        #[test]
        fn floats_are_written_as_before(x in floats()) {
            prop_assert_eq!(to_string(&x), reference::to_string(&Value::F64(x)));
            prop_assert_eq!(to_string(&x).is_err(), !x.is_finite());
        }

        #[test]
        fn integers_are_written_as_before(x in prop::num::u64::ANY) {
            prop_assert_eq!(to_string(&x), reference::to_string(&Value::U64(x)));
            let signed = x as i64;
            prop_assert_eq!(to_string(&signed), reference::to_string(&Value::I64(signed)));
        }

        #[test]
        fn strings_are_escaped_as_before(s in strings()) {
            prop_assert_eq!(to_string(&s), reference::to_string(&Value::Str(s.clone())));
            prop_assert_eq!(from_str::<String>(&to_string(&s).unwrap()), Ok(s));
        }

        #[test]
        fn trees_are_written_as_before(
            entries in prop::collection::vec(
                (strings(), prop::collection::vec(scalars(), 0..6)),
                0..6,
            ),
        ) {
            let tree = Value::Map(
                entries
                    .into_iter()
                    .map(|(key, items)| (key, Value::Seq(items)))
                    .collect(),
            );
            prop_assert_eq!(to_string(&tree), reference::to_string(&tree));
        }
    }

    #[test]
    fn integer_and_float_edges_are_written_as_before() {
        let mut integers = vec![0, 1, 9, 10, 99, 100, u64::MAX, i64::MAX as u64, 1 << 63];
        integers.extend((1..20).flat_map(|e| {
            let p = 10u64.pow(e);
            [p - 1, p, p + 1]
        }));
        for x in integers {
            assert_eq!(to_string(&x), reference::to_string(&Value::U64(x)));
            let signed = (x as i64).wrapping_neg();
            assert_eq!(
                to_string(&signed),
                reference::to_string(&Value::I64(signed))
            );
        }
        for x in [
            0.0,
            -0.0,
            1e16,
            -1e16,
            9_999_999_999_999_998.0,
            -9_999_999_999_999_998.0,
            4_503_599_627_370_496.5,
            5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            f64::EPSILON,
        ] {
            assert_eq!(to_string(&x), reference::to_string(&Value::F64(x)), "{x:e}");
        }
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(to_string(&x).is_err());
            assert!(to_string(&vec![Value::F64(x)]).is_err());
        }
    }

    #[test]
    fn a_value_is_written_and_parsed_like_any_other_type() {
        let tree = Value::Seq(vec![Value::Str("lent".into()), Value::F64(-0.0)]);
        assert_eq!(to_string(&tree).unwrap(), "[\"lent\",-0.0]");
        assert_eq!(from_str::<Value>("[\"lent\",-0.0]").unwrap(), tree);
    }

    #[test]
    fn scalars_roundtrip() {
        assert_eq!(to_string(&0.4f64).unwrap(), "0.4");
        assert_eq!(to_string(&1.0f64).unwrap(), "1.0");
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<f64>("0.4").unwrap(), 0.4);
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert!(from_str::<bool>("true").unwrap());
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![1.0f64, 2.5, -3.0];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[1.0,2.5,-3.0]");
        assert_eq!(from_str::<Vec<f64>>(&json).unwrap(), v);
    }

    #[test]
    fn strings_escape() {
        let s = "say \"hi\"\nnow".to_string();
        let json = to_string(&s).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), s);
    }

    #[test]
    fn whitespace_tolerated() {
        let v: Vec<u64> = from_str(" [ 1 , 2 ,\n3 ] ").unwrap();
        assert_eq!(v, vec![1, 2, 3]);
    }

    #[test]
    fn errors_are_reported() {
        assert!(from_str::<u64>("[1").is_err());
        assert!(from_str::<u64>("1 trailing").is_err());
        assert!(to_string(&f64::NAN).is_err());
    }
}
