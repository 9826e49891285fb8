//! A minimal, vendored stand-in for the `serde` crate.
//!
//! The build environment for this workspace has no access to crates.io, so
//! the handful of external dependencies are vendored as small compatible
//! subsets under `crates/compat/`. This crate provides the [`Serialize`] and
//! [`Deserialize`] traits (re-exporting the derive macros of the same names
//! from `serde_derive`), with a simple self-describing [`Value`] data
//! model instead of serde's visitor architecture. The companion
//! `serde_json` crate writes JSON text through [`Serialize::write_json`]
//! and reads it back through [`Deserialize::read_json`], which is all the
//! workspace uses serialization for.
//!
//! Writing needs no tree: [`Serialize::write_json`] appends compact JSON
//! straight into a `String`. Its default renders
//! [`to_value`](Serialize::to_value), so an impl that only builds the tree
//! stays correct; the derive macros, the std impls below and [`Value`]
//! (the tree walker) override it, each writing exactly the bytes its tree
//! would.
//!
//! Reading needs no tree either: [`Deserialize::read_json`] pulls a value
//! off a [`Reader`], the one JSON parser. A derived struct reads each
//! field where its key stands in the text (the first entry of a key wins)
//! and checks and skips every entry it has no field for, without building
//! it; [`Value`]'s impl is the tree builder.
//!
//! The durable serving tier's snapshots are this output, so its bytes are
//! a format: an integral float below 1e16 is written as the integer plus
//! `.0` (`-0.0` keeps its sign), any other finite float in Rust's shortest
//! round-trip `Display` form (never an exponent), integers in decimal, and
//! strings with `"`, `\\`, `\n`, `\r`, `\t` escaped and every other control
//! character as `\u00xx`. Non-finite floats are an error ([`SerError`]).
//! One set of primitives writes these bytes for every renderer.
//!
//! Supported derive features (the subset the workspace uses):
//! `#[serde(transparent)]` on newtype structs, `#[serde(skip)]` on fields
//! (skipped on serialize, `Default::default()` on deserialize),
//! `#[serde(default)]` on fields (`Default::default()` when the key is
//! missing), structs with named fields, unit structs, tuple structs, and
//! enums with unit, newtype, tuple and struct variants (externally tagged,
//! as in real serde).
//! `Serialize` also derives on structs and enums with lifetime parameters,
//! such as a view that borrows its fields.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::hash::Hash;

pub use serde_derive::{Deserialize, Serialize};

mod json;

pub use json::Reader;

/// The self-describing data model: what [`Serialize::to_value`] builds,
/// and what reading a `Value` makes of any JSON text.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null` / Rust `Option::None`.
    Null,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    I64(i64),
    /// An unsigned integer.
    U64(u64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// A sequence.
    Seq(Vec<Value>),
    /// A map with string keys, in insertion order.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Fetch an entry of a map value by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// View as a map, if this is one.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(entries) => Some(entries),
            _ => None,
        }
    }

    /// View as a sequence, if this is one.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(items) => Some(items),
            _ => None,
        }
    }

    /// Numeric coercion to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::F64(x) => Some(x),
            Value::I64(x) => Some(x as f64),
            Value::U64(x) => Some(x as f64),
            _ => None,
        }
    }

    /// Numeric coercion to `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(x) => Some(x),
            Value::I64(x) if x >= 0 => Some(x as u64),
            Value::F64(x) if x >= 0.0 && x.fract() == 0.0 && x <= u64::MAX as f64 => Some(x as u64),
            _ => None,
        }
    }

    /// Numeric coercion to `i64`.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::I64(x) => Some(x),
            Value::U64(x) if x <= i64::MAX as u64 => Some(x as i64),
            Value::F64(x) if x.fract() == 0.0 && x >= i64::MIN as f64 && x <= i64::MAX as f64 => {
                Some(x as i64)
            }
            _ => None,
        }
    }
}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError(pub String);

impl DeError {
    /// Build an error from anything displayable.
    pub fn msg(m: impl fmt::Display) -> Self {
        DeError(m.to_string())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

/// Serialization error: the one thing JSON cannot hold, a non-finite
/// float.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerError(pub String);

impl fmt::Display for SerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serialization error: {}", self.0)
    }
}

impl std::error::Error for SerError {}

/// A type that can convert itself into the [`Value`] data model.
pub trait Serialize {
    /// Convert to the intermediate data model.
    fn to_value(&self) -> Value;

    /// Append this value's compact JSON to `out`: exactly the bytes its
    /// [`to_value`](Self::to_value) tree renders to. The default builds
    /// that tree and walks it; an override writes the same bytes with no
    /// tree. On an error `out` holds a partial write.
    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        self.to_value().write_json(out)
    }
}

/// A type that can be read from JSON text.
pub trait Deserialize: Sized {
    /// Read one value off `reader`, consuming exactly its tokens. A
    /// number is read through [`Reader::read_scalar`] and coerced as
    /// [`Value::as_u64`], [`Value::as_i64`] or [`Value::as_f64`] do.
    fn read_json(reader: &mut Reader<'_>) -> Result<Self, DeError>;
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::U64(*self as u64) }
            fn write_json(&self, out: &mut String) -> Result<(), SerError> {
                json::write_u64(*self as u64, out);
                Ok(())
            }
        }
        impl Deserialize for $t {
            fn read_json(reader: &mut Reader<'_>) -> Result<Self, DeError> {
                let value = reader.read_scalar()?;
                let raw = value.as_u64().ok_or_else(|| {
                    reader.error(format_args!("expected unsigned integer, got {value:?}"))
                })?;
                <$t>::try_from(raw)
                    .map_err(|_| DeError::msg(format!("integer {raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::I64(*self as i64) }
            fn write_json(&self, out: &mut String) -> Result<(), SerError> {
                json::write_i64(*self as i64, out);
                Ok(())
            }
        }
        impl Deserialize for $t {
            fn read_json(reader: &mut Reader<'_>) -> Result<Self, DeError> {
                let value = reader.read_scalar()?;
                let raw = value.as_i64().ok_or_else(|| {
                    reader.error(format_args!("expected signed integer, got {value:?}"))
                })?;
                <$t>::try_from(raw)
                    .map_err(|_| DeError::msg(format!("integer {raw} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);
impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value { Value::F64(*self as f64) }
            fn write_json(&self, out: &mut String) -> Result<(), SerError> {
                json::write_f64(*self as f64, out)
            }
        }
        impl Deserialize for $t {
            fn read_json(reader: &mut Reader<'_>) -> Result<Self, DeError> {
                let value = reader.read_scalar()?;
                value
                    .as_f64()
                    .map(|x| x as $t)
                    .ok_or_else(|| reader.error(format_args!("expected number, got {value:?}")))
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }

    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        out.push_str(if *self { "true" } else { "false" });
        Ok(())
    }
}

impl Deserialize for bool {
    fn read_json(reader: &mut Reader<'_>) -> Result<Self, DeError> {
        match reader.read_scalar()? {
            Value::Bool(b) => Ok(b),
            other => Err(reader.error(format_args!("expected bool, got {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }

    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        json::write_string(self, out);
        Ok(())
    }
}

impl Deserialize for String {
    fn read_json(reader: &mut Reader<'_>) -> Result<Self, DeError> {
        reader.read_str().map(Cow::into_owned)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }

    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        json::write_string(self, out);
        Ok(())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn read_json(reader: &mut Reader<'_>) -> Result<Self, DeError> {
        let text = reader.read_str()?;
        let mut chars = text.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(reader.error(format_args!("expected single-char string, got {text:?}"))),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        (**self).write_json(out)
    }
}

impl<T: Serialize + ?Sized> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }

    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        (**self).write_json(out)
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn read_json(reader: &mut Reader<'_>) -> Result<Self, DeError> {
        T::read_json(reader).map(std::sync::Arc::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(v) => v.to_value(),
        }
    }

    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        match self {
            None => {
                out.push_str("null");
                Ok(())
            }
            Some(v) => v.write_json(out),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn read_json(reader: &mut Reader<'_>) -> Result<Self, DeError> {
        if reader.peek() == Some(b'n') {
            reader.read_scalar()?;
            Ok(None)
        } else {
            T::read_json(reader).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }

    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        json::write_seq(self, out)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }

    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        json::write_seq(self, out)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Seq(self.iter().map(Serialize::to_value).collect())
    }

    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        json::write_seq(self, out)
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn read_json(reader: &mut Reader<'_>) -> Result<Self, DeError> {
        let items = Vec::<T>::read_json(reader)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| reader.error(format_args!("expected array of {N} elements, got {len}")))
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn read_json(reader: &mut Reader<'_>) -> Result<Self, DeError> {
        let mut items = Vec::new();
        reader.read_seq(|reader| {
            items.push(T::read_json(reader)?);
            Ok(())
        })?;
        Ok(items)
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident $item:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Seq(vec![$(self.$idx.to_value()),+])
            }
            fn write_json(&self, out: &mut String) -> Result<(), SerError> {
                json::write_seq(&[$(&self.$idx as &dyn Serialize),+], out)
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn read_json(reader: &mut Reader<'_>) -> Result<Self, DeError> {
                let expected = [$($idx),+].len();
                let mut items = ($(None::<$name>,)+);
                let mut len = 0;
                reader.read_seq(|reader| {
                    match len {
                        $($idx => items.$idx = Some($name::read_json(reader)?),)+
                        _ => reader.skip_value()?,
                    }
                    len += 1;
                    Ok(())
                })?;
                match items {
                    ($(Some($item),)+) if len == expected => Ok(($($item,)+)),
                    _ => Err(reader.error(format_args!(
                        "expected tuple of {expected} elements, got {len}"
                    ))),
                }
            }
        }
    )*};
}

impl_tuple! {
    (A a: 0)
    (A a: 0, B b: 1)
    (A a: 0, B b: 1, C c: 2)
    (A a: 0, B b: 1, C c: 2, D d: 3)
}

/// Render a map key as a string (JSON object keys are strings).
fn key_to_string(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::U64(x) => x.to_string(),
        Value::I64(x) => x.to_string(),
        Value::Bool(b) => b.to_string(),
        other => format!("{other:?}"),
    }
}

/// Parse a map key back from its string form.
trait FromKey: Sized {
    fn from_key(key: &str) -> Result<Self, DeError>;
}

impl FromKey for String {
    fn from_key(key: &str) -> Result<Self, DeError> {
        Ok(key.to_owned())
    }
}

macro_rules! impl_from_key_num {
    ($($t:ty),*) => {$(
        impl FromKey for $t {
            fn from_key(key: &str) -> Result<Self, DeError> {
                key.parse()
                    .map_err(|_| DeError::msg(format!("invalid {} map key {key:?}", stringify!($t))))
            }
        }
    )*};
}

impl_from_key_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        let mut entries: Vec<(String, Value)> = self
            .iter()
            .map(|(k, v)| (key_to_string(&k.to_value()), v.to_value()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Map(entries)
    }
}

impl<K, V, S> Deserialize for HashMap<K, V, S>
where
    K: Deserialize + FromKey + Eq + Hash,
    V: Deserialize,
    S: std::hash::BuildHasher + Default,
{
    fn read_json(reader: &mut Reader<'_>) -> Result<Self, DeError> {
        let mut map = Self::default();
        reader.read_map(|reader, key| {
            map.insert(K::from_key(key)?, V::read_json(reader)?);
            Ok(())
        })?;
        Ok(map)
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Map(
            self.iter()
                .map(|(k, v)| (key_to_string(&k.to_value()), v.to_value()))
                .collect(),
        )
    }
}

impl<K, V> Deserialize for BTreeMap<K, V>
where
    K: Deserialize + FromKey + Ord,
    V: Deserialize,
{
    fn read_json(reader: &mut Reader<'_>) -> Result<Self, DeError> {
        let mut map = Self::default();
        reader.read_map(|reader, key| {
            map.insert(K::from_key(key)?, V::read_json(reader)?);
            Ok(())
        })?;
        Ok(map)
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }

    /// The tree walker.
    fn write_json(&self, out: &mut String) -> Result<(), SerError> {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.write_json(out)?,
            Value::I64(x) => json::write_i64(*x, out),
            Value::U64(x) => json::write_u64(*x, out),
            Value::F64(x) => json::write_f64(*x, out)?,
            Value::Str(s) => json::write_string(s, out),
            Value::Seq(items) => json::write_seq(items, out)?,
            Value::Map(entries) => {
                out.push('{');
                for (i, (key, item)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json::write_string(key, out);
                    out.push(':');
                    item.write_json(out)?;
                }
                out.push('}');
            }
        }
        Ok(())
    }
}

impl Deserialize for Value {
    /// The tree builder.
    fn read_json(reader: &mut Reader<'_>) -> Result<Self, DeError> {
        Ok(match reader.peek() {
            Some(b'"') => Value::Str(reader.read_str()?.into_owned()),
            Some(b'[') => Value::Seq(Vec::read_json(reader)?),
            Some(b'{') => {
                let mut entries = Vec::new();
                reader.read_map(|reader, key| {
                    entries.push((key.to_owned(), Value::read_json(reader)?));
                    Ok(())
                })?;
                Value::Map(entries)
            }
            _ => reader.read_scalar()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Write `value`, then read the text back.
    fn roundtrip<T: Serialize + Deserialize>(value: &T) -> T {
        let mut text = String::new();
        value.write_json(&mut text).unwrap();
        let mut reader = Reader::new(&text);
        let back = T::read_json(&mut reader).unwrap();
        reader.finish().unwrap();
        back
    }

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(roundtrip(&42u64), 42);
        assert_eq!(roundtrip(&-5i32), -5);
        assert_eq!(roundtrip(&0.25f64), 0.25);
        assert!(roundtrip(&true));
        assert_eq!(roundtrip(&"hi".to_string()), "hi");
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![(1.0f64, 2.0f64), (3.0, 4.0)];
        assert_eq!(roundtrip(&v), v);
        let none: Option<u64> = None;
        assert_eq!(none.to_value(), Value::Null);
        assert_eq!(roundtrip(&none), None);
    }

    #[test]
    fn skipping_checks_what_it_passes_over() {
        let mut reader = Reader::new(r#" {"a\u0062":[1,-2.5e3,"x\n",{"k":null}],"t":true} 7"#);
        reader.skip_value().unwrap();
        assert_eq!(reader.read_scalar(), Ok(Value::U64(7)));
        reader.finish().unwrap();
        for bad in [
            r#"{"a":}"#,
            "[1,]",
            r#""\ud800""#,
            "1e",
            "tru",
            r#"{"a" 1}"#,
        ] {
            assert!(Reader::new(bad).skip_value().is_err(), "{bad}");
        }
    }

    #[test]
    fn numeric_coercions() {
        assert_eq!(Value::U64(3).as_f64(), Some(3.0));
        assert_eq!(Value::F64(3.0).as_u64(), Some(3));
        assert_eq!(Value::F64(3.5).as_u64(), None);
        assert_eq!(Value::I64(-1).as_u64(), None);
    }

    #[test]
    fn map_lookup() {
        let m = Value::Map(vec![("a".into(), Value::U64(1))]);
        assert_eq!(m.get("a"), Some(&Value::U64(1)));
        assert_eq!(m.get("b"), None);
    }
}
