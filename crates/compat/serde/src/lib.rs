//! Offline stand-in for the `serde` crate.
//!
//! This workspace builds in hermetic environments with no crates.io access,
//! so it vendors a minimal serialization framework under the `serde` name.
//! Unlike real serde's visitor architecture, this stand-in round-trips every
//! value through a JSON-shaped [`Value`] tree: `Serialize` renders *into* a
//! `Value`, `Deserialize` parses *from* one. The derive macros (re-exported
//! from the sibling `serde_derive` stub) cover exactly the shapes this
//! workspace uses: named-field structs, newtype (tuple) structs — always
//! treated as `#[serde(transparent)]` — and enums with unit or named-field
//! variants (externally tagged, matching real serde's JSON encoding).
//!
//! The surface is intentionally tiny; extend it only when a workspace type
//! actually needs more.

pub use serde_derive::{Deserialize, Serialize};

use std::fmt;

/// A JSON-shaped tree: the single data model of this stand-in.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Unsigned integer (JSON number without sign or fraction).
    U64(u64),
    /// Signed integer (negative JSON number without fraction).
    I64(i64),
    /// Floating-point JSON number.
    F64(f64),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object; insertion order is preserved so output is stable.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Borrow the object entries if this value is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// Look up a key in an object value (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|entries| entries.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }

    /// Borrow the string if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Interpret this value as `bool` if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Interpret this value as `u64` if it is an integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::U64(x) => Some(x),
            Value::I64(x) => u64::try_from(x).ok(),
            Value::F64(x) if x >= 0.0 && x.fract() == 0.0 && x <= u64::MAX as f64 => Some(x as u64),
            _ => None,
        }
    }

    /// Interpret this value as `f64` if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::U64(x) => Some(x as f64),
            Value::I64(x) => Some(x as f64),
            Value::F64(x) => Some(x),
            _ => None,
        }
    }
}

/// Deserialization error: a message plus an outermost-first context path.
#[derive(Debug, Clone)]
pub struct DeError {
    msg: String,
}

impl DeError {
    /// New error with a message.
    pub fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }

    /// Wrap with a context frame (field or variant name).
    pub fn ctx(self, frame: &str) -> Self {
        Self {
            msg: format!("{frame}: {}", self.msg),
        }
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for DeError {}

/// Render `self` into the [`Value`] data model.
pub trait Serialize {
    /// Produce the `Value` tree encoding of `self`.
    fn serialize_value(&self) -> Value;
}

/// Reconstruct `Self` from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Parse `Self` out of a `Value` tree.
    fn deserialize_value(v: &Value) -> Result<Self, DeError>;
}

// ---------------------------------------------------------------------
// primitive impls
// ---------------------------------------------------------------------

macro_rules! ser_de_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $t {
            fn deserialize_value(v: &Value) -> Result<Self, DeError> {
                let x = v
                    .as_u64()
                    .ok_or_else(|| DeError::new(concat!("expected ", stringify!($t))))?;
                <$t>::try_from(x).map_err(|_| DeError::new(concat!(stringify!($t), " overflow")))
            }
        }
    )*};
}

ser_de_uint!(u8, u16, u32, u64, usize);

macro_rules! ser_de_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                Value::I64(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn deserialize_value(v: &Value) -> Result<Self, DeError> {
                let x = match *v {
                    Value::I64(x) => x,
                    Value::U64(x) => i64::try_from(x)
                        .map_err(|_| DeError::new("integer overflow"))?,
                    _ => return Err(DeError::new(concat!("expected ", stringify!($t)))),
                };
                <$t>::try_from(x).map_err(|_| DeError::new(concat!(stringify!($t), " overflow")))
            }
        }
    )*};
}

ser_de_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn serialize_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        v.as_f64().ok_or_else(|| DeError::new("expected f64"))
    }
}

impl Serialize for f32 {
    fn serialize_value(&self) -> Value {
        Value::F64(*self as f64)
    }
}

impl Deserialize for f32 {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        Ok(f64::deserialize_value(v)? as f32)
    }
}

impl Serialize for bool {
    fn serialize_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(DeError::new("expected bool")),
        }
    }
}

impl Serialize for String {
    fn serialize_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::String(s) => Ok(s.clone()),
            _ => Err(DeError::new("expected string")),
        }
    }
}

impl Serialize for str {
    fn serialize_value(&self) -> Value {
        Value::String(self.to_owned())
    }
}

impl Serialize for std::borrow::Cow<'_, str> {
    fn serialize_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for std::borrow::Cow<'static, str> {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        String::deserialize_value(v).map(std::borrow::Cow::Owned)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_value(&self) -> Value {
        match self {
            Some(x) => x.serialize_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(xs) => xs.iter().map(T::deserialize_value).collect(),
            _ => Err(DeError::new("expected array")),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrips() {
        assert_eq!(
            u32::deserialize_value(&42u32.serialize_value()).unwrap(),
            42
        );
        assert_eq!(
            f64::deserialize_value(&1.5f64.serialize_value()).unwrap(),
            1.5
        );
        assert_eq!(
            Option::<f64>::deserialize_value(&Value::Null).unwrap(),
            None
        );
        assert_eq!(
            Vec::<u32>::deserialize_value(&vec![1u32, 2].serialize_value()).unwrap(),
            vec![1, 2]
        );
    }

    #[test]
    fn object_lookup() {
        let v = Value::Object(vec![("a".into(), Value::U64(1))]);
        assert_eq!(v.get("a"), Some(&Value::U64(1)));
        assert_eq!(v.get("b"), None);
    }
}
