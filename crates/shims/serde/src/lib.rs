//! Offline shim for the subset of `serde` this workspace uses.
//!
//! Unlike upstream serde's visitor architecture, this shim serializes
//! through a concrete JSON value tree ([`Value`]): `Serialize` renders a
//! type into a `Value`, `Deserialize` rebuilds it from one. The derive
//! macros (re-exported from the sibling `serde_derive` shim) generate
//! those impls with upstream's externally-tagged enum representation, so
//! JSON written by the shim matches what real serde would emit for the
//! same types. `serde_json` in this workspace is a thin façade over this
//! crate's value model.

pub mod value;

pub use serde_derive::{Deserialize, Serialize};
pub use value::{DeError, Map, Value};

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Serialize into a JSON value tree.
pub trait Serialize {
    fn serialize(&self) -> Value;
}

/// Deserialize from a JSON value tree.
pub trait Deserialize: Sized {
    fn deserialize(v: &Value) -> Result<Self, DeError>;
}

// ---------------------------------------------------------------------------
// Serialize impls for primitives and std containers.
// ---------------------------------------------------------------------------

impl Serialize for Value {
    fn serialize(&self) -> Value {
        self.clone()
    }
}

impl Serialize for bool {
    fn serialize(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for String {
    fn serialize(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Serialize for str {
    fn serialize(&self) -> Value {
        Value::String(self.to_string())
    }
}

macro_rules! serialize_num {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize(&self) -> Value {
                Value::Number(*self as f64)
            }
        }
    )*}
}

serialize_num!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f32, f64);

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self) -> Value {
        match self {
            Some(v) => v.serialize(),
            None => Value::Null,
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn serialize(&self) -> Value {
        (**self).serialize()
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize(&self) -> Value {
        Value::Array(vec![self.0.serialize(), self.1.serialize()])
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn serialize(&self) -> Value {
        Value::Array(vec![self.0.serialize(), self.1.serialize(), self.2.serialize()])
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn serialize(&self) -> Value {
        // Sort for stable output: HashMap iteration order is unspecified.
        let mut entries: Vec<(&String, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        let mut m = Map::new();
        for (k, v) in entries {
            m.insert(k.clone(), v.serialize());
        }
        Value::Object(m)
    }
}

impl<K: AsRef<str>, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self) -> Value {
        let mut m = Map::new();
        for (k, v) in self {
            m.insert(k.as_ref().to_string(), v.serialize());
        }
        Value::Object(m)
    }
}

// ---------------------------------------------------------------------------
// Deserialize impls.
// ---------------------------------------------------------------------------

impl Deserialize for Value {
    fn deserialize(v: &Value) -> Result<Value, DeError> {
        Ok(v.clone())
    }
}

impl Deserialize for bool {
    fn deserialize(v: &Value) -> Result<bool, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::type_mismatch("bool", other)),
        }
    }
}

impl Deserialize for String {
    fn deserialize(v: &Value) -> Result<String, DeError> {
        match v {
            Value::String(s) => Ok(s.clone()),
            other => Err(DeError::type_mismatch("string", other)),
        }
    }
}

macro_rules! deserialize_int {
    ($($t:ty),*) => {$(
        impl Deserialize for $t {
            fn deserialize(v: &Value) -> Result<$t, DeError> {
                match v {
                    Value::Number(n) if n.fract() == 0.0 => Ok(*n as $t),
                    other => Err(DeError::type_mismatch("integer", other)),
                }
            }
        }
    )*}
}

deserialize_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Deserialize for f64 {
    fn deserialize(v: &Value) -> Result<f64, DeError> {
        match v {
            Value::Number(n) => Ok(*n),
            Value::Null => Ok(f64::NAN), // NaN serializes as null
            other => Err(DeError::type_mismatch("number", other)),
        }
    }
}

impl Deserialize for f32 {
    fn deserialize(v: &Value) -> Result<f32, DeError> {
        f64::deserialize(v).map(|n| n as f32)
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(v: &Value) -> Result<Option<T>, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::deserialize(other).map(Some),
        }
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(v: &Value) -> Result<Vec<T>, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::deserialize).collect(),
            other => Err(DeError::type_mismatch("array", other)),
        }
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(v: &Value) -> Result<Box<T>, DeError> {
        T::deserialize(v).map(Box::new)
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn deserialize(v: &Value) -> Result<Arc<T>, DeError> {
        T::deserialize(v).map(Arc::new)
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn deserialize(v: &Value) -> Result<(A, B), DeError> {
        match v {
            Value::Array(items) if items.len() == 2 => {
                Ok((A::deserialize(&items[0])?, B::deserialize(&items[1])?))
            }
            other => Err(DeError::type_mismatch("2-tuple", other)),
        }
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn deserialize(v: &Value) -> Result<(A, B, C), DeError> {
        match v {
            Value::Array(items) if items.len() == 3 => Ok((
                A::deserialize(&items[0])?,
                B::deserialize(&items[1])?,
                C::deserialize(&items[2])?,
            )),
            other => Err(DeError::type_mismatch("3-tuple", other)),
        }
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn deserialize(v: &Value) -> Result<HashMap<String, V>, DeError> {
        match v {
            Value::Object(m) => {
                m.iter().map(|(k, v)| Ok((k.clone(), V::deserialize(v)?))).collect()
            }
            other => Err(DeError::type_mismatch("object", other)),
        }
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize(v: &Value) -> Result<BTreeMap<String, V>, DeError> {
        match v {
            Value::Object(m) => {
                m.iter().map(|(k, v)| Ok((k.clone(), V::deserialize(v)?))).collect()
            }
            other => Err(DeError::type_mismatch("object", other)),
        }
    }
}

// ---------------------------------------------------------------------------
// Helpers used by derive-generated code.
// ---------------------------------------------------------------------------

/// Fetch and deserialize a struct field (missing fields read as `Null`, so
/// `Option` fields tolerate omission — upstream's `default` semantics for
/// options come along for free).
pub fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, DeError> {
    match v {
        Value::Object(m) => match m.get(name) {
            Some(inner) => {
                T::deserialize(inner).map_err(|e| DeError::new(format!("field `{name}`: {e}")))
            }
            None => T::deserialize(&Value::Null)
                .map_err(|_| DeError::new(format!("missing field `{name}`"))),
        },
        other => Err(DeError::type_mismatch("object", other)),
    }
}
