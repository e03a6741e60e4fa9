//! Table schemas: ordered, named, typed fields with O(1) name lookup.

use crate::error::{Result, TableError};
use crate::value::DataType;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A named, typed column descriptor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Field {
    pub name: String,
    pub dtype: DataType,
}

impl Field {
    pub fn new(name: impl Into<String>, dtype: DataType) -> Field {
        Field { name: name.into(), dtype }
    }
}

/// An ordered collection of fields. Field names are unique.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Schema {
    fields: Vec<Field>,
    #[serde(skip)]
    index: HashMap<String, usize>,
}

/// Deserialization rebuilds the name index (which is not serialized) and
/// rejects duplicate names.
impl Deserialize for Schema {
    fn deserialize(v: &serde::Value) -> std::result::Result<Schema, serde::DeError> {
        let fields: Vec<Field> = serde::field(v, "fields")?;
        Schema::new(fields).map_err(|e| serde::DeError::new(e.to_string()))
    }
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        self.fields == other.fields
    }
}

impl Schema {
    pub fn new(fields: Vec<Field>) -> Result<Schema> {
        let mut index = HashMap::with_capacity(fields.len());
        for (i, f) in fields.iter().enumerate() {
            if index.insert(f.name.clone(), i).is_some() {
                return Err(TableError::DuplicateColumn(f.name.clone()));
            }
        }
        Ok(Schema { fields, index })
    }

    /// Rebuild the name index from the fields.
    pub fn rebuild_index(&mut self) {
        self.index = self.fields.iter().enumerate().map(|(i, f)| (f.name.clone(), i)).collect();
    }

    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Position of the field named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    pub fn field(&self, idx: usize) -> &Field {
        &self.fields[idx]
    }

    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(name)
    }

    /// All field names, in schema order.
    pub fn names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    /// Append a field; errors on a duplicate name.
    pub fn push(&mut self, field: Field) -> Result<()> {
        if self.index.contains_key(&field.name) {
            return Err(TableError::DuplicateColumn(field.name));
        }
        self.index.insert(field.name.clone(), self.fields.len());
        self.fields.push(field);
        Ok(())
    }

    /// Change the type of the field at `idx` (names and index unchanged).
    pub(crate) fn set_dtype(&mut self, idx: usize, dtype: DataType) {
        self.fields[idx].dtype = dtype;
    }

    /// Remove the field named `name`; errors if absent.
    pub fn remove(&mut self, name: &str) -> Result<Field> {
        let idx =
            self.index_of(name).ok_or_else(|| TableError::ColumnNotFound(name.to_string()))?;
        let f = self.fields.remove(idx);
        self.rebuild_index();
        Ok(f)
    }

    /// Rename a field in place; errors if the old name is absent or the new
    /// name already exists.
    pub fn rename(&mut self, old: &str, new: impl Into<String>) -> Result<()> {
        let new = new.into();
        if self.contains(&new) {
            return Err(TableError::DuplicateColumn(new));
        }
        let idx = self.index_of(old).ok_or_else(|| TableError::ColumnNotFound(old.to_string()))?;
        self.fields[idx].name = new;
        self.rebuild_index();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Str),
            Field::new("c", DataType::Float),
        ])
        .unwrap()
    }

    #[test]
    fn lookup_and_order() {
        let s = abc();
        assert_eq!(s.index_of("b"), Some(1));
        assert_eq!(s.names(), vec!["a", "b", "c"]);
        assert!(s.contains("c"));
        assert!(!s.contains("z"));
    }

    #[test]
    fn duplicate_names_rejected() {
        let r = Schema::new(vec![Field::new("a", DataType::Int), Field::new("a", DataType::Str)]);
        assert!(matches!(r, Err(TableError::DuplicateColumn(_))));
        let mut s = abc();
        assert!(s.push(Field::new("a", DataType::Bool)).is_err());
    }

    #[test]
    fn remove_and_rename_keep_index_consistent() {
        let mut s = abc();
        s.remove("a").unwrap();
        assert_eq!(s.index_of("b"), Some(0));
        s.rename("c", "z").unwrap();
        assert!(s.contains("z"));
        assert!(!s.contains("c"));
        assert!(s.rename("z", "b").is_err());
        assert!(s.rename("missing", "q").is_err());
    }
}
