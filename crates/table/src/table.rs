//! The `Table`: an ordered set of equally-long typed columns.
//!
//! Columns are stored copy-on-write as `Arc<Column>`. Cloning a table
//! copies the schema and bumps one reference count per column; a column's
//! values are copied only when a holder mutates it while it is shared
//! ([`Table::column_mut`] goes through `Arc::make_mut`). Per-column
//! pipeline steps therefore cost O(columns) pointer copies plus the one
//! column they rewrite, and tables that share lineage (the DAG executor's
//! projections and step cache) share storage. Row-set changes (`take`,
//! `slice_rows`, `filter`, `vstack`) build new columns.

use crate::column::Column;
use crate::error::{Result, TableError};
use crate::schema::{Field, Schema};
use crate::value::Value;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// An immutable-length, columnar table. Column mutation goes through typed
/// accessors; structural changes (add/drop/rename) keep schema and storage
/// in lock step. The JSON form is the same as for owned columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    schema: Schema,
    columns: Vec<Arc<Column>>,
    n_rows: usize,
}

impl Table {
    /// A table with no columns and no rows.
    pub fn empty() -> Table {
        Table { schema: Schema::default(), columns: Vec::new(), n_rows: 0 }
    }

    /// Build a table from `(name, column)` pairs. All columns must have the
    /// same length and names must be unique.
    pub fn from_columns(cols: Vec<(impl Into<String>, Column)>) -> Result<Table> {
        let mut schema = Schema::default();
        let mut columns = Vec::with_capacity(cols.len());
        let mut n_rows = None;
        for (name, col) in cols {
            let name = name.into();
            let expected = *n_rows.get_or_insert(col.len());
            if col.len() != expected {
                return Err(TableError::LengthMismatch {
                    expected,
                    actual: col.len(),
                    column: name,
                });
            }
            schema.push(Field::new(name, col.dtype()))?;
            columns.push(Arc::new(col));
        }
        Ok(Table { schema, columns, n_rows: n_rows.unwrap_or(0) })
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.shared_column(name).map(|c| &**c)
    }

    /// The shared handle of a column, for moving it into another table
    /// without copying its values.
    pub fn shared_column(&self, name: &str) -> Result<&Arc<Column>> {
        Ok(&self.columns[self.index_of(name)?])
    }

    /// Mutable column by name. Copies the column first if another table
    /// shares it, so mutation never shows through a clone. Callers must
    /// not change the column length; use [`Table::filter`] /
    /// [`Table::take`] for row-set changes.
    pub fn column_mut(&mut self, name: &str) -> Result<&mut Column> {
        let idx = self.index_of(name)?;
        Ok(Arc::make_mut(&mut self.columns[idx]))
    }

    fn index_of(&self, name: &str) -> Result<usize> {
        self.schema.index_of(name).ok_or_else(|| TableError::ColumnNotFound(name.to_string()))
    }

    /// Column by position.
    pub fn column_at(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Iterate `(field, column)` pairs in schema order.
    pub fn iter_columns(&self) -> impl Iterator<Item = (&Field, &Column)> {
        self.schema.fields().iter().zip(self.columns.iter().map(|c| &**c))
    }

    /// Value at (`row`, `column name`).
    pub fn value(&self, row: usize, name: &str) -> Result<Value> {
        if row >= self.n_rows {
            return Err(TableError::RowOutOfBounds { index: row, len: self.n_rows });
        }
        Ok(self.column(name)?.get(row))
    }

    /// All values of row `row`, in schema order.
    pub fn row(&self, row: usize) -> Result<Vec<Value>> {
        if row >= self.n_rows {
            return Err(TableError::RowOutOfBounds { index: row, len: self.n_rows });
        }
        Ok(self.columns.iter().map(|c| c.get(row)).collect())
    }

    /// Add a column (owned or shared); errors on duplicate name or length
    /// mismatch.
    pub fn add_column(
        &mut self,
        name: impl Into<String>,
        col: impl Into<Arc<Column>>,
    ) -> Result<()> {
        let name = name.into();
        let col = col.into();
        if self.n_cols() > 0 && col.len() != self.n_rows {
            return Err(TableError::LengthMismatch {
                expected: self.n_rows,
                actual: col.len(),
                column: name,
            });
        }
        if self.n_cols() == 0 {
            self.n_rows = col.len();
        }
        self.schema.push(Field::new(name, col.dtype()))?;
        self.columns.push(col);
        Ok(())
    }

    /// Remove a column by name.
    pub fn drop_column(&mut self, name: &str) -> Result<()> {
        let idx = self.index_of(name)?;
        self.schema.remove(name)?;
        self.columns.remove(idx);
        Ok(())
    }

    /// Replace an existing column (owned or shared), keeping its position.
    /// The replacement may change the physical type (e.g. string → float
    /// after refinement).
    pub fn replace_column(&mut self, name: &str, col: impl Into<Arc<Column>>) -> Result<()> {
        let col = col.into();
        let idx = self.index_of(name)?;
        if col.len() != self.n_rows {
            return Err(TableError::LengthMismatch {
                expected: self.n_rows,
                actual: col.len(),
                column: name.to_string(),
            });
        }
        // Schema type may have changed.
        self.schema.set_dtype(idx, col.dtype());
        self.columns[idx] = col;
        Ok(())
    }

    pub fn rename_column(&mut self, old: &str, new: impl Into<String>) -> Result<()> {
        self.schema.rename(old, new)
    }

    /// New table containing the rows at `indices`, in order (duplicates allowed).
    pub fn take(&self, indices: &[usize]) -> Result<Table> {
        if let Some(&bad) = indices.iter().find(|&&i| i >= self.n_rows) {
            return Err(TableError::RowOutOfBounds { index: bad, len: self.n_rows });
        }
        Ok(Table {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| Arc::new(c.take(indices))).collect(),
            n_rows: indices.len(),
        })
    }

    /// New table containing the contiguous row range `r` (cheaper than
    /// [`Table::take`] — no index indirection).
    pub fn slice_rows(&self, r: std::ops::Range<usize>) -> Result<Table> {
        if r.end > self.n_rows || r.start > r.end {
            return Err(TableError::RowOutOfBounds { index: r.end, len: self.n_rows });
        }
        Ok(Table {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| Arc::new(c.slice(r.clone()))).collect(),
            n_rows: r.len(),
        })
    }

    /// New table with the rows for which `pred(row_index)` returns true.
    pub fn filter(&self, mut pred: impl FnMut(usize) -> bool) -> Table {
        let indices: Vec<usize> = (0..self.n_rows).filter(|&i| pred(i)).collect();
        self.take(&indices).expect("indices in range by construction")
    }

    /// New table with only the named columns, in the given order. The
    /// columns are shared with `self`, not copied.
    pub fn select(&self, names: &[&str]) -> Result<Table> {
        let cols = names
            .iter()
            .map(|&name| Ok((name, Arc::clone(self.shared_column(name)?))))
            .collect::<Result<Vec<_>>>()?;
        let mut out = Table::empty();
        for (name, col) in cols {
            out.add_column(name, col)?;
        }
        Ok(out)
    }

    /// Vertically concatenate `other` below `self`. Schemas must match
    /// exactly (names, order, and types).
    pub fn vstack(&self, other: &Table) -> Result<Table> {
        if self.schema != other.schema {
            return Err(TableError::Invalid("vstack requires identical schemas".into()));
        }
        let mut columns = Vec::with_capacity(self.columns.len());
        for (a, b) in self.columns.iter().zip(other.columns.iter()) {
            let mut col = Column::clone(a);
            col.extend_from(b)?;
            columns.push(Arc::new(col));
        }
        Ok(Table { schema: self.schema.clone(), columns, n_rows: self.n_rows + other.n_rows })
    }

    /// Deterministic shuffled split into (train, test); `train_fraction` in
    /// (0, 1). The paper uses a 70/30 split for all experiments.
    pub fn train_test_split(&self, train_fraction: f64, seed: u64) -> Result<(Table, Table)> {
        if !(0.0..=1.0).contains(&train_fraction) {
            return Err(TableError::Invalid(format!(
                "train_fraction {train_fraction} outside [0, 1]"
            )));
        }
        let mut indices: Vec<usize> = (0..self.n_rows).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        indices.shuffle(&mut rng);
        let cut = (self.n_rows as f64 * train_fraction).round() as usize;
        let (train_idx, test_idx) = indices.split_at(cut.min(self.n_rows));
        Ok((self.take(train_idx)?, self.take(test_idx)?))
    }

    /// Deterministic sample of up to `n` rows without replacement.
    pub fn sample(&self, n: usize, seed: u64) -> Table {
        let mut indices: Vec<usize> = (0..self.n_rows).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        indices.shuffle(&mut rng);
        indices.truncate(n.min(self.n_rows));
        self.take(&indices).expect("indices in range")
    }

    /// Approximate heap footprint in bytes across all columns.
    pub fn approx_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.approx_bytes()).sum()
    }

    /// Hash join with `right` on `left_key` = `right_key`.
    ///
    /// Every right column except its key is appended to the output; name
    /// clashes get a `right_prefix` prefix. `JoinKind::Inner` keeps matching
    /// rows only; `JoinKind::Left` keeps all left rows with nulls for
    /// non-matches. Rows whose key is null never match (SQL semantics).
    /// A left row matching multiple right rows is duplicated per match.
    pub fn join(
        &self,
        right: &Table,
        left_key: &str,
        right_key: &str,
        kind: JoinKind,
        right_prefix: &str,
    ) -> Result<Table> {
        let lk = self.column(left_key)?;
        let rk = right.column(right_key)?;
        if lk.dtype() != rk.dtype() {
            return Err(TableError::InvalidJoinKey(format!(
                "key type mismatch: {} vs {}",
                lk.dtype(),
                rk.dtype()
            )));
        }
        // Build hash index over the right key. Keys are rendered to strings,
        // which is exact for int/bool/string keys (the only key types used
        // by the multi-table datasets).
        let mut index: HashMap<String, Vec<usize>> = HashMap::new();
        for i in 0..right.n_rows() {
            if rk.is_null_at(i) {
                continue;
            }
            index.entry(rk.get(i).render()).or_default().push(i);
        }

        let mut left_rows: Vec<usize> = Vec::new();
        let mut right_rows: Vec<Option<usize>> = Vec::new();
        for i in 0..self.n_rows {
            let matches = if lk.is_null_at(i) { None } else { index.get(&lk.get(i).render()) };
            match matches {
                Some(rs) => {
                    for &r in rs {
                        left_rows.push(i);
                        right_rows.push(Some(r));
                    }
                }
                None => {
                    if kind == JoinKind::Left {
                        left_rows.push(i);
                        right_rows.push(None);
                    }
                }
            }
        }

        let mut out = self.take(&left_rows)?;
        for (field, col) in right.iter_columns() {
            if field.name == right_key {
                continue;
            }
            let out_name = if out.schema.contains(&field.name) {
                format!("{right_prefix}{}", field.name)
            } else {
                field.name.clone()
            };
            let mut new_col = Column::with_capacity(col.dtype(), right_rows.len());
            for r in &right_rows {
                match r {
                    Some(r) => new_col.push(col.get(*r))?,
                    None => new_col.push_null(),
                }
            }
            out.add_column(out_name, new_col)?;
        }
        Ok(out)
    }

    /// Pretty-print the first `limit` rows (debug / example output).
    pub fn head_display(&self, limit: usize) -> String {
        let mut s = String::new();
        s.push_str(&self.schema.names().join(" | "));
        s.push('\n');
        for i in 0..self.n_rows.min(limit) {
            let row: Vec<String> = self.columns.iter().map(|c| c.get(i).render()).collect();
            s.push_str(&row.join(" | "));
            s.push('\n');
        }
        s
    }
}

/// Join variants supported by [`Table::join`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    Left,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn sample_table() -> Table {
        Table::from_columns(vec![
            ("id", Column::from_i64(vec![1, 2, 3, 4])),
            ("name", Column::from_strings(vec!["a", "b", "c", "d"])),
            ("score", Column::from_f64(vec![0.5, 1.5, 2.5, 3.5])),
        ])
        .unwrap()
    }

    #[test]
    fn construction_validates_lengths_and_names() {
        let bad = Table::from_columns(vec![
            ("a", Column::from_i64(vec![1, 2])),
            ("b", Column::from_i64(vec![1])),
        ]);
        assert!(matches!(bad, Err(TableError::LengthMismatch { .. })));
        let dup = Table::from_columns(vec![
            ("a", Column::from_i64(vec![1])),
            ("a", Column::from_i64(vec![2])),
        ]);
        assert!(matches!(dup, Err(TableError::DuplicateColumn(_))));
    }

    #[test]
    fn row_and_value_access() {
        let t = sample_table();
        assert_eq!(t.value(1, "name").unwrap(), Value::Str("b".into()));
        assert_eq!(t.row(0).unwrap().len(), 3);
        assert!(t.value(10, "name").is_err());
        assert!(t.value(0, "zzz").is_err());
    }

    #[test]
    fn take_and_filter() {
        let t = sample_table();
        let sub = t.take(&[2, 0]).unwrap();
        assert_eq!(sub.n_rows(), 2);
        assert_eq!(sub.value(0, "id").unwrap(), Value::Int(3));
        let even = t.filter(|i| t.value(i, "id").unwrap() == Value::Int(2));
        assert_eq!(even.n_rows(), 1);
    }

    #[test]
    fn split_is_deterministic_and_partitions() {
        let t = sample_table();
        let (tr1, te1) = t.train_test_split(0.75, 42).unwrap();
        let (tr2, te2) = t.train_test_split(0.75, 42).unwrap();
        assert_eq!(tr1, tr2);
        assert_eq!(te1, te2);
        assert_eq!(tr1.n_rows() + te1.n_rows(), t.n_rows());
        let (tr3, _) = t.train_test_split(0.75, 7).unwrap();
        // Different seed may produce a different ordering.
        assert_eq!(tr3.n_rows(), 3);
    }

    #[test]
    fn inner_join_matches_keys() {
        let left = sample_table();
        let right = Table::from_columns(vec![
            ("key", Column::from_i64(vec![2, 4, 4, 9])),
            ("extra", Column::from_strings(vec!["x", "y", "z", "w"])),
        ])
        .unwrap();
        let joined = left.join(&right, "id", "key", JoinKind::Inner, "r_").unwrap();
        // id=2 matches once, id=4 matches twice.
        assert_eq!(joined.n_rows(), 3);
        assert!(joined.schema().contains("extra"));
    }

    #[test]
    fn left_join_keeps_unmatched_with_nulls() {
        let left = sample_table();
        let right = Table::from_columns(vec![
            ("key", Column::from_i64(vec![1])),
            ("extra", Column::from_strings(vec!["only"])),
        ])
        .unwrap();
        let joined = left.join(&right, "id", "key", JoinKind::Left, "r_").unwrap();
        assert_eq!(joined.n_rows(), 4);
        assert_eq!(joined.value(0, "extra").unwrap(), Value::Str("only".into()));
        assert_eq!(joined.value(1, "extra").unwrap(), Value::Null);
    }

    #[test]
    fn join_prefixes_clashing_names() {
        let left = sample_table();
        let right = Table::from_columns(vec![
            ("key", Column::from_i64(vec![1])),
            ("name", Column::from_strings(vec!["dup"])),
        ])
        .unwrap();
        let joined = left.join(&right, "id", "key", JoinKind::Inner, "r_").unwrap();
        assert!(joined.schema().contains("r_name"));
    }

    #[test]
    fn structural_mutations() {
        let mut t = sample_table();
        t.add_column("flag", Column::from_bools(vec![true, false, true, false])).unwrap();
        assert_eq!(t.n_cols(), 4);
        assert!(t.add_column("flag", Column::from_bools(vec![true; 4])).is_err());
        assert!(t.add_column("short", Column::from_bools(vec![true])).is_err());
        t.drop_column("flag").unwrap();
        assert_eq!(t.n_cols(), 3);
        t.rename_column("score", "points").unwrap();
        assert!(t.column("points").is_ok());
        t.replace_column("points", Column::from_strings(vec!["a", "b", "c", "d"])).unwrap();
        assert_eq!(t.column("points").unwrap().dtype(), DataType::Str);
    }

    #[test]
    fn mutating_a_clone_never_changes_the_original() {
        let a = sample_table();
        let mutations: [fn(&mut Table); 5] = [
            |b| b.column_mut("score").unwrap().set(0, Value::Float(9.0)).unwrap(),
            |b| b.replace_column("id", Column::from_i64(vec![7; 4])).unwrap(),
            |b| b.add_column("flag", Column::from_bools(vec![true; 4])).unwrap(),
            |b| b.drop_column("name").unwrap(),
            |b| *b = b.filter(|i| i % 2 == 0),
        ];
        for mutate in mutations {
            let mut b = a.clone();
            mutate(&mut b);
            assert_ne!(b, a);
            // `sample_table()` builds fresh storage, so it is a snapshot
            // that shares nothing with `a`.
            assert_eq!(a, sample_table());
        }
    }

    #[test]
    fn clones_share_columns_until_one_is_mutated() {
        let a = sample_table();
        let mut b = a.clone();
        b.column_mut("score").unwrap();
        assert!(!Arc::ptr_eq(a.shared_column("score").unwrap(), b.shared_column("score").unwrap()));
        assert!(Arc::ptr_eq(a.shared_column("name").unwrap(), b.shared_column("name").unwrap()));
        let picked = a.select(&["name", "id"]).unwrap();
        assert!(Arc::ptr_eq(a.shared_column("id").unwrap(), picked.shared_column("id").unwrap()));
        assert_eq!(picked.schema().names(), vec!["name", "id"]);
    }

    #[test]
    fn json_form_is_pinned() {
        let t = Table::from_columns(vec![
            ("id", Column::Int(vec![Some(1), None])),
            ("name", Column::Str(vec![Some("a\"b".into()), None])),
            ("score", Column::Float(vec![Some(0.5), Some(-2.0)])),
            ("flag", Column::Bool(vec![None, Some(true)])),
        ])
        .unwrap();
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(
            json,
            r#"{"schema":{"fields":[{"name":"id","dtype":"Int"},{"name":"name","dtype":"Str"},{"name":"score","dtype":"Float"},{"name":"flag","dtype":"Bool"}]},"columns":[{"Int":[1,null]},{"Str":["a\"b",null]},{"Float":[0.5,-2]},{"Bool":[null,true]}],"n_rows":2}"#
        );
        let back: Table = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.value(0, "name").unwrap(), Value::Str("a\"b".into()));
    }

    #[test]
    fn vstack_requires_identical_schema() {
        let t = sample_table();
        let stacked = t.vstack(&t).unwrap();
        assert_eq!(stacked.n_rows(), 8);
        let other = Table::from_columns(vec![("id", Column::from_i64(vec![1]))]).unwrap();
        assert!(t.vstack(&other).is_err());
    }
}
