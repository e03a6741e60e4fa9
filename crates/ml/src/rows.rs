//! Row-set transforms (train-only): outlier removal (IQR, z-score, LOF),
//! duplicate removal (exact and approximate), row dropping, and
//! high-missing column dropping.

use crate::transform::{require_column, Result, Transform, TransformError};
use catdb_table::{column_dict, Table, NULL_CODE};
use std::collections::{HashMap, HashSet};

/// Outlier detection methods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OutlierMethod {
    /// Inter-quartile range fence: keep `Q1 − k·IQR ≤ x ≤ Q3 + k·IQR`.
    Iqr(f64),
    /// Keep `|z| ≤ k`.
    ZScore(f64),
    /// Local outlier factor (simplified): remove rows whose mean distance
    /// to their k nearest neighbours exceeds `factor ×` the dataset median.
    Lof { k: usize, factor: f64 },
}

impl OutlierMethod {
    pub fn label(&self) -> &'static str {
        match self {
            OutlierMethod::Iqr(_) => "iqr",
            OutlierMethod::ZScore(_) => "zscore",
            OutlierMethod::Lof { .. } => "lof",
        }
    }
}

/// Remove outlier rows based on the numeric columns. Train-only.
#[derive(Debug, Clone)]
pub struct OutlierRemover {
    /// Restrict to these columns; empty = all numeric columns.
    pub columns: Vec<String>,
    pub method: OutlierMethod,
}

impl OutlierRemover {
    pub fn new(columns: Vec<String>, method: OutlierMethod) -> OutlierRemover {
        OutlierRemover { columns, method }
    }

    fn numeric_targets(&self, table: &Table) -> Result<Vec<String>> {
        if self.columns.is_empty() {
            Ok(table
                .iter_columns()
                .filter(|(f, _)| f.dtype.is_numeric())
                .map(|(f, _)| f.name.clone())
                .collect())
        } else {
            for c in &self.columns {
                let col = require_column(table, c)?;
                if !col.dtype().is_numeric() {
                    return Err(TransformError::WrongType {
                        column: c.clone(),
                        expected: "numeric",
                    });
                }
            }
            Ok(self.columns.clone())
        }
    }
}

/// Mean of the `k` smallest values (the sum still divides by `k` when
/// fewer are present). Selects the k-prefix, then sorts only it, so the
/// values are summed in ascending `total_cmp` order: bit-identical to
/// summing the prefix of a full sort, at O(n + k log k).
fn mean_k_smallest(values: &mut [f64], k: usize) -> f64 {
    let take = k.min(values.len());
    if take < values.len() {
        values.select_nth_unstable_by(take - 1, f64::total_cmp);
    }
    let prefix = &mut values[..take];
    prefix.sort_by(f64::total_cmp);
    prefix.iter().sum::<f64>() / k as f64
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

impl Transform for OutlierRemover {
    fn name(&self) -> String {
        format!("outliers({})", self.method.label())
    }

    fn fit(&mut self, table: &Table) -> Result<()> {
        self.numeric_targets(table).map(|_| ())
    }

    fn transform(&self, table: &Table) -> Result<Table> {
        let targets = self.numeric_targets(table)?;
        if targets.is_empty() || table.n_rows() == 0 {
            return Ok(table.clone());
        }
        let mut keep = vec![true; table.n_rows()];
        match self.method {
            OutlierMethod::Iqr(k) => {
                for name in &targets {
                    let vals = table.column(name).expect("validated").to_f64_vec();
                    let mut sorted: Vec<f64> = vals.iter().flatten().copied().collect();
                    sorted.sort_by(|a, b| a.total_cmp(b));
                    if sorted.is_empty() {
                        continue;
                    }
                    let q1 = quantile(&sorted, 0.25);
                    let q3 = quantile(&sorted, 0.75);
                    let iqr = q3 - q1;
                    let (lo, hi) = (q1 - k * iqr, q3 + k * iqr);
                    for (i, v) in vals.iter().enumerate() {
                        if let Some(v) = v {
                            if *v < lo || *v > hi {
                                keep[i] = false;
                            }
                        }
                    }
                }
            }
            OutlierMethod::ZScore(k) => {
                for name in &targets {
                    let vals = table.column(name).expect("validated").to_f64_vec();
                    let present: Vec<f64> = vals.iter().flatten().copied().collect();
                    if present.is_empty() {
                        continue;
                    }
                    let n = present.len() as f64;
                    let mean = present.iter().sum::<f64>() / n;
                    let std = (present.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n).sqrt();
                    if std < 1e-12 {
                        continue;
                    }
                    for (i, v) in vals.iter().enumerate() {
                        if let Some(v) = v {
                            if ((v - mean) / std).abs() > k {
                                keep[i] = false;
                            }
                        }
                    }
                }
            }
            OutlierMethod::Lof { k, factor } => {
                // Build rows over the numeric targets (nulls as 0 for the
                // distance computation; LOF is a coarse filter here).
                let cols: Vec<Vec<Option<f64>>> = targets
                    .iter()
                    .map(|n| table.column(n).expect("validated").to_f64_vec())
                    .collect();
                let rows: Vec<Vec<f64>> = (0..table.n_rows())
                    .map(|i| cols.iter().map(|c| c[i].unwrap_or(0.0)).collect())
                    .collect();
                // Cap the pairwise computation (LOF is O(n²)).
                let n = rows.len().min(4000);
                let k = k.max(1).min(n.saturating_sub(1)).max(1);
                let d = rows.first().map_or(0, |r| r.len());
                // Blocked kernel over query chunks: same distances in the
                // same accumulation order as the old per-row rescan, but
                // cache-tiled and parallel over the runtime pool.
                let flat: Vec<f64> = rows[..n].iter().flatten().copied().collect();
                let limit = catdb_runtime::pool_size().saturating_add(1);
                let chunks = catdb_runtime::parallel_chunks(limit, n, 64, |range| {
                    let idx: Vec<usize> = range.collect();
                    let queries: Vec<f64> =
                        idx.iter().flat_map(|&i| flat[i * d..(i + 1) * d].to_vec()).collect();
                    let mut all = vec![0.0; idx.len() * n];
                    crate::dist::euclidean_block(&flat, n, &queries, idx.len(), d, &mut all);
                    idx.iter()
                        .enumerate()
                        .map(|(qi, &i)| {
                            let row = &all[qi * n..(qi + 1) * n];
                            let mut dists: Vec<f64> =
                                (0..n).filter(|&j| j != i).map(|j| row[j]).collect();
                            mean_k_smallest(&mut dists, k)
                        })
                        .collect::<Vec<_>>()
                });
                let mean_knn: Vec<f64> = chunks.into_iter().flatten().collect();
                let mut sorted = mean_knn.clone();
                sorted.sort_by(|a, b| a.total_cmp(b));
                let median = quantile(&sorted, 0.5).max(1e-12);
                for (i, &m) in mean_knn.iter().enumerate() {
                    if m / median > factor {
                        keep[i] = false;
                    }
                }
            }
        }
        // Never remove everything: degrade to a no-op instead of emptying
        // the training set.
        if keep.iter().all(|&k| !k) {
            return Ok(table.clone());
        }
        Ok(table.filter(|i| keep[i]))
    }

    fn train_only(&self) -> bool {
        true
    }
}

/// Remove duplicate rows. `approximate` normalizes strings
/// (lowercase/trim) before comparing, catching near-duplicates like
/// "Male " vs "male". Train-only.
#[derive(Debug, Clone)]
pub struct Deduplicator {
    pub approximate: bool,
}

impl Transform for Deduplicator {
    fn name(&self) -> String {
        format!("dedup({})", if self.approximate { "approx" } else { "exact" })
    }

    fn fit(&mut self, _table: &Table) -> Result<()> {
        Ok(())
    }

    fn transform(&self, table: &Table) -> Result<Table> {
        // Row keys are vectors of per-column dictionary codes, so each
        // distinct cell value is rendered (and normalized) once instead of
        // once per row. Codes are remapped per column so that rendered
        // equality — including a null rendering like the empty string, and
        // the approximate trim/lowercase collapse — matches the old
        // string-join keys exactly.
        let keyed: Vec<(Vec<u32>, Vec<u32>, u32)> = table
            .iter_columns()
            .map(|(_, col)| {
                let dict = column_dict(col);
                let mut ids: HashMap<String, u32> = HashMap::new();
                let remap: Vec<u32> = dict
                    .values()
                    .iter()
                    .map(|v| {
                        let norm =
                            if self.approximate { v.trim().to_lowercase() } else { v.clone() };
                        let next = ids.len() as u32;
                        *ids.entry(norm).or_insert(next)
                    })
                    .collect();
                let next = ids.len() as u32;
                let null_key = *ids.entry(String::new()).or_insert(next);
                (dict.codes().to_vec(), remap, null_key)
            })
            .collect();
        let mut seen = HashSet::new();
        Ok(table.filter(|i| {
            let key: Vec<u32> = keyed
                .iter()
                .map(
                    |(codes, remap, null_key)| {
                        if codes[i] == NULL_CODE {
                            *null_key
                        } else {
                            remap[codes[i] as usize]
                        }
                    },
                )
                .collect();
            seen.insert(key)
        }))
    }

    fn train_only(&self) -> bool {
        true
    }
}

/// Drop every row that contains any missing value (the "DROP" primitive
/// from Table 7). Train-only.
#[derive(Debug, Clone, Default)]
pub struct NullRowDropper;

impl Transform for NullRowDropper {
    fn name(&self) -> String {
        "drop_null_rows".into()
    }

    fn fit(&mut self, _table: &Table) -> Result<()> {
        Ok(())
    }

    fn transform(&self, table: &Table) -> Result<Table> {
        let filtered =
            table.filter(|i| !(0..table.n_cols()).any(|c| table.column_at(c).is_null_at(i)));
        // Keep at least something trainable.
        if filtered.n_rows() == 0 {
            return Ok(table.clone());
        }
        Ok(filtered)
    }

    fn train_only(&self) -> bool {
        true
    }
}

/// Drop a named column (applied to train and test alike).
#[derive(Debug, Clone)]
pub struct ColumnDropper {
    pub column: String,
}

impl Transform for ColumnDropper {
    fn name(&self) -> String {
        format!("drop({})", self.column)
    }

    fn fit(&mut self, table: &Table) -> Result<()> {
        require_column(table, &self.column).map(|_| ())
    }

    fn transform(&self, table: &Table) -> Result<Table> {
        require_column(table, &self.column)?;
        let mut out = table.clone();
        out.drop_column(&self.column)?;
        Ok(out)
    }
}

/// Drop columns whose missing fraction meets `threshold` (fitted on train,
/// reused on test; the paper drops columns with < 2 % non-null values).
#[derive(Debug, Clone)]
pub struct HighMissingDropper {
    pub threshold: f64,
    to_drop: Option<Vec<String>>,
}

impl HighMissingDropper {
    pub fn new(threshold: f64) -> HighMissingDropper {
        HighMissingDropper { threshold, to_drop: None }
    }

    pub fn dropped(&self) -> &[String] {
        self.to_drop.as_deref().unwrap_or(&[])
    }
}

impl Transform for HighMissingDropper {
    fn name(&self) -> String {
        format!("drop_high_missing({})", self.threshold)
    }

    fn fit(&mut self, table: &Table) -> Result<()> {
        let n = table.n_rows().max(1) as f64;
        self.to_drop = Some(
            table
                .iter_columns()
                .filter(|(_, c)| c.null_count() as f64 / n >= self.threshold)
                .map(|(f, _)| f.name.clone())
                .collect(),
        );
        Ok(())
    }

    fn transform(&self, table: &Table) -> Result<Table> {
        let drop =
            self.to_drop.as_ref().ok_or(TransformError::NotFitted("high-missing dropper"))?;
        let mut out = table.clone();
        for name in drop {
            if out.schema().contains(name) {
                out.drop_column(name)?;
            }
        }
        Ok(out)
    }
}

/// Drop columns that hold a single distinct non-null value (constant
/// features carry no signal; paper Section 3.4 removes them).
#[derive(Debug, Clone, Default)]
pub struct ConstantColumnDropper {
    to_drop: Option<Vec<String>>,
}

impl Transform for ConstantColumnDropper {
    fn name(&self) -> String {
        "drop_constant_columns".into()
    }

    fn fit(&mut self, table: &Table) -> Result<()> {
        let mut drop = Vec::new();
        for (field, col) in table.iter_columns() {
            if column_dict(col).n_distinct() <= 1 {
                drop.push(field.name.clone());
            }
        }
        self.to_drop = Some(drop);
        Ok(())
    }

    fn transform(&self, table: &Table) -> Result<Table> {
        let drop = self.to_drop.as_ref().ok_or(TransformError::NotFitted("constant dropper"))?;
        let mut out = table.clone();
        for name in drop {
            if out.schema().contains(name) && out.n_cols() > 1 {
                out.drop_column(name)?;
            }
        }
        Ok(out)
    }
}

/// Convenience: is the column numeric in this table?
pub fn is_numeric_column(table: &Table, name: &str) -> bool {
    table.column(name).map(|c| c.dtype().is_numeric()).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use catdb_table::Column;

    #[test]
    fn iqr_removes_extreme_values() {
        let mut vals: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
        vals.push(1000.0);
        let t = Table::from_columns(vec![("x", Column::from_f64(vals))]).unwrap();
        let mut rem = OutlierRemover::new(vec!["x".into()], OutlierMethod::Iqr(1.5));
        let out = rem.fit_transform(&t).unwrap();
        assert_eq!(out.n_rows(), 100);
    }

    #[test]
    fn zscore_keeps_inliers() {
        let t =
            Table::from_columns(vec![("x", Column::from_f64(vec![0.0, 0.1, -0.1, 0.05, 50.0]))])
                .unwrap();
        let mut rem = OutlierRemover::new(vec![], OutlierMethod::ZScore(1.5));
        let out = rem.fit_transform(&t).unwrap();
        assert_eq!(out.n_rows(), 4);
    }

    #[test]
    fn lof_flags_isolated_point() {
        let mut rows: Vec<f64> = (0..50).map(|i| (i % 10) as f64).collect();
        rows.push(500.0);
        let t = Table::from_columns(vec![("x", Column::from_f64(rows))]).unwrap();
        let mut rem = OutlierRemover::new(vec![], OutlierMethod::Lof { k: 5, factor: 10.0 });
        let out = rem.fit_transform(&t).unwrap();
        assert_eq!(out.n_rows(), 50);
    }

    /// The full-sort formulation `mean_k_smallest` replaces.
    fn mean_k_smallest_reference(values: &[f64], k: usize) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        sorted.iter().take(k).sum::<f64>() / k as f64
    }

    #[test]
    fn mean_k_smallest_matches_full_sort_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for len in [0usize, 1, 2, 3, 7, 64, 257] {
            // Coarse values force ties (the distances of duplicate rows),
            // fine ones make the summation order visible in the low bits.
            let coarse: Vec<f64> = (0..len).map(|_| rng.gen_range(0..4) as f64 * 0.1).collect();
            let fine: Vec<f64> = (0..len).map(|_| rng.gen::<f64>() * 1e3).collect();
            let zeros = vec![0.0; len];
            for values in [coarse, fine, zeros] {
                for k in [1, 2, 5, len.saturating_sub(1).max(1), len, len + 3] {
                    let want = mean_k_smallest_reference(&values, k);
                    let got = mean_k_smallest(&mut values.clone(), k);
                    assert_eq!(got.to_bits(), want.to_bits(), "len {len} k {k}");
                }
            }
        }
    }

    #[test]
    fn lof_handles_duplicates_tiny_tables_and_large_k() {
        // n = 1: no neighbours at all.
        let one = Table::from_columns(vec![("x", Column::from_f64(vec![3.0]))]).unwrap();
        let mut rem = OutlierRemover::new(vec![], OutlierMethod::Lof { k: 5, factor: 2.0 });
        assert_eq!(rem.fit_transform(&one).unwrap().n_rows(), 1);
        // k ≥ n − 1 over duplicate rows: every mean distance ties, none is
        // an outlier.
        let dup = Table::from_columns(vec![("x", Column::from_f64(vec![1.0; 6]))]).unwrap();
        let mut rem = OutlierRemover::new(vec![], OutlierMethod::Lof { k: 9, factor: 2.0 });
        assert_eq!(rem.fit_transform(&dup).unwrap().n_rows(), 6);
    }

    #[test]
    fn dedup_exact_and_approximate() {
        let t = Table::from_columns(vec![(
            "s",
            Column::from_strings(vec!["Male", "male ", "Male", "Female"]),
        )])
        .unwrap();
        let exact = Deduplicator { approximate: false }.transform(&t).unwrap();
        assert_eq!(exact.n_rows(), 3);
        let approx = Deduplicator { approximate: true }.transform(&t).unwrap();
        assert_eq!(approx.n_rows(), 2);
    }

    #[test]
    fn null_row_dropper() {
        let t = Table::from_columns(vec![
            ("a", Column::Int(vec![Some(1), None, Some(3)])),
            ("b", Column::Int(vec![Some(1), Some(2), Some(3)])),
        ])
        .unwrap();
        let out = NullRowDropper.transform(&t).unwrap();
        assert_eq!(out.n_rows(), 2);
    }

    #[test]
    fn high_missing_dropper_fitted_on_train_applies_to_test() {
        let train = Table::from_columns(vec![
            ("mostly_null", Column::Int(vec![None, None, None, Some(1)])),
            ("ok", Column::from_i64(vec![1, 2, 3, 4])),
        ])
        .unwrap();
        let mut d = HighMissingDropper::new(0.5);
        d.fit(&train).unwrap();
        assert_eq!(d.dropped(), &["mostly_null".to_string()]);
        let out = d.transform(&train).unwrap();
        assert_eq!(out.n_cols(), 1);
    }

    #[test]
    fn constant_dropper_removes_constants() {
        let t = Table::from_columns(vec![
            ("const", Column::from_i64(vec![7, 7, 7])),
            ("varies", Column::from_i64(vec![1, 2, 3])),
        ])
        .unwrap();
        let mut d = ConstantColumnDropper::default();
        let out = d.fit_transform(&t).unwrap();
        assert!(!out.schema().contains("const"));
        assert!(out.schema().contains("varies"));
    }

    #[test]
    fn outlier_remover_never_empties_table() {
        let t = Table::from_columns(vec![("x", Column::from_f64(vec![1.0, 2.0]))]).unwrap();
        let mut rem = OutlierRemover::new(vec![], OutlierMethod::ZScore(0.0));
        let out = rem.fit_transform(&t).unwrap();
        assert!(out.n_rows() > 0);
    }
}
