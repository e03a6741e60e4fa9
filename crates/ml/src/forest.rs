//! Random forests: bagged CART trees with per-split feature subsampling.
//! Trees are trained in parallel on the shared `catdb-runtime` pool; the
//! per-tree seeds are drawn sequentially up front, so predictions are
//! identical for every `n_threads` value.

use crate::estimator::{
    check_finite, validate_classification, validate_regression, Classifier, ClassifierModel,
    Regressor, RegressorModel, Result,
};
use crate::matrix::Matrix;
use crate::tree::{fit_class_tree_on, fit_reg_tree, split_index, SplitMode, TreeConfig};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Shared forest hyper-parameters.
#[derive(Debug, Clone)]
pub struct ForestConfig {
    pub n_trees: usize,
    pub max_depth: usize,
    pub min_samples_leaf: usize,
    pub seed: u64,
    /// Worker threads for tree training (1 = sequential).
    pub n_threads: usize,
    /// Split-search strategy shared by every tree.
    pub split_mode: SplitMode,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 50,
            max_depth: 12,
            min_samples_leaf: 2,
            seed: 7,
            n_threads: 4,
            split_mode: SplitMode::Exact,
        }
    }
}

fn bootstrap_rows(n: usize, rng: &mut StdRng) -> Vec<usize> {
    (0..n).map(|_| rng.gen_range(0..n)).collect()
}

fn tree_config(cfg: &ForestConfig, n_features: usize, tree_seed: u64) -> TreeConfig {
    TreeConfig {
        max_depth: cfg.max_depth,
        min_samples_leaf: cfg.min_samples_leaf,
        max_thresholds: 16,
        feature_subsample: Some(((n_features as f64).sqrt().ceil() as usize).max(1)),
        seed: tree_seed,
        split_mode: cfg.split_mode,
    }
}

/// Random-forest classifier.
#[derive(Debug, Clone, Default)]
pub struct RandomForestClassifier {
    pub config: ForestConfig,
}

struct ForestClassifierModel {
    trees: Vec<crate::tree::TreeClassifierModel>,
    n_classes: usize,
}

impl Classifier for RandomForestClassifier {
    fn name(&self) -> &'static str {
        "random_forest"
    }

    fn fit(&self, x: &Matrix, y: &[usize], n_classes: usize) -> Result<Box<dyn ClassifierModel>> {
        validate_classification(x, y, n_classes)?;
        let cfg = &self.config;
        let n = x.rows();
        // Pre-draw bootstrap samples sequentially for determinism, then
        // train trees in parallel.
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let samples: Vec<Vec<usize>> =
            (0..cfg.n_trees).map(|_| bootstrap_rows(n, &mut rng)).collect();
        // Rank (or quantize) once; every tree shares the same index.
        let index = split_index(x, &tree_config(cfg, x.cols(), cfg.seed));
        let trees = catdb_runtime::parallel_map(cfg.n_threads, &samples, |t, sample| {
            let tc = tree_config(cfg, x.cols(), cfg.seed ^ (t as u64).wrapping_mul(0x9E37_79B9));
            fit_class_tree_on(x, y, sample.clone(), n_classes, &tc, &index)
        });
        Ok(Box::new(ForestClassifierModel { trees, n_classes }))
    }
}

impl ClassifierModel for ForestClassifierModel {
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<Vec<f64>>> {
        check_finite(x, "prediction features")?;
        let mut acc = vec![vec![0.0; self.n_classes]; x.rows()];
        for tree in &self.trees {
            tree.add_proba_unchecked(x, &mut acc);
        }
        let k = self.trees.len() as f64;
        for row in &mut acc {
            for v in row.iter_mut() {
                *v /= k;
            }
        }
        Ok(acc)
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

/// Random-forest regressor.
#[derive(Debug, Clone, Default)]
pub struct RandomForestRegressor {
    pub config: ForestConfig,
}

struct ForestRegressorModel {
    trees: Vec<crate::tree::TreeRegressorModel>,
}

impl Regressor for RandomForestRegressor {
    fn name(&self) -> &'static str {
        "random_forest"
    }

    fn fit(&self, x: &Matrix, y: &[f64]) -> Result<Box<dyn RegressorModel>> {
        validate_regression(x, y)?;
        let cfg = &self.config;
        let n = x.rows();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let samples: Vec<Vec<usize>> =
            (0..cfg.n_trees).map(|_| bootstrap_rows(n, &mut rng)).collect();
        let index = split_index(x, &tree_config(cfg, x.cols(), cfg.seed));
        let trees = catdb_runtime::parallel_map(cfg.n_threads, &samples, |t, sample| {
            let tc = tree_config(cfg, x.cols(), cfg.seed ^ (t as u64).wrapping_mul(0x9E37_79B9));
            fit_reg_tree(x, y, sample.clone(), &tc, &index)
        });
        Ok(Box::new(ForestRegressorModel { trees }))
    }
}

impl RegressorModel for ForestRegressorModel {
    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        check_finite(x, "prediction features")?;
        let mut acc = vec![0.0; x.rows()];
        for tree in &self.trees {
            for (a, v) in acc.iter_mut().zip(tree.predict_unchecked(x)) {
                *a += v;
            }
        }
        let k = self.trees.len() as f64;
        for a in &mut acc {
            *a /= k;
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, r2};
    use rand::Rng;

    #[test]
    fn forest_classifies_noisy_blobs() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for _ in 0..200 {
            let class = rng.gen_range(0..2usize);
            let cx = if class == 0 { 0.0 } else { 3.0 };
            rows.push(vec![cx + rng.gen::<f64>(), cx + rng.gen::<f64>()]);
            y.push(class);
        }
        let x = Matrix::from_rows(&rows);
        let cfg = ForestConfig { n_trees: 20, n_threads: 2, ..Default::default() };
        let model = RandomForestClassifier { config: cfg }.fit(&x, &y, 2).unwrap();
        let pred = model.predict(&x).unwrap();
        assert!(accuracy(&y, &pred) > 0.97);
    }

    #[test]
    fn forest_regression_beats_mean() {
        let rows: Vec<Vec<f64>> =
            (0..200).map(|i| vec![(i % 20) as f64, (i / 20) as f64]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * 2.0 + r[1] * r[1]).collect();
        let x = Matrix::from_rows(&rows);
        let cfg = ForestConfig { n_trees: 20, n_threads: 2, ..Default::default() };
        let model = RandomForestRegressor { config: cfg }.fit(&x, &y).unwrap();
        let pred = model.predict(&x).unwrap();
        assert!(r2(&y, &pred) > 0.9);
    }

    #[test]
    fn forest_is_deterministic_for_fixed_seed() {
        let rows: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64, (i * 3 % 7) as f64]).collect();
        let y: Vec<usize> = (0..50).map(|i| (i % 2) as usize).collect();
        let x = Matrix::from_rows(&rows);
        let cfg = ForestConfig { n_trees: 8, n_threads: 3, seed: 99, ..Default::default() };
        let m1 = RandomForestClassifier { config: cfg.clone() }.fit(&x, &y, 2).unwrap();
        let m2 = RandomForestClassifier { config: cfg }.fit(&x, &y, 2).unwrap();
        assert_eq!(m1.predict_proba(&x).unwrap(), m2.predict_proba(&x).unwrap());
    }
}
