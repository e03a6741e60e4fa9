//! Gradient boosting over shallow regression trees: squared loss for
//! regression, one-vs-rest logistic loss for classification.

use crate::estimator::{
    check_finite, validate_classification, validate_regression, Classifier, ClassifierModel,
    Regressor, RegressorModel, Result,
};
use crate::matrix::Matrix;
use crate::tree::{fit_reg_tree, split_index, SplitMode, TreeConfig, TreeRegressorModel};

/// Boosting hyper-parameters.
#[derive(Debug, Clone)]
pub struct BoostConfig {
    pub n_rounds: usize,
    pub learning_rate: f64,
    pub max_depth: usize,
    pub seed: u64,
    /// Split-search strategy shared by every stage tree.
    pub split_mode: SplitMode,
}

impl Default for BoostConfig {
    fn default() -> Self {
        BoostConfig {
            n_rounds: 60,
            learning_rate: 0.15,
            max_depth: 4,
            seed: 11,
            split_mode: SplitMode::Exact,
        }
    }
}

fn stage_config(cfg: &BoostConfig, round: u64) -> TreeConfig {
    TreeConfig {
        max_depth: cfg.max_depth,
        min_samples_leaf: 3,
        max_thresholds: 16,
        feature_subsample: None,
        seed: cfg.seed ^ round.wrapping_mul(0x51D_7EAD),
        split_mode: cfg.split_mode,
    }
}

/// Gradient-boosted regressor (squared loss; each stage fits residuals).
#[derive(Debug, Clone, Default)]
pub struct GradientBoostingRegressor {
    pub config: BoostConfig,
}

struct BoostRegModel {
    base: f64,
    stages: Vec<TreeRegressorModel>,
    learning_rate: f64,
}

impl Regressor for GradientBoostingRegressor {
    fn name(&self) -> &'static str {
        "gradient_boosting"
    }

    fn fit(&self, x: &Matrix, y: &[f64]) -> Result<Box<dyn RegressorModel>> {
        validate_regression(x, y)?;
        let base = y.iter().sum::<f64>() / y.len() as f64;
        let mut pred = vec![base; y.len()];
        let mut stages = Vec::with_capacity(self.config.n_rounds);
        // The feature matrix never changes across rounds: index it once.
        let index = split_index(x, &stage_config(&self.config, 0));
        for round in 0..self.config.n_rounds {
            let residuals: Vec<f64> = y.iter().zip(&pred).map(|(t, p)| t - p).collect();
            let tree = fit_reg_tree(
                x,
                &residuals,
                (0..x.rows()).collect(),
                &stage_config(&self.config, round as u64),
                &index,
            );
            let update = tree.predict_unchecked(x);
            for (p, u) in pred.iter_mut().zip(&update) {
                *p += self.config.learning_rate * u;
            }
            stages.push(tree);
        }
        Ok(Box::new(BoostRegModel { base, stages, learning_rate: self.config.learning_rate }))
    }
}

impl RegressorModel for BoostRegModel {
    fn predict(&self, x: &Matrix) -> Result<Vec<f64>> {
        check_finite(x, "prediction features")?;
        let mut pred = vec![self.base; x.rows()];
        for tree in &self.stages {
            for (p, u) in pred.iter_mut().zip(tree.predict_unchecked(x)) {
                *p += self.learning_rate * u;
            }
        }
        Ok(pred)
    }
}

/// Gradient-boosted classifier: per-class logistic boosting on the
/// one-vs-rest targets, probabilities via softmax over class margins.
#[derive(Debug, Clone, Default)]
pub struct GradientBoostingClassifier {
    pub config: BoostConfig,
}

struct BoostClassModel {
    /// Per-class (prior logit, stages).
    classes: Vec<(f64, Vec<TreeRegressorModel>)>,
    learning_rate: f64,
    n_classes: usize,
}

impl Classifier for GradientBoostingClassifier {
    fn name(&self) -> &'static str {
        "gradient_boosting"
    }

    fn fit(&self, x: &Matrix, y: &[usize], n_classes: usize) -> Result<Box<dyn ClassifierModel>> {
        validate_classification(x, y, n_classes)?;
        let n = x.rows() as f64;
        // Rounds within a class are sequential (each stage fits the
        // previous margin's gradient), but the one-vs-rest classes are
        // independent: train them in parallel on the shared runtime.
        // Stage seeds depend only on (class, round), so the ensemble is
        // identical no matter how many threads participate.
        let class_ids: Vec<usize> = (0..n_classes).collect();
        let limit = catdb_runtime::pool_size().saturating_add(1);
        // One shared split index across every class and round.
        let index = split_index(x, &stage_config(&self.config, 0));
        let classes = catdb_runtime::parallel_map(limit, &class_ids, |_, &c| {
            let targets: Vec<f64> = y.iter().map(|&l| (l == c) as usize as f64).collect();
            let pos = targets.iter().sum::<f64>().clamp(1.0, n - 1.0);
            let prior = (pos / (n - pos)).ln();
            let mut margin = vec![prior; y.len()];
            let mut stages = Vec::with_capacity(self.config.n_rounds);
            for round in 0..self.config.n_rounds {
                // Negative gradient of logistic loss: t − σ(margin).
                let grad: Vec<f64> = targets
                    .iter()
                    .zip(&margin)
                    .map(|(t, m)| t - 1.0 / (1.0 + (-m).exp()))
                    .collect();
                let tree = fit_reg_tree(
                    x,
                    &grad,
                    (0..x.rows()).collect(),
                    &stage_config(&self.config, (c * self.config.n_rounds + round) as u64),
                    &index,
                );
                for (m, u) in margin.iter_mut().zip(tree.predict_unchecked(x)) {
                    *m += self.config.learning_rate * u;
                }
                stages.push(tree);
            }
            (prior, stages)
        });
        Ok(Box::new(BoostClassModel {
            classes,
            learning_rate: self.config.learning_rate,
            n_classes,
        }))
    }
}

impl ClassifierModel for BoostClassModel {
    fn predict_proba(&self, x: &Matrix) -> Result<Vec<Vec<f64>>> {
        check_finite(x, "prediction features")?;
        let mut margins = vec![vec![0.0; self.n_classes]; x.rows()];
        for (c, (prior, stages)) in self.classes.iter().enumerate() {
            let mut m = vec![*prior; x.rows()];
            for tree in stages {
                for (mi, u) in m.iter_mut().zip(tree.predict_unchecked(x)) {
                    *mi += self.learning_rate * u;
                }
            }
            for (row, mi) in margins.iter_mut().zip(m) {
                row[c] = mi;
            }
        }
        // Softmax over class margins.
        for row in &mut margins {
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        Ok(margins)
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy, r2};

    #[test]
    fn boosting_fits_nonlinear_regression() {
        let rows: Vec<Vec<f64>> = (0..150).map(|i| vec![i as f64 / 10.0]).collect();
        let y: Vec<f64> = rows.iter().map(|r| (r[0]).sin() * 5.0 + r[0]).collect();
        let x = Matrix::from_rows(&rows);
        let model = GradientBoostingRegressor::default().fit(&x, &y).unwrap();
        let pred = model.predict(&x).unwrap();
        assert!(r2(&y, &pred) > 0.95);
    }

    #[test]
    fn boosting_classifies_rings() {
        // Inner square class 0, outer ring class 1.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                let a = (i as f64 - 10.0) / 10.0;
                let b = (j as f64 - 10.0) / 10.0;
                rows.push(vec![a, b]);
                y.push(((a * a + b * b) > 0.5) as usize);
            }
        }
        let x = Matrix::from_rows(&rows);
        let cfg = BoostConfig { n_rounds: 30, ..Default::default() };
        let model = GradientBoostingClassifier { config: cfg }.fit(&x, &y, 2).unwrap();
        let pred = model.predict(&x).unwrap();
        assert!(accuracy(&y, &pred) > 0.93);
    }

    #[test]
    fn boosting_multiclass_probabilities_normalize() {
        let rows: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let y: Vec<usize> = (0..30).map(|i| i / 10).collect();
        let x = Matrix::from_rows(&rows);
        let cfg = BoostConfig { n_rounds: 10, ..Default::default() };
        let model = GradientBoostingClassifier { config: cfg }.fit(&x, &y, 3).unwrap();
        for p in model.predict_proba(&x).unwrap() {
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        let pred = model.predict(&x).unwrap();
        assert!(accuracy(&y, &pred) > 0.9);
    }
}
