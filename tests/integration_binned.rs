//! Integration tests for histogram-binned tree training.
//!
//! Three contracts pin the tentpole down:
//!
//! 1. **Exact mode is frozen.** `SplitMode::Exact` (the default) must
//!    reproduce the seed predictions bit-for-bit, at any thread count —
//!    the golden FNV hashes below were captured on the pre-binning tree
//!    code and the refactor may not move them.
//! 2. **Binned mode is a controlled approximation.** On the paper's
//!    datasets its quality stays within a fixed tolerance of exact
//!    splits, and it is deterministic across thread counts.
//! 3. **Quantization is order-preserving.** Bin codes are monotone in
//!    the underlying values (proptest), which is what makes a bin
//!    threshold equivalent to a value threshold at predict time.

use catdb_automl::BasicFeaturizer;
use catdb_data::{generate, GenOptions};
use catdb_ml::{
    metrics, BinnedDataset, BoostConfig, Classifier, DecisionTreeClassifier, DecisionTreeRegressor,
    ForestConfig, GradientBoostingClassifier, GradientBoostingRegressor, KnnClassifier, KnnConfig,
    Matrix, RandomForestClassifier, RandomForestRegressor, Regressor, SplitMode, TreeConfig,
};
use proptest::prelude::*;

/// Deterministic synthetic dataset shared by the golden tests: the same
/// LCG stream the hashes were captured from.
fn lcg_data(n: usize, d: usize) -> (Matrix, Vec<usize>, Vec<f64>) {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / ((1u64 << 31) as f64)
    };
    let rows: Vec<Vec<f64>> =
        (0..n).map(|_| (0..d).map(|_| next() * 8.0 - 4.0).collect()).collect();
    let y_class: Vec<usize> =
        rows.iter().map(|r| ((r[0] + r[1] * 0.5 - r[2]).sin() > 0.1) as usize).collect();
    let y_reg: Vec<f64> = rows.iter().map(|r| r[0] * 2.0 + (r[1] * r[2]).cos()).collect();
    (Matrix::from_rows(&rows), y_class, y_reg)
}

/// FNV-1a over the f64 bit patterns of a prediction stream.
fn hash_f64s(vals: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in vals {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

// Golden prediction hashes captured on the seed (pre-binning) ML code.
const GOLDEN_FOREST_CLASS: u64 = 0x326d0d318f88d957;
const GOLDEN_FOREST_REG: u64 = 0x212e3b082d131c04;
const GOLDEN_BOOST_CLASS: u64 = 0xe7e5e2ad7c6a85d4;
const GOLDEN_TREE_CLASS: u64 = 0xd8a6d159c35d8df8;
const GOLDEN_KNN_CLASS: u64 = 0x22cf7cbb5562efac;

#[test]
fn exact_mode_is_bit_identical_to_seed_goldens_at_any_thread_count() {
    let (x, yc, yr) = lcg_data(400, 10);
    for threads in [1usize, 2, 8] {
        let cfg = ForestConfig { n_trees: 12, seed: 99, n_threads: threads, ..Default::default() };
        let m = RandomForestClassifier { config: cfg }.fit(&x, &yc, 2).unwrap();
        let h = hash_f64s(m.predict_proba(&x).unwrap().into_iter().flatten());
        assert_eq!(h, GOLDEN_FOREST_CLASS, "forest classifier drifted at n_threads={threads}");

        let cfg = ForestConfig { n_trees: 12, seed: 99, n_threads: threads, ..Default::default() };
        let m = RandomForestRegressor { config: cfg }.fit(&x, &yr).unwrap();
        let h = hash_f64s(m.predict(&x).unwrap());
        assert_eq!(h, GOLDEN_FOREST_REG, "forest regressor drifted at n_threads={threads}");
    }

    let m = GradientBoostingClassifier {
        config: BoostConfig { n_rounds: 15, seed: 11, ..Default::default() },
    }
    .fit(&x, &yc, 2)
    .unwrap();
    let h = hash_f64s(m.predict_proba(&x).unwrap().into_iter().flatten());
    assert_eq!(h, GOLDEN_BOOST_CLASS, "gradient boosting drifted");

    let m = DecisionTreeClassifier { config: TreeConfig { max_depth: 8, ..Default::default() } }
        .fit(&x, &yc, 2)
        .unwrap();
    let h = hash_f64s(m.predict_proba(&x).unwrap().into_iter().flatten());
    assert_eq!(h, GOLDEN_TREE_CLASS, "decision tree drifted");

    let m = KnnClassifier { config: KnnConfig { k: 5 } }.fit(&x, &yc, 2).unwrap();
    let h = hash_f64s(m.predict_proba(&x).unwrap().into_iter().flatten());
    assert_eq!(h, GOLDEN_KNN_CLASS, "k-NN drifted");
}

// Exact-mode regressor goldens, captured on the sorted-scan split search
// before the rank-indexed search replaced it.
const GOLDEN_BOOST_REG: u64 = 0x19f519d7e56bcf48;
const GOLDEN_TREE_REG: u64 = 0x6d27ad98f09fb7c9;

#[test]
fn exact_mode_regressors_are_bit_identical_to_goldens() {
    let (x, _, yr) = lcg_data(400, 10);
    let m = GradientBoostingRegressor {
        config: BoostConfig { n_rounds: 15, seed: 11, ..Default::default() },
    }
    .fit(&x, &yr)
    .unwrap();
    assert_eq!(hash_f64s(m.predict(&x).unwrap()), GOLDEN_BOOST_REG, "boosting regressor drifted");

    let m = DecisionTreeRegressor { config: TreeConfig { max_depth: 8, ..Default::default() } }
        .fit(&x, &yr)
        .unwrap();
    assert_eq!(
        hash_f64s(m.predict(&x).unwrap()),
        GOLDEN_TREE_REG,
        "decision tree regressor drifted"
    );
}

/// Tie-heavy features: small integers, binary flags, a column mixing
/// `-0.0` and `+0.0` (equal under `==`, distinct under `total_cmp`), a
/// coarsely rounded continuous column, and a constant. Targets: three
/// classes and a noisy regression target.
fn tie_heavy_data(n: usize) -> (Matrix, Vec<usize>, Vec<f64>) {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            let small = (next() % 5) as f64;
            let flag = (next() % 2) as f64;
            let signed_zero = match next() % 5 {
                0 => -0.0,
                1 => 0.0,
                2 => 1.0,
                3 => -1.0,
                _ => 0.5,
            };
            let coarse = ((next() % 1000) as f64 / 100.0).round() / 2.0;
            let flag2 = (next() % 3 == 0) as u8 as f64;
            vec![small, flag, signed_zero, coarse, flag2, 7.0]
        })
        .collect();
    let y_class: Vec<usize> = rows
        .iter()
        .map(|r| ((r[0] + r[1] * 2.0 + r[2] + r[4]) as i64).rem_euclid(3) as usize)
        .collect();
    let y_reg: Vec<f64> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| r[0] * 1.5 - r[1] + r[2] * r[3] + ((i * 7919) % 13) as f64 / 13.0)
        .collect();
    (Matrix::from_rows(&rows), y_class, y_reg)
}

// Tie-heavy goldens, captured on the sorted-scan split search.
const GOLDEN_TIES_FOREST_CLASS: u64 = 0x5e137e4d8469e980;
const GOLDEN_TIES_FOREST_REG: u64 = 0x5ef9ae7f01d49f93;
const GOLDEN_TIES_BOOST_CLASS: u64 = 0xaad6e0bb85cdc465;
const GOLDEN_TIES_BOOST_REG: u64 = 0x97149041dcf5b183;
const GOLDEN_TIES_TREE_CLASS: u64 = 0xd8265f761eaa5b21;
const GOLDEN_TIES_TREE_REG: u64 = 0x4bedfcca609a5777;

#[test]
fn exact_mode_is_bit_identical_to_goldens_on_tie_heavy_features() {
    let (x, yc, yr) = tie_heavy_data(360);
    for threads in [1usize, 2, 8] {
        let cfg = ForestConfig { n_trees: 10, seed: 5, n_threads: threads, ..Default::default() };
        let m = RandomForestClassifier { config: cfg }.fit(&x, &yc, 3).unwrap();
        let h = hash_f64s(m.predict_proba(&x).unwrap().into_iter().flatten());
        assert_eq!(h, GOLDEN_TIES_FOREST_CLASS, "forest classifier drifted at n_threads={threads}");

        let cfg = ForestConfig { n_trees: 10, seed: 5, n_threads: threads, ..Default::default() };
        let m = RandomForestRegressor { config: cfg }.fit(&x, &yr).unwrap();
        let h = hash_f64s(m.predict(&x).unwrap());
        assert_eq!(h, GOLDEN_TIES_FOREST_REG, "forest regressor drifted at n_threads={threads}");
    }

    // Boosting and single trees take no thread count of their own (the
    // boosting classifier's class fan-out runs on the shared pool).
    let boost = BoostConfig { n_rounds: 12, seed: 3, ..Default::default() };
    let m = GradientBoostingClassifier { config: boost.clone() }.fit(&x, &yc, 3).unwrap();
    let h = hash_f64s(m.predict_proba(&x).unwrap().into_iter().flatten());
    assert_eq!(h, GOLDEN_TIES_BOOST_CLASS, "boosting classifier drifted");
    let m = GradientBoostingRegressor { config: boost }.fit(&x, &yr).unwrap();
    assert_eq!(
        hash_f64s(m.predict(&x).unwrap()),
        GOLDEN_TIES_BOOST_REG,
        "boosting regressor drifted"
    );

    let tree = TreeConfig { max_depth: 7, min_samples_leaf: 2, ..Default::default() };
    let m = DecisionTreeClassifier { config: tree.clone() }.fit(&x, &yc, 3).unwrap();
    let h = hash_f64s(m.predict_proba(&x).unwrap().into_iter().flatten());
    assert_eq!(h, GOLDEN_TIES_TREE_CLASS, "decision tree classifier drifted");
    let m = DecisionTreeRegressor { config: tree }.fit(&x, &yr).unwrap();
    assert_eq!(
        hash_f64s(m.predict(&x).unwrap()),
        GOLDEN_TIES_TREE_REG,
        "decision tree regressor drifted"
    );
}

#[test]
fn binned_mode_is_deterministic_across_thread_counts() {
    let (x, yc, _) = lcg_data(400, 10);
    let fit_hash = |threads: usize| {
        let cfg = ForestConfig {
            n_trees: 12,
            seed: 99,
            n_threads: threads,
            split_mode: SplitMode::Binned { bins: 256 },
            ..Default::default()
        };
        let m = RandomForestClassifier { config: cfg }.fit(&x, &yc, 2).unwrap();
        hash_f64s(m.predict_proba(&x).unwrap().into_iter().flatten())
    };
    let h1 = fit_hash(1);
    assert_eq!(h1, fit_hash(2), "binned forest differs between 1 and 2 threads");
    assert_eq!(h1, fit_hash(8), "binned forest differs between 1 and 8 threads");
}

/// Accuracy delta allowed between exact and binned split search on the
/// paper's datasets (Tables 7/8 workloads). Binning quantizes thresholds
/// to ≤255 candidates per feature, so small differences are expected;
/// large ones mean the histogram path is broken.
const CLASS_ACC_TOLERANCE: f64 = 0.05;
const REG_R2_TOLERANCE: f64 = 0.10;

#[test]
fn binned_classification_accuracy_tracks_exact_on_paper_datasets() {
    for name in ["diabetes", "cmc"] {
        let g = generate(name, &GenOptions { max_rows: 500, scale: 1.0, seed: 13 }).unwrap();
        let table = g.dataset.materialize().unwrap();
        let feat = BasicFeaturizer::fit(&table, &g.target).unwrap();
        let x = feat.transform(&table, &g.target).unwrap();
        let (y, _, n_classes) = feat.labels(&table, &table, &g.target).unwrap();

        let acc_for = |split_mode: SplitMode| {
            let cfg = ForestConfig { n_trees: 16, seed: 7, split_mode, ..Default::default() };
            let m = RandomForestClassifier { config: cfg }.fit(&x, &y, n_classes).unwrap();
            metrics::accuracy(&y, &m.predict(&x).unwrap())
        };
        let exact = acc_for(SplitMode::Exact);
        let binned = acc_for(SplitMode::Binned { bins: 256 });
        assert!(
            (exact - binned).abs() <= CLASS_ACC_TOLERANCE,
            "{name}: binned accuracy {binned:.4} strays from exact {exact:.4}"
        );
    }
}

#[test]
fn binned_regression_r2_tracks_exact_on_paper_datasets() {
    for name in ["bike-sharing", "utility"] {
        let g = generate(name, &GenOptions { max_rows: 500, scale: 1.0, seed: 13 }).unwrap();
        let table = g.dataset.materialize().unwrap();
        let feat = BasicFeaturizer::fit(&table, &g.target).unwrap();
        let x = feat.transform(&table, &g.target).unwrap();
        let (y, _) = feat.regression_targets(&table, &table, &g.target).unwrap();

        let r2_for = |split_mode: SplitMode| {
            let cfg = ForestConfig { n_trees: 16, seed: 7, split_mode, ..Default::default() };
            let m = RandomForestRegressor { config: cfg }.fit(&x, &y).unwrap();
            metrics::r2(&y, &m.predict(&x).unwrap())
        };
        let exact = r2_for(SplitMode::Exact);
        let binned = r2_for(SplitMode::Binned { bins: 256 });
        assert!(
            (exact - binned).abs() <= REG_R2_TOLERANCE,
            "{name}: binned R² {binned:.4} strays from exact {exact:.4}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quantization is monotone: for any column, a larger value never
    /// gets a smaller bin code. This is the invariant that makes
    /// "code ≤ b" equivalent to "value ≤ edges[b]" — trees trained on
    /// codes can store real-valued thresholds and predict on raw values.
    #[test]
    fn binning_is_monotone_in_the_underlying_values(
        vals in prop::collection::vec(-1e6f64..1e6, 2..300),
        bins in 2usize..=256,
    ) {
        let rows: Vec<Vec<f64>> = vals.iter().map(|&v| vec![v]).collect();
        let binned = BinnedDataset::build(&Matrix::from_rows(&rows), bins);
        let codes = binned.col_codes(0);
        prop_assert!(usize::from(*codes.iter().max().unwrap()) < binned.n_bins(0));
        for i in 0..vals.len() {
            for j in 0..vals.len() {
                if vals[i] < vals[j] {
                    prop_assert!(
                        codes[i] <= codes[j],
                        "value {} < {} but code {} > {}",
                        vals[i], vals[j], codes[i], codes[j]
                    );
                }
                if vals[i] == vals[j] {
                    prop_assert_eq!(codes[i], codes[j]);
                }
            }
        }
    }
}
