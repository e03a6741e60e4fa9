//! Column embeddings (Algorithm 1, lines 7–9).
//!
//! The paper sidesteps expensive exact dependency discovery by embedding
//! each column into a 300-dimensional vector and estimating inclusion
//! dependencies, similarities, and correlations from the embeddings —
//! "faster processing (a few seconds) with minor degradation in accuracy".
//!
//! The embedding here is a feature-hashed bag of values: every distinct
//! rendered value hashes to a deterministic ±1 pattern over the 300
//! dimensions; a column's embedding is the L2-normalized sum over its
//! distinct values. Columns sharing many values end up with high cosine
//! similarity, and a column whose value set is contained in another's has
//! high cosine *and* a smaller distinct count — the inclusion signal.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Embedding dimensionality (matches the paper's "vectors of length 300").
pub const EMBEDDING_DIM: usize = 300;

/// Deterministic ±1 pattern for a value, spread over `k` dimensions.
fn value_signature(value: &str) -> impl Iterator<Item = (usize, f64)> + '_ {
    // Derive k pseudo-random (dimension, sign) pairs from the value hash.
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    let mut state = h.finish() | 1;
    (0..8).map(move |_| {
        // xorshift64* step
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let r = state.wrapping_mul(0x2545F4914F6CDD1D);
        let dim = (r >> 8) as usize % EMBEDDING_DIM;
        let sign = if r & 1 == 0 { 1.0 } else { -1.0 };
        (dim, sign)
    })
}

/// An L2-normalized column embedding.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnEmbedding {
    v: Vec<f64>,
}

impl ColumnEmbedding {
    /// Embed a column from its distinct rendered values.
    pub fn from_distinct_values<'a>(values: impl Iterator<Item = &'a str>) -> ColumnEmbedding {
        let mut v = vec![0.0; EMBEDDING_DIM];
        for value in values {
            for (dim, sign) in value_signature(value) {
                v[dim] += sign;
            }
        }
        let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm > 1e-12 {
            for x in &mut v {
                *x /= norm;
            }
        }
        ColumnEmbedding { v }
    }

    /// Cosine similarity (both embeddings are unit length, so this is just
    /// the dot product).
    pub fn cosine(&self, other: &ColumnEmbedding) -> f64 {
        self.v.iter().zip(&other.v).map(|(a, b)| a * b).sum()
    }

    pub fn as_slice(&self) -> &[f64] {
        &self.v
    }
}

/// Estimated inclusion dependency: does `small`'s value set appear to be
/// contained in `big`'s? High when cos(small, big) is large relative to
/// what containment predicts given the distinct-count ratio.
pub fn inclusion_score(
    small: &ColumnEmbedding,
    big: &ColumnEmbedding,
    small_distinct: usize,
    big_distinct: usize,
) -> f64 {
    inclusion_from_cosine(small.cosine(big), small_distinct, big_distinct)
}

/// [`inclusion_score`] from an already computed `cos(small, big)`, so a
/// pairwise pass can compute each cosine once and score both directions.
pub fn inclusion_from_cosine(cos: f64, small_distinct: usize, big_distinct: usize) -> f64 {
    if small_distinct == 0 || big_distinct == 0 || small_distinct > big_distinct {
        return 0.0;
    }
    // If small ⊆ big, the expected cosine is ≈ sqrt(|small| / |big|)
    // (shared mass over the larger set's norm). Score = observed/expected.
    let expected = (small_distinct as f64 / big_distinct as f64).sqrt();
    (cos / expected).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn embed(values: &[&str]) -> ColumnEmbedding {
        ColumnEmbedding::from_distinct_values(values.iter().copied())
    }

    #[test]
    fn identical_value_sets_have_cosine_one() {
        let a = embed(&["x", "y", "z"]);
        let b = embed(&["z", "y", "x"]);
        assert!((a.cosine(&b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_value_sets_have_low_cosine() {
        let a = embed(
            &(0..50)
                .map(|i| format!("a{i}"))
                .collect::<Vec<_>>()
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>(),
        );
        let b = embed(
            &(0..50)
                .map(|i| format!("b{i}"))
                .collect::<Vec<_>>()
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>(),
        );
        assert!(a.cosine(&b).abs() < 0.3);
    }

    #[test]
    fn overlap_increases_similarity_monotonically() {
        let base: Vec<String> = (0..40).map(|i| format!("v{i}")).collect();
        let a = ColumnEmbedding::from_distinct_values(base.iter().map(|s| s.as_str()));
        let half: Vec<&str> = base[..20].iter().map(|s| s.as_str()).chain(["q1", "q2"]).collect();
        let none: Vec<&str> = vec!["w1", "w2", "w3"];
        let sim_half = a.cosine(&ColumnEmbedding::from_distinct_values(half.into_iter()));
        let sim_none = a.cosine(&ColumnEmbedding::from_distinct_values(none.into_iter()));
        assert!(sim_half > sim_none + 0.2, "half {sim_half} none {sim_none}");
    }

    #[test]
    fn inclusion_detects_subset() {
        let big_vals: Vec<String> = (0..100).map(|i| format!("id{i}")).collect();
        let small_vals: Vec<&str> = big_vals[..20].iter().map(|s| s.as_str()).collect();
        let big = ColumnEmbedding::from_distinct_values(big_vals.iter().map(|s| s.as_str()));
        let small = ColumnEmbedding::from_distinct_values(small_vals.iter().copied());
        let score_in = inclusion_score(&small, &big, 20, 100);
        assert!(score_in > 0.8, "inclusion score {score_in}");

        let other_vals: Vec<String> = (0..20).map(|i| format!("zz{i}")).collect();
        let other = ColumnEmbedding::from_distinct_values(other_vals.iter().map(|s| s.as_str()));
        let score_out = inclusion_score(&other, &big, 20, 100);
        assert!(score_out < 0.5, "non-inclusion score {score_out}");
    }

    #[test]
    fn empty_embedding_is_zero_and_harmless() {
        let e = embed(&[]);
        assert!(e.cosine(&embed(&["x"])).abs() < 1e-9);
        assert_eq!(inclusion_score(&e, &e, 0, 0), 0.0);
    }
}
