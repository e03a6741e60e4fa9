//! # catdb-profiler — data profiling (paper Algorithm 1)
//!
//! Extracts, for every column of a [`catdb_table::Table`]: schema and data
//! type, an ML feature type (numerical / categorical / boolean / sentence /
//! list), distinct and missing percentages, basic statistics, value samples
//! (all distinct values for categoricals, τ₁ random values otherwise), and
//! embedding-estimated inclusion dependencies / similarities /
//! correlations, using 300-dimensional hashed column embeddings exactly as
//! the paper describes ("faster processing with minor degradation").
//!
//! The output [`DataProfile`] is the raw material for the data catalog
//! (`catdb-catalog`) and ultimately for prompt construction.

mod embedding;
mod pairwise;
mod profile;
mod sketch;
mod types;

pub use embedding::{inclusion_score, ColumnEmbedding, EMBEDDING_DIM};
pub use profile::{
    profile_chunked, profile_csv_stream, profile_table, ProfileMode, ProfileOptions,
    COUNTER_PROFILER_CHUNKS, COUNTER_PROFILER_PEAK_CHUNK_RSS, COUNTER_PROFILER_SKETCH_MERGES,
    SPAN_PROFILE_CHUNK,
};
pub use sketch::{
    ColumnSketch, DistinctSketch, MomentSketch, PairMoments, QuantileSketch, DISTINCT_K, QUANTILE_K,
};
pub use types::{ColumnProfile, DataProfile, FeatureType, NumericStats};
