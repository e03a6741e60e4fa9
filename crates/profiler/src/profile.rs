//! Algorithm 1 — PROFILING(D, τ₁): extract per-column metadata, feature
//! types, dependencies (via embeddings), samples, and statistics.

use crate::embedding::{inclusion_from_cosine, ColumnEmbedding};
use crate::pairwise::{NumericView, PairCorrelations};
use crate::sketch::{ColumnSketch, PairMoments};
use crate::types::{ColumnProfile, DataProfile, FeatureType, NumericStats};
use catdb_table::{
    column_dict, table_fingerprint, ChunkedTable, Column, DataType, Table, ValueDict,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Counter name for profile-memo cache hits.
pub const COUNTER_PROFILE_MEMO_HITS: &str = "profile.memo_hits";
/// Counter name for profile-memo cache misses (full profiling runs).
pub const COUNTER_PROFILE_MEMO_MISSES: &str = "profile.memo_misses";
/// Counter: chunks folded into sketches by sketch-mode profiling.
pub const COUNTER_PROFILER_CHUNKS: &str = "profiler.chunks";
/// Counter: sketch merge operations (column + pair sketches).
pub const COUNTER_PROFILER_SKETCH_MERGES: &str = "profiler.sketch_merges";
/// High-water counter: largest resident chunk during sketch profiling.
pub const COUNTER_PROFILER_PEAK_CHUNK_RSS: &str = "profiler.peak_chunk_rss";
/// Span wrapping the processing of one chunk in sketch mode.
pub const SPAN_PROFILE_CHUNK: &str = "profile_chunk";

/// How `profile_table` computes its statistics.
///
/// `Exact` is the default and is bit-frozen: the golden tests pin its
/// output against the pre-sketch profiler. `Sketch` computes mergeable
/// single-pass sketches per `chunk_rows`-row chunk, merged in fixed
/// chunk order — byte-identical at any `CATDB_THREADS`, within
/// documented error bounds of exact, and the only mode usable on
/// out-of-core [`ChunkedTable`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProfileMode {
    #[default]
    Exact,
    Sketch {
        chunk_rows: usize,
    },
}

impl ProfileMode {
    /// Parse `exact`, `sketch`, or `sketch:<chunk_rows>`.
    pub fn parse(s: &str) -> std::result::Result<ProfileMode, String> {
        match s {
            "exact" => Ok(ProfileMode::Exact),
            "sketch" => Ok(ProfileMode::Sketch { chunk_rows: catdb_table::DEFAULT_CHUNK_ROWS }),
            other => match other.strip_prefix("sketch:") {
                Some(n) => {
                    let chunk_rows: usize =
                        n.parse().map_err(|_| format!("invalid chunk rows `{n}`"))?;
                    if chunk_rows == 0 {
                        return Err("chunk rows must be at least 1".to_string());
                    }
                    Ok(ProfileMode::Sketch { chunk_rows })
                }
                None => Err(format!(
                    "unknown profile mode `{other}` (expected `exact`, `sketch`, or \
                     `sketch:<chunk_rows>`)"
                )),
            },
        }
    }
}

impl fmt::Display for ProfileMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileMode::Exact => write!(f, "exact"),
            ProfileMode::Sketch { chunk_rows } => write!(f, "sketch:{chunk_rows}"),
        }
    }
}

/// Profiling options.
#[derive(Debug, Clone)]
pub struct ProfileOptions {
    /// τ₁ — samples stored per non-categorical column.
    pub n_samples: usize,
    /// Distinct-ratio threshold under which a column counts as categorical.
    pub categorical_distinct_ratio: f64,
    /// Absolute distinct-count cap for categoricals.
    pub categorical_max_distinct: usize,
    /// Cosine-similarity threshold for reporting column similarities.
    pub similarity_threshold: f64,
    /// Inclusion-score threshold for reporting inclusion dependencies.
    pub inclusion_threshold: f64,
    /// Worker threads for per-column extraction.
    pub n_threads: usize,
    pub seed: u64,
    /// Exact in-memory statistics (default) or chunked sketches.
    pub mode: ProfileMode,
}

impl Default for ProfileOptions {
    fn default() -> Self {
        ProfileOptions {
            n_samples: 10,
            categorical_distinct_ratio: 0.05,
            categorical_max_distinct: 50,
            similarity_threshold: 0.5,
            inclusion_threshold: 0.75,
            n_threads: 4,
            seed: 1234,
            mode: ProfileMode::Exact,
        }
    }
}

/// Dictionary over the column's non-null rendered values (sorted, same
/// order the old `BTreeSet<String>` iterated in), plus the frequency
/// ratio of the most common value. Each distinct raw value is rendered
/// exactly once, and the dictionary is shared across passes through the
/// content-addressed cache in `catdb-table`.
fn distinct_values(col: &Column) -> (Arc<ValueDict>, f64) {
    let dict = column_dict(col);
    let ratio =
        if dict.non_null() == 0 { 0.0 } else { dict.max_count() as f64 / dict.non_null() as f64 };
    (dict, ratio)
}

fn numeric_stats(view: &NumericView) -> Option<NumericStats> {
    let mut vals: Vec<f64> = view.present().collect();
    if vals.is_empty() {
        return None;
    }
    vals.sort_by(|a, b| a.total_cmp(b));
    let n = vals.len() as f64;
    let mean = vals.iter().sum::<f64>() / n;
    let std = (vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n).sqrt();
    let mid = vals.len() / 2;
    let median =
        if vals.len().is_multiple_of(2) { (vals[mid - 1] + vals[mid]) / 2.0 } else { vals[mid] };
    Some(NumericStats { min: vals[0], max: *vals.last().expect("non-empty"), mean, median, std })
}

/// Heuristic feature-type detection for the initial (pre-LLM) profile.
/// Takes the dtype (not the column) so the sketch finalizer — which
/// never holds a column — shares the exact path's rules verbatim.
fn detect_feature_type(
    dtype: DataType,
    distinct: usize,
    non_null: usize,
    opts: &ProfileOptions,
) -> FeatureType {
    match dtype {
        DataType::Bool => FeatureType::Boolean,
        DataType::Int | DataType::Float => {
            let ratio = if non_null == 0 { 0.0 } else { distinct as f64 / non_null as f64 };
            if distinct <= 2 {
                FeatureType::Boolean
            } else if distinct <= opts.categorical_max_distinct
                && ratio <= opts.categorical_distinct_ratio
            {
                // Few distinct integers over many rows: a coded categorical
                // (the paper's "7 distinct integer values" example).
                FeatureType::Categorical
            } else {
                FeatureType::Numerical
            }
        }
        DataType::Str => {
            let ratio = if non_null == 0 { 0.0 } else { distinct as f64 / non_null as f64 };
            if distinct <= opts.categorical_max_distinct && ratio <= 0.5 {
                FeatureType::Categorical
            } else {
                // High-cardinality text: sentence candidates for the
                // LLM-assisted refinement (which may split them into
                // categorical / list features).
                FeatureType::Sentence
            }
        }
    }
}

struct PartialProfile {
    n_distinct: usize,
    embedding: ColumnEmbedding,
    /// Dense values of a numeric column, for the pairwise pass.
    view: Option<NumericView>,
    profile: ColumnProfile,
    micros: u64,
}

struct MemoEntry {
    profile: DataProfile,
    /// `(column, feature_type, micros)` of the original run, re-emitted
    /// on every memo hit so trace consumers (Figure 9) still see the
    /// per-column events.
    column_events: Vec<(String, String, u64)>,
}

const MEMO_CAP: usize = 64;

fn memo() -> &'static Mutex<HashMap<(u128, u64), MemoEntry>> {
    static MEMO: OnceLock<Mutex<HashMap<(u128, u64), MemoEntry>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Hash every knob that influences the profile, so the memo never serves
/// a result computed under different options (including `n_threads`,
/// which must not matter — the determinism tests rely on recomputing).
fn options_key(name: &str, opts: &ProfileOptions) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    name.hash(&mut h);
    opts.n_samples.hash(&mut h);
    opts.categorical_distinct_ratio.to_bits().hash(&mut h);
    opts.categorical_max_distinct.hash(&mut h);
    opts.similarity_threshold.to_bits().hash(&mut h);
    opts.inclusion_threshold.to_bits().hash(&mut h);
    opts.n_threads.hash(&mut h);
    opts.seed.hash(&mut h);
    match opts.mode {
        ProfileMode::Exact => 0u8.hash(&mut h),
        ProfileMode::Sketch { chunk_rows } => {
            1u8.hash(&mut h);
            chunk_rows.hash(&mut h);
        }
    }
    h.finish()
}

/// Run Algorithm 1 over a table.
///
/// Results are memoized per (table content, dataset name, options):
/// bench bins and candidate-pipeline loops re-profile identical tables
/// dozens of times, and the second pass is served from the memo (with the
/// original per-column trace events re-emitted).
pub fn profile_table(name: &str, table: &Table, opts: &ProfileOptions) -> DataProfile {
    let _span = catdb_trace::span("profile_table");
    let key = (table_fingerprint(table), options_key(name, opts));
    if let Some(entry) = memo().lock().unwrap().get(&key) {
        catdb_trace::add_counter(COUNTER_PROFILE_MEMO_HITS, 1.0);
        for (column, feature_type, micros) in &entry.column_events {
            catdb_trace::emit(catdb_trace::TraceEvent::ProfileColumn {
                column: column.clone(),
                feature_type: feature_type.clone(),
                micros: *micros,
            });
        }
        return entry.profile.clone();
    }
    catdb_trace::add_counter(COUNTER_PROFILE_MEMO_MISSES, 1.0);

    let (profile, column_events) = match opts.mode {
        ProfileMode::Exact => profile_exact(name, table, opts),
        ProfileMode::Sketch { chunk_rows } => profile_sketch_table(name, table, chunk_rows, opts),
    };

    let mut memo = memo().lock().unwrap();
    if memo.len() >= MEMO_CAP {
        memo.clear();
    }
    memo.insert(key, MemoEntry { profile: profile.clone(), column_events });
    profile
}

/// The frozen exact path: whole-column statistics over the in-memory
/// table. Golden tests pin this output bit-for-bit.
fn profile_exact(
    name: &str,
    table: &Table,
    opts: &ProfileOptions,
) -> (DataProfile, Vec<(String, String, u64)>) {
    let started = Instant::now();
    let n_rows = table.n_rows();
    let fields: Vec<(usize, String)> =
        table.schema().names().iter().enumerate().map(|(i, n)| (i, n.to_string())).collect();

    // Per-column extraction on the shared runtime (profiling large wide
    // tables is the dominant offline cost — Figure 9a). Results come back
    // in schema order regardless of how the pool schedules the columns.
    let n_threads = opts.n_threads.max(1);
    let partials: Vec<PartialProfile> =
        catdb_runtime::parallel_map(n_threads, &fields, |_, (idx, name)| {
            let col_started = Instant::now();
            let col = table.column_at(*idx);
            let (distinct, top_value_ratio) = distinct_values(col);
            let non_null = distinct.non_null();
            let missing = n_rows - non_null;
            let feature_type =
                detect_feature_type(col.dtype(), distinct.n_distinct(), non_null, opts);
            let embedding =
                ColumnEmbedding::from_distinct_values(distinct.values().iter().map(|s| s.as_str()));
            // Samples: all distinct values for categoricals, else τ₁
            // random values (Algorithm 1, line 10). The shuffle's draws
            // depend only on the length, so shuffling indices picks the
            // same values as shuffling the values themselves.
            let samples = if matches!(feature_type, FeatureType::Categorical | FeatureType::Boolean)
            {
                distinct.values().to_vec()
            } else {
                let mut rng = StdRng::seed_from_u64(opts.seed ^ *idx as u64);
                let mut pick: Vec<usize> = (0..distinct.n_distinct()).collect();
                pick.shuffle(&mut rng);
                pick.truncate(opts.n_samples);
                pick.into_iter().map(|k| distinct.values()[k].clone()).collect()
            };
            let view = NumericView::new(col);
            let statistics = if feature_type == FeatureType::Numerical {
                view.as_ref().and_then(numeric_stats)
            } else {
                None
            };
            let profile = ColumnProfile {
                name: name.clone(),
                data_type: col.dtype(),
                feature_type,
                n_rows,
                distinct_count: distinct.n_distinct(),
                distinct_percentage: if non_null == 0 {
                    0.0
                } else {
                    distinct.n_distinct() as f64 / non_null as f64
                },
                missing_count: missing,
                missing_percentage: if n_rows == 0 { 0.0 } else { missing as f64 / n_rows as f64 },
                top_value_ratio,
                inclusion_dependencies: Vec::new(),
                similarities: Vec::new(),
                correlations: Vec::new(),
                samples,
                statistics,
            };
            PartialProfile {
                n_distinct: distinct.n_distinct(),
                embedding,
                view,
                profile,
                micros: col_started.elapsed().as_micros() as u64,
            }
        });

    // Emit after the parallel join, in column order, so the event stream is
    // deterministic regardless of worker interleaving.
    for p in &partials {
        catdb_trace::emit(catdb_trace::TraceEvent::ProfileColumn {
            column: p.profile.name.clone(),
            feature_type: p.profile.feature_type.label().to_string(),
            micros: p.micros,
        });
    }

    let column_events: Vec<(String, String, u64)> = partials
        .iter()
        .map(|p| (p.profile.name.clone(), p.profile.feature_type.label().to_string(), p.micros))
        .collect();

    // Pairwise pass: exact correlations among numeric columns from the
    // tiled kernel, then similarities and inclusion dependencies from
    // the embeddings.
    let (numeric, views): (Vec<usize>, Vec<&NumericView>) =
        partials.iter().enumerate().filter_map(|(i, p)| Some((i, p.view.as_ref()?))).unzip();
    let corr = PairCorrelations::compute(&views, n_threads);
    let mut view_of = vec![None; partials.len()];
    for (p, &i) in numeric.iter().enumerate() {
        view_of[i] = Some(p);
    }

    let mut profiles = Vec::with_capacity(partials.len());
    let mut embeddings = Vec::with_capacity(partials.len());
    let mut distincts = Vec::with_capacity(partials.len());
    for p in partials {
        profiles.push(p.profile);
        embeddings.push(p.embedding);
        distincts.push(p.n_distinct);
    }
    link_columns(&mut profiles, &embeddings, &distincts, opts, |i, j| {
        Some(corr.get(view_of[i]?, view_of[j]?))
    });

    let profile = DataProfile {
        dataset_name: name.to_string(),
        n_rows,
        columns: profiles,
        elapsed_seconds: started.elapsed().as_secs_f64(),
    };
    (profile, column_events)
}

/// The pairwise pass both profiling paths share: similarities and
/// inclusion dependencies from the embeddings, correlations from `corr`
/// (`Some` only for numeric pairs, asked with `i < j`). Each cosine is
/// computed once per unordered pair, on the runtime pool, and serves the
/// similarity and both inclusion directions (it is symmetric bit for
/// bit). The pushes then replay one fixed order, so the output does not
/// depend on the thread count.
fn link_columns(
    profiles: &mut [ColumnProfile],
    embeddings: &[ColumnEmbedding],
    distincts: &[usize],
    opts: &ProfileOptions,
    corr: impl Fn(usize, usize) -> Option<f64>,
) {
    let m = profiles.len();
    let names: Vec<String> = profiles.iter().map(|p| p.name.clone()).collect();
    let rows: Vec<usize> = (0..m).collect();
    let cosines: Vec<Vec<f64>> =
        catdb_runtime::parallel_map(opts.n_threads.max(1), &rows, |_, &i| {
            embeddings[i + 1..].iter().map(|e| embeddings[i].cosine(e)).collect()
        });
    let cosine = |i: usize, j: usize| {
        let (a, b) = (i.min(j), i.max(j));
        cosines[a][b - a - 1]
    };
    for i in 0..m {
        for j in (0..m).filter(|&j| j != i) {
            let cos = cosine(i, j);
            if i < j {
                if cos >= opts.similarity_threshold {
                    profiles[i].similarities.push((names[j].clone(), cos));
                    profiles[j].similarities.push((names[i].clone(), cos));
                }
                if let Some(corr) = corr(i, j) {
                    if corr >= 0.3 {
                        profiles[i].correlations.push((names[j].clone(), corr));
                        profiles[j].correlations.push((names[i].clone(), corr));
                    }
                }
            }
            // Inclusion: is column i's value set inside column j's?
            if distincts[i] >= 2
                && inclusion_from_cosine(cos, distincts[i], distincts[j])
                    >= opts.inclusion_threshold
            {
                profiles[i].inclusion_dependencies.push(names[j].clone());
            }
        }
        profiles[i].similarities.sort_by(|x, y| y.1.total_cmp(&x.1).then_with(|| x.0.cmp(&y.0)));
        profiles[i].correlations.sort_by(|x, y| y.1.total_cmp(&x.1).then_with(|| x.0.cmp(&y.0)));
    }
}

// ---------------------------------------------------------------------------
// Sketch mode: chunked single-pass profiling.
// ---------------------------------------------------------------------------

/// Accumulated sketch state across chunks: one [`ColumnSketch`] per
/// column plus bivariate [`PairMoments`] per numeric column pair.
struct SketchAccum {
    cols: Vec<ColumnSketch>,
    /// `(i, j)` column indices of every numeric pair, `i < j`, in the
    /// iteration order of the exact pairwise pass.
    pair_idx: Vec<(usize, usize)>,
    pairs: Vec<PairMoments>,
    merges: u64,
}

impl SketchAccum {
    fn new(fields: &[(String, DataType)]) -> SketchAccum {
        let mut pair_idx = Vec::new();
        for i in 0..fields.len() {
            for j in i + 1..fields.len() {
                if fields[i].1.is_numeric() && fields[j].1.is_numeric() {
                    pair_idx.push((i, j));
                }
            }
        }
        SketchAccum {
            cols: fields.iter().map(|_| ColumnSketch::default()).collect(),
            pairs: vec![PairMoments::default(); pair_idx.len()],
            pair_idx,
            merges: 0,
        }
    }

    /// Fold one chunk in: per-column sketches are computed on the
    /// runtime pool (input-ordered), then merged sequentially in column
    /// order — chunk arrival order is fixed by the caller, so the final
    /// state is identical at any thread count.
    fn fold_chunk(&mut self, chunk: &Table, n_threads: usize) {
        let _span = catdb_trace::span(SPAN_PROFILE_CHUNK);
        catdb_trace::add_counter(COUNTER_PROFILER_CHUNKS, 1.0);
        catdb_trace::max_counter(COUNTER_PROFILER_PEAK_CHUNK_RSS, chunk.approx_bytes() as f64);
        let idx: Vec<usize> = (0..chunk.n_cols()).collect();
        let parts: Vec<ColumnSketch> = catdb_runtime::parallel_map(n_threads, &idx, |_, &c| {
            let started = Instant::now();
            let mut s = ColumnSketch::default();
            s.update(chunk.column_at(c));
            s.micros = started.elapsed().as_micros() as u64;
            s
        });
        for (acc, part) in self.cols.iter_mut().zip(&parts) {
            acc.merge(part);
            self.merges += 1;
        }
        if !self.pair_idx.is_empty() {
            // One f64 view per numeric column, shared by all its pairs.
            let mut views: Vec<Option<Vec<Option<f64>>>> = vec![None; chunk.n_cols()];
            for &(i, j) in &self.pair_idx {
                for c in [i, j] {
                    if views[c].is_none() {
                        views[c] = Some(chunk.column_at(c).to_f64_vec());
                    }
                }
            }
            let parts: Vec<PairMoments> =
                catdb_runtime::parallel_map(n_threads, &self.pair_idx, |_, &(i, j)| {
                    let mut p = PairMoments::default();
                    p.update(
                        views[i].as_deref().expect("numeric view materialized"),
                        views[j].as_deref().expect("numeric view materialized"),
                    );
                    p
                });
            for (acc, part) in self.pairs.iter_mut().zip(&parts) {
                acc.merge(part);
                self.merges += 1;
            }
        }
    }
}

/// Turn accumulated sketches into a [`DataProfile`], mirroring the
/// exact path's structure (feature typing, thresholds, sort orders)
/// with sketch estimates in place of exact scans. Emits the per-column
/// trace events and returns them for memoization.
fn finalize_sketch(
    name: &str,
    fields: &[(String, DataType)],
    n_rows: usize,
    acc: &SketchAccum,
    opts: &ProfileOptions,
    started: Instant,
) -> (DataProfile, Vec<(String, String, u64)>) {
    catdb_trace::add_counter(COUNTER_PROFILER_SKETCH_MERGES, acc.merges as f64);
    let mut profiles: Vec<ColumnProfile> = Vec::with_capacity(fields.len());
    let mut embeddings: Vec<ColumnEmbedding> = Vec::with_capacity(fields.len());
    let mut distincts: Vec<usize> = Vec::with_capacity(fields.len());
    for ((col_name, dtype), sk) in fields.iter().zip(&acc.cols) {
        let non_null = sk.non_null as usize;
        let missing = n_rows - non_null;
        let distinct_count = sk.distinct.estimate();
        let feature_type = detect_feature_type(*dtype, distinct_count, non_null, opts);
        let values = sk.distinct.sorted_values();
        let embedding =
            ColumnEmbedding::from_distinct_values(values.iter().map(|(v, _)| v.as_str()));
        // Samples: all retained values for categoricals (exact below
        // the sketch's K), else the deterministic min-hash sample.
        let samples = if matches!(feature_type, FeatureType::Categorical | FeatureType::Boolean) {
            values.iter().map(|(v, _)| v.clone()).collect()
        } else {
            sk.distinct.sample(opts.n_samples)
        };
        let statistics =
            (feature_type == FeatureType::Numerical && sk.moments.n > 0).then(|| NumericStats {
                min: sk.moments.min,
                max: sk.moments.max,
                mean: sk.moments.mean,
                median: sk.quantiles.query(0.5).unwrap_or(sk.moments.mean),
                std: sk.moments.std(),
            });
        profiles.push(ColumnProfile {
            name: col_name.clone(),
            data_type: *dtype,
            feature_type,
            n_rows,
            distinct_count,
            distinct_percentage: if non_null == 0 {
                0.0
            } else {
                distinct_count as f64 / non_null as f64
            },
            missing_count: missing,
            missing_percentage: if n_rows == 0 { 0.0 } else { missing as f64 / n_rows as f64 },
            top_value_ratio: if non_null == 0 {
                0.0
            } else {
                sk.distinct.max_count() as f64 / non_null as f64
            },
            inclusion_dependencies: Vec::new(),
            similarities: Vec::new(),
            correlations: Vec::new(),
            samples,
            statistics,
        });
        embeddings.push(embedding);
        distincts.push(distinct_count);
    }

    let corr_of: HashMap<(usize, usize), f64> =
        acc.pair_idx.iter().zip(&acc.pairs).map(|(&ij, p)| (ij, p.pearson_abs())).collect();
    link_columns(&mut profiles, &embeddings, &distincts, opts, |i, j| {
        corr_of.get(&(i, j)).copied()
    });

    let column_events: Vec<(String, String, u64)> = profiles
        .iter()
        .zip(&acc.cols)
        .map(|(p, sk)| (p.name.clone(), p.feature_type.label().to_string(), sk.micros))
        .collect();
    for (column, feature_type, micros) in &column_events {
        catdb_trace::emit(catdb_trace::TraceEvent::ProfileColumn {
            column: column.clone(),
            feature_type: feature_type.clone(),
            micros: *micros,
        });
    }

    let profile = DataProfile {
        dataset_name: name.to_string(),
        n_rows,
        columns: profiles,
        elapsed_seconds: started.elapsed().as_secs_f64(),
    };
    (profile, column_events)
}

fn schema_fields(table_schema: &catdb_table::Schema) -> Vec<(String, DataType)> {
    table_schema.fields().iter().map(|f| (f.name.clone(), f.dtype)).collect()
}

/// Sketch-mode profiling of an in-memory table: the table is walked in
/// `chunk_rows`-row slices through the same accumulate/merge path the
/// out-of-core reader uses, so both produce identical profiles for
/// identical data.
fn profile_sketch_table(
    name: &str,
    table: &Table,
    chunk_rows: usize,
    opts: &ProfileOptions,
) -> (DataProfile, Vec<(String, String, u64)>) {
    let started = Instant::now();
    let fields = schema_fields(table.schema());
    let mut acc = SketchAccum::new(&fields);
    let n_rows = table.n_rows();
    let chunk_rows = chunk_rows.max(1);
    let n_threads = opts.n_threads.max(1);
    let mut start = 0usize;
    while start < n_rows {
        let end = (start + chunk_rows).min(n_rows);
        let chunk = table.slice_rows(start..end).expect("chunk range in bounds");
        acc.fold_chunk(&chunk, n_threads);
        start = end;
    }
    finalize_sketch(name, &fields, n_rows, &acc, opts, started)
}

/// Run Algorithm 1 over an out-of-core [`ChunkedTable`] without ever
/// materializing the table: chunks are loaded one at a time (peak RSS
/// is O(chunk), observable via the `profiler.peak_chunk_rss` counter)
/// and folded into mergeable sketches in fixed chunk order. Always uses
/// sketch statistics — the chunk size is the table's, and `opts.mode`
/// is not consulted. Results are not memoized (computing a content
/// fingerprint would require re-reading the table).
pub fn profile_chunked(
    name: &str,
    table: &ChunkedTable,
    opts: &ProfileOptions,
) -> catdb_table::Result<DataProfile> {
    let _span = catdb_trace::span("profile_table");
    let started = Instant::now();
    let fields = schema_fields(table.schema());
    let mut acc = SketchAccum::new(&fields);
    let n_threads = opts.n_threads.max(1);
    for i in 0..table.n_chunks() {
        let chunk = table.chunk(i)?;
        acc.fold_chunk(&chunk, n_threads);
    }
    let (profile, _events) = finalize_sketch(name, &fields, table.n_rows(), &acc, opts, started);
    Ok(profile)
}

/// Profile a CSV file in a single pass over the ingest stream: sketches
/// are folded chunk by chunk *as the spill is written* (via
/// [`ChunkedTable::from_csv_path_observed`]), skipping the read-back
/// pass [`profile_chunked`] performs. Returns both the chunked table
/// and its profile; the profile is identical to re-reading the spill
/// through [`profile_chunked`].
///
/// Mid-stream dtype degradation is reconciled at finalize: pair moments
/// are seeded from the first chunk's dtypes (degradation only narrows
/// numeric → string, never the reverse) and pairs touching a degraded
/// column are dropped, matching what the read-back path — which never
/// sees the pre-degradation dtypes — would have computed. A degraded
/// column's numeric moments are likewise ignored, because feature
/// typing off the final string dtype never consults them.
pub fn profile_csv_stream(
    name: &str,
    path: impl AsRef<std::path::Path>,
    csv_opts: &catdb_table::CsvOptions,
    chunk_rows: usize,
    opts: &ProfileOptions,
) -> catdb_table::Result<(ChunkedTable, DataProfile)> {
    let _span = catdb_trace::span("profile_table");
    let started = Instant::now();
    let n_threads = opts.n_threads.max(1);
    let mut acc: Option<(Vec<(String, DataType)>, SketchAccum)> = None;
    let table =
        ChunkedTable::from_csv_path_observed(path, csv_opts, chunk_rows, &mut |chunk: &Table| {
            let (_, acc) = acc.get_or_insert_with(|| {
                let fields = schema_fields(chunk.schema());
                let acc = SketchAccum::new(&fields);
                (fields, acc)
            });
            acc.fold_chunk(chunk, n_threads);
        })?;
    let fields = schema_fields(table.schema());
    let acc = match acc {
        Some((first_fields, mut acc)) => {
            if first_fields != fields {
                let keep: Vec<bool> = acc
                    .pair_idx
                    .iter()
                    .map(|&(i, j)| fields[i].1.is_numeric() && fields[j].1.is_numeric())
                    .collect();
                let mut it = keep.iter();
                acc.pair_idx.retain(|_| *it.next().expect("one flag per pair"));
                let mut it = keep.iter();
                acc.pairs.retain(|_| *it.next().expect("one flag per pair"));
            }
            acc
        }
        None => SketchAccum::new(&fields),
    };
    let (profile, _events) = finalize_sketch(name, &fields, table.n_rows(), &acc, opts, started);
    Ok((table, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use catdb_table::Column;

    fn salary_like_table() -> Table {
        let n = 200;
        let gender: Vec<&str> = (0..n).map(|i| ["Male", "Female", "F", "M"][i % 4]).collect();
        let exp: Vec<String> =
            (0..n).map(|i| format!("{} years of experience at firm {i}", i % 37)).collect();
        let age: Vec<Option<f64>> =
            (0..n).map(|i| if i % 10 == 0 { None } else { Some(20.0 + (i % 40) as f64) }).collect();
        let salary: Vec<f64> = (0..n).map(|i| 50_000.0 + 1000.0 * (i % 40) as f64).collect();
        let level: Vec<i64> = (0..n).map(|i| (i % 5) as i64).collect();
        Table::from_columns(vec![
            ("gender", Column::from_strings(gender)),
            ("experience", Column::from_strings(exp)),
            ("age", Column::Float(age)),
            ("salary", Column::from_f64(salary)),
            ("level", Column::from_i64(level)),
        ])
        .unwrap()
    }

    #[test]
    fn detects_feature_types() {
        let t = salary_like_table();
        let p = profile_table("salary", &t, &ProfileOptions::default());
        assert_eq!(p.column("gender").unwrap().feature_type, FeatureType::Categorical);
        assert_eq!(p.column("experience").unwrap().feature_type, FeatureType::Sentence);
        assert_eq!(p.column("age").unwrap().feature_type, FeatureType::Numerical);
        assert_eq!(p.column("level").unwrap().feature_type, FeatureType::Categorical);
    }

    #[test]
    fn missing_and_distinct_percentages() {
        let t = salary_like_table();
        let p = profile_table("salary", &t, &ProfileOptions::default());
        let age = p.column("age").unwrap();
        assert_eq!(age.missing_count, 20);
        assert!((age.missing_percentage - 0.1).abs() < 1e-9);
        let gender = p.column("gender").unwrap();
        assert_eq!(gender.distinct_count, 4);
    }

    #[test]
    fn categorical_samples_hold_all_distinct_values() {
        let t = salary_like_table();
        let p = profile_table("salary", &t, &ProfileOptions::default());
        let gender = p.column("gender").unwrap();
        assert_eq!(gender.samples.len(), 4);
        let exp = p.column("experience").unwrap();
        assert_eq!(exp.samples.len(), ProfileOptions::default().n_samples);
    }

    #[test]
    fn statistics_only_for_numerical() {
        let t = salary_like_table();
        let p = profile_table("salary", &t, &ProfileOptions::default());
        assert!(p.column("salary").unwrap().statistics.is_some());
        assert!(p.column("gender").unwrap().statistics.is_none());
        let stats = p.column("salary").unwrap().statistics.as_ref().unwrap();
        assert_eq!(stats.min, 50_000.0);
        assert_eq!(stats.max, 89_000.0);
    }

    #[test]
    fn correlated_columns_are_reported() {
        let t = salary_like_table();
        let p = profile_table("salary", &t, &ProfileOptions::default());
        let age_corr = &p.column("age").unwrap().correlations;
        assert!(
            age_corr.iter().any(|(n, c)| n == "salary" && *c > 0.9),
            "age–salary correlation missing: {age_corr:?}"
        );
    }

    #[test]
    fn inclusion_dependency_between_key_columns() {
        // fk values ⊂ pk values.
        let pk: Vec<String> = (0..100).map(|i| format!("k{i}")).collect();
        let fk: Vec<String> = (0..100).map(|i| format!("k{}", i % 20)).collect();
        let t = Table::from_columns(vec![
            ("pk", Column::from_strings(pk)),
            ("fk", Column::from_strings(fk)),
        ])
        .unwrap();
        let p = profile_table("keys", &t, &ProfileOptions::default());
        assert!(p.column("fk").unwrap().inclusion_dependencies.contains(&"pk".to_string()));
    }

    #[test]
    fn profiling_is_deterministic() {
        let t = salary_like_table();
        let a = profile_table("s", &t, &ProfileOptions::default());
        let b = profile_table("s", &t, &ProfileOptions::default());
        for (ca, cb) in a.columns.iter().zip(&b.columns) {
            assert_eq!(ca.samples, cb.samples);
            assert_eq!(ca.similarities, cb.similarities);
        }
    }

    #[test]
    fn streaming_profile_matches_spill_read_back() {
        // Includes quoted fields, nulls, blank lines, and a mid-stream
        // dtype degradation (column b turns textual after 120 int rows),
        // so the observer path must reconcile pre-degradation chunks.
        let mut text = String::from("a,b,c\n");
        for i in 0..120 {
            text.push_str(&format!("{i},{},\"cat {}\"\n", i * 7, i % 5));
        }
        text.push_str("120,oops,\"cat 0\"\n");
        for i in 121..300 {
            text.push_str(&format!("{i},{},NA\n", i % 3));
        }
        let path =
            std::env::temp_dir().join(format!("catdb-stream-profile-{}.csv", std::process::id()));
        std::fs::write(&path, &text).unwrap();
        let csv_opts = catdb_table::CsvOptions { inference_rows: 50, ..Default::default() };
        let opts =
            ProfileOptions { mode: ProfileMode::Sketch { chunk_rows: 64 }, ..Default::default() };

        let (streamed_table, streamed) =
            profile_csv_stream("s", &path, &csv_opts, 64, &opts).unwrap();
        assert_eq!(streamed_table.schema().fields()[1].dtype, DataType::Str, "b degraded");
        let chunked = ChunkedTable::from_csv_path(&path, &csv_opts, 64).unwrap();
        let read_back = profile_chunked("s", &chunked, &opts).unwrap();

        assert_eq!(streamed.n_rows, read_back.n_rows);
        assert_eq!(streamed.columns, read_back.columns);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn streaming_profile_keeps_spill_accounting() {
        let mut text = String::from("x,y\n");
        for i in 0..200 {
            text.push_str(&format!("{i},{}.5\n", i * 3));
        }
        let path =
            std::env::temp_dir().join(format!("catdb-stream-spill-{}.csv", std::process::id()));
        std::fs::write(&path, &text).unwrap();
        let csv_opts = catdb_table::CsvOptions::default();
        let opts =
            ProfileOptions { mode: ProfileMode::Sketch { chunk_rows: 64 }, ..Default::default() };

        let sink = std::sync::Arc::new(catdb_trace::TraceSink::new());
        let guard = catdb_trace::install(sink.clone());
        let (streamed_table, _) = profile_csv_stream("s", &path, &csv_opts, 64, &opts).unwrap();
        drop(guard);
        let trace = sink.snapshot();
        // The spill-bytes counter must record exactly what was written.
        assert_eq!(
            trace.counters[catdb_table::COUNTER_CSV_SPILL_BYTES],
            streamed_table.spill_bytes() as f64
        );
        assert!(streamed_table.spill_bytes() > 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn type_distribution_counts() {
        let t = salary_like_table();
        let p = profile_table("salary", &t, &ProfileOptions::default());
        let dist = p.feature_type_distribution();
        let total: usize = dist.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 5);
    }
}
