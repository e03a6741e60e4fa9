//! Criterion microbenchmarks backing the runtime tables: profiling
//! throughput, catalog refinement, prompt construction, DSL
//! parse + execute, and the model-training kernels. These double as
//! ablation benches for the design choices DESIGN.md calls out
//! (embedding-based profiling, single vs chain prompt construction,
//! per-column vs wildcard pipelines).

use catdb_core::{generate_chain_source, CatDbConfig, PromptBuilder, PromptOptions};
use catdb_data::{generate, GenOptions};
use catdb_llm::{Completion, LanguageModel, LlmError, ModelProfile, Prompt, SimLlm};
use catdb_ml::{
    Classifier, ForestConfig, GradientBoostingRegressor, KnnClassifier, KnnConfig,
    LogisticRegression, Matrix, RandomForestClassifier, Regressor, SplitMode,
};
use catdb_pipeline::{execute, parse, Environment, ExecutionConfig};
use catdb_profiler::{profile_table, ProfileOptions};
use catdb_sched::{CompletionCache, LlmScheduler};
use catdb_table::{read_csv_str, write_csv, CsvOptions};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;

fn bench_profiling(c: &mut Criterion) {
    let mut group = c.benchmark_group("profiling");
    for (name, rows) in [("diabetes", 768), ("gas-drift", 2000)] {
        let g = generate(name, &GenOptions { max_rows: rows, scale: 1.0, seed: 3 }).unwrap();
        let flat = g.dataset.materialize().unwrap();
        group.bench_function(format!("{name}_{rows}rows"), |b| {
            b.iter(|| profile_table(name, black_box(&flat), &ProfileOptions::default()))
        });
    }
    group.finish();
}

fn bench_refinement(c: &mut Criterion) {
    let g = generate("etailing", &GenOptions { max_rows: 439, scale: 1.0, seed: 3 }).unwrap();
    let flat = g.dataset.materialize().unwrap();
    let profile = profile_table("etailing", &flat, &ProfileOptions::default());
    let llm = SimLlm::new(ModelProfile::gemini_1_5_pro(), 3);
    c.bench_function("catalog_refinement_etailing", |b| {
        b.iter(|| {
            catdb_catalog::refine_dataset(
                "etailing",
                black_box(&flat),
                &profile,
                "target",
                &llm,
                &catdb_catalog::RefineOptions::default(),
            )
        })
    });
}

fn bench_prompt_construction(c: &mut Criterion) {
    let g = generate("kdd98", &GenOptions { max_rows: 1000, scale: 1.0, seed: 3 }).unwrap();
    let flat = g.dataset.materialize().unwrap();
    let profile = profile_table("kdd98", &flat, &ProfileOptions::default());
    let entry = catdb_catalog::CatalogEntry::new(
        "kdd98",
        "target",
        catdb_ml::TaskKind::BinaryClassification,
        profile,
    );
    let mut group = c.benchmark_group("prompt_construction");
    group.bench_function("single_478cols", |b| {
        let builder = PromptBuilder::new(&entry, PromptOptions::default());
        b.iter(|| black_box(builder.single_prompt()))
    });
    group.bench_function("chain_478cols_beta4", |b| {
        let builder = PromptBuilder::new(&entry, PromptOptions { beta: 4, ..Default::default() });
        b.iter(|| {
            let chunks = builder.chain_chunks();
            for chunk in &chunks {
                black_box(builder.stage_prompt(catdb_llm::LlmTaskKind::Preprocessing, chunk, None));
            }
        })
    });
    group.finish();
}

fn bench_parse_execute(c: &mut Criterion) {
    let g = generate("diabetes", &GenOptions { max_rows: 768, scale: 1.0, seed: 3 }).unwrap();
    let flat = g.dataset.materialize().unwrap();
    let (train, test) = flat.train_test_split(0.7, 1).unwrap();
    let source = r#"pipeline {
  impute * strategy median;
  impute * strategy most_frequent;
  encode * method onehot;
  model classifier decision_tree target "target" depth 8;
}"#;
    let mut group = c.benchmark_group("pipeline");
    group.bench_function("parse", |b| b.iter(|| parse(black_box(source)).unwrap()));
    let program = parse(source).unwrap();
    let env = Environment::default();
    let cfg = ExecutionConfig::new(catdb_ml::TaskKind::BinaryClassification);
    group.bench_function("execute_diabetes", |b| {
        b.iter(|| execute(black_box(&program), &train, &test, &env, &cfg).unwrap())
    });
    group.finish();
}

fn bench_models(c: &mut Criterion) {
    let n = 1000;
    let d = 20;
    let rows: Vec<Vec<f64>> =
        (0..n).map(|i| (0..d).map(|j| ((i * (j + 3)) % 97) as f64 / 97.0).collect()).collect();
    let x = Matrix::from_rows(&rows);
    let y: Vec<usize> = (0..n).map(|i| ((i * 7) % 97 > 48) as usize).collect();
    let mut group = c.benchmark_group("models");
    group.sample_size(10);
    group.bench_function("random_forest_20trees_1000x20", |b| {
        b.iter_batched(
            || RandomForestClassifier {
                config: ForestConfig { n_trees: 20, ..Default::default() },
            },
            |clf| clf.fit(black_box(&x), &y, 2).unwrap(),
            BatchSize::SmallInput,
        )
    });
    // Same forest with histogram split search — the ablation pair for
    // `random_forest_20trees_1000x20` (exact scans above).
    group.bench_function("random_forest_binned_20trees_1000x20", |b| {
        b.iter_batched(
            || RandomForestClassifier {
                config: ForestConfig {
                    n_trees: 20,
                    split_mode: SplitMode::Binned { bins: 256 },
                    ..Default::default()
                },
            },
            |clf| clf.fit(black_box(&x), &y, 2).unwrap(),
            BatchSize::SmallInput,
        )
    });
    // Boosted regression trees in exact mode: every round fits residuals
    // with the exact split search's regression scans, so this tracks the
    // regression path the classifier forest above never takes.
    let y_reg: Vec<f64> = rows.iter().map(|r| r[0] * 3.0 + (r[1] * 7.0).sin() - r[2]).collect();
    group.bench_function("gradient_boosting_reg_exact_1000x20", |b| {
        b.iter_batched(
            GradientBoostingRegressor::default,
            |reg| reg.fit(black_box(&x), &y_reg).unwrap(),
            BatchSize::SmallInput,
        )
    });
    // k-NN fit + full predict: prediction runs the blocked distance
    // kernel over every (query, train) pair.
    group.bench_function("knn_blocked_1000x20", |b| {
        b.iter_batched(
            || KnnClassifier { config: KnnConfig { k: 7 } },
            |clf| {
                let model = clf.fit(black_box(&x), &y, 2).unwrap();
                model.predict(black_box(&x)).unwrap()
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("logistic_1000x20", |b| {
        b.iter(|| LogisticRegression::default().fit(black_box(&x), &y, 2).unwrap())
    });
    group.finish();
}

fn bench_llm_generation(c: &mut Criterion) {
    let g = generate("survey", &GenOptions { max_rows: 800, scale: 1.0, seed: 3 }).unwrap();
    let flat = g.dataset.materialize().unwrap();
    let profile = profile_table("survey", &flat, &ProfileOptions::default());
    let entry = catdb_catalog::CatalogEntry::new(
        "survey",
        "target",
        catdb_ml::TaskKind::MulticlassClassification,
        profile,
    );
    let builder = PromptBuilder::new(&entry, PromptOptions::default());
    let prompt = builder.single_prompt();
    let llm = SimLlm::new(ModelProfile::gpt_4o(), 3);
    c.bench_function("simllm_pipeline_generation", |b| {
        b.iter(|| catdb_llm::LanguageModel::complete(&llm, black_box(&prompt)).unwrap())
    });
}

/// A [`SimLlm`] with real per-call wall-clock latency, standing in for
/// network round-trips so the chain bench measures what the concurrent
/// scheduler actually buys (SimLlm itself only *records* latency into
/// the completion, it never sleeps).
struct SlowLlm {
    inner: SimLlm,
    delay: std::time::Duration,
}

impl LanguageModel for SlowLlm {
    fn model_name(&self) -> &str {
        self.inner.model_name()
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }

    fn complete(&self, prompt: &Prompt) -> Result<Completion, LlmError> {
        std::thread::sleep(self.delay);
        self.inner.complete(prompt)
    }
}

fn bench_chain_generation(c: &mut Criterion) {
    let g = generate("cmc", &GenOptions { max_rows: 600, scale: 1.0, seed: 3 }).unwrap();
    let flat = g.dataset.materialize().unwrap();
    let profile = profile_table("cmc", &flat, &ProfileOptions::default());
    let entry = catdb_catalog::CatalogEntry::new(
        "cmc",
        "target",
        catdb_ml::TaskKind::MulticlassClassification,
        profile,
    );
    // 3 ms of simulated network latency per call; β = 4 chunks → nine
    // prompts per chain (4 preprocessing + 4 feature engineering + 1
    // model selection). Sequentially that is 9 round-trips of latency;
    // at concurrency 4 the two fan-out stages collapse to one round-trip
    // each, so the concurrent bench should run ≈3x faster.
    let llm = SlowLlm {
        inner: SimLlm::new(ModelProfile::gpt_4o(), 3),
        delay: std::time::Duration::from_millis(3),
    };
    let cfg_at = |concurrency: usize| CatDbConfig {
        prompt: PromptOptions { beta: 4, ..Default::default() },
        llm_concurrency: concurrency,
        ..Default::default()
    };
    let mut group = c.benchmark_group("chain");
    group.sample_size(10);
    group.bench_function("chain_gen_beta4_seq", |b| {
        let cfg = cfg_at(1);
        b.iter(|| generate_chain_source(black_box(&entry), &llm, &cfg).unwrap())
    });
    group.bench_function("chain_gen_beta4_conc4", |b| {
        let cfg = cfg_at(4);
        b.iter(|| generate_chain_source(black_box(&entry), &llm, &cfg).unwrap())
    });
    group.finish();
}

fn bench_completion_cache(c: &mut Criterion) {
    let g = generate("survey", &GenOptions { max_rows: 800, scale: 1.0, seed: 3 }).unwrap();
    let flat = g.dataset.materialize().unwrap();
    let profile = profile_table("survey", &flat, &ProfileOptions::default());
    let entry = catdb_catalog::CatalogEntry::new(
        "survey",
        "target",
        catdb_ml::TaskKind::MulticlassClassification,
        profile,
    );
    let builder = PromptBuilder::new(&entry, PromptOptions::default());
    let prompt = builder.single_prompt();
    let llm = SimLlm::new(ModelProfile::gpt_4o(), 3);
    let mut group = c.benchmark_group("cache");
    // Cold: a fresh cache every iteration, so each completion pays the
    // full simulator path plus fingerprint + insert.
    group.bench_function("cache_cold_miss", |b| {
        b.iter_batched(
            || LlmScheduler::new(&llm, Arc::new(CompletionCache::new(64))),
            |sched| sched.complete(black_box(&prompt)).unwrap(),
            BatchSize::SmallInput,
        )
    });
    // Warm: one pre-warmed cache; every iteration is a pure hit.
    let sched = LlmScheduler::new(&llm, Arc::new(CompletionCache::new(64)));
    sched.complete(&prompt).unwrap();
    group.bench_function("cache_warm_hit", |b| {
        b.iter(|| sched.complete(black_box(&prompt)).unwrap())
    });
    group.finish();
}

/// A 50k-row mixed-type CSV (int, float-with-nulls, float, bool,
/// quoted-comma categorical, free text with escaped quotes) for the
/// ingestion benches. Seeded LCG, no RNG dependency; deliberately free of
/// embedded newlines so the frozen seed reader below parses the same file
/// and the baseline comparison stays apples-to-apples.
fn synth_csv(rows: usize) -> String {
    let mut out = String::with_capacity(rows * 64);
    out.push_str("id,score,ratio,active,city,note\n");
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    const CITIES: [&str; 5] =
        ["Berlin", "\"San Jose, CA\"", "Montreal", "\"Porto, PT\"", "Karlsruhe"];
    for i in 0..rows {
        let r = next();
        let score = if r % 50 == 0 { "NA".to_string() } else { format!("{}.{}", r % 100, r % 10) };
        let note = if r % 11 == 0 {
            format!("\"said \"\"{}\"\" loudly\"", r % 1000)
        } else {
            format!("note {} for row {i}", r % 7919)
        };
        writeln!(
            out,
            "{i},{score},{}.{:03},{},{},{note}",
            r % 7,
            r % 1000,
            if r % 3 == 0 { "true" } else { "false" },
            CITIES[(r % 5) as usize],
        )
        .expect("writing to String cannot fail");
    }
    out
}

// ---------------------------------------------------------------------------
// The seed CSV reader, frozen as the ingestion baseline: per-line Strings
// via `BufRead::lines`, char-by-char record splitting, a `Vec<Vec<String>>`
// of owned cells, and a full column re-parse on type degradation. Kept
// verbatim (minus dead branches) so `csv/ingest` speedups in
// results/BENCH_perf.json are measured against the real predecessor on the
// same machine, not a recorded number.
// ---------------------------------------------------------------------------

fn seed_split_record(line: &str, delim: u8) -> Result<Vec<String>, String> {
    let delim = delim as char;
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                field.push(c);
            }
        } else if c == '"' {
            if field.is_empty() {
                in_quotes = true;
            } else {
                return Err("quote inside unquoted field".to_string());
            }
        } else if c == delim {
            fields.push(std::mem::take(&mut field));
        } else {
            field.push(c);
        }
    }
    if in_quotes {
        return Err("unterminated quoted field".to_string());
    }
    fields.push(field);
    Ok(fields)
}

fn seed_parse_cell(
    raw: &str,
    dtype: catdb_table::DataType,
    null_markers: &[String],
) -> catdb_table::Value {
    use catdb_table::{DataType, Value};
    let trimmed = raw.trim();
    if trimmed.is_empty() || null_markers.iter().any(|m| m == trimmed) {
        return Value::Null;
    }
    match dtype {
        DataType::Int => trimmed.parse::<i64>().map(Value::Int).unwrap_or(Value::Null),
        DataType::Float => trimmed.parse::<f64>().map(Value::Float).unwrap_or(Value::Null),
        DataType::Bool => match trimmed.to_ascii_lowercase().as_str() {
            "true" | "t" | "yes" | "1" => Value::Bool(true),
            "false" | "f" | "no" | "0" => Value::Bool(false),
            _ => Value::Null,
        },
        DataType::Str => Value::Str(raw.to_string()),
    }
}

fn seed_infer_type(samples: &[&str], null_markers: &[String]) -> catdb_table::DataType {
    use catdb_table::DataType;
    let mut could_bool = true;
    let mut could_int = true;
    let mut could_float = true;
    let mut saw_value = false;
    for &raw in samples {
        let t = raw.trim();
        if t.is_empty() || null_markers.iter().any(|m| m == t) {
            continue;
        }
        saw_value = true;
        let lower = t.to_ascii_lowercase();
        if !matches!(lower.as_str(), "true" | "false" | "t" | "f" | "yes" | "no") {
            could_bool = false;
        }
        if t.parse::<i64>().is_err() {
            could_int = false;
        }
        if t.parse::<f64>().is_err() {
            could_float = false;
        }
        if !could_bool && !could_int && !could_float {
            return DataType::Str;
        }
    }
    if !saw_value {
        return DataType::Str;
    }
    if could_bool {
        DataType::Bool
    } else if could_int {
        DataType::Int
    } else if could_float {
        DataType::Float
    } else {
        DataType::Str
    }
}

fn seed_read_csv_str(text: &str, opts: &CsvOptions) -> catdb_table::Table {
    use catdb_table::{Column, DataType, Table};
    use std::io::BufRead;
    let reader = std::io::BufReader::new(text.as_bytes());
    let mut records: Vec<Vec<String>> = Vec::new();
    for line in reader.lines() {
        let line = line.expect("in-memory read");
        if line.is_empty() && records.is_empty() {
            continue;
        }
        records.push(seed_split_record(&line, opts.delimiter).expect("bench CSV is well-formed"));
    }
    let header: Vec<String> = records.remove(0);
    let n_cols = header.len();
    let sample_n = records.len().min(opts.inference_rows);
    let mut dtypes = Vec::with_capacity(n_cols);
    for c in 0..n_cols {
        let samples: Vec<&str> = records[..sample_n].iter().map(|r| r[c].as_str()).collect();
        dtypes.push(seed_infer_type(&samples, &opts.null_markers));
    }
    let mut cols: Vec<Column> =
        dtypes.iter().map(|&dt| Column::with_capacity(dt, records.len())).collect();
    for c in 0..n_cols {
        let mut degraded = false;
        for rec in &records {
            let v = seed_parse_cell(&rec[c], dtypes[c], &opts.null_markers);
            let raw_is_null = {
                let t = rec[c].trim();
                t.is_empty() || opts.null_markers.iter().any(|m| m == t)
            };
            if v.is_null() && !raw_is_null && dtypes[c] != DataType::Str {
                degraded = true;
                break;
            }
            cols[c].push(v).expect("parse_cell yields matching type");
        }
        if degraded {
            let mut s = Column::with_capacity(DataType::Str, records.len());
            for rec in &records {
                s.push(seed_parse_cell(&rec[c], DataType::Str, &opts.null_markers))
                    .expect("string column accepts strings");
            }
            cols[c] = s;
        }
    }
    Table::from_columns(header.into_iter().zip(cols).collect()).expect("bench CSV is rectangular")
}

fn bench_csv(c: &mut Criterion) {
    let csv = synth_csv(50_000);
    let opts = CsvOptions::default();
    let table = read_csv_str(&csv, &opts).unwrap();
    assert_eq!(table.n_rows(), 50_000);
    let mut group = c.benchmark_group("csv");
    group.sample_size(10);
    group.bench_function("ingest_50k_mixed", |b| {
        b.iter_with_large_drop(|| read_csv_str(black_box(&csv), &opts).unwrap())
    });
    let seq_opts = CsvOptions { n_threads: 1, ..CsvOptions::default() };
    group.bench_function("ingest_seq_50k_mixed", |b| {
        b.iter_with_large_drop(|| read_csv_str(black_box(&csv), &seq_opts).unwrap())
    });
    group.bench_function("seed_ingest_50k_mixed", |b| {
        b.iter_with_large_drop(|| seed_read_csv_str(black_box(&csv), &opts))
    });
    group.bench_function("write_50k_mixed", |b| {
        b.iter(|| {
            let mut out: Vec<u8> = Vec::with_capacity(csv.len());
            write_csv(black_box(&table), &mut out, b',').unwrap();
            out
        })
    });
    group.bench_function("write_roundtrip_50k_mixed", |b| {
        b.iter_with_large_drop(|| {
            let mut out: Vec<u8> = Vec::with_capacity(csv.len());
            write_csv(black_box(&table), &mut out, b',').unwrap();
            let back = read_csv_str(std::str::from_utf8(&out).unwrap(), &opts).unwrap();
            assert_eq!(back.n_rows(), 50_000);
            back
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_csv,
    bench_profiling,
    bench_refinement,
    bench_prompt_construction,
    bench_parse_execute,
    bench_models,
    bench_llm_generation,
    bench_chain_generation,
    bench_completion_cache
);
criterion_main!(benches);
