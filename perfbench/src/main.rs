//! `catdb-perfbench` — the worker side of the benchmark. `run.py` drives
//! it; each subcommand prints JSON on stdout.
//!
//! ```text
//! catdb-perfbench pool    --workload W                   request list
//! catdb-perfbench setup   --workload W --data DIR        generate + render inputs
//! catdb-perfbench request --workload W --data DIR --index I [--traced]
//! catdb-perfbench serve   --data DIR --seed S --seconds T [--traced]
//! ```
//!
//! `request` runs one closed-loop request the way `catdb run --csv`
//! does (ingest → `catdb_collect` → `catdb_pipgen`) in a fresh process,
//! so process-wide memos start cold. `serve` runs an in-process daemon
//! under an open-loop schedule. With `--traced` the worker installs a
//! trace sink, times the library calls it makes, and reports per-layer
//! figures; without it, only what a user would see.

mod probe;
mod serve;
mod spec;

use catdb_catalog::MultiTableDataset;
use catdb_core::{catdb_collect, catdb_pipgen, measured_cost};
use catdb_table::{read_csv_str, CsvOptions};
use serde_json::{json, Value};
use spec::{Request, Workload};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    command: String,
    workload: Option<Workload>,
    data: Option<PathBuf>,
    index: usize,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = argv.first().cloned().ok_or("missing subcommand")?;
    let mut args = Args {
        command,
        workload: None,
        data: None,
        index: 0,
        seed: 1,
        seconds: 10.0,
        traced: false,
    };
    let mut i = 1;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--traced" {
            args.traced = true;
            i += 1;
            continue;
        }
        let value = argv.get(i + 1).ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag {
            "--workload" => {
                args.workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--data" => args.data = Some(PathBuf::from(value)),
            "--index" => args.index = value.parse().map_err(|_| bad())?,
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
        i += 2;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("catdb-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.command.as_str() {
        "pool" => pool(&args),
        "setup" => setup(&args),
        "request" => request(&args),
        "serve" => serve::run(
            args.data.as_deref().ok_or("--data is required"),
            args.seed,
            args.seconds,
            args.traced,
        ),
        other => Err(format!("unknown subcommand {other}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("catdb-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn workload(args: &Args) -> Result<Workload, String> {
    args.workload.ok_or_else(|| "--workload is required".to_string())
}

fn data_dir(args: &Args) -> Result<&Path, String> {
    args.data.as_deref().ok_or_else(|| "--data is required".to_string())
}

/// Worker threads of the runtime pool (`CATDB_THREADS`, else all cores).
pub fn threads() -> usize {
    std::env::var("CATDB_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .max(1)
}

fn pool(args: &Args) -> Result<(), String> {
    let w = workload(args)?;
    let ids: Vec<Value> = spec::requests(w).iter().map(|r| json!(r.id.clone())).collect();
    let out = json!({
        "workload": w.name(),
        "workload_seed": w.seed(),
        "why": w.why(),
        "requests": ids,
    });
    println!("{out}");
    Ok(())
}

/// Generate every input of the workload with `catdb-data` (multi-table
/// datasets joined into one table) and render it to CSV under `data`,
/// plus `inputs.json` naming each file's target and task.
fn setup(args: &Args) -> Result<(), String> {
    let w = workload(args)?;
    let dir = data_dir(args)?;
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let mut meta = serde_json::Map::new();
    let mut bytes = 0usize;
    for input in spec::inputs(w) {
        let opts =
            catdb_data::GenOptions { max_rows: input.rows, scale: 1.0, seed: spec::DATA_SEED };
        let g = catdb_data::generate(input.dataset, &opts)
            .ok_or_else(|| format!("unknown dataset {}", input.dataset))?;
        let table = g.dataset.materialize().map_err(|e| e.to_string())?;
        let text = catdb_table::to_csv_string(&table);
        bytes += text.len();
        std::fs::write(dir.join(input.file_name()), text).map_err(|e| e.to_string())?;
        meta.insert(
            input.file_name(),
            json!({"target": g.target, "task": spec::task_label(g.task),
                   "rows": table.n_rows(), "cols": table.n_cols()}),
        );
    }
    let meta = Value::Object(meta);
    std::fs::write(dir.join("inputs.json"), meta.to_string()).map_err(|e| e.to_string())?;
    println!("{}", json!({"inputs": meta, "csv_bytes": bytes}));
    Ok(())
}

/// The setup-time facts of one input: its CSV text, target and task.
pub struct Loaded {
    pub text: String,
    pub target: String,
    pub task: String,
}

pub fn load_input(dir: &Path, req: &Request) -> Result<Loaded, String> {
    let meta_text = std::fs::read_to_string(dir.join("inputs.json"))
        .map_err(|e| format!("inputs.json: {e} (run setup first)"))?;
    let meta: Value = serde_json::from_str(&meta_text).map_err(|e| e.to_string())?;
    let entry = meta.get(&req.input.file_name()).ok_or("input missing from inputs.json")?;
    let field = |k: &str| {
        entry
            .get(k)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("inputs.json lacks {k}"))
    };
    let text = std::fs::read_to_string(dir.join(req.input.file_name()))
        .map_err(|e| format!("{}: {e}", req.input.file_name()))?;
    Ok(Loaded { text, target: field("target")?, task: field("task")? })
}

/// Span intervals of one name, shifted onto the worker's epoch.
fn spans_of(trace: &catdb_trace::Trace, name: &str, offset_us: u64) -> Vec<probe::Span> {
    trace
        .spans_named(name)
        .iter()
        .map(|s| {
            let end = s.end_micros.unwrap_or(s.start_micros);
            (s.start_micros + offset_us, end + offset_us)
        })
        .collect()
}

fn total_ms(spans: &[probe::Span]) -> f64 {
    spans.iter().map(|(a, b)| (b - a) as f64).sum::<f64>() / 1e3
}

/// One closed-loop request, run the way `catdb run --csv` runs it.
fn request(args: &Args) -> Result<(), String> {
    let w = workload(args)?;
    let reqs = spec::requests(w);
    let req = reqs.get(args.index).ok_or("request index out of range")?;
    let input = load_input(data_dir(args)?, req)?;
    let task = spec::parse_task(&input.task).ok_or("bad task label")?;
    let cfg = spec::program_config(req, threads());

    let epoch = Instant::now();
    let sink = args.traced.then(|| Arc::new(catdb_trace::TraceSink::new()));
    let sink_offset_us = probe::micros_since(epoch);
    let _guard = sink.clone().map(catdb_trace::install);
    let llm = probe::TimedLlm::new(cfg.llm.as_ref(), epoch);

    let t_start = probe::micros_since(epoch);
    let table = read_csv_str(&input.text, &CsvOptions::default()).map_err(|e| e.to_string())?;
    let t_ingested = probe::micros_since(epoch);
    let dataset = MultiTableDataset::single(req.input.dataset, table);
    let (entry, prepared, report) =
        catdb_collect(&dataset, &input.target, task, &llm, &cfg.collect)
            .map_err(|e| format!("collect failed: {e}"))?;
    let pipgen = if req.collect_only {
        None
    } else {
        Some(
            catdb_pipgen(&entry, &prepared, &llm, &cfg.pipgen)
                .map_err(|e| format!("pipgen failed: {e}"))?,
        )
    };
    let t_end = probe::micros_since(epoch);

    let calls = llm.calls();
    let billed_tokens = llm.billed_tokens();
    let profile = catdb_llm::ModelProfile::by_name(req.model).expect("known model");
    let usd: f64 =
        calls.iter().map(|c| profile.cost_usd(c.prompt_tokens, c.completion_tokens)).sum();
    let llm_sim_s: f64 = calls.iter().map(|c| c.sim_seconds).sum();
    let (digest, attempts, handcrafted, test_score, success) = match &pipgen {
        Some(p) => {
            let eval = p.results.evaluation.as_ref();
            let metric = eval.map(|e| format!("{:?}", e.test)).unwrap_or_default();
            (
                probe::digest(&[&p.code, &metric]),
                p.results.attempts,
                p.results.handcrafted,
                eval.map(|e| e.test.headline()),
                p.results.success && eval.is_some(),
            )
        }
        None => {
            let columns =
                serde_json::to_string(&entry.profile.columns).map_err(|e| e.to_string())?;
            let fp = format!("{:032x}", catdb_table::table_fingerprint(&prepared));
            (probe::digest(&[&fp, &columns]), 0, false, None, true)
        }
    };

    let Value::Object(mut out) = json!({
        "id": req.id.clone(),
        "success": success,
        "digest": digest,
        "billed_tokens": billed_tokens,
        "billed_usd": usd,
        "llm_sim_s": llm_sim_s,
        "attempts": attempts,
        "handcrafted": handcrafted,
        "test_score": test_score,
        "wall_ms": (t_end - t_start) as f64 / 1e3,
        "peak_rss_mb": probe::peak_rss_mb(),
        "threads": threads(),
    }) else {
        unreachable!("json! builds an object from an object literal")
    };
    if let Some(sink) = sink {
        let trace = sink.snapshot();
        let measured = measured_cost(&trace);
        let mut problems = Vec::new();
        if measured.total_tokens() != billed_tokens {
            problems.push(format!(
                "wrapper counted {billed_tokens} tokens, measured_cost() {}",
                measured.total_tokens()
            ));
        }
        if measured.llm_calls != calls.len() {
            problems.push(format!(
                "wrapper counted {} calls, measured_cost() {}",
                calls.len(),
                measured.llm_calls
            ));
        }
        let llm_spans: Vec<probe::Span> = calls.iter().map(|c| (c.start_us, c.end_us)).collect();
        let execute = spans_of(&trace, "execute_pipeline", sink_offset_us);
        let profiles = spans_of(&trace, "profile_table", sink_offset_us);
        let refine = spans_of(&trace, "refine_dataset", sink_offset_us);
        let generate = spans_of(&trace, "generate_pipeline", sink_offset_us);
        let fits = spans_of(&trace, "tree_fit", sink_offset_us);
        let ingest = vec![(t_start, t_ingested)];
        // Innermost first: a layer's self time excludes every layer
        // listed before it.
        let order = ["llm", "pipeline", "profiler", "table", "catalog", "core"];
        let layers =
            [llm_spans, execute.clone(), profiles.clone(), ingest, refine, generate.clone()];
        let shifted: Vec<Vec<probe::Span>> = layers
            .iter()
            .map(|l| l.iter().map(|&(a, b)| (a.saturating_sub(t_start), b - t_start)).collect())
            .collect();
        let selfs = probe::self_times(t_end - t_start, &shifted);
        let self_ms: serde_json::Map = order
            .iter()
            .zip(&selfs)
            .map(|(k, v)| (k.to_string(), json!(*v as f64 / 1e3)))
            .collect();
        let counter = |name: &str| trace.counters.get(name).copied().unwrap_or(0.0);
        out.insert("problems".into(), json!(problems));
        let layer_figures = json!({
            "self_ms": Value::Object(self_ms),
            "csv_ingest_ms": (t_ingested - t_start) as f64 / 1e3,
            "csv_bytes": input.text.len(),
            "profile_ms": total_ms(&profiles),
            "refine_llm_calls": report.as_ref().map_or(0, |r| r.llm_calls),
            "llm_calls": calls.len(),
            "llm_busy_ms": calls.iter().map(|c| (c.end_us - c.start_us) as f64).sum::<f64>() / 1e3,
            "llm_retries": measured.retries,
            "prompt_tokens": calls.iter().map(|c| c.prompt_tokens).sum::<usize>(),
            "completion_tokens": calls.iter().map(|c| c.completion_tokens).sum::<usize>(),
            "cache_hits": measured.cache_hits,
            "cache_saved_tokens": measured.cache_saved_tokens,
            "generate_ms": total_ms(&generate),
            "fix_iterations": trace.error_iteration_count(),
            "execute_ms": total_ms(&execute),
            "executions": execute.len(),
            "step_cache_hits": counter(catdb_pipeline::COUNTER_STEP_CACHE_HITS),
            "step_cache_misses": counter(catdb_pipeline::COUNTER_STEP_CACHE_MISSES),
            "tree_fit_busy_ms": total_ms(&fits),
            "tree_fits": fits.len(),
            "runtime_tasks": counter("runtime.tasks"),
            "runtime_steals": counter("runtime.steals"),
        });
        out.insert("layers".into(), layer_figures);
    }
    println!("{}", Value::Object(out));
    Ok(())
}
