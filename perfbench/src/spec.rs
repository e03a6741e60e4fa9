//! The three workloads and the one place the benchmark touches the
//! program's configuration types.
//!
//! Each workload's request list is fixed by its workload seed (recorded
//! in the results); the run's `--seed` only permutes the order in which
//! that list is replayed. A request therefore always does the same work
//! and yields the same output digest, whichever run it lands in.

use catdb_core::{CatDbConfig, CollectOptions, PromptOptions};
use catdb_llm::{FaultSpec, LanguageModel, ModelProfile, ResilientClient, RetryPolicy};
use catdb_serve::{AdmissionOptions, DatasetSpec, GenerateRequest, ServeOptions};

/// Workload seeds: each fixes its workload's request list.
///
/// The model a request's pipeline fits depends on its seed, and a few
/// seeds pick ensembles that fit for 6-16 s at 4,000 rows. The
/// `oneshot-sweep` seed is the first of `0x5EED_0001..` whose whole list
/// runs in under 20 s on a 2-core machine (seeds `..0001` and `..0002`
/// draw lists of 39 s and 43 s), so that one pass fits in a run.
pub const ONESHOT_SEED: u64 = 0x0_5EED_0003;
pub const COLLECT_SEED: u64 = 0x0_5EED_0002;
pub const SERVE_SEED: u64 = 0x0_5EED_0004;

/// Rows per dataset, per workload. `collect-wide` profiles 10k rows
/// rather than 20k so that the three passes over its five tables that a
/// run makes take 20-40 s rather than twice that.
pub const ONESHOT_ROWS: usize = 4_000;
pub const COLLECT_ROWS: usize = 10_000;
pub const SERVE_ROWS: usize = 1_500;

/// `catdb-data` generation seed for every input table.
pub const DATA_SEED: u64 = 77;

/// Injected LLM transport fault rate of the serve daemon: the retry
/// stack works on every run, while the share of requests that exhaust
/// τ₂ stays what it is without faults (0.03 and above add exhausted
/// requests).
pub const SERVE_FAULT_RATE: f64 = 0.02;

/// Open-loop arrival rate of `serve-mixed`, requests per second. Back to
/// back, the daemon completed this request mix at 7.5-11.7 requests/s
/// on a 2-core x86-64 VM at `CATDB_THREADS=2`, depending on host load.
/// At 4.6/s a loaded host pushed it near saturation and the median
/// latency of identical runs spread by a quarter; 3.0/s keeps it at or
/// under 40% busy. Fixed, so the schedule is the same in every run.
pub const SERVE_RATE_PER_S: f64 = 3.0;

/// Share of `serve-mixed` arrivals that repeat an earlier request from
/// another tenant.
pub const SERVE_REPEAT_SHARE: f64 = 1.0 / 3.0;

pub const SERVE_TENANTS: [&str; 3] = ["tenant-a", "tenant-b", "tenant-c"];

/// The paper datasets swept by `oneshot-sweep` (Table 3, narrow and
/// wide; `kdd98` is left to `collect-wide`).
const ONESHOT_DATASETS: [&str; 19] = [
    "wifi",
    "diabetes",
    "tic-tac-toe",
    "imdb",
    "walking",
    "cmc",
    "eu-it",
    "survey",
    "etailing",
    "accidents",
    "financial",
    "airline",
    "gas-drift",
    "volkert",
    "yelp",
    "bike-sharing",
    "utility",
    "nyc",
    "house-sales",
];

/// Requests in one `oneshot-sweep` pass.
const ONESHOT_REQUESTS: usize = 24;

const COLLECT_DATASETS: [&str; 5] = ["kdd98", "volkert", "airline", "gas-drift", "yelp"];

/// Small paper datasets behind `serve-mixed`: the narrow Table 3 sets of
/// at most 1.5k rows. `eu-it` (148 classes) and `etailing` (44 columns)
/// also have under 1.5k rows but take 15-35 s per request in the daemon,
/// which would turn the workload into a model-fit benchmark.
const SERVE_DATASETS: [&str; 4] = ["wifi", "diabetes", "tic-tac-toe", "cmc"];

/// Seeds drawn per (dataset, model, beta) combination of `serve-mixed`.
const SERVE_SEEDS_PER_COMBINATION: usize = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OneshotSweep,
    CollectWide,
    ServeMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "oneshot-sweep" => Some(Workload::OneshotSweep),
            "collect-wide" => Some(Workload::CollectWide),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::OneshotSweep => "oneshot-sweep",
            Workload::CollectWide => "collect-wide",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn seed(self) -> u64 {
        match self {
            Workload::OneshotSweep => ONESHOT_SEED,
            Workload::CollectWide => COLLECT_SEED,
            Workload::ServeMixed => SERVE_SEED,
        }
    }

    pub fn why(self) -> &'static str {
        match self {
            Workload::OneshotSweep => {
                "the paper's main sweep, one `catdb run --csv` per dataset: pipeline and model \
                 fit dominate, with a cold private LLM cache and no faults"
            }
            Workload::CollectWide => {
                "catdb_collect alone on wide 10k-row tables: CSV ingest, profiling and catalog \
                 refinement dominate and no model is fit"
            }
            Workload::ServeMixed => {
                "an in-process daemon fed an open loop of small mixed requests from three \
                 tenants: admission, the shared completion cache, the LLM retry stack and the \
                 Algorithm-4 fix loop dominate"
            }
        }
    }
}

/// One input table, rendered to CSV at setup.
#[derive(Debug, Clone, PartialEq)]
pub struct Input {
    pub dataset: &'static str,
    pub rows: usize,
}

impl Input {
    pub fn file_name(&self) -> String {
        format!("{}-{}-{}.csv", self.dataset, self.rows, DATA_SEED)
    }
}

/// One request of a workload's list.
#[derive(Debug, Clone)]
pub struct Request {
    pub id: String,
    pub input: Input,
    pub seed: u64,
    pub model: &'static str,
    pub beta: usize,
    /// Pipeline executor: the DAG scheduler instead of the default.
    pub dag: bool,
    /// Stop after `catdb_collect` (no pipeline generation).
    pub collect_only: bool,
}

/// Deterministic 64-bit generator (splitmix64) for the request lists and
/// the serve schedule.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The workload's fixed request list, in canonical order.
pub fn requests(workload: Workload) -> Vec<Request> {
    let mut rng = SplitMix(workload.seed());
    let request = |id: String, dataset, rows, seed, model, beta, dag, collect_only| Request {
        id,
        input: Input { dataset, rows },
        seed,
        model,
        beta,
        dag,
        collect_only,
    };
    match workload {
        Workload::OneshotSweep => (0..ONESHOT_REQUESTS)
            .map(|i| {
                let dataset = if i < ONESHOT_DATASETS.len() {
                    ONESHOT_DATASETS[i]
                } else {
                    ONESHOT_DATASETS[rng.below(ONESHOT_DATASETS.len())]
                };
                let seed = rng.next_u64() % 1000;
                let id = format!("os{i:02}-{dataset}-s{seed}");
                request(id, dataset, ONESHOT_ROWS, seed, "gpt-4o", 1, false, false)
            })
            .collect(),
        Workload::CollectWide => COLLECT_DATASETS
            .iter()
            .enumerate()
            .map(|(i, &dataset)| {
                let seed = rng.next_u64() % 1000;
                let id = format!("cw{i:02}-{dataset}-s{seed}");
                request(id, dataset, COLLECT_ROWS, seed, "gpt-4o", 1, false, true)
            })
            .collect(),
        Workload::ServeMixed => {
            // Every (dataset, model, beta) combination once, each with its
            // own seed: no two distinct requests share a prompt, so only
            // deliberate repeats hit the shared cache.
            let mut out: Vec<Request> = Vec::new();
            for _ in 0..SERVE_SEEDS_PER_COMBINATION {
                for &dataset in &SERVE_DATASETS {
                    for model in ["gpt-4o", "llama3.1-70b"] {
                        for beta in [1, 3] {
                            let seed = rng.next_u64() % 1_000_000;
                            let id =
                                format!("sm{:02}-{dataset}-{model}-b{beta}-s{seed}", out.len());
                            out.push(request(
                                id, dataset, SERVE_ROWS, seed, model, beta, true, false,
                            ));
                        }
                    }
                }
            }
            // One fixed interleaving, so the schedule mixes datasets,
            // models and betas from its first arrival on.
            rng.shuffle(&mut out);
            out
        }
    }
}

/// Distinct inputs of a workload, in first-use order.
pub fn inputs(workload: Workload) -> Vec<Input> {
    let mut out: Vec<Input> = Vec::new();
    for r in requests(workload) {
        if !out.contains(&r.input) {
            out.push(r.input);
        }
    }
    out
}

/// A request mapped onto the program's configuration types.
pub struct ProgramConfig {
    pub collect: CollectOptions,
    pub pipgen: CatDbConfig,
    pub llm: Box<dyn LanguageModel>,
}

/// Library options for `catdb_collect` / `catdb_pipgen`: the LLM stack
/// and knobs `catdb run` uses at its defaults.
///
/// This function, [`wire_request`] and [`daemon_options`] are the only
/// code that maps a benchmark request onto the program's configuration
/// types; a change to how runs are configured touches them, not the
/// workloads.
pub fn program_config(req: &Request, llm_concurrency: usize) -> ProgramConfig {
    let profile = ModelProfile::by_name(req.model).expect("known model");
    let llm = ResilientClient::simulated(
        profile,
        FaultSpec::from_rate(0.0),
        RetryPolicy::default(),
        req.seed,
    );
    let pipgen = CatDbConfig {
        prompt: PromptOptions { beta: req.beta, ..Default::default() },
        seed: req.seed,
        llm_concurrency,
        exec_mode: if req.dag {
            catdb_pipeline::ExecMode::Dag
        } else {
            catdb_pipeline::ExecMode::Seq
        },
        ..Default::default()
    };
    ProgramConfig {
        collect: CollectOptions { refine: true, ..Default::default() },
        pipgen,
        llm: Box::new(llm),
    }
}

/// The version-compatible wire form of `req`, carrying its CSV inline.
/// Clients stream progress: the events carry the request's billing.
pub fn wire_request(
    req: &Request,
    tenant: &str,
    csv: String,
    target: &str,
    task: &str,
) -> GenerateRequest {
    let mut wire = GenerateRequest::new(
        tenant,
        DatasetSpec::CsvInline { name: req.input.dataset.to_string(), text: csv },
    );
    wire.target = Some(target.to_string());
    wire.task = Some(task.to_string());
    wire.model = req.model.to_string();
    wire.exec_mode = req.dag.then(|| "dag".to_string());
    wire.seed = req.seed;
    wire.beta = req.beta;
    wire.stream = true;
    wire
}

/// Daemon options for `serve-mixed`: one request executes at a time
/// while up to `connections` wait in the admission queue, so nothing is
/// shed at the scheduled rate; a completion cache large enough that a
/// run never evicts.
pub fn daemon_options(llm_concurrency: usize, connections: usize) -> ServeOptions {
    ServeOptions {
        admission: AdmissionOptions {
            max_inflight: 1,
            max_queued: connections,
            ..Default::default()
        },
        cache_capacity: 1 << 16,
        llm_concurrency,
        fault_rate: SERVE_FAULT_RATE,
        ..Default::default()
    }
}

/// Task label of a generated dataset on the wire.
pub fn task_label(task: catdb_ml::TaskKind) -> &'static str {
    match task {
        catdb_ml::TaskKind::BinaryClassification => "binary",
        catdb_ml::TaskKind::MulticlassClassification => "multiclass",
        catdb_ml::TaskKind::Regression => "regression",
    }
}

pub fn parse_task(label: &str) -> Option<catdb_ml::TaskKind> {
    match label {
        "binary" => Some(catdb_ml::TaskKind::BinaryClassification),
        "multiclass" => Some(catdb_ml::TaskKind::MulticlassClassification),
        "regression" => Some(catdb_ml::TaskKind::Regression),
        _ => None,
    }
}
