//! `serve-mixed`: an in-process `catdb-serve` daemon fed an open loop.
//!
//! Arrivals follow a Poisson schedule fixed by the workload seed. About
//! a third of the arrivals repeat an earlier request from another
//! tenant; the run's `--seed` only permutes the tenant names. A repeat
//! is never sent before the request it repeats has finished, so it is
//! served from the shared completion cache and its billing is the same
//! in every run. Latency counts from each request's due time, so any
//! wait for a connection or for the original shows up in it.

use crate::probe;
use crate::spec::{self, SplitMix, Workload};
use catdb_serve::protocol::{decode_frame, encode_frame};
use catdb_serve::{submit, ClientFrame, GenerateRequest, Outcome, Server, ServerFrame};
use catdb_trace::TraceEvent;
use serde_json::{json, Value};
use std::collections::hash_map::{Entry, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Lead time between building the daemon and the first due time.
const LEAD: Duration = Duration::from_millis(100);

/// One arrival of the schedule.
struct Slot {
    /// Seconds after the start of the run.
    due: f64,
    tenant: usize,
    /// Index into the workload's request list.
    request: usize,
    /// The earlier slot this one repeats.
    repeat_of: Option<usize>,
}

/// The arrival schedule of a run of `seconds`: Poisson arrivals at
/// [`spec::SERVE_RATE_PER_S`] and the request each one carries, fixed by
/// the workload seed, so every run replays the same schedule. `seed`
/// only permutes which tenant name each tenant slot goes by.
fn schedule(seconds: f64, seed: u64, pool: usize) -> Result<Vec<Slot>, String> {
    let mut rng = SplitMix(Workload::ServeMixed.seed() ^ 0xA5A5_0000);
    let mut tenants: Vec<usize> = (0..spec::SERVE_TENANTS.len()).collect();
    SplitMix(seed).shuffle(&mut tenants);
    let mut slots: Vec<Slot> = Vec::new();
    let mut fresh = 0;
    let mut t = 0.0;
    loop {
        t += -rng.unit().ln() / spec::SERVE_RATE_PER_S;
        if t >= seconds {
            break;
        }
        // A repeat copies a fresh arrival at least two slots back, so
        // the original has usually finished by the time it is due.
        let earlier: Vec<usize> =
            (0..slots.len().saturating_sub(1)).filter(|&i| slots[i].repeat_of.is_none()).collect();
        let repeat = !earlier.is_empty() && rng.unit() <= spec::SERVE_REPEAT_SHARE;
        let slot = if repeat {
            let orig = earlier[rng.below(earlier.len())];
            let other = (slots[orig].tenant + 1 + rng.below(tenants.len() - 1)) % tenants.len();
            Slot { due: t, tenant: other, request: slots[orig].request, repeat_of: Some(orig) }
        } else {
            fresh += 1;
            Slot { due: t, tenant: rng.below(tenants.len()), request: fresh - 1, repeat_of: None }
        };
        slots.push(slot);
    }
    if fresh > pool {
        return Err(format!("{fresh} fresh arrivals exceed the {pool}-request list"));
    }
    for slot in &mut slots {
        slot.tenant = tenants[slot.tenant];
    }
    Ok(slots)
}

/// What the client saw of one exchange.
#[derive(Default)]
struct Exchange {
    sent: Duration,
    first_progress: Option<Duration>,
    done: Duration,
    outcome: Option<Result<Outcome, String>>,
    events: Vec<TraceEvent>,
}

/// Headline test score out of the response's `Debug`-rendered metrics.
fn headline(metric: &str) -> Option<f64> {
    let key = if metric.starts_with("Regression") { "r2: " } else { "auc: " };
    let rest = &metric[metric.find(key)? + key.len()..];
    rest.split([',', ' ', '}']).next()?.parse().ok()
}

pub fn run(data: Result<&Path, &str>, seed: u64, seconds: f64, traced: bool) -> Result<(), String> {
    let dir = data?;
    let requests = spec::requests(Workload::ServeMixed);
    let slots = schedule(seconds, seed, requests.len())?;
    let mut inputs = HashMap::new();
    for req in &requests {
        if let Entry::Vacant(slot) = inputs.entry(req.input.file_name()) {
            slot.insert(crate::load_input(dir, req)?);
        }
    }
    let wires: Vec<GenerateRequest> = slots
        .iter()
        .map(|slot| {
            let req = &requests[slot.request];
            let input = &inputs[&req.input.file_name()];
            spec::wire_request(
                req,
                spec::SERVE_TENANTS[slot.tenant],
                input.text.clone(),
                &input.target,
                &input.task,
            )
        })
        .collect();

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let connections = nproc;
    let server = Server::new(spec::daemon_options(nproc, connections));
    let exchanges: Vec<Mutex<Exchange>> = slots.iter().map(|_| Mutex::default()).collect();
    let finished = (Mutex::new(vec![false; slots.len()]), Condvar::new());
    let next_slot = AtomicUsize::new(0);
    let running = AtomicBool::new(true);
    let queued_max = AtomicUsize::new(0);
    let start = Instant::now() + LEAD;

    std::thread::scope(|scope| {
        if traced {
            scope.spawn(|| {
                while running.load(Ordering::Relaxed) {
                    queued_max.fetch_max(server.admission().queued(), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
        }
        let clients: Vec<_> = (0..connections)
            .map(|_| {
                scope.spawn(|| loop {
                    let k = next_slot.fetch_add(1, Ordering::SeqCst);
                    let Some(slot) = slots.get(k) else { break };
                    let due = start + Duration::from_secs_f64(slot.due);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    if let Some(orig) = slot.repeat_of {
                        let mut done = finished.0.lock().unwrap();
                        while !done[orig] {
                            done = finished.1.wait(done).unwrap();
                        }
                    }
                    let mut ex = Exchange { sent: start.elapsed(), ..Default::default() };
                    let mut stream = server.connect_in_proc();
                    let result = submit(&mut stream, &wires[k], |_, record| {
                        if ex.first_progress.is_none() {
                            ex.first_progress = Some(start.elapsed());
                        }
                        ex.events.push(record.event.clone());
                    });
                    ex.done = start.elapsed();
                    ex.outcome = Some(result.map_err(|e| e.to_string()));
                    *exchanges[k].lock().unwrap() = ex;
                    finished.0.lock().unwrap()[k] = true;
                    finished.1.notify_all();
                })
            })
            .collect();
        for c in clients {
            c.join().expect("client thread");
        }
        running.store(false, Ordering::Relaxed);
    });
    // Every exchange has its terminal frame; let the handlers release
    // their admission slots before reporting.
    while server.admission().inflight() > 0 {
        std::thread::sleep(Duration::from_millis(1));
    }

    let mut records = Vec::new();
    let mut last_done = Duration::ZERO;
    for (k, slot) in slots.iter().enumerate() {
        let ex = exchanges[k].lock().unwrap();
        last_done = last_done.max(ex.done);
        let req = &requests[slot.request];
        let id = match slot.repeat_of {
            Some(_) => format!("{}#repeat", req.id),
            None => req.id.clone(),
        };
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mut billed_usd = 0.0;
        let mut llm_sim_s = 0.0;
        let mut event_tokens = 0usize;
        let (mut calls, mut retries, mut hits, mut saved) = (0, 0, 0, 0);
        let (mut prompt_tokens, mut completion_tokens, mut fixes) = (0, 0, 0);
        let (mut op_us, mut profile_us) = (0u64, 0u64);
        for event in &ex.events {
            match event {
                TraceEvent::LlmCall { model, prompt_tokens: p, completion_tokens: c, cost } => {
                    calls += 1;
                    prompt_tokens += p;
                    completion_tokens += c;
                    event_tokens += p + c;
                    billed_usd += cost;
                    if let Some(profile) = catdb_llm::ModelProfile::by_name(model) {
                        llm_sim_s += (p + c) as f64 / 1000.0 * profile.seconds_per_1k_tokens;
                    }
                }
                TraceEvent::LlmRetry { prompt_tokens: p, cost, backoff_seconds, .. } => {
                    retries += 1;
                    event_tokens += p;
                    billed_usd += cost;
                    llm_sim_s += backoff_seconds;
                }
                TraceEvent::CacheHit { saved_tokens, .. } => {
                    hits += 1;
                    saved += saved_tokens;
                }
                TraceEvent::ErrorIteration { .. } => fixes += 1,
                TraceEvent::PipelineOp { micros, .. } => op_us += micros,
                TraceEvent::ProfileColumn { micros, .. } => profile_us += micros,
                _ => {}
            }
        }
        let mut rec = serde_json::Map::new();
        let mut put = |k: &str, v: Value| {
            rec.insert(k.to_string(), v);
        };
        put("id", json!(id));
        put("tenant", json!(spec::SERVE_TENANTS[slot.tenant]));
        put("repeat", json!(slot.repeat_of.is_some()));
        let due = Duration::from_secs_f64(slot.due);
        put("latency_ms", json!(ms(ex.done.saturating_sub(due))));
        put("late_ms", json!(ms(ex.sent.saturating_sub(due))));
        put("billed_usd", json!(billed_usd));
        put("llm_sim_s", json!(llm_sim_s));
        let mut problems: Vec<String> = Vec::new();
        match &ex.outcome {
            Some(Ok(Outcome::Done(resp))) => {
                let metric = resp.test_metric.clone().unwrap_or_default();
                put("success", json!(resp.success && resp.test_metric.is_some()));
                put("digest", json!(probe::digest(&[&resp.pipeline, &metric])));
                put("billed_tokens", json!(resp.billed_tokens));
                put("attempts", json!(resp.attempts));
                put("handcrafted", json!(resp.handcrafted));
                put("test_score", json!(headline(&metric)));
                if event_tokens != resp.billed_tokens {
                    problems.push(format!(
                        "streamed events bill {event_tokens} tokens, the response {}",
                        resp.billed_tokens
                    ));
                }
            }
            Some(Ok(Outcome::Rejected(shed))) => {
                put("success", json!(false));
                put("shed", json!(shed.reason.clone()));
            }
            Some(Ok(Outcome::Error(message))) | Some(Err(message)) => {
                put("success", json!(false));
                problems.push(message.clone());
            }
            None => {
                put("success", json!(false));
                problems.push("no terminal frame".to_string());
            }
        }
        put("problems", json!(problems));
        if traced {
            // Codec cost of this exchange's frames, timed apart from the
            // run so it does not perturb the schedule.
            let codec_start = Instant::now();
            let submit_frame = ClientFrame::Submit(Box::new(wires[k].clone()));
            let bytes = encode_frame(&submit_frame).map_err(|e| e.to_string())?;
            let _: ClientFrame = decode_frame(&bytes).map_err(|e| e.to_string())?;
            for (seq, event) in ex.events.iter().enumerate() {
                let frame = ServerFrame::Progress { seq: seq as u64, event: event.clone() };
                let bytes = encode_frame(&frame).map_err(|e| e.to_string())?;
                let _: ServerFrame = decode_frame(&bytes).map_err(|e| e.to_string())?;
            }
            if let Some(Ok(Outcome::Done(resp))) = &ex.outcome {
                let bytes =
                    encode_frame(&ServerFrame::Done(resp.clone())).map_err(|e| e.to_string())?;
                let _: ServerFrame = decode_frame(&bytes).map_err(|e| e.to_string())?;
            }
            let codec_ms = codec_start.elapsed().as_secs_f64() * 1e3;
            let queue_wait = ex.first_progress.map(|p| ms(p.saturating_sub(ex.sent)));
            put(
                "layers",
                json!({
                    "llm_calls": calls,
                    "llm_retries": retries,
                    "prompt_tokens": prompt_tokens,
                    "completion_tokens": completion_tokens,
                    "cache_hits": hits,
                    "cache_saved_tokens": saved,
                    "fix_iterations": fixes,
                    "pipeline_op_ms": op_us as f64 / 1e3,
                    "profile_column_ms": profile_us as f64 / 1e3,
                    "queue_wait_ms": queue_wait,
                    "codec_ms": codec_ms,
                }),
            );
        }
        records.push(Value::Object(rec));
    }
    let out = json!({
        "requests": records,
        "wall_ms": last_done.as_secs_f64() * 1e3,
        "peak_rss_mb": probe::peak_rss_mb(),
        "queued_max": queued_max.load(Ordering::Relaxed),
        "connections": connections,
        "threads": crate::threads(),
    });
    println!("{out}");
    Ok(())
}
