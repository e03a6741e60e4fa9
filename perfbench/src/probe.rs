//! Measurement from outside the program: a timing `LanguageModel`
//! wrapper, per-layer self-time attribution over recorded intervals,
//! output digests, and the process's peak memory.

use catdb_llm::{Completion, LanguageModel, LlmError, Prompt};
use std::sync::Mutex;
use std::time::Instant;

/// One completed LLM call as seen by [`TimedLlm`].
#[derive(Debug, Clone, Copy)]
pub struct CallRecord {
    pub start_us: u64,
    pub end_us: u64,
    pub prompt_tokens: usize,
    pub completion_tokens: usize,
    pub sim_seconds: f64,
}

/// Times and counts every call into the wrapped model. Cache hits of a
/// scheduler stacked on top never reach it, so its token totals are the
/// billed tokens.
pub struct TimedLlm<'a> {
    inner: &'a dyn LanguageModel,
    epoch: Instant,
    calls: Mutex<Vec<CallRecord>>,
}

impl<'a> TimedLlm<'a> {
    pub fn new(inner: &'a dyn LanguageModel, epoch: Instant) -> TimedLlm<'a> {
        TimedLlm { inner, epoch, calls: Mutex::new(Vec::new()) }
    }

    pub fn calls(&self) -> Vec<CallRecord> {
        self.calls.lock().unwrap().clone()
    }

    pub fn billed_tokens(&self) -> usize {
        self.calls.lock().unwrap().iter().map(|c| c.prompt_tokens + c.completion_tokens).sum()
    }
}

impl LanguageModel for TimedLlm<'_> {
    fn model_name(&self) -> &str {
        self.inner.model_name()
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }

    fn complete(&self, prompt: &Prompt) -> Result<Completion, LlmError> {
        let start_us = micros_since(self.epoch);
        let result = self.inner.complete(prompt);
        let end_us = micros_since(self.epoch);
        if let Ok(c) = &result {
            self.calls.lock().unwrap().push(CallRecord {
                start_us,
                end_us,
                prompt_tokens: c.usage.input,
                completion_tokens: c.usage.output,
                sim_seconds: c.latency_seconds,
            });
        }
        result
    }

    fn model_for(&self, prompt: &Prompt) -> &str {
        self.inner.model_for(prompt)
    }
}

pub fn micros_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_micros() as u64
}

/// A half-open time interval in microseconds.
pub type Span = (u64, u64);

/// Attribute every instant of `[0, wall)` to the first layer (in
/// priority order) with an interval covering it, and return each layer's
/// self time in microseconds. Parallel or nested intervals of one layer
/// count once, so the results sum to at most `wall`.
pub fn self_times(wall: u64, layers: &[Vec<Span>]) -> Vec<u64> {
    let mut cuts: Vec<u64> = vec![0, wall];
    for layer in layers {
        for &(a, b) in layer {
            cuts.push(a.min(wall));
            cuts.push(b.min(wall));
        }
    }
    cuts.sort_unstable();
    cuts.dedup();
    let mut out = vec![0u64; layers.len()];
    for w in cuts.windows(2) {
        let (a, b) = (w[0], w[1]);
        if a == b {
            continue;
        }
        if let Some(i) = layers.iter().position(|l| l.iter().any(|&(s, e)| s <= a && e >= b)) {
            out[i] += b - a;
        }
    }
    out
}

/// Output digest: FNV-1a 64 over the parts, each terminated so part
/// boundaries count. Run-to-run checks pair it with the billed tokens.
pub fn digest(parts: &[&str]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in part.as_bytes().iter().chain(std::iter::once(&0xff)) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_respect_priority_and_merge_overlaps() {
        let llm = vec![(10, 20)];
        let pipeline = vec![(5, 30), (25, 40)];
        let core = vec![(0, 50)];
        let t = self_times(60, &[llm, pipeline, core]);
        assert_eq!(t, vec![10, 25, 15]);
    }
}
