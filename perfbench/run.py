#!/usr/bin/env python3
"""CatDB benchmark: end-to-end and per-layer figures over three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload oneshot-sweep --seed 1 --seconds 15 --trace 0

It builds the `catdb-perfbench` worker from source (into
$CARGO_TARGET_DIR, default `.bench_build`), generates the workload's
inputs (timed as `setup_s`, the median of repeated set-ups), measures, checks
every output, prints a report, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics, measured without any
benchmark instrumentation at CATDB_THREADS = nproc. `--trace 1` reports
the per-layer metrics, measured in traced passes at CATDB_THREADS=1
(suffix `.t1`) and at nproc (`.tn`); each traced pass is paired with an
untraced pass of the same requests for `harness.trace_overhead`.

Closed-loop workloads replay whole passes over their fixed request list
(in an order permuted by `--seed`) until `--seconds` have elapsed, one
process per request as with `catdb run`. `serve-mixed` runs one daemon
process for `--seconds` of scheduled arrivals.

Output check: each request's (output digest, billed tokens) must match
`perfbench/golden.json` and be the same in every pass, at every thread
count, traced or not; in traced runs the benchmark's LLM wrapper must
count the tokens `measured_cost()` reports. `--record-golden` rewrites
the golden entries of the requests it sees.
"""

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 200
REQUEST_TIMEOUT_S = 150
CLOSED_LOOP = ("oneshot-sweep", "collect-wide")
# collect-wide has five requests: three passes make its median latency
# the median of three measurements of one request, not a single one.
MIN_PASSES = {"oneshot-sweep": 1, "collect-wide": 3}
WORKLOADS = CLOSED_LOOP + ("serve-mixed",)

# Gated end-to-end metrics, in BENCHMARK.json order.
END_TO_END = [
    ("throughput_rpm", "1/min"),
    ("latency_p50_ms", "ms"),
    ("billed_tokens_per_req", "tokens"),
    ("billed_usd_per_req", "usd"),
    ("success_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]
# Reported beside them, not gated: deterministic per request list
# (simulated seconds, attempts, scores) or not defined on every workload.
REPORTED = [
    ("latency_tail_ms", "ms"),
    ("llm_sim_s_per_req", "s"),
    ("fix_attempts_per_req", "count"),
    ("test_score", "score"),
    ("repeat_share", "ratio"),
]
LAYERS = ["table", "profiler", "catalog", "llm", "core", "pipeline"]
PER_LAYER = [
    ("table.csv_ingest_ms", "ms"),
    ("table.csv_mb_per_s", "MB/s"),
    ("profiler.profile_ms", "ms"),
    ("catalog.refine_ms", "ms"),
    ("catalog.refine_llm_calls", "count"),
    ("llm.calls", "count"),
    ("llm.busy_ms", "ms"),
    ("llm.retries", "count"),
    ("llm.prompt_tokens", "tokens"),
    ("llm.completion_tokens", "tokens"),
    ("sched.cache_hit_ratio", "ratio"),
    ("sched.saved_tokens", "tokens"),
    ("core.generate_ms", "ms"),
    ("core.self_ms", "ms"),
    ("core.fix_iterations", "count"),
    ("core.handcrafted_share", "ratio"),
    ("pipeline.execute_ms", "ms"),
    ("pipeline.executions", "count"),
    ("pipeline.step_cache_hit_ratio", "ratio"),
    ("ml.tree_fit_busy_ms", "ms"),
    ("ml.tree_fits", "count"),
    ("runtime.tasks", "count"),
    ("runtime.steals", "count"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.codec_ms", "ms"),
    ("serve.sheds", "count"),
    ("serve.queued_max", "count"),
    ("harness.gen_late_ms", "ms"),
    ("harness.trace_overhead", "ratio"),
    ("harness.layer_cover", "ratio"),
    ("harness.repeat_share", "ratio"),
] + [(f"{layer}.share", "ratio") for layer in LAYERS]
PER_LAYER_NAMES = {name for name, _ in PER_LAYER}

# Per-layer metrics each workload can measure from outside the program;
# the rest print as 0 and are listed as not measured.
SERVE_MEASURED = {
    "profiler.profile_ms", "llm.calls", "llm.retries", "llm.prompt_tokens",
    "llm.completion_tokens", "sched.cache_hit_ratio", "sched.saved_tokens",
    "core.fix_iterations", "core.handcrafted_share", "pipeline.execute_ms",
    "serve.queue_wait_ms", "serve.codec_ms", "serve.sheds", "serve.queued_max",
    "harness.gen_late_ms", "harness.trace_overhead", "harness.repeat_share",
}
CLOSED_MEASURED = PER_LAYER_NAMES - {
    "serve.queue_wait_ms", "serve.codec_ms", "serve.sheds", "serve.queued_max",
    "harness.gen_late_ms",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def run_checked(cmd, env=None, timeout=None):
    """Run a child to completion; return (stdout, seconds)."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(map(str, cmd))} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return proc.stdout, seconds


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    run_checked(["cargo", "build", "--release", "--offline", "--quiet",
                 "--manifest-path", str(HERE / "Cargo.toml")], env=env)
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    return target / "release" / "catdb-perfbench", target / "perfbench"


def child_env(threads):
    env = dict(os.environ)
    env["CATDB_THREADS"] = str(threads)
    # Bound glibc's per-thread malloc arenas: with one arena per
    # short-lived connection thread, peak RSS varies with thread timing.
    env["MALLOC_ARENA_MAX"] = "2"
    return env


def nearest_rank(sorted_values, pct):
    k = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def tail(latencies):
    """Highest whole percentile with at least 10 samples above it, or
    None when the run has too few samples for a tail beyond the median."""
    values = sorted(latencies)
    n = len(values)
    if n < 21:
        return None
    for pct in range(99, 49, -1):
        value = nearest_rank(values, pct)
        if sum(1 for v in values if v > value) >= 10:
            return {"value": value, "percentile": pct,
                    "samples_beyond": sum(1 for v in values if v > value)}
    return None


class Checker:
    """Cross-run and within-run output consistency."""

    def __init__(self, workload, record):
        self.record = record
        self.golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        self.expected = self.golden.setdefault(workload, {})
        self.seen = {}
        self.seen_tokens = {}
        self.failures = []

    def check(self, rec):
        """Return True when the request's output is as expected."""
        problems = list(rec.get("problems", []))
        if not rec.get("success"):
            problems.append("no result" + (f" (shed: {rec['shed']})" if "shed" in rec else ""))
        rid = rec["id"]
        repeat = rid.endswith("#repeat")
        base = rid.removesuffix("#repeat")
        if "digest" in rec:
            digest, tokens = rec["digest"], rec["billed_tokens"]
            if repeat and tokens != 0:
                problems.append(f"repeat billed {tokens} tokens")
            if self.seen.setdefault(base, digest) != digest:
                problems.append("output differs between passes of this run")
            if not repeat and self.seen_tokens.setdefault(base, tokens) != tokens:
                problems.append("billing differs between passes of this run")
            want = self.expected.get(base)
            if self.record:
                if not repeat:
                    self.expected[base] = {"digest": digest, "billed_tokens": tokens}
            elif want is None:
                problems.append("no golden output for this request")
            elif want["digest"] != digest or (not repeat and want["billed_tokens"] != tokens):
                problems.append(f"output differs from golden {want}")
        if problems:
            self.failures.append({"id": rid, "problems": problems})
        return not problems

    def save(self):
        if self.record:
            ordered = {w: dict(sorted(self.golden.get(w, {}).items())) for w in WORKLOADS
                       if self.golden.get(w)}
            GOLDEN.write_text(json.dumps(ordered, indent=1) + "\n")


def closed_pass(binary, data, workload, order, threads, traced):
    """One pass over the request list; returns (records, wall seconds)."""
    records = []
    start = time.perf_counter()
    for index in order:
        cmd = [binary, "request", "--workload", workload, "--data", data,
               "--index", str(index)] + (["--traced"] if traced else [])
        try:
            out, seconds = run_checked(cmd, env=child_env(threads), timeout=REQUEST_TIMEOUT_S)
            rec = last_json(out)
            rec["latency_ms"] = seconds * 1e3
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
            rec = {"id": f"index-{index}", "success": False, "problems": [str(err)[-500:]]}
        records.append(rec)
    return records, time.perf_counter() - start


def serve_pass(binary, data, seed, seconds, threads, traced):
    cmd = [binary, "serve", "--data", data, "--seed", str(seed), "--seconds", str(seconds)]
    out, _ = run_checked(cmd + (["--traced"] if traced else []), env=child_env(threads),
                         timeout=REQUEST_TIMEOUT_S)
    return last_json(out)


def mean(values):
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def end_to_end(workload, records, wall_s, peak_rss):
    done = [r for r in records if r.get("success")]
    latencies = [r["latency_ms"] for r in records if "latency_ms" in r]
    scores = [r["test_score"] for r in done if r.get("test_score") is not None]
    n = max(1, len(records))
    metrics = {
        "throughput_rpm": len(done) / wall_s * 60.0,
        "latency_p50_ms": statistics.median(latencies) if latencies else 0.0,
        "billed_tokens_per_req": mean(r.get("billed_tokens", 0) for r in done),
        "billed_usd_per_req": mean(r.get("billed_usd", 0.0) for r in done),
        "success_share": len(done) / n,
        "peak_rss_mb": peak_rss,
        "llm_sim_s_per_req": mean(r.get("llm_sim_s", 0.0) for r in done),
    }
    metrics["repeat_share"] = mean(1.0 if r.get("repeat") else 0.0 for r in records)
    if workload != "collect-wide":
        metrics["fix_attempts_per_req"] = mean(r.get("attempts", 0) for r in done)
        metrics["test_score"] = mean(scores)
    t = tail(latencies)
    if t is not None:
        metrics["latency_tail_ms"] = t["value"]
        metrics["latency_tail_percentile"] = t["percentile"]
        metrics["latency_tail_samples_beyond"] = t["samples_beyond"]
    return metrics


def closed_layers(records, traced_wall, untraced_wall):
    lay = [r["layers"] for r in records if "layers" in r]
    total = lambda key: sum(l[key] for l in lay)
    avg = lambda key: mean(l[key] for l in lay)
    wall_ms = sum(r["wall_ms"] for r in records if "layers" in r)
    self_ms = {k: sum(l["self_ms"][k] for l in lay) for k in LAYERS}
    hits, calls = total("cache_hits"), total("llm_calls")
    step_hits, step_misses = total("step_cache_hits"), total("step_cache_misses")
    ingest_s = total("csv_ingest_ms") / 1e3
    out = {
        "table.csv_ingest_ms": avg("csv_ingest_ms"),
        "table.csv_mb_per_s": total("csv_bytes") / 1e6 / ingest_s if ingest_s else 0.0,
        "profiler.profile_ms": avg("profile_ms"),
        "catalog.refine_ms": self_ms["catalog"] / max(1, len(lay)),
        "catalog.refine_llm_calls": avg("refine_llm_calls"),
        "llm.calls": avg("llm_calls"),
        "llm.busy_ms": avg("llm_busy_ms"),
        "llm.retries": avg("llm_retries"),
        "llm.prompt_tokens": avg("prompt_tokens"),
        "llm.completion_tokens": avg("completion_tokens"),
        "sched.cache_hit_ratio": hits / (hits + calls) if hits + calls else 0.0,
        "sched.saved_tokens": avg("cache_saved_tokens"),
        "core.generate_ms": avg("generate_ms"),
        "core.self_ms": self_ms["core"] / max(1, len(lay)),
        "core.fix_iterations": avg("fix_iterations"),
        "core.handcrafted_share": mean(1.0 if r.get("handcrafted") else 0.0 for r in records),
        "pipeline.execute_ms": avg("execute_ms"),
        "pipeline.executions": avg("executions"),
        "pipeline.step_cache_hit_ratio":
            step_hits / (step_hits + step_misses) if step_hits + step_misses else 0.0,
        "ml.tree_fit_busy_ms": avg("tree_fit_busy_ms"),
        "ml.tree_fits": avg("tree_fits"),
        "runtime.tasks": avg("runtime_tasks"),
        "runtime.steals": avg("runtime_steals"),
        "harness.trace_overhead": traced_wall / untraced_wall,
        "harness.layer_cover": sum(self_ms.values()) / wall_ms if wall_ms else 0.0,
        "harness.repeat_share": 0.0,
    }
    for layer in LAYERS:
        out[f"{layer}.share"] = self_ms[layer] / wall_ms if wall_ms else 0.0
    return out


def serve_layers(result, plain):
    records = result["requests"]
    lay = [r["layers"] for r in records if "layers" in r]
    total = lambda key: sum(l[key] for l in lay)
    avg = lambda key: mean(l[key] for l in lay)
    hits, calls = total("cache_hits"), total("llm_calls")
    waits = [l["queue_wait_ms"] for l in lay if l["queue_wait_ms"] is not None]
    return {
        "profiler.profile_ms": avg("profile_column_ms"),
        "llm.calls": avg("llm_calls"),
        "llm.retries": avg("llm_retries"),
        "llm.prompt_tokens": avg("prompt_tokens"),
        "llm.completion_tokens": avg("completion_tokens"),
        "sched.cache_hit_ratio": hits / (hits + calls) if hits + calls else 0.0,
        "sched.saved_tokens": avg("cache_saved_tokens"),
        "core.fix_iterations": avg("fix_iterations"),
        "core.handcrafted_share": mean(1.0 if r.get("handcrafted") else 0.0 for r in records),
        "pipeline.execute_ms": avg("pipeline_op_ms"),
        "serve.queue_wait_ms": mean(waits),
        "serve.codec_ms": avg("codec_ms"),
        "serve.sheds": float(sum(1 for r in records if "shed" in r)),
        "serve.queued_max": float(result["queued_max"]),
        "harness.gen_late_ms": mean(r["late_ms"] for r in records),
        # The open loop's wall time is set by its schedule; compare
        # latencies instead.
        "harness.trace_overhead": mean(r["latency_ms"] for r in records)
        / mean(r["latency_ms"] for r in plain["requests"]),
        "harness.repeat_share": mean(1.0 if r["repeat"] else 0.0 for r in records),
    }


def setup(binary, data, workload):
    """Median wall time of repeated set-ups: at least three, and enough
    for a short set-up to be timed over about two seconds in all."""
    times = []
    while len(times) < SETUP_MIN_REPEATS or (
            sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS):
        _, seconds = run_checked([binary, "setup", "--workload", workload, "--data", data])
        times.append(seconds)
    return statistics.median(times), times


def context(binary, workload, args, nproc):
    pool = last_json(run_checked([binary, "pool", "--workload", workload])[0])
    try:
        rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True,
                               cwd=ROOT).stdout.strip()
    except OSError:
        rustc = "unknown"
    return {
        "workload": workload,
        "why": pool["why"],
        "workload_seed": pool["workload_seed"],
        "requests_in_list": len(pool["requests"]),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "catdb_threads": [1, nproc] if args.trace else [nproc],
        "rustc": rustc,
    }, pool


def measure_closed(binary, data, workload, args, pool, nproc):
    order = list(range(len(pool["requests"])))
    random.Random(args.seed).shuffle(order)
    passes = []
    if args.trace:
        layers = {}
        for suffix, threads in (("t1", 1), ("tn", nproc)):
            plain, plain_wall = closed_pass(binary, data, workload, order, threads, False)
            traced, traced_wall = closed_pass(binary, data, workload, order, threads, True)
            passes += [plain, traced]
            layers[suffix] = closed_layers(traced, traced_wall, plain_wall)
        return passes, layers
    # Whole passes until --seconds have elapsed, without starting a pass
    # that would end more than half a run past them.
    elapsed = 0.0
    while len(passes) < MIN_PASSES[workload] or (
            elapsed < args.seconds
            and elapsed * (len(passes) + 1) / len(passes) <= 1.5 * args.seconds):
        records, wall = closed_pass(binary, data, workload, order, nproc, False)
        passes.append(records)
        elapsed += wall
    return passes, elapsed


def measure_serve(binary, data, args, nproc):
    if args.trace:
        layers, passes = {}, []
        for suffix, threads in (("t1", 1), ("tn", nproc)):
            plain = serve_pass(binary, data, args.seed, args.seconds, threads, False)
            traced = serve_pass(binary, data, args.seed, args.seconds, threads, True)
            passes += [plain, traced]
            layers[suffix] = serve_layers(traced, plain)
        return passes, layers
    result = serve_pass(binary, data, args.seed, args.seconds, nproc, False)
    return [result], result


def fmt(value):
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "crates").is_dir() or not (HERE / "Cargo.toml").is_file():
        log("perfbench: the workspace sources are missing; run from a full checkout")
        return 2
    try:
        binary, work = build()
    except (RuntimeError, OSError) as err:
        log(f"perfbench: build failed: {err}")
        return 2
    binary = str(binary)
    workload = args.workload
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    data = str(work / workload)
    info, pool = context(binary, workload, args, nproc)
    setup_s, setup_times = setup(binary, data, workload)
    checker = Checker(workload, args.record_golden)

    if workload == "serve-mixed":
        passes, measured = measure_serve(binary, data, args, nproc)
        all_records = [r for p in passes for r in p["requests"]]
    else:
        passes, measured = measure_closed(binary, data, workload, args, pool, nproc)
        all_records = [r for p in passes for r in p]
    failed = sum(0 if checker.check(r) else 1 for r in all_records)
    checker.save()

    report = {"context": info, "setup_s_each": setup_times}
    if args.trace:
        names = SERVE_MEASURED if workload == "serve-mixed" else CLOSED_MEASURED
        metrics = {}
        for name, unit in PER_LAYER:
            for suffix in ("t1", "tn"):
                value = measured[suffix].get(name, 0.0) if name in names else 0.0
                metrics[f"{name}.{suffix}"] = {"value": float(value), "unit": unit}
        report["not_measured"] = sorted(PER_LAYER_NAMES - names)
        shown = metrics
    else:
        if workload == "serve-mixed":
            figures = end_to_end(workload, measured["requests"], measured["wall_ms"] / 1e3,
                                 measured["peak_rss_mb"])
        else:
            figures = end_to_end(workload, all_records, measured,
                                 max(r.get("peak_rss_mb", 0.0) for r in all_records))
            report["passes"] = len(passes)
        figures["setup_s"] = setup_s
        if "latency_tail_ms" in figures and figures["latency_tail_ms"] < figures["latency_p50_ms"]:
            checker.failures.append({"id": "*", "problems": ["latency tail below p50"]})
            failed += 1
        report["reported"] = {k: v for k, v in figures.items()
                              if k not in dict(END_TO_END)}
        metrics = {name: {"value": float(figures[name]), "unit": unit}
                   for name, unit in END_TO_END}
        shown = dict(metrics)
        for name, unit in REPORTED:
            if name in figures:
                shown[name] = {"value": float(figures[name]), "unit": unit}
    report["failures"] = checker.failures[:50]
    report["requests"] = all_records

    print(f"# {workload}: {info['why']}")
    print(f"# workload seed {info['workload_seed']:#x}, run seed {args.seed}, nproc {nproc}, "
          f"CATDB_THREADS {info['catdb_threads']}, {info['rustc']}")
    print(f"# setup_s: median of {len(setup_times)} set-ups, "
          f"{min(setup_times):.4f}-{max(setup_times):.4f} s")
    for name, m in shown.items():
        print(f"{name:36s} {fmt(m['value']):>14s} {m['unit']}")
    if args.trace:
        print(f"# not measured on this workload (printed as 0): "
              f"{', '.join(report['not_measured']) or 'none'}")
    elif "latency_tail_percentile" in report["reported"]:
        print(f"# latency_tail_ms is p{report['reported']['latency_tail_percentile']} with "
              f"{report['reported']['latency_tail_samples_beyond']} samples beyond it")
    else:
        print("# latency_tail_ms: too few requests per run for a tail")
    for failure in checker.failures[:10]:
        print(f"# FAILED {failure['id']}: {'; '.join(failure['problems'])[:300]}")
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-trace{args.trace}-seed{args.seed}.json").write_text(
        json.dumps({**report, "metrics": metrics}, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": len(all_records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
