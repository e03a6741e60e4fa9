#!/usr/bin/env bash
# Quick perf snapshot: run the criterion micro benches with a reduced
# per-bench budget and record the profiling / training / chain-scheduler /
# CSV-ingest hot-path numbers in results/BENCH_perf.json, alongside the
# pre-runtime baselines measured on the same container class. The CSV
# entry compares against the frozen seed reader benched live in the same
# run, so its speedup is an apples-to-apples same-machine figure. Also runs the chain
# cache smoke (cold + warm CLI run sharing one --llm-cache file) and
# folds its hit/zero-billing figures into the snapshot. Intended as a
# non-blocking CI step — failures here report a regression but never
# break the build.
#
# Usage: scripts/bench_quick.sh [budget_ms]   (default 120)
set -euo pipefail
cd "$(dirname "$0")/.."

BUDGET_MS="${1:-120}"
OUT="results/BENCH_perf.json"
mkdir -p results
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "== cargo bench -p catdb-bench --bench micro (budget ${BUDGET_MS} ms/bench) =="
CATDB_BENCH_BUDGET_MS="$BUDGET_MS" cargo bench -p catdb-bench --bench micro | tee "$RAW"

echo "== chain cache smoke (cold + warm run sharing one cache file) =="
SMOKE_LINE="$(scripts/chain_cache_smoke.sh | tail -1)"
echo "$SMOKE_LINE"
SMOKE_HITS="${SMOKE_LINE#*hits=}"; SMOKE_HITS="${SMOKE_HITS%% *}"
SMOKE_WARM_TOKENS="${SMOKE_LINE#*warm_tokens=}"; SMOKE_WARM_TOKENS="${SMOKE_WARM_TOKENS%% *}"

echo "== serve roundtrip (in-process transport, cold vs warm cache) =="
SERVE_LINE="$(cargo run -q -p catdb-serve --bin serve_roundtrip | tail -1)"
echo "$SERVE_LINE"
SERVE_CLIENTS="${SERVE_LINE#*clients=}"; SERVE_CLIENTS="${SERVE_CLIENTS%% *}"
SERVE_COLD_MS="${SERVE_LINE#*cold_batch_ms=}"; SERVE_COLD_MS="${SERVE_COLD_MS%% *}"
SERVE_WARM_MS="${SERVE_LINE#*warm_batch_ms=}"; SERVE_WARM_MS="${SERVE_WARM_MS%% *}"
SERVE_WARM_RPS="${SERVE_LINE#*warm_rps=}"; SERVE_WARM_RPS="${SERVE_WARM_RPS%% *}"

echo "== out-of-core sketch profiling (10M rows via spill file) =="
SKETCH_LINE="$(cargo run -q --release -p catdb-bench --bin sketch_bench bench 10000000 | tail -1)"
echo "$SKETCH_LINE"
SKETCH_INGEST_MS="${SKETCH_LINE#*ingest_ms=}"; SKETCH_INGEST_MS="${SKETCH_INGEST_MS%% *}"
SKETCH_PROFILE_MS="${SKETCH_LINE#*profile_ms=}"; SKETCH_PROFILE_MS="${SKETCH_PROFILE_MS%% *}"
SKETCH_RPS="${SKETCH_LINE#*profile_rows_per_sec=}"; SKETCH_RPS="${SKETCH_RPS%% *}"
SKETCH_BYTES="${SKETCH_LINE#*csv_bytes=}"; SKETCH_BYTES="${SKETCH_BYTES%% *}"

echo "== DAG executor vs sequential (65-step pipeline, 8 threads) =="
DAG_LINE="$(CATDB_THREADS=8 cargo run -q --release -p catdb-bench --bin dag_bench | tail -1)"
echo "$DAG_LINE"
DAG_STEPS="${DAG_LINE#*steps=}"; DAG_STEPS="${DAG_STEPS%% *}"
DAG_SEQ_MS="${DAG_LINE#*seq_ms=}"; DAG_SEQ_MS="${DAG_SEQ_MS%% *}"
DAG_DAG_MS="${DAG_LINE#*dag_ms=}"; DAG_DAG_MS="${DAG_DAG_MS%% *}"
DAG_SPEEDUP="${DAG_LINE#*speedup=}"; DAG_SPEEDUP="${DAG_SPEEDUP%% *}"

# Pre-PR baselines (300 ms budget, same machine class): mean ms/iter before
# the shared runtime, profile memo, and incremental tree-split scan landed.
BASE_PROFILING_MS=240.818
BASE_FOREST_MS=29.803

awk -v out="$OUT" -v budget_ms="$BUDGET_MS" \
    -v base_prof="$BASE_PROFILING_MS" -v base_forest="$BASE_FOREST_MS" \
    -v smoke_hits="$SMOKE_HITS" -v smoke_warm_tokens="$SMOKE_WARM_TOKENS" \
    -v serve_clients="$SERVE_CLIENTS" -v serve_cold_ms="$SERVE_COLD_MS" \
    -v serve_warm_ms="$SERVE_WARM_MS" -v serve_warm_rps="$SERVE_WARM_RPS" \
    -v sketch_ingest_ms="$SKETCH_INGEST_MS" -v sketch_profile_ms="$SKETCH_PROFILE_MS" \
    -v sketch_rps="$SKETCH_RPS" -v sketch_bytes="$SKETCH_BYTES" \
    -v dag_steps="$DAG_STEPS" -v dag_seq_ms="$DAG_SEQ_MS" \
    -v dag_dag_ms="$DAG_DAG_MS" -v dag_speedup="$DAG_SPEEDUP" '
  # Convert a criterion duration token ("4.508ms", "127.3µs", "1.2s") to ms.
  function to_ms(s,  v) {
    v = s; gsub(/[^0-9.]/, "", v); v += 0
    if (index(s, "µs") > 0 || index(s, "us") > 0) return v / 1000
    if (index(s, "ns") > 0) return v / 1000000
    if (index(s, "ms") > 0) return v
    return v * 1000  # plain seconds
  }
  $1 == "gas-drift_2000rows" { prof_ms = to_ms($2) }
  $1 == "random_forest_20trees_1000x20" { forest_ms = to_ms($2) }
  $1 == "random_forest_binned_20trees_1000x20" { binned_ms = to_ms($2) }
  $1 == "gradient_boosting_reg_exact_1000x20" { boost_reg_ms = to_ms($2) }
  $1 == "knn_blocked_1000x20" { knn_ms = to_ms($2) }
  $1 == "chain_gen_beta4_seq" { chain_seq_ms = to_ms($2) }
  $1 == "chain_gen_beta4_conc4" { chain_conc_ms = to_ms($2) }
  $1 == "cache_cold_miss" { cache_cold_ms = to_ms($2) }
  $1 == "cache_warm_hit" { cache_warm_ms = to_ms($2) }
  $1 == "ingest_50k_mixed" { csv_ingest_ms = to_ms($2) }
  $1 == "seed_ingest_50k_mixed" { csv_seed_ms = to_ms($2) }
  $1 == "write_roundtrip_50k_mixed" { csv_rt_ms = to_ms($2) }
  END {
    if (prof_ms == 0 || forest_ms == 0 || binned_ms == 0 || boost_reg_ms == 0 || knn_ms == 0 ||
        chain_seq_ms == 0 || chain_conc_ms == 0 ||
        cache_cold_ms == 0 || cache_warm_ms == 0 ||
        csv_ingest_ms == 0 || csv_seed_ms == 0 || csv_rt_ms == 0) {
      print "bench_quick: missing bench lines in output" > "/dev/stderr"
      exit 1
    }
    prof_rows_s = 2000 / (prof_ms / 1000)
    forest_rows_s = 1000 / (forest_ms / 1000)
    printf "{\n" > out
    printf "  \"budget_ms\": %d,\n", budget_ms >> out
    printf "  \"benches\": {\n" >> out
    printf "    \"profiling/gas-drift_2000rows\": {\n" >> out
    printf "      \"mean_ms\": %.3f,\n", prof_ms >> out
    printf "      \"rows_per_sec\": %.0f,\n", prof_rows_s >> out
    printf "      \"baseline_ms\": %.3f,\n", base_prof >> out
    printf "      \"speedup\": %.2f\n", base_prof / prof_ms >> out
    printf "    },\n" >> out
    printf "    \"models/random_forest_20trees_1000x20\": {\n" >> out
    printf "      \"mean_ms\": %.3f,\n", forest_ms >> out
    printf "      \"rows_per_sec\": %.0f,\n", forest_rows_s >> out
    printf "      \"baseline_ms\": %.3f,\n", base_forest >> out
    printf "      \"speedup\": %.2f\n", base_forest / forest_ms >> out
    printf "    },\n" >> out
    printf "    \"models/random_forest_binned\": {\n" >> out
    printf "      \"mean_ms\": %.3f,\n", binned_ms >> out
    printf "      \"rows_per_sec\": %.0f,\n", 1000 / (binned_ms / 1000) >> out
    printf "      \"exact_ms\": %.3f,\n", forest_ms >> out
    printf "      \"speedup_vs_exact\": %.2f\n", forest_ms / binned_ms >> out
    printf "    },\n" >> out
    printf "    \"models/gradient_boosting_reg_exact_1000x20\": {\n" >> out
    printf "      \"mean_ms\": %.3f,\n", boost_reg_ms >> out
    printf "      \"rows_per_sec\": %.0f\n", 1000 / (boost_reg_ms / 1000) >> out
    printf "    },\n" >> out
    printf "    \"models/knn_blocked\": {\n" >> out
    printf "      \"mean_ms\": %.3f,\n", knn_ms >> out
    printf "      \"queries_per_sec\": %.0f\n", 1000 / (knn_ms / 1000) >> out
    printf "    },\n" >> out
    printf "    \"chain/generate_beta4_3ms_latency\": {\n" >> out
    printf "      \"sequential_ms\": %.3f,\n", chain_seq_ms >> out
    printf "      \"concurrency4_ms\": %.3f,\n", chain_conc_ms >> out
    printf "      \"speedup\": %.2f\n", chain_seq_ms / chain_conc_ms >> out
    printf "    },\n" >> out
    printf "    \"cache/completion_lookup\": {\n" >> out
    printf "      \"cold_miss_ms\": %.4f,\n", cache_cold_ms >> out
    printf "      \"warm_hit_ms\": %.4f,\n", cache_warm_ms >> out
    printf "      \"speedup\": %.2f\n", cache_cold_ms / cache_warm_ms >> out
    printf "    },\n" >> out
    printf "    \"cache/chain_smoke_warm_run\": {\n" >> out
    printf "      \"cache_hits\": %d,\n", smoke_hits >> out
    printf "      \"billed_tokens\": %d,\n", smoke_warm_tokens >> out
    printf "      \"identical_output\": true\n" >> out
    printf "    },\n" >> out
    printf "    \"csv/ingest_50k_mixed\": {\n" >> out
    printf "      \"median_ms\": %.3f,\n", csv_ingest_ms >> out
    printf "      \"rows_per_sec\": %.0f,\n", 50000 / (csv_ingest_ms / 1000) >> out
    printf "      \"seed_reader_ms\": %.3f,\n", csv_seed_ms >> out
    printf "      \"speedup\": %.2f\n", csv_seed_ms / csv_ingest_ms >> out
    printf "    },\n" >> out
    printf "    \"csv/write_roundtrip_50k_mixed\": {\n" >> out
    printf "      \"median_ms\": %.3f\n", csv_rt_ms >> out
    printf "    },\n" >> out
    printf "    \"serve/roundtrip_in_proc\": {\n" >> out
    printf "      \"clients\": %d,\n", serve_clients >> out
    printf "      \"cold_batch_ms\": %.3f,\n", serve_cold_ms >> out
    printf "      \"warm_batch_ms\": %.3f,\n", serve_warm_ms >> out
    printf "      \"warm_req_per_sec\": %.1f,\n", serve_warm_rps >> out
    printf "      \"speedup\": %.2f\n", serve_cold_ms / serve_warm_ms >> out
    printf "    },\n" >> out
    printf "    \"profiler/sketch_10m_rows\": {\n" >> out
    printf "      \"csv_bytes\": %d,\n", sketch_bytes >> out
    printf "      \"ingest_ms\": %.1f,\n", sketch_ingest_ms >> out
    printf "      \"profile_ms\": %.1f,\n", sketch_profile_ms >> out
    printf "      \"profile_rows_per_sec\": %.0f\n", sketch_rps >> out
    printf "    },\n" >> out
    printf "    \"pipeline/dag_parallel\": {\n" >> out
    printf "      \"steps\": %d,\n", dag_steps >> out
    printf "      \"seq_ms\": %.1f,\n", dag_seq_ms >> out
    printf "      \"dag_ms\": %.1f,\n", dag_dag_ms >> out
    printf "      \"speedup\": %.2f\n", dag_speedup >> out
    printf "    }\n" >> out
    printf "  }\n" >> out
    printf "}\n" >> out
    printf "profiling : %.3f ms/iter (baseline %.3f, %.2fx)\n", prof_ms, base_prof, base_prof / prof_ms
    printf "forest    : %.3f ms/iter (baseline %.3f, %.2fx)\n", forest_ms, base_forest, base_forest / forest_ms
    printf "binned    : %.3f ms/iter (exact %.3f, %.2fx)\n", binned_ms, forest_ms, forest_ms / binned_ms
    printf "boost reg : %.3f ms/iter exact 60-round fit 1000x20\n", boost_reg_ms
    printf "knn       : %.3f ms/iter fit+predict 1000x20 (blocked kernel)\n", knn_ms
    printf "chain     : %.3f ms seq vs %.3f ms conc4 (%.2fx)\n", chain_seq_ms, chain_conc_ms, chain_seq_ms / chain_conc_ms
    printf "cache     : %.4f ms miss vs %.4f ms hit (%.2fx); warm smoke %d hit(s), %d billed token(s)\n", cache_cold_ms, cache_warm_ms, cache_cold_ms / cache_warm_ms, smoke_hits, smoke_warm_tokens
    printf "csv       : %.3f ms ingest vs %.3f ms seed reader (%.2fx); %.3f ms write+read roundtrip\n", csv_ingest_ms, csv_seed_ms, csv_seed_ms / csv_ingest_ms, csv_rt_ms
    printf "serve     : %d clients, %.1f ms cold vs %.1f ms warm batch (%.1f req/sec warm)\n", serve_clients, serve_cold_ms, serve_warm_ms, serve_warm_rps
    printf "sketch    : 10M rows out-of-core, %.1f ms ingest + %.1f ms profile (%.0f rows/sec)\n", sketch_ingest_ms, sketch_profile_ms, sketch_rps
    printf "dag       : %d-step pipeline, %.1f ms seq vs %.1f ms dag at 8 threads (%.2fx)\n", dag_steps, dag_seq_ms, dag_dag_ms, dag_speedup
  }
' "$RAW"

echo "Wrote $OUT"
