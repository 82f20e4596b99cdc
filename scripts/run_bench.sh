#!/usr/bin/env bash
# Builds the Release tree, runs the micro benchmarks in JSON mode, and
# distills the paper-scale before/after pairs into BENCH_perf.json at the
# repo root (machine-readable speedups for the vectorized numeric core).
# Usage: scripts/run_bench.sh [benchmark filter regex]
set -euo pipefail
cd "$(dirname "$0")/.."

FILTER="${1:-}"

if cmake --preset default >/dev/null 2>&1; then
  cmake --build --preset default -j "$(nproc)" --target micro_benchmarks
else
  cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build -j "$(nproc)" --target micro_benchmarks
fi

RAW="build/bench_raw.json"
ARGS=(--benchmark_format=json --benchmark_out="${RAW}" --benchmark_min_time=0.2)
if [[ -n "${FILTER}" ]]; then
  ARGS+=(--benchmark_filter="${FILTER}")
fi
build/bench/micro_benchmarks "${ARGS[@]}"

python3 - "${RAW}" BENCH_perf.json <<'EOF'
import json
import os
import sys

raw_path, out_path = sys.argv[1], sys.argv[2]
with open(raw_path) as f:
    raw = json.load(f)

times = {}
for b in raw.get("benchmarks", []):
    if b.get("run_type") == "aggregate":
        continue
    # UseRealTime() benchmarks carry a "/real_time" name suffix; key every
    # benchmark by its plain function name so the pairs below find it.
    times[b["name"].replace("/real_time", "")] = {
        "real_time_ns": b["real_time"],
        "cpu_time_ns": b["cpu_time"],
        "iterations": b["iterations"],
        "items_per_second": b.get("items_per_second"),
    }

# before/after pairs: the *Scalar benchmark re-implements the seed
# algorithm, its partner runs the shipped vectorized path.
PAIRS = {
    "dot_rows": ("BM_DotRowsScalar", "BM_DotRowsBatched"),
    "rbf_kernel_row": ("BM_RbfKernelRowScalar", "BM_RbfKernelRowNormTrick"),
    "rbf_predict_all": ("BM_RbfPredictAllScalar", "BM_RbfPredictAllBatched"),
    "knn_query": ("BM_KnnQueryScalar", "BM_KnnQueryBlocked"),
    "knn_coherence": ("BM_KnnCoherenceScalar", "BM_KnnCoherenceParallel"),
}

speedups = {}
for key, (before, after) in PAIRS.items():
    if before not in times or after not in times:
        continue
    b, a = times[before]["real_time_ns"], times[after]["real_time_ns"]
    speedups[key] = {
        "before_benchmark": before,
        "after_benchmark": after,
        "before_ns": b,
        "after_ns": a,
        "speedup": round(b / a, 3) if a > 0 else None,
    }

# Thread scaling, kept apart from the before/after pairs: one SGD epoch on
# a 1-thread pool vs the same epoch on the shared pool (nproc workers).
scaling = {}
for dims in (25, 100):
    one = times.get(f"BM_SgdEpoch/{dims}")
    shared = times.get(f"BM_SgdEpochShared/{dims}")
    if one is None or shared is None:
        continue
    scaling[f"sgd_epoch_d{dims}"] = {
        "one_thread_ns": one["real_time_ns"],
        "shared_pool_ns": shared["real_time_ns"],
        "scaling": round(one["real_time_ns"] / shared["real_time_ns"], 3),
    }

result = {
    "generated_by": "scripts/run_bench.sh",
    "nproc": os.cpu_count(),
    "config": {
        "items": 10000,
        "dims": 40,
        "support_vectors": 400,
        "coherence_queries": 48,
        "knn_k": 10,
        "context": raw.get("context", {}),
    },
    "speedups": speedups,
    "thread_scaling": scaling,
    "benchmarks": times,
}
with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")

print(f"wrote {out_path}")
for key, s in speedups.items():
    print(f"  {key}: {s['speedup']}x ({s['before_ns']:.0f} ns -> {s['after_ns']:.0f} ns)")
for key, s in scaling.items():
    print(f"  {key}: {s['scaling']}x on {os.cpu_count()} CPUs "
          f"({s['one_thread_ns']:.0f} ns -> {s['shared_pool_ns']:.0f} ns)")
EOF
