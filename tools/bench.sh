#!/bin/sh
# Perf baseline: build the optimised benches and record codec decode
# throughput (eager-equivalent vs lazy, MB/s + symbols/s) into
# BENCH_codec.json and event-core replay throughput (timer wheel vs the
# frozen seed heap on recorded cell traces) into BENCH_sched.json at the
# repo root, plus the scheduler microbench numbers on stdout.
#
#   tools/bench.sh [build-dir]      (default: build)
#
# FMTCP_FORCE_KERNEL=scalar|sse2|ssse3|avx2|neon pins the GF(2) and
# GF(256) kernels for the codec bench (sse2 is GF(256)'s scalar, ssse3 is
# GF(2)'s sse2; the bench records which kernels ran in the JSON).
# Forced runs write BENCH_codec.<kernel>.json instead of the committed
# baseline: BENCH_codec.json stays the native-dispatch floor the
# tools/check.sh guard compares against, and forced files sit beside it
# for kernel-vs-kernel comparison (see EXPERIMENTS.md).
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build}"

codec_json="$repo/BENCH_codec.json"
if [ -n "${FMTCP_FORCE_KERNEL:-}" ]; then
  codec_json="$repo/BENCH_codec.${FMTCP_FORCE_KERNEL}.json"
  echo "bench.sh: kernel forced to ${FMTCP_FORCE_KERNEL};" \
       "writing $codec_json"
fi

# The repo's default build type (RelWithDebInfo) — same config the
# committed BENCH_*.json numbers were recorded under.
cmake -B "$build" -S "$repo"
cmake --build "$build" -j "$(nproc)" --target \
  bench_sim_micro bench_codec_micro

# Codec decode-throughput baseline (tools/check.sh FMTCP_BENCH_GUARD=1
# compares future runs against this file). Three separate processes,
# merged elementwise-min: per-process heap layout shifts each case by a
# few percent, and the committed floor must be one a guard run on an
# idle box can always meet.
"$build/bench/bench_codec_micro" --json="$codec_json"
"$build/bench/bench_codec_micro" --json="$codec_json" --merge-min
"$build/bench/bench_codec_micro" --json="$codec_json" --merge-min

# Event-core replay baseline: records a real fmtcp and mptcp cell's
# scheduler operation trace, replays it with no-op callbacks on the
# timer wheel and the frozen seed heap, and writes the events/sec
# floors (same 3-pass elementwise-min policy as the codec bench).
# tools/check.sh FMTCP_BENCH_GUARD=1 guards against this file.
"$build/bench/bench_sim_micro" --json="$repo/BENCH_sched.json"
"$build/bench/bench_sim_micro" --json="$repo/BENCH_sched.json" --merge-min
"$build/bench/bench_sim_micro" --json="$repo/BENCH_sched.json" --merge-min

# Event-loop microbenches (scheduler churn, dispatch-profiling gate,
# full-stack simulated-second cost). Informational; not recorded.
"$build/bench/bench_sim_micro" --benchmark_min_time=0.2

echo "bench.sh: wrote $repo/BENCH_sched.json and $codec_json"
