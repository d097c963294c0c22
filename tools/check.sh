#!/bin/sh
# Smoke check: build with AddressSanitizer + UBSan and run the full test
# suite, then a short instrumented simulation. Catches memory errors the
# regular RelWithDebInfo build will not.
#
#   tools/check.sh [build-dir]          (default: build-asan)
#
# FMTCP_TSAN=1 tools/check.sh [build-dir]   (default: build-tsan)
#   builds with ThreadSanitizer instead and exercises the concurrent
#   paths: thread pool, parallel sweeps, packet-uid streams. TSan and
#   ASan cannot be combined, so this is a separate mode/build dir.
#
# FMTCP_BENCH_GUARD=1 tools/check.sh [build-dir]   (default: build)
#   perf-regression mode: builds the regular optimised config, runs the
#   bench_codec_micro decode-throughput harness and the bench_sim_micro
#   event-core replay harness, and fails if any case regressed more
#   than 20% against the committed BENCH_codec.json / BENCH_sched.json
#   baselines. Skipped by default — wall-clock numbers are only
#   meaningful on a quiet machine comparable to the baseline's.
#
# FMTCP_STATIC=1 tools/check.sh [build-dir]   (default: build-static)
#   static-analysis mode, three legs (docs/ARCHITECTURE.md "Static
#   analysis"):
#     1. determinism lint (tools/lint_determinism.py) — self-test, then
#        the result-affecting src/ tree must be clean;
#     2. clang -Werror=thread-safety build over the annotations in
#        common/thread_annotations.h (FMTCP_THREAD_SAFETY=ON);
#     3. clang-tidy over the full compile database (.clang-tidy).
#   Legs 2 and 3 need a clang toolchain; on a machine without one they
#   SKIP loudly (the lint still gates). CI runs all three.
set -eu

repo="$(cd "$(dirname "$0")/.." && pwd)"

# First available binary from the argument list, tried bare and with the
# version suffixes recent distros ship (-20 ... -14); empty if none.
find_tool() {
  for base in "$@"; do
    for suffix in "" -20 -19 -18 -17 -16 -15 -14; do
      if command -v "$base$suffix" > /dev/null 2>&1; then
        echo "$base$suffix"
        return 0
      fi
    done
  done
  return 0
}

if [ "${FMTCP_STATIC:-0}" = "1" ]; then
  build="${1:-$repo/build-static}"
  status=0

  echo "== static leg 1/3: determinism lint =="
  python3 "$repo/tools/lint_determinism.py" --self-test --root "$repo"
  python3 "$repo/tools/lint_determinism.py" --root "$repo"

  clangxx="$(find_tool clang++)"
  echo "== static leg 2/3: clang thread-safety build =="
  if [ -n "$clangxx" ]; then
    cmake -B "$build" -S "$repo" -DCMAKE_CXX_COMPILER="$clangxx" \
      -DFMTCP_THREAD_SAFETY=ON -DFMTCP_WERROR=ON
    cmake --build "$build" -j "$(nproc)"
  else
    echo "SKIP: no clang++ on PATH — -Werror=thread-safety needs clang." >&2
    status=1
  fi

  tidy="$(find_tool clang-tidy)"
  echo "== static leg 3/3: clang-tidy =="
  if [ -n "$tidy" ]; then
    # The thread-safety build above exported the compile database; fall
    # back to a plain configure when leg 2 was skipped.
    if [ ! -f "$build/compile_commands.json" ]; then
      cmake -B "$build" -S "$repo"
    fi
    runner="$(find_tool run-clang-tidy run-clang-tidy.py)"
    if [ -n "$runner" ]; then
      "$runner" -clang-tidy-binary "$tidy" -p "$build" -quiet \
        "$repo/(src|tests|bench|tools|examples)/"
    else
      # No run-clang-tidy wrapper: drive clang-tidy over every TU in the
      # compile database ourselves.
      python3 -c "import json,sys;  \
        [print(e['file']) for e in json.load(open(sys.argv[1]))]" \
        "$build/compile_commands.json" |
        xargs -P "$(nproc)" -n 8 "$tidy" -p "$build" -quiet
    fi
  else
    echo "SKIP: no clang-tidy on PATH." >&2
    status=1
  fi

  if [ "$status" -ne 0 ]; then
    echo "check.sh (static): lint clean; clang legs SKIPPED (no clang" \
      "toolchain here — run on a machine with clang, e.g. the CI" \
      "static job, for full coverage)"
  else
    echo "check.sh (static): all good"
  fi
  exit 0
fi

if [ "${FMTCP_BENCH_GUARD:-0}" = "1" ]; then
  build="${1:-$repo/build}"
  cmake -B "$build" -S "$repo"
  cmake --build "$build" -j "$(nproc)" --target \
    bench_codec_micro bench_sim_micro
  "$build/bench/bench_codec_micro" --guard="$repo/BENCH_codec.json" \
    --max-regression=0.20
  "$build/bench/bench_sim_micro" --guard="$repo/BENCH_sched.json" \
    --max-regression=0.20
  echo "check.sh (bench guard): all good"
  exit 0
fi

if [ "${FMTCP_TSAN:-0}" = "1" ]; then
  build="${1:-$repo/build-tsan}"
  cmake -B "$build" -S "$repo" -DFMTCP_SANITIZE=thread \
    -DFMTCP_WERROR=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$build" -j "$(nproc)"

  # The concurrency surface: pool, sweep determinism, uid streams, span
  # tracer cross-thread drains — plus a traced parallel sweep under
  # load. Everything else is single-threaded by construction and
  # covered by the ASan mode.
  (cd "$build" && ctest --output-on-failure -j "$(nproc)" \
    -R 'ThreadPool|SweepRunner|Sweep\.|PacketUid|UidsUnique|GlobalUids|SpanTracer')
  "$build/tools/fmtcp_sim" --seeds=4 --jobs=4 --duration=2 \
    --obs-dir="$build/check_obs_seeds"
  "$build/tools/trace_summary" "$build/check_obs_seeds/spans.json"
  python3 -m json.tool "$build/check_obs_seeds/spans.json" > /dev/null

  echo "check.sh (tsan): all good"
  exit 0
fi

build="${1:-$repo/build-asan}"

cmake -B "$build" -S "$repo" -DFMTCP_SANITIZE=address,undefined \
  -DFMTCP_WERROR=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$build" -j "$(nproc)"

(cd "$build" && ctest --output-on-failure -j "$(nproc)")

# A short observability-instrumented run exercises the JSONL/JSON
# writers under the sanitizers too, and spans.json must parse as valid
# JSON (Perfetto/chrome://tracing compatibility).
"$build/tools/fmtcp_sim" --protocol=fmtcp --loss2=0.15 --duration=5 \
  --obs-dir="$build/check_obs" --profile
"$build/tools/trace_summary" "$build/check_obs/timeline.jsonl"
"$build/tools/trace_summary" "$build/check_obs/spans.json"
python3 -m json.tool "$build/check_obs/spans.json" > /dev/null
python3 -m json.tool "$build/check_obs/metrics.json" > /dev/null

# The GF(256) ablation codec end to end under the sanitizers: once on
# the host-dispatched multiply kernel, once pinned to scalar (results
# must not depend on the kernel; ctest's *_scalar_kernel legs cover the
# suites, this covers the full protocol path).
"$build/tools/fmtcp_sim" --protocol=fmtcp --coding=gf256 --loss2=0.15 \
  --duration=5 > /dev/null
FMTCP_FORCE_KERNEL=scalar "$build/tools/fmtcp_sim" --protocol=fmtcp \
  --coding=gf256 --loss2=0.15 --duration=5 > /dev/null

# Grid-sweep determinism smoke: a small grid must stream byte-identical
# JSONL at any job count, and resuming from a torn file (half the lines
# plus a truncated tail) must reproduce the same bytes without
# recomputing the completed prefix.
grid_flags="--grid-loss=0,0.05 --grid-delay2=50,100 \
  --grid-delay1=100 --grid-blocks=64 --grid-seeds=1 --seconds=1"
"$build/bench/bench_sweep" $grid_flags --jobs=1 \
  --out="$build/check_grid_serial.jsonl" > /dev/null
"$build/bench/bench_sweep" $grid_flags --jobs=2 \
  --out="$build/check_grid_pooled.jsonl" > /dev/null
cmp "$build/check_grid_serial.jsonl" "$build/check_grid_pooled.jsonl"
{ head -n 2 "$build/check_grid_serial.jsonl";
  head -n 3 "$build/check_grid_serial.jsonl" | tail -n 1 | cut -c1-20; } \
  > "$build/check_grid_resume.jsonl"
"$build/bench/bench_sweep" $grid_flags --jobs=2 --resume \
  --out="$build/check_grid_resume.jsonl" > /dev/null
cmp "$build/check_grid_serial.jsonl" "$build/check_grid_resume.jsonl"

echo "check.sh: all good"
