#!/usr/bin/env bash
# Full verification ladder, in increasing cost:
#
#   1. lint gate (tools/lint.sh): per-file rules over the whole tree, then
#      the cross-file passes (include-graph layering, lock-order deadlock
#      detection, discarded-result, CFG dataflow, the interprocedural lock
#      & lifetime tier, untrusted-input taint) via
#      `alicoco_lint --project src`, leaving
#      build/lint/alicoco_lint.sarif for CI artifact upload
#   2. plain RelWithDebInfo build + full ctest, then the suite again with
#      ALICOCO_SIMD=scalar so the portable kernel tier stays covered on
#      AVX2 hardware
#   3. instrumented pipeline smoke: one probed obs_report run must exit 0
#      and leave a collapsed-stack profile, a trace and a Prometheus dump
#      carrying all nine per-stage attribution series (no timing gate:
#      clean timing is perfbench's, see BENCHMARK.json)
#   4. kernel smoke gate (bench_micro vs committed BENCH_kernels.json)
#   5. ASan+UBSan build + full ctest   (DCHECKs forced on), then an
#      explicit corrupted-checkpoint corpus replay: every deserializer
#      over the committed truncated/bit-flipped inputs in tests/corpus/
#   6. TSan build + threaded tests     (DCHECKs forced on)
#
# Any sanitizer report aborts the offending test (halt_on_error /
# -fno-sanitize-recover), so a non-zero ctest exit IS the sanitizer gate.
# Each ctest pass writes its own JUnit report to build/junit/<pass>.xml, so
# a later pass never overwrites the failure list of an earlier one.
# Usage: tools/ci.sh [--fast]   (--fast: skip the sanitizer builds)

set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[ "${1:-}" = "--fast" ] && FAST=1

JOBS="$(nproc 2>/dev/null || echo 4)"

step() { printf '\n==== %s ====\n' "$*"; }

step "lint"
tools/lint.sh
# Every registered rule must be able to explain itself (rationale +
# bad/good example); spot-check the newest rule's card renders.
build/tools/lint/alicoco_lint --explain libm-tanh >/dev/null

step "plain build + tests"
cmake --preset default >/dev/null
cmake --build --preset default -j "${JOBS}"
JUNIT="${PWD}/build/junit"
mkdir -p "${JUNIT}"
ctest --preset default --output-junit "${JUNIT}/plain.xml"

step "forced-scalar kernel tier + tests"
# Re-run the suite with the kernel dispatcher pinned to the portable tier,
# so CI covers the scalar kernels even on AVX2 hardware where CPUID would
# pick SIMD.
ALICOCO_SIMD=scalar ctest --preset default --output-junit "${JUNIT}/scalar.xml"

step "instrumented pipeline smoke"
# One probed run of the bench pipeline with every probe attached. Its
# times are perturbed by the probes, so nothing here compares them; the
# step checks that the run completes and that attribution reaches its
# outputs. obs_report creates its --outdir, so the run directory is left
# for it to make.
rm -rf build/obs/run
build/bench/obs_report --outdir build/obs/run
test -s build/obs/run/profile.collapsed
test -s build/obs/run/trace.jsonl
test -s build/obs/run/metrics.prom
stages="$(grep -c '^attribution_allocs{stage="' build/obs/run/metrics.prom || true)"
if [ "${stages}" -ne 9 ]; then
  echo "expected 9 attribution_allocs series in metrics.prom, found ${stages}"
  exit 1
fi

step "kernel smoke gate"
# Deterministic kernel/fused-op/parallel-train timings vs the committed
# BENCH_kernels.json: each entry is the median of five timings, and one
# beyond 2x baseline + slack fails.
build/bench/bench_micro --kernels-out build/obs/BENCH_kernels.json \
  --baseline BENCH_kernels.json --max-regress 2.0 --slack-us 200

if [ "${FAST}" -eq 1 ]; then
  echo "--fast: skipping sanitizer builds"
  exit 0
fi

step "ASan + UBSan build + tests"
cmake --preset asan >/dev/null
cmake --build --preset asan -j "${JOBS}"
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --preset asan --output-junit "${JUNIT}/asan.xml"

step "corrupted-checkpoint corpus replay (ASan)"
# Replays tests/corpus/ — truncated, bit-flipped, and oversized-count
# inputs for every deserializer (kg snapshot, nn checkpoint, JSON reader)
# — under ASan explicitly, so a corrupt-input regression is named by the
# gate that catches it.
ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  ctest --preset asan -R CorpusReplay --output-on-failure \
    --output-junit "${JUNIT}/asan-corpus.xml"

step "TSan build + threaded tests"
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "${JOBS}"
# The threaded surface: the thread pool (incl. the race stress suite), the
# observability registry/tracer stress suite, the profiling-tier stress
# suite (sample ring, instrumented mutex, flight recorder), the per-thread
# graph arenas, the trainers that fan out over the pool, the knowledge
# matcher's per-thread concept-side memo (KnowledgeMatchingRaceTest scores
# concept-grouped pairs from the pool, as stage 7 does), the serving apps
# shared by concurrent clients, and one full AliCoCoBuilder::Build
# (PipelineTest.AllStagesProduceStructure runs the shared Build): its
# trainers on the build's pool, stage-7 scoring whose workers read the net
# and record into the matcher's latency histogram, and the pool metrics.
# Running the full suite under TSan works too but takes far longer for no
# extra thread coverage.
TSAN_OPTIONS="halt_on_error=1" \
  ctest --preset tsan -R 'ThreadPool|ObsRace|ProfRace|LockStats|LockContentionMetrics|GraphArena|Training|Skipgram|Classifier|Matching|Tagger|Projection|AppsRace|PipelineTest\.AllStagesProduceStructure' \
    --output-junit "${JUNIT}/tsan.xml"

step "all green"
