#!/usr/bin/env bash
# Static-analysis gate.
#
#   tools/lint.sh [build-dir]
#
# Two layers:
#   1. alicoco_lint, the in-repo analyzer (tools/lint/): lexer-aware banned
#      patterns, include hygiene, determinism rules, and lock discipline,
#      with findings as stable `file:line:rule-id: message` lines and the
#      checked-in suppression file tools/lint/suppressions.txt. Built on
#      demand; this is the authoritative layer. Runs twice: the per-file
#      tree walk, then whole-program mode (--project src), which analyses
#      every file from source and runs the include-graph, lock-order,
#      discarded-result, dataflow, interprocedural and taint passes,
#      writing SARIF to <build-dir>/lint/alicoco_lint.sarif.
#   2. clang-tidy over every first-party translation unit, driven by the
#      compile_commands.json in the build dir (default: build/). Skipped
#      with a warning when clang-tidy is not installed; CI installs only
#      g++, so this layer does not run there.
#
# Without cmake or a C++ compiler alicoco_lint cannot be built, so the gate
# fails at once with one line naming the missing tool.
#
# Exit status 0 iff every layer that ran is clean.

set -u
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
FAIL=0

note() { printf '%s\n' "$*"; }
fail() { printf 'LINT FAIL: %s\n' "$*"; FAIL=1; }

# ---- Layer 1: alicoco_lint ----------------------------------------------

have() { command -v "$1" >/dev/null 2>&1; }
missing() { printf 'LINT FAIL: %s not found; alicoco_lint cannot be built\n' "$1"; exit 1; }
have cmake || missing cmake
have c++ || have g++ || have clang++ || missing "a C++ compiler (c++, g++, clang++)"

if [ ! -f "${BUILD_DIR}/CMakeCache.txt" ]; then
  note "configuring ${BUILD_DIR}..."
  cmake -B "${BUILD_DIR}" -S . >/dev/null || fail "cmake configure"
fi
if [ -f "${BUILD_DIR}/CMakeCache.txt" ]; then
  note "building alicoco_lint..."
  if cmake --build "${BUILD_DIR}" --target alicoco_lint -j >/dev/null; then
    if ! "${BUILD_DIR}/tools/lint/alicoco_lint" --root .; then
      fail "alicoco_lint reported findings"
    fi
    mkdir -p "${BUILD_DIR}/lint"
    note "running project passes (include-graph, lock-order, discarded-result, dataflow, interprocedural, taint)..."
    if ! "${BUILD_DIR}/tools/lint/alicoco_lint" --root . --project src \
        --sarif "${BUILD_DIR}/lint/alicoco_lint.sarif" --stats; then
      fail "alicoco_lint --project src reported findings"
    fi
  else
    fail "alicoco_lint failed to build"
  fi
fi

# ---- Layer 2: clang-tidy ------------------------------------------------

if command -v clang-tidy >/dev/null 2>&1; then
  if [ ! -f "${BUILD_DIR}/compile_commands.json" ]; then
    note "configuring ${BUILD_DIR} to produce compile_commands.json..."
    cmake -B "${BUILD_DIR}" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null \
      || { fail "cmake configure for compile_commands.json"; }
  fi
  if [ -f "${BUILD_DIR}/compile_commands.json" ]; then
    # All first-party TU roots; tests are covered by the analyzer layer and
    # excluded here because gtest macros drown clang-tidy in noise.
    mapfile -t TIDY_SRCS < <(find src bench examples tools/lint \
      -name fixtures -prune -o \( -name '*.cc' -o -name '*.cpp' \) -print \
      | sort)
    note "clang-tidy over ${#TIDY_SRCS[@]} translation units..."
    if ! clang-tidy -p "${BUILD_DIR}" --quiet "${TIDY_SRCS[@]}"; then
      fail "clang-tidy reported findings"
    fi
  fi
else
  note "clang-tidy not found; skipping the clang-tidy layer"
fi

if [ "$FAIL" -eq 0 ]; then
  note "lint: clean"
else
  note "lint: FAILED"
fi
exit "$FAIL"
