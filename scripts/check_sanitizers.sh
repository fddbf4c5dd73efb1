#!/usr/bin/env bash
# Memory-safety gate: configures a separate build tree with AddressSanitizer
# and UndefinedBehaviorSanitizer (-DESHARP_SANITIZE=address,undefined, plus
# libstdc++'s bounds-checked containers via -D_GLIBCXX_ASSERTIONS) and runs
# the test suite against it. Any ASan report fails its test; UBSan is made
# fatal too (halt_on_error), so undefined behaviour such as a null pointer
# handed to memcpy fails the gate instead of scrolling past.
#
# The `bench` label (the bench binaries' smoke runs) is excluded: those runs
# enforce timing floors and overhead budgets, which a sanitized build misses
# by design (ASan slows code 2-3x), and the code they run is the code the
# tests already cover.
#
# Usage: scripts/check_sanitizers.sh [build_dir]   (default: build-asan)
set -eu

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build-asan}"

echo "== configure (-DESHARP_SANITIZE=address,undefined) -> $BUILD_DIR"
cmake -B "$BUILD_DIR" -S "$REPO_ROOT" -DESHARP_SANITIZE=address,undefined \
  -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS

echo "== build"
cmake --build "$BUILD_DIR" -j "$(nproc)"

echo "== ctest (all but the bench smokes, ASan + UBSan)"
cd "$BUILD_DIR"
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ctest --output-on-failure -j "$(nproc)" -LE bench

echo "check_sanitizers: ASan/UBSan build is clean"
