#!/usr/bin/env bash
# Local mirror of the CI matrix (.github/workflows/ci.yml): builds and runs
# ctest in the three configurations the project gates on.
#
#   release     -O2, -Werror, full ctest suite (including long-labeled tests)
#               + benchsuite/run.py --smoke
#   tsan        FASTER_SANITIZE=thread, ctest minus long/model tests
#   asan        FASTER_SANITIZE=address,undefined, ctest minus long/model
#   epochcheck  FASTER_EPOCH_CHECK=ON — runtime epoch/region verifier,
#               full suite incl. the epoch_check_test death tests
#   threadsafety  clang build of faster_core with -Wthread-safety -Werror
#               plus tools/check_thread_safety.sh (SKIPs without clang)
#   static      lint_atomics + clang-tidy + diff clang-format (the clang
#               tools SKIP when not installed; the linter always runs)
#   model       model-checker lane: bounded-exhaustive interleaving tests
#               (ctest -L model) + the bounded memory-order mutation pass
#               (tools/model_mutate.py --bounded)
#
# Usage:
#   tools/run_matrix.sh            # run every configuration
#   tools/run_matrix.sh tsan       # run a single configuration
#   JOBS=4 tools/run_matrix.sh     # bound build/test parallelism
#
# Build trees live in build-<config>/ (gitignored). ccache is used when
# available. Exits non-zero on the first failing configuration.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${JOBS:-$(nproc)}"
CONFIGS=("${@:-release tsan asan epochcheck threadsafety static model}")
# Word-split a possible single "release tsan asan" default.
read -r -a CONFIGS <<< "${CONFIGS[*]}"

LAUNCHER_ARGS=()
if command -v ccache > /dev/null 2>&1; then
  LAUNCHER_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

# Prints the ccache hit rate for the work since `ccache -z` (no-op when
# ccache is absent). CI mirrors this into the job summary.
ccache_report() {
  local config="$1"
  if command -v ccache > /dev/null 2>&1; then
    echo "=== [${config}] ccache ==="
    ccache -s | grep -Ei 'hit|miss|cache size' || ccache -s
  fi
}

run_config() {
  local config="$1"
  local build_dir="build-${config}"
  local cmake_args=(-DFASTER_WERROR=ON "${LAUNCHER_ARGS[@]}")
  local ctest_args=(--output-on-failure -j "${JOBS}")
  local -a env_prefix=(env)

  # Tool configurations that are not a build+ctest cycle.
  case "${config}" in
    threadsafety)
      local clangxx="${CLANGXX:-clang++}"
      if ! command -v "${clangxx}" > /dev/null 2>&1; then
        echo "=== [${config}] SKIP (no ${clangxx}; set CLANGXX=...) ==="
        return 0
      fi
      echo "=== [${config}] configure (clang, -Wthread-safety) ==="
      cmake -B "${build_dir}" -S . "${cmake_args[@]}" \
        -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_COMPILER="${clangxx}" \
        -DFASTER_THREAD_SAFETY=ON
      echo "=== [${config}] build faster_core ==="
      cmake --build "${build_dir}" -j "${JOBS}" --target faster_core
      echo "=== [${config}] harness / violation TUs ==="
      CLANGXX="${clangxx}" tools/check_thread_safety.sh
      ccache_report "${config}"
      echo "=== [${config}] OK ==="
      return 0
      ;;
    static)
      echo "=== [${config}] lint_atomics self-test ==="
      python3 tools/lint_atomics.py --self-test
      echo "=== [${config}] lint_atomics (src) ==="
      python3 tools/lint_atomics.py --mode regex src
      # clang-tidy wants a compilation database; configuring is enough
      # (CMAKE_EXPORT_COMPILE_COMMANDS is always on).
      if command -v clang-tidy > /dev/null 2>&1; then
        cmake -B "${build_dir}" -S . "${cmake_args[@]}" \
          -DCMAKE_BUILD_TYPE=Release > /dev/null
        echo "=== [${config}] clang-tidy ==="
        tools/run_tidy.sh "${build_dir}"
      else
        echo "=== [${config}] clang-tidy SKIP (not installed) ==="
      fi
      echo "=== [${config}] clang-format (diff-only) ==="
      tools/check_format.sh "${FORMAT_BASE:-HEAD~1}"
      echo "=== [${config}] OK ==="
      return 0
      ;;
    model)
      echo "=== [${config}] configure ==="
      cmake -B "${build_dir}" -S . "${cmake_args[@]}" \
        -DCMAKE_BUILD_TYPE=Release
      echo "=== [${config}] build model suite ==="
      cmake --build "${build_dir}" -j "${JOBS}" --target faster_model_tests
      # -j1: the runtime appends per-exploration stats rows to one shared
      # CSV; serial execution keeps the rows whole.
      echo "=== [${config}] model suite (bounded-exhaustive) ==="
      (cd "${build_dir}" &&
        FASTER_MODEL_STATS_FILE="$(pwd)/model_stats.csv" \
          ctest --output-on-failure -L model -j1)
      echo "=== [${config}] mutation pass (bounded) ==="
      python3 tools/model_mutate.py --bounded \
        --bindir "${build_dir}/tests/model"
      ccache_report "${config}"
      echo "=== [${config}] OK ==="
      return 0
      ;;
  esac

  case "${config}" in
    release)
      cmake_args+=(-DCMAKE_BUILD_TYPE=Release -DFASTER_SANITIZE=off)
      ;;
    tsan)
      cmake_args+=(-DCMAKE_BUILD_TYPE=Release -DFASTER_SANITIZE=thread)
      # halt_on_error: fail the test, not just print. suppressions: the
      # checked-in list of justified benign races.
      env_prefix+=("TSAN_OPTIONS=halt_on_error=1 second_deadlock_stack=1 \
suppressions=$(pwd)/tsan.supp history_size=7")
      # model excluded: the checker multiplexes coroutines on one OS
      # thread, so TSan sees no concurrency (zero signal) and its
      # instrumentation makes bounded-exhaustive exploration 20-50x
      # slower. The suite runs natively in release/epochcheck/model.
      ctest_args+=(-LE "long|model")
      ;;
    asan)
      cmake_args+=(-DCMAKE_BUILD_TYPE=Release "-DFASTER_SANITIZE=address,undefined")
      env_prefix+=("ASAN_OPTIONS=detect_stack_use_after_return=1" \
                   "UBSAN_OPTIONS=print_stacktrace=1")
      # model excluded for the same cost reason as tsan, plus ASan's
      # stack machinery needs fiber annotations the ucontext scheduler
      # does not emit.
      ctest_args+=(-LE "long|model")
      ;;
    epochcheck)
      # Full suite — the verifier must not misfire on any legal path, and
      # epoch_check_test's death tests only run in this configuration.
      cmake_args+=(-DCMAKE_BUILD_TYPE=Release -DFASTER_SANITIZE=off
                   -DFASTER_EPOCH_CHECK=ON)
      ;;
    *)
      echo "unknown config '${config}'" \
           "(expected release|tsan|asan|epochcheck|threadsafety|static|model)" >&2
      return 2
      ;;
  esac

  echo "=== [${config}] configure ==="
  cmake -B "${build_dir}" -S . "${cmake_args[@]}"
  echo "=== [${config}] build ==="
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "=== [${config}] test ==="
  (cd "${build_dir}" && "${env_prefix[@]}" ctest "${ctest_args[@]}")
  if [[ "${config}" == release ]]; then
    echo "=== [${config}] benchmark smoke ==="
    python3 benchsuite/run.py --smoke
  fi
  ccache_report "${config}"
  echo "=== [${config}] OK ==="
}

for config in "${CONFIGS[@]}"; do
  run_config "${config}"
done
echo "=== matrix complete: ${CONFIGS[*]} ==="
