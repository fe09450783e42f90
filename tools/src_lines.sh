#!/usr/bin/env bash
# Prints the line counts ROADMAP.md tracks next to throughput: every C++
# source under src/ (tests live in tests/, so this is the non-test code),
# the observability layer under src/obs, src/core/faster.h, the store's
# op engine, and the benchmark and tool code: bench/ (*.h, *.cc) and
# tools/ (*.h, *.cc, *.py, *.sh; its lint_fixtures/ are test inputs).
#
# Usage: tools/src_lines.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# count DIR [find predicates...]: lines of the files under DIR that match.
count() {
  local dir=$1
  shift
  find "$dir" "$@" -type f -print0 | xargs -0 cat | wc -l
}

cpp=(\( -name '*.h' -o -name '*.cc' \))
echo "src_lines: non-test src/ (*.h, *.cc): $(count src "${cpp[@]}")"
echo "src_lines: src/obs: $(count src/obs "${cpp[@]}")"
echo "src_lines: src/core/faster.h: $(wc -l < src/core/faster.h)"
echo "src_lines: bench/ (*.h, *.cc): $(count bench "${cpp[@]}")"
echo "src_lines: tools/ (*.h, *.cc, *.py, *.sh): $(count tools \
  -path tools/lint_fixtures -prune -o \( -name '*.h' -o -name '*.cc' \
  -o -name '*.py' -o -name '*.sh' \))"
