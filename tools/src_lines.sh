#!/usr/bin/env bash
# Prints the line counts ROADMAP.md tracks next to throughput: every C++
# source under src/ (tests live in tests/, so this is the non-test code),
# the observability layer under src/obs, and src/core/faster.h, the
# store's op engine.
#
# Usage: tools/src_lines.sh
set -euo pipefail

cd "$(dirname "$0")/.."

src_lines=$(find src -type f \( -name '*.h' -o -name '*.cc' \) -print0 |
  xargs -0 cat | wc -l)
obs_lines=$(find src/obs -type f \( -name '*.h' -o -name '*.cc' \) -print0 |
  xargs -0 cat | wc -l)
faster_h_lines=$(wc -l < src/core/faster.h)
echo "src_lines: non-test src/ (*.h, *.cc): ${src_lines}"
echo "src_lines: src/obs: ${obs_lines}"
echo "src_lines: src/core/faster.h: ${faster_h_lines}"
